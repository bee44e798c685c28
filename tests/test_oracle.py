import cmath
import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from indicyl import fields, indicial, oracle
from indicyl.oracle import (
    OdeSystem,
    companion_roots,
    compare_root_sets,
    clustered_multiset,
    flat_mode_pencil,
    matrix_a,
    matrixA_system,
    ode_mixed_b,
    ode_tt_branch,
    pencil_roots,
)


def as_sorted(vals):
    return sorted((complex(v) for v in vals), key=lambda z: (z.real, z.imag))


# ---------------------------------------------------------------------------
# Companion roots
# ---------------------------------------------------------------------------


def test_companion_simple_quadratic():
    # f'' - 9 f = 0
    ode = OdeSystem((np.array([[-9.0]]), np.array([[0.0]]), np.array([[1.0]])))
    got = as_sorted(companion_roots(ode))
    assert abs(got[0] + 3) < 1e-12 and abs(got[1] - 3) < 1e-12


def test_companion_tt_branch_example():
    # -(1/2) f'' + 3 f' - 4 f = 0 has roots 2 and 4 by the quadratic formula.
    got = as_sorted(companion_roots(ode_tt_branch(6.0, 1, +1)))
    assert abs(got[0] - 2) < 1e-12 and abs(got[1] - 4) < 1e-12


def test_companion_drops_infinite_roots_of_singular_leading():
    # det(I + lam I + lam^2 diag(1, 0)) = (1 + lam + lam^2)(1 + lam): the
    # singular leading block leaves three finite roots and one infinite one.
    ode = OdeSystem((np.eye(2), np.eye(2), np.diag([1.0, 0.0])))
    got = list(companion_roots(ode))
    w = cmath.exp(2j * math.pi / 3)
    assert len(got) == 3
    # Pair each expected root with its nearest computed one: w and its
    # conjugate share a real part, so a sorted order can swap them.
    for e in (-1.0, w, w.conjugate()):
        nearest = min(got, key=lambda g: abs(g - e))
        assert abs(nearest - e) < 1e-12
        got.remove(nearest)


@pytest.mark.parametrize("singular", [False, True])
def test_companion_singular_lead_boundary(monkeypatch, singular):
    # A 1x1 leading block (d) is singular when |det| < _SINGULAR_LEAD_TOL
    # (its norm is below 1).  LAPACK's det of it need not be d exactly, so
    # the boundary is found by stepping d down from the tolerance: at the
    # largest singular d the shifted pencil is solved; one float above it
    # the companion matrix is inverted.  Either way the one root is -1/d.
    limit = oracle._SINGULAR_LEAD_TOL

    def det(x):
        return abs(np.linalg.det(np.array([[x]], dtype=complex)))

    d = limit
    while not det(d) < limit:
        d = math.nextafter(d, 0.0)
    assert det(math.nextafter(d, 1.0)) >= limit
    if not singular:
        d = math.nextafter(d, 1.0)
    solves = []
    solve = np.linalg.solve
    monkeypatch.setattr(np.linalg, "solve", lambda *a: solves.append(a) or solve(*a))
    (root,) = companion_roots(OdeSystem((np.eye(1), np.array([[d]]))))
    assert len(solves) == int(singular)
    assert abs(root + 1.0 / d) <= 1e-9 / d


@pytest.mark.parametrize(
    "build",
    [
        lambda x: matrix_a(x, 1),
        lambda x: ode_tt_branch(x, 0, +1),
        lambda x: ode_mixed_b(x, 1),
    ],
    ids=["matrix-a", "tt-branch", "mixed-b"],
)
def test_eigenvalue_guards_accept_rounding_below_zero(build):
    # An eigenvalue (for a TT branch at kappa = 0, lam + 3 kappa = lam) down
    # to -_BELOW_ZERO_TOL is taken; one float below it is refused.
    limit = -oracle._BELOW_ZERO_TOL
    build(limit)
    with pytest.raises(ValueError):
        build(math.nextafter(limit, -1.0))


@pytest.mark.parametrize("c", [0.0, 0.5, 4.0])
def test_cluster_tolerance_boundary(c):
    # A root at distance _CLUSTER_TOL * max(1, |c|) from a cluster's first
    # root c joins it; one float farther it starts a cluster of its own.
    # The offset is imaginary, so that the distance is exactly t.
    limit = oracle._CLUSTER_TOL * max(1.0, abs(c))
    assert oracle.cluster_roots(np.array([c, c + 1j * limit])) == [(complex(c, limit / 2), 2)]
    t = math.nextafter(limit, math.inf)
    assert oracle.cluster_roots(np.array([c, c + 1j * t])) == [(complex(c), 1), (complex(c, t), 1)]


def test_mixed_b_companion():
    got = as_sorted(companion_roots(ode_mixed_b(9.0, 1)))
    r5 = math.sqrt(5)
    assert abs(got[0] + r5) < 1e-12 and abs(got[1] - r5) < 1e-12


# ---------------------------------------------------------------------------
# The explicit 4x4 mixed system
# ---------------------------------------------------------------------------


def test_matrix_a_shape_and_entries():
    A = matrix_a(8.0, 1)
    assert A.shape == (4, 4)
    assert A[1, 0] == pytest.approx(16.0 / 3.0)
    assert A[1, 3] == pytest.approx(8.0 / 3.0)
    assert A[3, 1] == -0.5
    assert A[3, 2] == pytest.approx(1.5 * 8 - 4)


def test_matrix_a_eigenvalues_mu0():
    vals = as_sorted(np.linalg.eigvals(matrix_a(0.0, 1)))
    expected = as_sorted([0, 0, 2j, -2j])
    for v, e in zip(vals, expected):
        assert abs(v - e) < 1e-9


def test_matrix_a_eigenvalues_mu3():
    vals = clustered_multiset(np.linalg.eigvals(matrix_a(3.0, 1)))
    expected = [-1, -1, 1, 1]
    cmp = compare_root_sets(expected, vals, 1e-9)
    assert cmp.matched


def test_matrix_a_vs_closed_form_mu8():
    vals = clustered_multiset(companion_roots(matrixA_system(8.0, 1)))
    ap, am = indicial.alpha_pm(8.0, 1)
    cmp = compare_root_sets([ap, -ap, am, -am], vals, 1e-9)
    assert cmp.matched and cmp.max_mismatch < 1e-9


@pytest.mark.parametrize("kappa", [-1, 0, 1])
def test_matrix_a_grid_vs_closed_form(kappa):
    worst = 0.0
    for mu in range(0, 49):
        ap, am = indicial.alpha_pm(float(mu), kappa)
        expected = clustered_multiset([ap, -ap, am, -am])
        actual = clustered_multiset(np.linalg.eigvals(matrix_a(float(mu), kappa)))
        cmp = compare_root_sets(expected, actual, 1e-9)
        assert cmp.matched, (mu, kappa, expected, actual)
        worst = max(worst, cmp.max_mismatch)
    assert worst < 1e-9


# ---------------------------------------------------------------------------
# Flat mode pencil
# ---------------------------------------------------------------------------


_SYM_PAIRS = ((0, 0), (1, 1), (2, 2), (0, 1), (0, 2), (1, 2))
_TF_PICK = ((0, 0), (1, 1), (0, 1), (0, 2), (1, 2))


def _grid_mode_matrix(grid, k, lam):
    """Oracle for one pencil evaluation: embed the 9 reduced basis tensors
    of mode k in a mode box, push each through the field calculus at rate
    lam, and read the 5 trace-free curvature rows and 4 divergence rows."""
    idx = tuple(grid.band + ki for ki in k)
    M = np.zeros((9, 9), dtype=complex)
    columns = []
    for i in range(3):
        alpha = fields.FourierOneForm.zero(grid)
        alpha.data[(i,) + idx] = 1.0
        columns.append({"alpha": alpha})
    for i, j in _SYM_PAIRS:
        h = fields.FourierSymTensor.zero(grid)
        h.data[(i, j) + idx] = h.data[(j, i) + idx] = 1.0
        h00 = fields.FourierScalar.zero(grid)
        h00.data[idx] = -np.trace(h.data[(slice(None), slice(None)) + idx])
        columns.append({"h00": h00, "h": h})
    for col, parts in enumerate(columns):
        ht = fields.CylTensor(grid)
        ht.add_term(lam, 0, **parts)
        dpart, divpart = fields.f_forward(ht)
        for (_, d), slot in dpart.terms.items():
            assert d == 0, "exponential input produced polynomial output"
            for r, (i, j) in enumerate(_TF_PICK):
                M[r, col] += slot["h"].data[(i, j) + idx]
        for slot in divpart.terms.values():
            M[5, col] += slot["f"].data[idx]
            M[6:, col] += slot["omega"].data[(slice(None),) + idx]
    return M


def _grid_mode_pencil(k, lengths=(2 * math.pi,) * 3):
    """The pencil coefficients (m0, m1, m2) from evaluations at lam = 0, +-1
    on a (2|k|+1)^3 mode box."""
    grid = fields.ModeGrid(lengths, band=max(1, max(abs(x) for x in k)))
    m0, mp, mm = (_grid_mode_matrix(grid, k, lam) for lam in (0.0, 1.0, -1.0))
    return m0, 0.5 * (mp - mm), 0.5 * (mp + mm) - m0


@pytest.mark.parametrize(
    "k, lengths",
    [(k, (2 * math.pi,) * 3) for k in [(0, 0, 0), (1, 0, 0), (1, 1, 1), (3, 2, 1), (7, 0, 0), (5, 4, 3)]]
    + [((0, 1, 0), (6.0, 7.5, 9.1)), ((5, 4, 3), (6.0, 7.5, 9.1))],
)
def test_pencil_matches_grid_mode_reduction(k, lengths):
    got = flat_mode_pencil(k, lengths).mats
    want = _grid_mode_pencil(k, lengths)
    assert len(got) == 3
    scale = max(np.abs(m).max() for m in want)
    for g, w in zip(got, want):
        assert g.shape == (9, 9)
        assert np.abs(g - w).max() <= 1e-12 * scale


@pytest.mark.parametrize(
    "lengths",
    [(0.0, 1.0, 1.0), (1.0, -2.0, 1.0), (math.inf, 2 * math.pi, 2 * math.pi), (1.0, math.nan, 1.0)],
)
def test_pencil_rejects_nonpositive_lengths(lengths):
    with pytest.raises(ValueError, match="lattice side lengths must be positive and finite"):
        flat_mode_pencil((1, 0, 0), lengths)


def test_singular_lead_solve_agrees_with_qz():
    """scipy's QZ on the companion pencil is the witness of the shift-invert
    solve on the flat mode pencils with |k|^2 <= 9 on three tori: the same
    clusters within 1e-12 and the same Jordan flags, and every |mu| / max|mu|
    at least 4 decades from the dropping threshold."""
    import scipy.linalg

    ks = [k for k in itertools.product(range(-3, 4), repeat=3) if sum(x * x for x in k) <= 9]
    tori = [(2 * math.pi,) * 3, (3.1, 4.7, 5.9), (6.0, 7.5, 9.1)]
    pencils = [flat_mode_pencil(k, lengths) for lengths in tori for k in ks]
    assert len(pencils) == 369
    for ode in pencils:
        (m0, m1, m2), n = ode.mats, ode.dim
        assert abs(np.linalg.det(m2)) < 1e-12  # the singular-lead branch
        A = np.block([[np.zeros((n, n)), np.eye(n)], [-m0, -m1]])
        B = np.block([[np.eye(n), np.zeros((n, n))], [np.zeros((n, n)), m2]])
        qz = scipy.linalg.eigvals(A, B)
        qz = qz[np.isfinite(qz) & (np.abs(qz) < 1e8)]

        mu = np.abs(np.linalg.eigvals(np.linalg.solve(A - oracle._SHIFT * B, B)))
        ratio = mu / mu.max()
        thr = oracle._INFINITE_TOL
        assert np.all((ratio <= 1e-4 * thr) | (ratio >= 1e4 * thr)), ratio
        assert np.sum(ratio > thr) == len(qz)

        got = pencil_roots(ode)
        want = oracle.cluster_roots(qz)
        assert len(got) == len(want)
        for center, count in want:
            c = min(got, key=lambda c: abs(c.value - center))
            assert abs(c.value - center) <= 1e-12 and c.algebraic == count
            svals = np.linalg.svd(ode.eval(center), compute_uv=False)
            geometric = int(np.sum(svals < oracle._NULL_TOL * svals[0]))
            assert c.jordan == (count > geometric)
            got.remove(c)


def test_pencil_zero_mode_dimension():
    clusters = pencil_roots(flat_mode_pencil((0, 0, 0)))
    assert len(clusters) == 1
    c = clusters[0]
    assert abs(c.value) < 1e-9
    assert c.algebraic == 14
    assert c.jordan


def test_pencil_first_modes_match_closed_forms():
    for k, ev in [((1, 0, 0), 1.0), ((1, 1, 0), 2.0), ((1, 1, 1), 3.0)]:
        clusters = pencil_roots(flat_mode_pencil(k))
        actual = [c.value for c in clusters]
        r = math.sqrt(ev)
        cmp = compare_root_sets([r, -r], actual, 1e-8)
        assert cmp.matched, (k, actual)
        assert all(c.jordan for c in clusters)


def test_pencil_anisotropic_lattice():
    lengths = (2 * math.pi, math.pi, 2 * math.pi)
    clusters = pencil_roots(flat_mode_pencil((0, 1, 0), lengths))
    r = 2.0  # (2 pi / pi)^2 = 4
    cmp = compare_root_sets([r, -r], [c.value for c in clusters], 1e-8)
    assert cmp.matched


# ---------------------------------------------------------------------------
# Root-set comparison
# ---------------------------------------------------------------------------


def test_compare_matched_within_tolerance():
    cmp = compare_root_sets([2, 4], [2 + 1e-12, 4 - 1e-12], 1e-9)
    assert cmp.matched and cmp.max_mismatch < 1e-9


def test_compare_detects_spurious():
    cmp = compare_root_sets([2], [2, 3], 1e-9)
    assert not cmp.matched


def test_compare_mixed_b_against_companion():
    r5 = math.sqrt(5)
    cmp = compare_root_sets(
        [r5, -r5], companion_roots(ode_mixed_b(9.0, 1)), 1e-9
    )
    assert cmp.matched


def test_compare_falls_back_to_exact_assignment():
    # Greedy would pair 0.5 with 0.3 and leave 0.0 at distance 1; the exact
    # matching pairs 0.5 with 1.0 and 0.0 with 0.3, both within 0.6.
    cmp = compare_root_sets([0.5, 0.0], [0.3, 1.0], 0.6)
    assert cmp.matched and cmp.max_mismatch == pytest.approx(0.5)


def test_compare_finds_every_pair_within_tolerance():
    # Greedy and min-sum pairings both take 0 <-> 0.1 and leave z 1.0000035
    # from -0.9; the pairing 0 <-> -0.9, z <-> 0.1 has every distance <= 0.9.
    z = complex(-0.305, 0.80373)
    cmp = compare_root_sets([0, z], [-0.9, 0.1], tol=1.0)
    assert cmp == oracle.RootSetComparison(abs(z - 0.1), True)
    assert 0.9 < cmp.max_mismatch < 0.90001


def _brute_force_match(expected, actual, tol):
    best = math.inf
    for perm in itertools.permutations(range(len(actual)), len(expected)):
        dists = [abs(z - actual[j]) for z, j in zip(expected, perm)]
        if all(d < tol for d in dists):
            best = min(best, max(dists, default=0.0))
    return oracle.RootSetComparison(best, best < math.inf and len(expected) == len(actual))


_SMALL_ROOTS = st.lists(
    st.builds(complex, st.integers(-2, 2), st.integers(-2, 2))
    | st.complex_numbers(max_magnitude=3, allow_nan=False, allow_infinity=False),
    max_size=6,
)


@settings(max_examples=200, deadline=None)
@given(_SMALL_ROOTS, _SMALL_ROOTS, st.sampled_from([1.0, 2.0, math.sqrt(2)]) | st.floats(1e-3, 6.0))
def test_compare_is_an_exact_bottleneck_matching(expected, actual, tol):
    assert compare_root_sets(expected, actual, tol) == _brute_force_match(expected, actual, tol)


def test_compare_exact_assignment_keeps_a_genuine_mismatch():
    cmp = compare_root_sets([0.0, 0.1], [0.05, 5.0], 0.6)
    assert not cmp.matched and cmp.max_mismatch == math.inf


def test_compare_duplicates_require_multiplicity():
    cmp = compare_root_sets([1, 1], [1], 1e-9)
    assert not cmp.matched


@settings(max_examples=30, deadline=None)
@given(
    st.lists(
        st.complex_numbers(max_magnitude=10, allow_nan=False, allow_infinity=False),
        min_size=1,
        max_size=6,
    ),
    st.floats(min_value=0, max_value=5e-10),
)
def test_compare_accepts_small_perturbations(roots, delta):
    perturbed = [z + delta for z in roots]
    cmp = compare_root_sets(roots, perturbed, 1e-9)
    assert cmp.matched


def test_ode_system_validation():
    with pytest.raises(ValueError):
        OdeSystem((np.eye(2),))
    with pytest.raises(ValueError):
        OdeSystem((np.eye(2), np.eye(3)))


@pytest.mark.parametrize(
    "call,message",
    [
        (lambda: matrix_a(-1.0, 1), "scalar eigenvalue must be >= 0, got -1.0"),
        (lambda: ode_tt_branch(-10.0, 1, +1), "no real branch rate for eigenvalue -10.0 at kappa=1"),
        (lambda: ode_mixed_b(-1.0, 1), "co-closed eigenvalue must be >= 0, got -1.0"),
        (lambda: compare_root_sets([1.0], [1.0], 0.0), "tolerance must be positive"),
    ],
    ids=["matrix-a-negative", "tt-branch-no-rate", "mixed-b-negative", "zero-tolerance"],
)
def test_oracle_rejects_bad_input(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()


def test_compare_root_sets_with_nothing_expected():
    # Nothing expected matches only when nothing was found.
    assert compare_root_sets([], [], 1e-9) == oracle.RootSetComparison(0.0, True)
    assert compare_root_sets([], [1.0], 1e-9) == oracle.RootSetComparison(0.0, False)
