import math
import random
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from indicyl import spectra
from indicyl.spectra import (
    GroupAction,
    OperatorKind,
    SpectrumError,
    lens_oneform_multiplicity,
    lens_scalar_multiplicity,
    lens_tt_multiplicity,
    load_hyperbolic_spectrum,
    sphere_coclosed_oneform_eigenvalue,
    sphere_scalar_eigenvalue,
    sphere_tt_eigenvalue,
    torus_level_entry,
    torus_spectrum,
)

CUBIC = (2 * math.pi,) * 3


def torus_kind_levels(lengths, kind, cutoff):
    """(j, eigenvalue, multiplicity) of one operator kind: the scalar levels
    mapped through torus_level_entry."""
    return [
        (e.j, e.eigenvalue, torus_level_entry(kind, e.j, e.eigenvalue, e.multiplicity).multiplicity)
        for e in torus_spectrum(lengths, cutoff)
    ]


# ---------------------------------------------------------------------------
# Round sphere closed forms
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("j,expected", [(0, 0.0), (2, 8.0), (3, 15.0)])
def test_sphere_scalar_eigenvalue(j, expected):
    assert sphere_scalar_eigenvalue(j) == expected


@pytest.mark.parametrize("j,expected", [(1, 4.0), (2, 9.0), (5, 36.0)])
def test_sphere_oneform_eigenvalue(j, expected):
    assert sphere_coclosed_oneform_eigenvalue(j) == expected


def test_sphere_oneform_rejects_zero():
    with pytest.raises(ValueError):
        sphere_coclosed_oneform_eigenvalue(0)


@pytest.mark.parametrize("j,expected", [(2, 6.0), (3, 13.0), (4, 22.0)])
def test_sphere_tt_eigenvalue(j, expected):
    assert sphere_tt_eigenvalue(j) == expected


def test_sphere_tt_rejects_below_bound():
    with pytest.raises(ValueError):
        sphere_tt_eigenvalue(1)


@given(st.integers(min_value=2, max_value=200))
def test_tt_eigenvalue_plus_three_is_square(j):
    lam = sphere_tt_eigenvalue(j)
    assert lam + 3 == (j + 1) ** 2


# Round-sphere multiplicities in closed form: the p = 1 witnesses for the
# residue count, which has no trivial-group shortcut.


def sphere_scalar_multiplicity(j: int) -> int:
    return (j + 1) ** 2


def sphere_coclosed_oneform_multiplicity(j: int) -> int:
    return 2 * j * (j + 2)


def sphere_tt_multiplicity(j: int) -> int:
    return 2 * (j - 1) * (j + 3)


# ---------------------------------------------------------------------------
# Torus spectrum against brute-force enumeration
# ---------------------------------------------------------------------------


def brute_force_counts(cutoff):
    """Independent lattice-vector count for the cubic lattice of side 2 pi."""
    counts = {}
    kmax = int(math.isqrt(int(cutoff))) + 1
    for k1 in range(-kmax, kmax + 1):
        for k2 in range(-kmax, kmax + 1):
            for k3 in range(-kmax, kmax + 1):
                q = k1 * k1 + k2 * k2 + k3 * k3
                if q <= cutoff:
                    counts[q] = counts.get(q, 0) + 1
    return counts


def test_torus_scalar_cubic_example():
    entries = torus_spectrum(CUBIC, 4.5)
    assert {e.kind for e in entries} == {OperatorKind.SCALAR_HODGE}
    got = {round(e.eigenvalue): e.multiplicity for e in entries}
    assert got == {0: 1, 1: 6, 2: 12, 3: 8, 4: 6}


def test_torus_parallel_modes():
    for kind, dim in [
        (OperatorKind.DIVFREE_TT_ROUGH, 5),
        (OperatorKind.COCLOSED_ONEFORM_HODGE, 3),
        (OperatorKind.SCALAR_HODGE, 1),
    ]:
        levels = torus_kind_levels((3.0, 4.0, 5.5), kind, 0.5)
        assert levels[0][1:] == (0.0, dim)


@settings(max_examples=20, deadline=None)
@given(st.floats(min_value=0.5, max_value=300.0))
@example(cutoff=1.9999999999999964)  # just below the eigenvalue 2
@example(cutoff=225.0)  # level 225 has members an ulp above and below 225
@example(cutoff=234.0)  # likewise at 234
def test_torus_cubic_matches_brute_force(cutoff):
    counts = brute_force_counts(cutoff)
    for kind, zero_dim, per_vec in [
        (OperatorKind.SCALAR_HODGE, 1, 1),
        (OperatorKind.COCLOSED_ONEFORM_HODGE, 3, 2),
        (OperatorKind.DIVFREE_TT_ROUGH, 5, 2),
    ]:
        levels = torus_kind_levels(CUBIC, kind, cutoff)
        assert len(levels) == len(counts)
        for _, ev, mult in levels:
            q = round(ev)
            expected = zero_dim if q == 0 else per_vec * counts[q]
            assert mult == expected


def triple_loop_torus_spectrum(lengths, kind, cutoff):
    """Independent enumeration: every lattice vector in the cutoff box, in
    k1, k2, k3 order, clustered first-match within 1e-9 * max(1, ev) of the
    first member seen, and kept when its own eigenvalue is <= cutoff.

    Returns (j, eigenvalue, multiplicity) triples; kind is the operator name.
    """
    parallel_dim = {"scalar": 1, "oneform": 3, "tt": 5}[kind]
    per_vector = {"scalar": 1, "oneform": 2, "tt": 2}[kind]
    L = [float(x) for x in lengths]
    kmax = [int(math.floor(Li * math.sqrt(cutoff) / (2 * math.pi))) for Li in L]
    counts = {}
    for k1 in range(-kmax[0], kmax[0] + 1):
        for k2 in range(-kmax[1], kmax[1] + 1):
            for k3 in range(-kmax[2], kmax[2] + 1):
                ev = sum((2 * math.pi * k / Li) ** 2 for k, Li in zip((k1, k2, k3), L))
                if ev > cutoff:
                    continue
                for known in counts:
                    if abs(known - ev) <= 1e-9 * max(1.0, known):
                        counts[known] += 1
                        break
                else:
                    counts[ev] = 1
    return [
        (j, ev, parallel_dim if ev <= 1e-12 else per_vector * counts[ev])
        for j, ev in enumerate(sorted(counts))
    ]


# Sides below 2 pi / sqrt(cutoff) have no nonzero vector along their axis.
_SIDE = st.floats(min_value=0.5, max_value=9.0)


@settings(max_examples=15, deadline=None)
@given(st.tuples(_SIDE, _SIDE, _SIDE), st.floats(min_value=0.5, max_value=20.0))
# Cubic levels spread over ulps; away from the cutoff both paths must still
# report each at its first member in enumeration order.
@example(lengths=CUBIC, cutoff=160.5)
@example(lengths=(9.0, 9.0, 9.0), cutoff=13.5)
# Two equal sides: swapping k1 and k2 keeps the eigenvalue bit-equal.
@example(lengths=(4.0, 4.0, 7.3), cutoff=15.0)
@example(lengths=(6.0, 0.5, 6.0), cutoff=19.0)
@example(lengths=(0.7, 8.2, 8.2), cutoff=11.0)
def test_torus_anisotropic_matches_triple_loop(lengths, cutoff):
    # Sign flips give bit-equal eigenvalues, so on generic anisotropic
    # lattices no level straddles the cutoff and both rules agree exactly.
    for kind in OperatorKind:
        got = torus_kind_levels(lengths, kind, cutoff)
        assert got == triple_loop_torus_spectrum(lengths, kind.value, cutoff)


def box_torus_spectrum(lengths, kind, cutoff):
    """Independent enumeration of the whole box -K..K on every axis with
    numpy: eigenvalues summed k1 + k2 + k3, stably sorted, grouped with
    sorted neighbours within 1e-9 * max(1, ev) (transitive), a level kept
    whole when its smallest member is <= cutoff (the box reaches 1e-6 past
    it), and reported at its first member in k1, k2, k3 order.

    Returns (j, eigenvalue, multiplicity) triples; kind is the operator name.
    """
    parallel_dim = {"scalar": 1, "oneform": 3, "tt": 5}[kind]
    per_vector = {"scalar": 1, "oneform": 2, "tt": 2}[kind]
    reach = cutoff * (1 + 1e-6)
    axes = []
    for Li in (float(x) for x in lengths):
        kmax = int(math.floor(Li * math.sqrt(reach) / (2 * math.pi)))
        axes.append(np.array([(2 * math.pi * k / Li) ** 2 for k in range(-kmax, kmax + 1)]))
    ev = (axes[0][:, None, None] + axes[1][None, :, None] + axes[2][None, None, :]).ravel()
    ev = ev[ev <= reach]  # still in enumeration order
    order = np.argsort(ev, kind="stable")
    s = ev[order]
    starts = np.flatnonzero(np.concatenate(([True], np.diff(s) > 1e-9 * np.maximum(1.0, s[:-1]))))
    nvec = np.diff(np.append(starts, len(s)))
    first = np.minimum.reduceat(order, starts)
    kept = int(np.searchsorted(s[starts], cutoff, side="right"))
    return [
        (j, float(ev[i]), parallel_dim if ev[i] <= 1e-12 else per_vector * int(n))
        for j, (i, n) in enumerate(zip(first[:kept], nvec[:kept]))
    ]


def _doubling_cutoffs(lengths, levels):
    """The cutoffs a catalog's doubling loop visits until the scalar
    spectrum has more than `levels` levels, largest last."""
    cutoffs = [(2 * math.pi / max(lengths)) ** 2]
    while len(box_torus_spectrum(lengths, "scalar", cutoffs[-1])) <= levels:
        cutoffs.append(2 * cutoffs[-1])
    return cutoffs


def _seeded_lengths(seed):
    rng = random.Random(seed)
    return tuple(round(rng.uniform(3.0, 9.0), 4) for _ in range(3))


@pytest.mark.parametrize(
    "lengths,levels",
    [
        (CUBIC, 1000),
        (_seeded_lengths(1), 3000),
    ],
    ids=["cube", "seeded"],
)
def test_torus_octant_walk_matches_box(lengths, levels):
    # Far past the triple loop's reach: the cube's levels spread over ulps
    # and straddle cutoffs, the seeded torus has ~3000 levels.
    cutoffs = _doubling_cutoffs(lengths, levels)
    checks = [(cutoff, OperatorKind.SCALAR_HODGE) for cutoff in cutoffs[:-1] + [599.0]]
    checks += [(cutoffs[-1], kind) for kind in OperatorKind]
    for cutoff, kind in checks:
        got = torus_kind_levels(lengths, kind, cutoff)
        assert got == box_torus_spectrum(lengths, kind.value, cutoff)


def test_torus_level_grouping_is_transitive():
    # Lowest eigenvalues 1, 1 + 0.9e-9 and 1 + 1.8e-9 along the three axes:
    # neighbours are within 1e-9, the ends are not, and all six vectors
    # form one level.
    lengths = tuple(2 * math.pi / math.sqrt(1 + d) for d in (0.0, 0.9e-9, 1.8e-9))
    got = [(e.j, e.eigenvalue, e.multiplicity) for e in torus_spectrum(lengths, 1.5)]
    assert got == box_torus_spectrum(lengths, "scalar", 1.5)
    assert [m for _, _, m in got] == [1, 6]


@pytest.mark.parametrize("past,whole", [(0.99e-6, True), (1.01e-6, False)], ids=["inside", "outside"])
def test_torus_box_reaches_cutoff_reach_past_the_cutoff(monkeypatch, past, whole):
    # A level straddling the cutoff is kept whole only as far as the box
    # reaches, _CUTOFF_REACH past it.  Real levels are far narrower than the
    # reach, so levels are widened to 1e-5 here: the level {1, 1 + past}
    # (two vectors each) has its smallest member at the cutoff, and its
    # upper member counts only inside the reach.
    assert spectra._CUTOFF_REACH == 1e-6
    monkeypatch.setattr(spectra, "_LEVEL_TOL", 1e-5)
    lengths = (2 * math.pi, 2 * math.pi / math.sqrt(1 + past), math.pi)
    got = [(e.j, e.multiplicity) for e in torus_spectrum(lengths, 1.0)]
    assert got == [(0, 1), (1, 4 if whole else 2)]


@pytest.mark.parametrize("lengths", [(2e5, 1.0, 1.0), (1.0, 1.0, 1e300)])
def test_torus_rejects_sides_past_the_grouping_floor(lengths):
    with pytest.raises(ValueError, match="too long"):
        spectra.Torus(lengths)
    with pytest.raises(ValueError, match="too long"):
        torus_spectrum(lengths, 1.0)


def test_torus_anisotropic_eigenvalues():
    entries = torus_spectrum((2 * math.pi, math.pi, 2 * math.pi), 4.5)
    got = {round(e.eigenvalue): e.multiplicity for e in entries}
    # Eigenvalues k1^2 + 4 k2^2 + k3^2: the short direction contributes 4 k^2.
    assert got == {0: 1, 1: 4, 2: 4, 4: 6}


# ---------------------------------------------------------------------------
# Lens space multiplicities
# ---------------------------------------------------------------------------


def weight_count_multiplicity(g: GroupAction, j: int) -> int:
    """Independent integer oracle: dimension of the invariants of the degree-j
    harmonic polynomials via diagonal weights in complex coordinates.

    The rotation acts diagonally on monomials z1^a conj(z1)^b z2^c conj(z2)^d
    with character exp(2 pi i (q1 (a-b) + q2 (c-d)) m / p); the harmonic space
    is the degree-j polynomials minus |z|^2 times the degree-(j-2) ones.
    """

    def invariant_monomials(deg):
        if deg < 0:
            return 0
        total = 0
        for a in range(deg + 1):
            for b in range(deg + 1 - a):
                for c in range(deg + 1 - a - b):
                    d = deg - a - b - c
                    w = g.q1 * (a - b) + g.q2 * (c - d)
                    if w % g.p == 0:
                        total += 1
        return total

    return invariant_monomials(j) - invariant_monomials(j - 2)


# Second independent oracle: the group-averaging projector on an explicit
# basis of harmonic polynomials on R^4, in exact rational arithmetic.

Mono = tuple[int, int, int, int]


def _monomials(j: int) -> list[Mono]:
    out = []
    for a in range(j + 1):
        for b in range(j + 1 - a):
            for c in range(j + 1 - a - b):
                out.append((a, b, c, j - a - b - c))
    return out


def _laplace4(p: dict[Mono, Fraction]) -> dict[Mono, Fraction]:
    out: dict[Mono, Fraction] = {}
    for mono, coef in p.items():
        for i in range(4):
            e = mono[i]
            if e >= 2:
                m2 = list(mono)
                m2[i] = e - 2
                key = tuple(m2)
                out[key] = out.get(key, Fraction(0)) + coef * e * (e - 1)
    return {m: c for m, c in out.items() if c != 0}


def _r2_mul(p: dict[Mono, Fraction]) -> dict[Mono, Fraction]:
    out: dict[Mono, Fraction] = {}
    for mono, coef in p.items():
        for i in range(4):
            m2 = list(mono)
            m2[i] += 2
            key = tuple(m2)
            out[key] = out.get(key, Fraction(0)) + coef
    return out


def _harmonic_projection(p: dict[Mono, Fraction], j: int) -> dict[Mono, Fraction]:
    """Harmonic component of a degree-j polynomial on R^4.

    Uses h = sum_k a_k r^{2k} Lap^k p with a_0 = 1 and
    a_{k+1} = -a_k / (4 (k+1) (j-k)); this makes Lap h = 0 identically and
    fixes harmonic polynomials.
    """
    out: dict[Mono, Fraction] = {}
    a = Fraction(1)
    q = dict(p)
    k = 0
    while q:
        term = q
        for _ in range(k):
            term = _r2_mul(term)
        for mono, coef in term.items():
            out[mono] = out.get(mono, Fraction(0)) + a * coef
        q = _laplace4(q)
        if not q:
            break
        a = -a / (4 * (k + 1) * (j - k))
        k += 1
    return {m: c for m, c in out.items() if c != 0}


def _harmonic_basis(j: int) -> np.ndarray:
    """Basis of the degree-j harmonic polynomials on R^4: the harmonic
    projections of the monomials with exponent of x1 at most 1, as a
    ((j+1)^2, n_monomials) array."""
    monos = _monomials(j)
    index = {m: i for i, m in enumerate(monos)}
    rows = []
    for m in monos:
        if m[0] <= 1:
            row = np.zeros(len(monos))
            for mono, coef in _harmonic_projection({m: Fraction(1)}, j).items():
                row[index[mono]] = float(coef)
            rows.append(row)
    basis = np.array(rows)
    assert basis.shape[0] == np.linalg.matrix_rank(basis, tol=1e-9) == (j + 1) ** 2
    return basis


def _rotation_substitution(j: int, theta1: float, theta2: float) -> np.ndarray:
    """Matrix of p(x) -> p(R x) on degree-j monomial coefficients, where R
    rotates the (x1,x2) plane by theta1 and the (x3,x4) plane by theta2."""
    monos = _monomials(j)
    index = {m: i for i, m in enumerate(monos)}
    c1, s1 = math.cos(theta1), math.sin(theta1)
    c2, s2 = math.cos(theta2), math.sin(theta2)

    # (c x1 + s x2)^a expanded as {(e1,e2): coef}
    def pair_powers(c, s, n):
        table = []
        for a in range(n + 1):
            terms = {}
            for i in range(a + 1):
                coef = math.comb(a, i) * c**i * s ** (a - i)
                if coef != 0.0:
                    terms[(i, a - i)] = coef
            table.append(terms)
        return table

    plus1 = pair_powers(c1, s1, j)    # image of x1: c1 x1 + s1 x2
    minus1 = pair_powers(c1, -s1, j)  # image of x2: -s1 x1 + c1 x2 (swapped roles)
    plus2 = pair_powers(c2, s2, j)
    minus2 = pair_powers(c2, -s2, j)

    A = np.zeros((len(monos), len(monos)))
    for col, (a, b, c, d) in enumerate(monos):
        # x1^a x2^b -> (c1 x1 + s1 x2)^a (c1 x2 - s1 x1)^b, similarly x3,x4
        part12: dict[tuple[int, int], float] = {}
        for (e1, e2), ca in plus1[a].items():
            for (f2, f1), cb in minus1[b].items():
                key = (e1 + f1, e2 + f2)
                part12[key] = part12.get(key, 0.0) + ca * cb
        part34: dict[tuple[int, int], float] = {}
        for (e3, e4), cc in plus2[c].items():
            for (f4, f3), cd in minus2[d].items():
                key = (e3 + f3, e4 + f4)
                part34[key] = part34.get(key, 0.0) + cc * cd
        for (e1, e2), c12 in part12.items():
            for (e3, e4), c34 in part34.items():
                A[index[(e1, e2, e3, e4)], col] += c12 * c34
    return A


def lens_averaging_projector(g: GroupAction, j: int) -> np.ndarray:
    """Group-averaging operator restricted to H_j, in the explicit harmonic basis.

    The operator is obtained by averaging the monomial substitution action of
    the p group elements and solving B^T M = avg B^T in the least-squares
    sense; rotations preserve H_j, so the residual must be negligible.
    """
    basis = _harmonic_basis(j)
    n = len(_monomials(j))
    avg = np.zeros((n, n))
    for m in range(g.p):
        th1 = 2 * math.pi * g.q1 * m / g.p
        th2 = 2 * math.pi * g.q2 * m / g.p
        avg += _rotation_substitution(j, th1, th2)
    avg /= g.p
    bt = basis.T
    target = avg @ bt
    M, *_ = np.linalg.lstsq(bt, target, rcond=None)
    assert np.linalg.norm(bt @ M - target) <= 1e-8 * max(1.0, np.linalg.norm(target))
    return M


def projector_multiplicity(g: GroupAction, j: int) -> int:
    """Trace of the averaging projector: the invariant dimension of H_j."""
    tr = float(np.trace(lens_averaging_projector(g, j)))
    assert abs(tr - round(tr)) <= 1e-6
    return round(tr)


LENS_GROUPS = [(2, 1, 1), (3, 1, 1), (3, 1, 2), (4, 1, 3), (5, 1, 2), (5, 2, 3), (7, 1, 3)]


# Third independent oracle: Ikeda's character formula (Osaka J. Math. 1980),
# the group average of the product of SU(2) characters, in floating point.
# Unlike the two polynomial oracles it reaches every V_a x V_b, including
# the asymmetric pairs that the 1-form and TT multiplicities use.


def su2_character(two_s: int, phi: float) -> float:
    """chi_s(phi) = sum_{k=0}^{2s} exp(i (2k - 2s) phi), which is real."""
    return math.fsum(math.cos((2 * k - two_s) * phi) for k in range(two_s + 1))


def character_sum_invariant_dims(g: GroupAction, two_max: int) -> dict[tuple[int, int], int]:
    """(1/p) sum_m chi_a(phi+_m) chi_b(phi-_m) with half angles
    phi+-_m = pi m (q1 +- q2) / p, for every pair 2a, 2b <= two_max with
    2a + 2b even."""
    plus, minus = (
        [
            [su2_character(two_s, math.pi * m * q / g.p) for m in range(g.p)]
            for two_s in range(two_max + 1)
        ]
        for q in (g.q1 + g.q2, g.q1 - g.q2)
    )
    dims = {}
    for two_a in range(two_max + 1):
        for two_b in range(two_a % 2, two_max + 1, 2):
            value = math.fsum(x * y for x, y in zip(plus[two_a], minus[two_b])) / g.p
            assert abs(value - round(value)) <= 1e-6, (g, two_a, two_b, value)
            dims[two_a, two_b] = round(value)
    return dims


# Every p of the grid, with negative and unreduced q, and groups with
# q1 = q2 or q1 = -q2 mod p.
CHARACTER_GROUPS = [
    (1, 1, 1), (1, -4, 9), (2, 1, -1), (3, 1, 2), (3, -1, 4), (5, 2, -13), (5, 1, 6),
    (7, 1, 3), (7, 3, -3), (8, 3, -5), (8, 3, 11), (12, 5, 7), (12, -1, 13), (13, -4, 20),
    (30, 7, -11), (97, 5, 41), (100, -3, 143), (9973, -2, 10000),
]


@pytest.mark.parametrize("p,q1,q2", CHARACTER_GROUPS)
def test_invariant_dim_matches_character_sum(p, q1, q2):
    g = GroupAction(p, q1, q2)
    for (two_a, two_b), dim in character_sum_invariant_dims(g, 15).items():
        assert spectra._invariant_dim(g, two_a, two_b) == dim, (two_a, two_b)


def _units(p: int, count: int, rng: random.Random) -> list[tuple[int, int]]:
    """count pairs (q1, q2) of units mod p, drawn from -2p..2p."""
    pairs = []
    while len(pairs) < count:
        q1, q2 = rng.randint(-2 * p, 2 * p), rng.randint(-2 * p, 2 * p)
        if math.gcd(q1, p) == math.gcd(q2, p) == 1:
            pairs.append((q1, q2))
    return pairs


@pytest.mark.parametrize("p", range(1, 31))
def test_invariant_dim_matches_character_sum_at_large_spins(p):
    # Spins up to 60 reach well past every p here, so the progression of k
    # has many terms and the residue class of l holds several values: the
    # term count and both offsets of the floor sums all matter.
    groups = [(1, 1), (1, -1), *_units(p, 2, random.Random(p))]
    for q1, q2 in groups:
        g = GroupAction(p, q1, q2)
        for (two_a, two_b), dim in character_sum_invariant_dims(g, 60).items():
            assert spectra._invariant_dim(g, two_a, two_b) == dim, (g, two_a, two_b)


@settings(max_examples=400, deadline=None)
@given(
    st.integers(min_value=0, max_value=80),
    st.integers(min_value=1, max_value=10**6),
    st.integers(min_value=-(10**7), max_value=10**7),
    st.integers(min_value=-(10**7), max_value=10**7),
)
@example(0, 1, 0, 0)
@example(1, 1, -1, -1)
@example(5, 7, -3, 2)
@example(80, 10**6, 10**6 - 1, 10**6 - 1)
def test_floor_sum_matches_brute_force(count, n, a, b):
    assert spectra._floor_sum(count, n, a, b) == sum((a * t + b) // n for t in range(count))


def test_trivial_group_multiplicity():
    # No trivial-group shortcut: the residue count itself must give the
    # round-sphere closed forms.
    g = GroupAction(1, 1, 1)
    for j in range(30):
        assert lens_scalar_multiplicity(g, j) == sphere_scalar_multiplicity(j)
    for j in range(1, 30):
        assert lens_oneform_multiplicity(g, j) == sphere_coclosed_oneform_multiplicity(j)
    for j in range(2, 30):
        assert lens_tt_multiplicity(g, j) == sphere_tt_multiplicity(j)


def test_rp3_examples():
    g = GroupAction(2, 1, 1)
    assert lens_scalar_multiplicity(g, 1) == 0
    assert lens_scalar_multiplicity(g, 2) == 9


def test_rp3_parity_rule():
    # The antipodal map x -> -x: a degree-j harmonic has parity (-1)^j, a
    # co-closed 1-form at index j has degree-j coefficients times one dx,
    # parity (-1)^(j+1), and a TT tensor at index j has degree-(j-2)
    # coefficients times dx dx, parity (-1)^j.  Survivors keep their full
    # sphere count.
    g = GroupAction(2, 1, 1)
    for j in range(1, 30):
        assert lens_scalar_multiplicity(g, j) == (0 if j % 2 else (j + 1) ** 2)
        assert lens_oneform_multiplicity(g, j) == (2 * j * (j + 2) if j % 2 else 0)
    for j in range(2, 30):
        assert lens_tt_multiplicity(g, j) == (0 if j % 2 else 2 * (j - 1) * (j + 3))


@pytest.mark.parametrize(
    "p,q1,q2,isometry_dim",
    [
        (1, 1, 1, 6),  # SO(4)
        (2, 1, 1, 6),  # SO(3) x SO(3)
        (3, 1, 1, 4),  # U(2)
        (5, 1, 1, 4),
        (4, 1, 3, 4),
        (5, 1, 2, 2),  # T^2
        (7, 1, 3, 2),
    ],
)
def test_killing_dimension_is_isometry_group_dimension(p, q1, q2, isometry_dim):
    assert lens_oneform_multiplicity(GroupAction(p, q1, q2), 1) == isometry_dim


def test_rp3_degree2_explicit_basis():
    # All 9 degree-2 harmonics are even, hence invariant under the antipodal
    # map: x_i x_j (6) minus the trace direction leaves xy, xz, xw, yz, yw,
    # zw, x^2-y^2, y^2-z^2, z^2-w^2.
    g = GroupAction(2, 1, 1)
    basis = _harmonic_basis(2)
    assert basis.shape[0] == 9
    proj = lens_averaging_projector(g, 2)
    assert np.allclose(proj, np.eye(9), atol=1e-9)


@pytest.mark.parametrize("p,q1,q2", LENS_GROUPS)
def test_lens_multiplicity_matches_weight_count(p, q1, q2):
    g = GroupAction(p, q1, q2)
    for j in range(16):
        assert lens_scalar_multiplicity(g, j) == weight_count_multiplicity(g, j)


@pytest.mark.parametrize("p,q1,q2", LENS_GROUPS)
def test_lens_multiplicity_matches_projector(p, q1, q2):
    g = GroupAction(p, q1, q2)
    for j in range(9):
        assert lens_scalar_multiplicity(g, j) == projector_multiplicity(g, j)


@pytest.mark.parametrize("p,q1,q2,j", [(2, 1, 1, 3), (3, 1, 2, 4), (5, 1, 2, 5)])
def test_lens_projector_idempotent(p, q1, q2, j):
    proj = lens_averaging_projector(GroupAction(p, q1, q2), j)
    assert np.allclose(proj @ proj, proj, atol=1e-9)


def test_lens_double_averaging_changes_nothing():
    # Idempotency in multiplicity form: applying the averaging projector
    # twice gives the same trace, so no multiplicity changes.
    g = GroupAction(5, 1, 2)
    for j in range(1, 6):
        proj = lens_averaging_projector(g, j)
        once = round(float(np.trace(proj)))
        twice = round(float(np.trace(proj @ proj)))
        assert once == twice == lens_scalar_multiplicity(g, j)


def test_group_action_requires_coprime():
    with pytest.raises(ValueError):
        GroupAction(4, 2, 1)


def test_harmonic_projection_is_harmonic_and_idempotent():
    j = 5
    p = {(2, 1, 1, 1): Fraction(3), (0, 5, 0, 0): Fraction(-2)}
    h = _harmonic_projection(p, j)
    assert _laplace4(h) == {}
    assert _harmonic_projection(h, j) == h


# ---------------------------------------------------------------------------
# Hyperbolic spectrum files
# ---------------------------------------------------------------------------


GOOD_FILE = """\
# synthetic spectrum
b1 0
codazzi 2
scalar 1 2.1 3
oneform 1 1.3 4
tt 1 3.0 2
tt 2 5.2 8
"""


def test_load_good_file(tmp_path):
    path = tmp_path / "spec.txt"
    path.write_text(GOOD_FILE)
    geo = load_hyperbolic_spectrum(path)
    assert geo.b1 == 0
    assert geo.dim_codazzi == 2
    assert len(geo.entries) == 4
    assert geo.source == str(path)


def test_tt_bound_violation_rejected(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("b1 0\ncodazzi 0\ntt 1 2.9 1\n")
    with pytest.raises(SpectrumError, match="lower bound 3"):
        load_hyperbolic_spectrum(path)


def test_codazzi_consistency(tmp_path):
    path = tmp_path / "ok.txt"
    path.write_text("b1 0\ncodazzi 2\ntt 1 3.0 2\n")
    assert load_hyperbolic_spectrum(path).dim_codazzi == 2

    bad = tmp_path / "bad.txt"
    bad.write_text("b1 0\ncodazzi 1\ntt 1 3.0 2\n")
    with pytest.raises(SpectrumError, match="codazzi"):
        load_hyperbolic_spectrum(bad)


def test_rational_homology_sphere_without_codazzi(tmp_path):
    path = tmp_path / "rhs.txt"
    path.write_text("b1 0\ncodazzi 0\nscalar 1 2.5 4\ntt 1 4.1 6\n")
    assert load_hyperbolic_spectrum(path).dim_codazzi == 0


def test_harmonic_oneform_b1_mismatch(tmp_path):
    path = tmp_path / "mix.txt"
    path.write_text("b1 2\ncodazzi 0\noneform 0 0.0 1\n")
    with pytest.raises(SpectrumError, match="b1"):
        load_hyperbolic_spectrum(path)


@pytest.mark.parametrize("mult", [0, 2, 5])
def test_scalar_constants_multiplicity_must_be_one(tmp_path, mult):
    path = tmp_path / "const.txt"
    path.write_text(f"b1 0\ncodazzi 0\nscalar 0 0.0 {mult}\n")
    with pytest.raises(SpectrumError, match=f"const.txt:3: scalar eigenvalue 0 has multiplicity {mult}"):
        load_hyperbolic_spectrum(path)
    path.write_text("b1 0\ncodazzi 0\nscalar 0 0.0 1\n")
    assert load_hyperbolic_spectrum(path).entries[0].multiplicity == 1


def test_decreasing_eigenvalues_rejected(tmp_path):
    path = tmp_path / "dec.txt"
    path.write_text("b1 0\ncodazzi 0\nscalar 1 5.0 1\nscalar 2 4.0 1\n")
    with pytest.raises(SpectrumError, match="increasing"):
        load_hyperbolic_spectrum(path)


@pytest.mark.parametrize(
    "entry,message",
    [
        ("scalar 1 nan 1", "not a finite number"),
        ("scalar 1 inf 1", "not a finite number"),
        ("tt 1 1e400 1", "not a finite number"),
        ("oneform -5 2.0 1", "negative j=-5"),
    ],
    ids=["nan", "inf", "overflow", "negative-j"],
)
def test_nonfinite_eigenvalue_and_negative_j_rejected(tmp_path, entry, message):
    path = tmp_path / "bad.txt"
    path.write_text(f"b1 0\ncodazzi 0\n{entry}\n")
    with pytest.raises(SpectrumError, match=f"bad.txt:3: .*{message}"):
        load_hyperbolic_spectrum(path)


def test_geometry_kappa_and_validation():
    assert (spectra.Sphere.kappa, spectra.Torus.kappa, spectra.Hyperbolic.kappa) == (1, 0, -1)
    assert [type(L) for L in spectra.Torus((6, 6, 6)).lengths] == [float] * 3
    with pytest.raises(ValueError):
        spectra.Torus((1.0, -2.0, 3.0))


_P7 = GroupAction(7, 1, 3)


@pytest.mark.parametrize(
    "call,message",
    [
        (lambda: spectra.Torus((1.0, 2.0)), "a torus needs three side lengths, got (1.0, 2.0)"),
        (
            lambda: spectra.Torus((1.0, 1e-100, 1.0)),
            "torus side L2 = 1e-100 is too short: (2 pi / L)^2 must be at most 1e+200, i.e. L >= 6.283e-100",
        ),
        (lambda: torus_spectrum(CUBIC, 0.0), "cutoff must be a positive finite number, got 0.0"),
        (lambda: torus_spectrum(CUBIC, math.inf), "cutoff must be a positive finite number, got inf"),
        (lambda: torus_spectrum(CUBIC, math.nan), "cutoff must be a positive finite number, got nan"),
        (lambda: sphere_scalar_eigenvalue(-1), "scalar harmonic index must be >= 0, got -1"),
        (lambda: lens_scalar_multiplicity(_P7, -1), "scalar harmonic index must be >= 0, got -1"),
        (lambda: lens_oneform_multiplicity(_P7, 0), "co-closed 1-form index must be >= 1, got 0"),
        (lambda: lens_tt_multiplicity(_P7, 1), "TT tensor index must be >= 2, got 1"),
    ],
    ids=[
        "torus-two-sides",
        "torus-side-too-short",
        "cutoff-zero",
        "cutoff-inf",
        "cutoff-nan",
        "sphere-scalar-negative",
        "lens-scalar-below-0",
        "lens-oneform-below-1",
        "lens-tt-below-2",
    ],
)
def test_spectra_reject_bad_input(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()
