import cmath
import contextlib
import decimal
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from indicyl import cli, indicial, spectra
from indicyl.indicial import (
    CaseTag,
    SolutionForm,
    alpha_pm,
    assemble_catalog,
    family_roots,
    gluing_window,
    h2plus_predicate,
    mixed_a_roots,
    mixed_b_roots,
    spectral_gap,
    type2_roots,
    type3_roots,
)
from indicyl.spectra import GroupAction, Hyperbolic, OperatorKind, Sphere, SpectrumEntry, Torus


def values(pairs):
    return sorted((v for v, _ in pairs), key=lambda z: (z.real, z.imag))


# ---------------------------------------------------------------------------
# Root families
# ---------------------------------------------------------------------------


def test_type3_sphere_integer_example():
    got = values(type3_roots(6.0, 1))
    assert got == [(-4 + 0j), (-2 + 0j), (2 + 0j), (4 + 0j)]


def test_type3_hyperbolic_codazzi():
    got = values(type3_roots(3.0, -1))
    assert got == [-1j, 1j]
    assert all(v.real == 0 for v in got)


def test_type3_flat_parallel():
    got = type3_roots(0.0, 0)
    assert got == [(0j, True)]


def test_type3_flat_jordan():
    got = type3_roots(4.0, 0)
    assert got == [((-2 + 0j), True), ((2 + 0j), True)]


def test_type3_bound_violation():
    with pytest.raises(ValueError):
        type3_roots(5.0, 1)
    with pytest.raises(ValueError):
        type3_roots(2.9, -1)


@given(st.integers(min_value=2, max_value=50))
def test_type3_integer_identity(j):
    lam = float(j * j + 2 * j - 2)
    got = values(type3_roots(lam, 1))
    expected = sorted([-j - 2, -j, j, j + 2])
    assert all(abs(g - e) < 1e-12 for g, e in zip(got, expected))


def test_type2_examples():
    assert type2_roots(9.0, 1) == [(-3 + 0j), (3 + 0j)]
    assert type2_roots(0.0, -1) == [0j]
    with pytest.raises(ValueError):
        type2_roots(-1.0, 0)


def test_mixed_a_sphere_complex():
    got = [v for v, _ in mixed_a_roots(8.0, 1)]
    # Closed form sqrt(6 +- 2 i sqrt(5/3)), checked against the 4x4 matrix in
    # the oracle tests.
    target = cmath.sqrt(6 + 2j * math.sqrt(5.0 / 3.0))
    assert any(abs(v - target) < 1e-12 for v in got)
    assert any(abs(v + target) < 1e-12 for v in got)
    assert any(abs(v - target.conjugate()) < 1e-12 for v in got)
    assert len(got) == 4


def test_mixed_a_degenerate_sphere():
    got = [v for v, _ in mixed_a_roots(3.0, 1)]
    assert sorted(v.real for v in got) == [-1.0, 1.0]
    got0 = [v for v, _ in mixed_a_roots(0.0, 1)]
    assert sorted(got0, key=lambda z: (z.real, z.imag)) == [-2j, 0j, 2j]


def test_mixed_a_flat_jordan():
    got = mixed_a_roots(5.0, 0)
    r = math.sqrt(5.0)
    assert got == [((-r + 0j), True), ((r + 0j), True)]


def test_mixed_b_examples():
    assert mixed_b_roots(9.0, 1) == [complex(-math.sqrt(5)), complex(math.sqrt(5))]
    assert mixed_b_roots(4.0, 1) == [0j]
    assert mixed_b_roots(0.0, -1) == [(-2 + 0j), (2 + 0j)]


def test_alpha_pm_imaginary_normalization():
    # For curvature +1 and mu = j(j+2) the imaginary part of alpha^2 is
    # (2/3) sqrt(3 (j-1)(j+3)).
    for j in range(2, 12):
        mu = float(j * (j + 2))
        ap, am = alpha_pm(mu, 1)
        expected = cmath.sqrt(
            complex(mu - 2, (2.0 / 3.0) * math.sqrt(3.0 * (j - 1) * (j + 3)))
        )
        assert abs(ap - expected) < 1e-12


def _decimal_alpha(mu: float, kappa: int, sign: int) -> decimal.Decimal:
    """alpha^{sign}(mu) from the module docstring's formula, in 50-digit
    decimal arithmetic from the exact binary value of mu (real radicands
    only)."""
    with decimal.localcontext(prec=50):
        m, k = decimal.Decimal(mu), decimal.Decimal(kappa)
        return (m - 2 * k + sign * 2 * (k * k - m * k / 3).sqrt()).sqrt()


@pytest.mark.parametrize("mu", [1e-12, 1e-6, 1e-3, 0.7, 2.5])
@pytest.mark.parametrize("kappa,branch", [(-1, 1), (1, 0)], ids=["alpha_minus_kappa_-1", "alpha_plus_kappa_1"])
def test_cancelling_alpha_branch_within_two_ulps(kappa, branch, mu):
    # Where mu - 2 kappa and the discriminant term have opposite signs,
    # alpha_pm forms the square over the conjugate sum; the direct sum lost
    # about eps / mu (402 ulps of alpha^- at mu = 1e-3, relative 2.7e-4 at
    # 1e-12).  At kappa = 1 and mu = 2.5 the direct sum has no cancellation.
    got = alpha_pm(mu, kappa)[branch]
    exact = _decimal_alpha(mu, kappa, -1 if branch else 1)
    assert got.imag == 0.0
    assert abs(decimal.Decimal(got.real) - exact) <= 2 * decimal.Decimal(math.ulp(float(exact)))


# ---------------------------------------------------------------------------
# Which side of indicial._ZERO_TOL counts as zero
# ---------------------------------------------------------------------------


def _last_inside(center, direction):
    """The float farthest from center on the given side (+1 above, -1
    below) with |x - center| <= indicial._ZERO_TOL."""
    x = center + direction * indicial._ZERO_TOL
    while abs(x - center) > indicial._ZERO_TOL:
        x = math.nextafter(x, center)
    return x


def _cases(kind, ev, kappa):
    return {r.case_tag for r in family_roots(SpectrumEntry(kind, 1, ev, 1), kappa)}


def test_type2_zero_tolerance_is_inclusive():
    assert _last_inside(0.0, 1) == 1e-12
    assert type2_roots(1e-12, 1) == [0j]
    above = math.nextafter(1e-12, 1)
    r = math.sqrt(above)
    assert type2_roots(above, 1) == [complex(-r), complex(r)]
    assert r == pytest.approx(1e-6, rel=1e-15)


@pytest.mark.parametrize("kappa", [-1, 0, 1])
def test_scalar_collapse_to_case0_is_inclusive(kappa):
    assert _cases(OperatorKind.SCALAR_HODGE, 1e-12, kappa) == {CaseTag.CASE0}
    assert _cases(OperatorKind.SCALAR_HODGE, -1e-12, kappa) == {CaseTag.CASE0}
    assert _cases(OperatorKind.SCALAR_HODGE, math.nextafter(1e-12, 1), kappa) == {CaseTag.CASE4}


@pytest.mark.parametrize(
    "kappa,center,direction", [(1, 4.0, 1), (1, 4.0, -1), (0, 0.0, 1)], ids=["k1-above", "k1-below", "k0-above"]
)
def test_coclosed_collapse_to_case0_is_inclusive(kappa, center, direction):
    # Near 4 no difference of floats equals 1e-12, so there only the edge
    # is pinned; at 0 the edge float is 1e-12 itself.
    inside = _last_inside(center, direction)
    outside = math.nextafter(inside, direction * math.inf)
    assert abs(outside - center) > indicial._ZERO_TOL
    assert _cases(OperatorKind.COCLOSED_ONEFORM_HODGE, inside, kappa) == {CaseTag.CASE0}
    assert _cases(OperatorKind.COCLOSED_ONEFORM_HODGE, outside, kappa) == {CaseTag.CASE3, CaseTag.CASE5}


@pytest.mark.parametrize("kappa,center", [(-1, 3.0), (0, 0.0)], ids=["k-1-codazzi", "k0-parallel"])
def test_tt_beta_is_zero_up_to_the_zero_tolerance(kappa, center):
    # beta = sqrt(lam + 3 kappa) is 0 exactly where the loader counts a TT
    # line as Codazzi (kappa = -1) and a torus level counts as parallel
    # (kappa = 0): up to _EIG_TOL above the bound, inclusive.  Above it the
    # roots leave real part 0 by about 1e-6.
    inside = _last_inside(center, 1)
    outside = math.nextafter(inside, math.inf)
    assert spectra._EIG_TOL == indicial._ZERO_TOL
    assert abs(inside - center) <= spectra._EIG_TOL < abs(outside - center)
    beta = math.sqrt(outside - center)
    assert beta == pytest.approx(1e-6, rel=1e-3)
    if kappa == -1:
        assert values(type3_roots(inside, -1)) == values(type3_roots(3.0, -1)) == [-1j, 1j]
        assert values(type3_roots(3.0000000000001, -1)) == [-1j, 1j]
        want = [complex(-beta, -1), complex(-beta, 1), complex(beta, -1), complex(beta, 1)]
        assert values(type3_roots(outside, -1)) == want
    else:
        assert type3_roots(inside, 0) == type3_roots(0.0, 0) == [(0j, True)]
        assert type3_roots(outside, 0) == [(complex(-beta), True), (complex(beta), True)]


def test_flat_mixed_a_zero_branch():
    # Only a direct call reaches it: family_roots collapses the scalar
    # eigenvalue 0 to case 0 first.
    assert mixed_a_roots(0.0, 0) == [(0j, True)]


# ---------------------------------------------------------------------------
# Exclusions
# ---------------------------------------------------------------------------


def test_exclusion_constant_scalar():
    for kappa in (-1, 0, 1):
        out = family_roots(SpectrumEntry(OperatorKind.SCALAR_HODGE, 0, 0.0, 1), kappa)
        assert len(out) == 1
        r = out[0]
        assert r.value == 0 and r.case_tag is CaseTag.CASE0 and r.conformal_killing
        assert r.solution_form is SolutionForm.OMEGA_ONLY


def test_exclusion_lowest_scalar():
    out = family_roots(SpectrumEntry(OperatorKind.SCALAR_HODGE, 1, 3.0, 4), 1)
    assert sorted(r.value.real for r in out) == [-1.0, 1.0]
    assert all(r.case_tag is CaseTag.CASE1 and r.conformal_killing for r in out)
    assert all(r.multiplicity == 4 for r in out)


def test_exclusion_killing_oneform():
    for entry, kappa in [
        (SpectrumEntry(OperatorKind.COCLOSED_ONEFORM_HODGE, 1, 4.0, 6), 1),
        (SpectrumEntry(OperatorKind.COCLOSED_ONEFORM_HODGE, 0, 0.0, 3), 0),
    ]:
        out = family_roots(entry, kappa)
        assert len(out) == 1 and out[0].value == 0
        assert out[0].case_tag is CaseTag.CASE0 and out[0].conformal_killing
        assert out[0].multiplicity == entry.multiplicity


def test_generic_mixed_tags():
    out = family_roots(SpectrumEntry(OperatorKind.SCALAR_HODGE, 2, 8.0, 9), 1)
    assert [r.value for r in out] == [v for v, _ in mixed_a_roots(8.0, 1)]
    assert all(r.case_tag is CaseTag.CASE4 and not r.conformal_killing for r in out)
    out = family_roots(SpectrumEntry(OperatorKind.COCLOSED_ONEFORM_HODGE, 2, 9.0, 16), 1)
    assert [r.value for r in out if r.case_tag is CaseTag.CASE5] == mixed_b_roots(9.0, 1)
    assert [r.value for r in out if r.case_tag is CaseTag.CASE3] == type2_roots(9.0, 1)
    assert not any(r.conformal_killing for r in out)


# ---------------------------------------------------------------------------
# Catalogs
# ---------------------------------------------------------------------------


def sphere_catalog(j_max=10, **kwargs):
    return assemble_catalog(Sphere(**kwargs), j_max)


def test_sphere_low_roots():
    catalog = sphere_catalog(j_max=2)
    low = sorted({r.value for r in catalog.roots if abs(r.value.real) < 2}, key=lambda z: z.real)
    assert low == [(-1 + 0j), 0j, (1 + 0j)]
    assert all(
        r.conformal_killing for r in catalog.roots if abs(r.value.real) < 2
    )


def test_sphere_dims_at_zero():
    catalog = sphere_catalog(j_max=4)
    assert catalog.dim_at_zero == 7  # constants + six Killing fields


def test_torus_dimension_14():
    for lengths in [(2 * math.pi,) * 3, (3.0, 4.0, 5.5)]:
        catalog = assemble_catalog(Torus(lengths), 3)
        assert catalog.dim_at_zero == 14


def test_torus_gap_is_one():
    catalog = assemble_catalog(Torus(), 4)
    g = spectral_gap(catalog)
    assert abs(g.gap - 1.0) < 1e-12


def test_hyperbolic_catalog_dimensions():
    entries = (
        SpectrumEntry(OperatorKind.SCALAR_HODGE, 1, 2.0, 3),
        SpectrumEntry(OperatorKind.COCLOSED_ONEFORM_HODGE, 1, 1.5, 4),
        SpectrumEntry(OperatorKind.DIVFREE_TT_ROUGH, 1, 3.0, 2),
    )
    catalog = assemble_catalog(Hyperbolic(entries, b1=0, dim_codazzi=2), 5)
    assert catalog.dim_at_zero == 1 + 0 + 2 * 2

    catalog2 = assemble_catalog(Hyperbolic(entries[:2], b1=3, dim_codazzi=0), 5)
    assert catalog2.dim_at_zero == 1 + 3
    # Harmonic 1-forms also give mixed roots at +-2.
    assert any(abs(r.value - 2) < 1e-12 and r.case_tag is CaseTag.CASE5 for r in catalog2.roots)


def test_hyperbolic_sigma_tau_rates():
    mu, nu = 2.0, 1.5
    entries = (
        SpectrumEntry(OperatorKind.SCALAR_HODGE, 1, mu, 1),
        SpectrumEntry(OperatorKind.COCLOSED_ONEFORM_HODGE, 1, nu, 1),
    )
    catalog = assemble_catalog(Hyperbolic(entries, b1=0, dim_codazzi=0), 5)
    vals = {round(v.real, 9) for v in (r.value for r in catalog.roots) if v.real > 0}
    sig_p = math.sqrt(mu + 2 + 2 * math.sqrt(1 + mu / 3))
    sig_m = math.sqrt(mu + 2 - 2 * math.sqrt(1 + mu / 3))
    tau = math.sqrt(nu + 4)
    for expected in (sig_p, sig_m, tau, math.sqrt(nu)):
        assert round(expected, 9) in vals


def test_lens_catalog_case1_absent():
    catalog = sphere_catalog(j_max=4, group=GroupAction(2, 1, 1))
    assert not any(r.case_tag is CaseTag.CASE1 for r in catalog.roots)
    # Odd-degree scalar modes are projected out entirely.
    assert not any(
        r.origin_kind is OperatorKind.SCALAR_HODGE and r.origin_j % 2 == 1
        for r in catalog.roots
    )
    # Every descent is computed, so nothing falls back to full-sphere values.
    assert not catalog.geometry.caveats


def test_lens_catalog_dims_at_zero():
    # Constants plus the Killing fields: 1 + 6 on S^3, 1 + 2 on L(5;1,2),
    # whose isometry group is a 2-torus.
    assert sphere_catalog(j_max=4).dim_at_zero == 7
    lens = sphere_catalog(j_max=4, group=GroupAction(5, 1, 2))
    assert lens.dim_at_zero == 3


# The count at real part 0 in closed form, with no catalog code: the
# constants and, on S^3/Gamma, the Killing fields, whose dimension is that of
# the isometry group (SO(4)/Gamma on S^3 and RP^3, U(2)/Gamma when
# q1 = +-q2 mod p, a 2-torus otherwise); the 14 parallel solutions on a
# torus; on a hyperbolic cross-section the constants, the b1 harmonic
# 1-forms and the roots +-i of each Codazzi tensor.
def _isometry_dimension(p, q1, q2):
    if p <= 2:
        return 6
    return 4 if (q1 - q2) % p == 0 or (q1 + q2) % p == 0 else 2


def _hyperbolic(b1, codazzi, lowest_j):
    """Lowest lines (harmonic 1-forms, Codazzi tensors) at lowest_j."""
    entries = [
        SpectrumEntry(OperatorKind.SCALAR_HODGE, 1, 2.1, 3),
        SpectrumEntry(OperatorKind.COCLOSED_ONEFORM_HODGE, lowest_j, 0.0, b1),
        SpectrumEntry(OperatorKind.COCLOSED_ONEFORM_HODGE, 2, 1.3, 4),
        SpectrumEntry(OperatorKind.DIVFREE_TT_ROUGH, lowest_j, 3.0, codazzi),
        SpectrumEntry(OperatorKind.DIVFREE_TT_ROUGH, 2, 5.2, 8),
    ]
    return Hyperbolic(tuple(e for e in entries if e.multiplicity), b1, codazzi)


_GROUPS = [(1, 1, 1), (2, 1, 1), (5, 1, 1), (5, 1, 2), (7, 1, 3), (7, 2, 5), (8, 3, 5), (8, 1, 3)]
_HYPERBOLIC = [(0, 2, 1), (3, 0, 4), (2, 5, 3)]


@pytest.mark.parametrize(
    "geo,dim",
    [(Sphere(GroupAction(*g)), 1 + _isometry_dimension(*g)) for g in _GROUPS]
    + [(Torus(lengths), 14) for lengths in ((2 * math.pi,) * 3, (3.1, 4.7, 5.9))]
    + [(_hyperbolic(*h), 1 + h[0] + 2 * h[1]) for h in _HYPERBOLIC],
    ids=[f"lens-{p}-{q1}-{q2}" for p, q1, q2 in _GROUPS] + ["torus-cube", "torus-3.1-4.7-5.9"]
    + [f"hyperbolic-b1-{b1}-codazzi-{c}-at-j{j}" for b1, c, j in _HYPERBOLIC],
)
def test_dim_at_zero_is_closed_form_at_every_jmax(geo, dim):
    for j_max in range(5):
        assert assemble_catalog(geo, j_max).dim_at_zero == dim, j_max


@pytest.mark.parametrize(
    "p,q1,q2",
    [(7, 9, -4), (7, -5, 10), (7, -2, 3), (7, 3, 2), (9973, -9971, 19949), (9973, -9970, -2)],
    ids=["9--4", "-5-10", "-2-3", "3-2", "9973--9971-19949", "9973--9970--2"],
)
def test_lens_parameters_matter_mod_p_and_up_to_sign(p, q1, q2):
    # A weight vector (k, l) of V_a x V_b is invariant when
    # l (q1 - q2) = (s - k) q1 + (d - k) q2 (mod p), so q enters only mod p.
    # Negating both q negates the congruence; swapping q1 and q2 maps l to
    # 2b - l; negating one q swaps the roles of the two factors, which every
    # kind's pairing (V_a x V_a, or V_a x V_b plus its swap) absorbs.
    base, other = GroupAction(p, 2, 3), GroupAction(p, q1, q2)
    for multiplicity, j_min in [
        (spectra.lens_scalar_multiplicity, 0),
        (spectra.lens_oneform_multiplicity, 1),
        (spectra.lens_tt_multiplicity, 2),
    ]:
        for j in range(j_min, 20):
            assert multiplicity(other, j) == multiplicity(base, j)
    a, b = sphere_catalog(j_max=12, group=base), sphere_catalog(j_max=12, group=other)
    assert b.roots == a.roots
    assert b.dim_at_zero == a.dim_at_zero


# ---------------------------------------------------------------------------
# Relations between catalogs.  Both sides of each relation run the same
# multiplicity or torus code, so these are consistency witnesses: they catch
# a q reduced mod the wrong order, an axis-dependent rounding or a root
# without its mirror, not a wrong pairing (Chen et al., "Metamorphic
# testing: a review of challenges and opportunities", ACM Comput. Surv. 51,
# 2018).
# ---------------------------------------------------------------------------


@st.composite
def _lens_groups(draw, p_max=60):
    """L(p; q1, q2) with both q prime to p and reduced mod p."""
    p = draw(st.integers(min_value=2, max_value=p_max))
    units = [q for q in range(1, p) if math.gcd(q, p) == 1]
    return GroupAction(p, draw(st.sampled_from(units)), draw(st.sampled_from(units)))


_TORUS_SIDES = st.tuples(*[st.sampled_from([2 * math.pi, 1.3, 3.1, 4.7, 5.9, 7.25])] * 3)
_GEOMETRIES = st.one_of(
    st.just(Sphere()),
    st.just(Torus()),
    _lens_groups().map(Sphere),
    _TORUS_SIDES.map(Torus),
)


def _root_table(catalog, keep_jordan=True):
    """Multiplicity per (value, case, kind, j[, jordan]) of a catalog."""
    table = {}
    for r in catalog.roots:
        key = (r.value, r.case_tag, r.origin_kind, r.origin_j) + ((r.jordan,) if keep_jordan else ())
        table[key] = table.get(key, 0) + r.multiplicity
    return table


@settings(max_examples=30, deadline=None)
@given(_GEOMETRIES, st.integers(min_value=0, max_value=12))
def test_sign_symmetry(geo, j_max):
    # Every root -v comes with v, at the same multiplicity, case, origin and
    # Jordan flag: on the sphere, its lens quotients and every torus.
    table = _root_table(assemble_catalog(geo, j_max))
    for (v, *rest), mult in table.items():
        assert table.get((-v, *rest)) == mult, (geo, v, rest)


def test_a_property_run_writes_nothing_into_the_working_directory(tmp_path):
    # hypothesis keeps the constants it collects from the sources, and a
    # failing example's patch, in conftest's temporary home, which is
    # removed at exit, not under .hypothesis/ where pytest was started.
    argv = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", __file__, "-k", "test_sign_symmetry"]
    proc = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "1 passed" in proc.stdout
    assert sorted(os.listdir(tmp_path)) == []


@settings(max_examples=20, deadline=None)
@given(_lens_groups(), st.integers(min_value=1, max_value=59))
def test_lens_multiplicities_do_not_depend_on_the_generator(g, k):
    # g^k generates the same group when gcd(k, p) = 1: (k q1, k q2) is the
    # same lens space.
    if math.gcd(k, g.p) != 1:
        k = 1
    other = GroupAction(g.p, k * g.q1 % g.p, k * g.q2 % g.p)
    for multiplicity, j_min in [
        (spectra.lens_scalar_multiplicity, 0),
        (spectra.lens_oneform_multiplicity, 1),
        (spectra.lens_tt_multiplicity, 2),
    ]:
        for j in range(j_min, 16):
            assert multiplicity(other, j) == multiplicity(g, j), (g, k, multiplicity.__name__, j)


# The sphere's multiplicities in closed form, the cover of every quotient.
_SPHERE_MULTIPLICITIES = {
    spectra.lens_scalar_multiplicity: lambda j: (j + 1) ** 2,
    spectra.lens_oneform_multiplicity: lambda j: 2 * j * (j + 2),
    spectra.lens_tt_multiplicity: lambda j: 2 * (j - 1) * (j + 3),
}


@settings(max_examples=20, deadline=None)
@given(_lens_groups(), st.integers(min_value=0, max_value=59))
def test_lens_multiplicities_are_bounded_by_each_cover(g, k):
    # For d | p, the (p/d)-th power of the generator generates the subgroup
    # of order d, which acts as L(d; q1 mod d, q2 mod d).  That quotient
    # covers L(p; q1, q2), so each multiplicity is at most its own, and at
    # most the sphere's.
    divisors = [d for d in range(1, g.p + 1) if g.p % d == 0]
    d = divisors[k % len(divisors)]
    cover = GroupAction(d, g.q1 % d, g.q2 % d)
    for multiplicity, j_min in [
        (spectra.lens_scalar_multiplicity, 0),
        (spectra.lens_oneform_multiplicity, 1),
        (spectra.lens_tt_multiplicity, 2),
    ]:
        sphere = _SPHERE_MULTIPLICITIES[multiplicity]
        for j in range(j_min, 16):
            assert multiplicity(g, j) <= multiplicity(cover, j) <= sphere(j), (g, d, multiplicity.__name__, j)


@settings(max_examples=15, deadline=None)
@given(_lens_groups(), st.integers(min_value=0, max_value=12))
def test_lens_roots_lie_in_the_sphere_catalog(g, j_max):
    # A quotient's eigenfunctions are the sphere's invariant ones: each of
    # its roots is a sphere root of the same case and origin, with at least
    # its multiplicity.
    sphere = _root_table(assemble_catalog(Sphere(), j_max), keep_jordan=False)
    for key, mult in _root_table(assemble_catalog(Sphere(g), j_max), keep_jordan=False).items():
        assert sphere.get(key, 0) >= mult, (g, key)


def _csv_roots(sides, j_max):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["roots", "--torus", ",".join(map(repr, sides)), "--jmax", str(j_max), "--format", "csv"]) == 0
    return out.getvalue()


@settings(max_examples=15, deadline=None)
@given(_TORUS_SIDES, st.permutations(range(3)), st.integers(min_value=0, max_value=12))
# Enumerated in the order given, these sides printed level 6 as
# 7.682380759234432 and 7.6823807592344329.
@example(sides=(4.7, 4.7, 3.1), order=[2, 0, 1], j_max=12)
def test_torus_csv_does_not_depend_on_the_order_of_the_sides(sides, order, j_max):
    # The CSV prints no lengths, and isometric tori have one catalog.
    assert _csv_roots([sides[i] for i in order], j_max) == _csv_roots(sides, j_max)


@settings(max_examples=15, deadline=None)
@given(_TORUS_SIDES, st.sampled_from([0.3, 0.7, 1.3, 3.0]), st.integers(min_value=0, max_value=12))
def test_torus_scaling_scales_the_eigenvalues(sides, c, j_max):
    # Scaling every side by c divides each eigenvalue by c^2, to 8 ulps, and
    # keeps the levels and their multiplicities.
    base, scaled = (Torus(s).spectrum(j_max) for s in (sides, tuple(c * L for L in sides)))
    for entries, scaled_entries in zip(base, scaled):
        assert [(e.kind, e.j, e.multiplicity) for e in scaled_entries] == [(e.kind, e.j, e.multiplicity) for e in entries]
        for e, s in zip(entries, scaled_entries):
            assert abs(s.eigenvalue - e.eigenvalue / c**2) <= 8 * math.ulp(s.eigenvalue), (sides, c, e)


# ---------------------------------------------------------------------------
# No catalog has roots to merge: the first-match oracle leaves it as it is
# ---------------------------------------------------------------------------


def first_match_merge(roots):
    """Independent merge: each root joins the first earlier kept root with the
    same case and origin whose value lies within 1e-9 * max(1, |value|),
    summing multiplicities; the result is sorted by value, case and origin."""
    merged = []
    for r in roots:
        for i, existing in enumerate(merged):
            if (
                abs(r.value - existing.value) < 1e-9 * max(1.0, abs(r.value))
                and r.case_tag == existing.case_tag
                and r.origin_kind == existing.origin_kind
                and r.origin_j == existing.origin_j
            ):
                merged[i] = existing._replace(
                    multiplicity=existing.multiplicity + r.multiplicity
                )
                break
        else:
            merged.append(r)
    return sorted(
        merged,
        key=lambda r: (r.value.real, r.value.imag, int(r.case_tag), r.origin_kind.value, r.origin_j),
    )


_GROUPS = ("2,1,1", "3,1,1", "5,1,2", "7,1,3")
_SIDES = st.floats(min_value=3.0, max_value=9.0).map(lambda x: round(x, 4))


def _hyperbolic_text(rows):
    lines = ["b1 1", "codazzi 0", "oneform 0 0.0 1"]
    for kind, start in (("scalar", 0.5), ("oneform", 0.5), ("tt", 3.5)):
        ev = start
        for j, (step, mult) in enumerate(rows, start=1):
            ev = round(ev + step, 6)
            lines.append(f"{kind} {j} {ev!r} {mult}")
    return "\n".join(lines) + "\n"


def _stdout(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


@settings(max_examples=30, deadline=None)
@given(
    st.one_of(
        st.just(["--sphere"]),
        st.sampled_from(_GROUPS).map(lambda g: ["--lens", g]),
        st.tuples(_SIDES, _SIDES, _SIDES).map(lambda t: ["--torus", ",".join(map(repr, t))]),
        st.lists(st.tuples(st.floats(0.05, 1.0), st.integers(1, 4)), min_size=1, max_size=30).map(
            lambda rows: ["--hyperbolic", _hyperbolic_text(rows)]
        ),
    ),
    st.integers(min_value=0, max_value=40),
)
def test_no_catalog_has_roots_to_merge(geometry, j_max):
    # Each entry lists its roots once, so the sorted family roots are
    # already merged: the oracle merge finds nothing to add up.
    with tempfile.TemporaryDirectory() as tmp:
        if geometry[0] == "--hyperbolic":
            path = Path(tmp) / "spectrum.txt"
            path.write_text(geometry[1])
            geometry = ["--hyperbolic", str(path)]
        args = cli.build_parser().parse_args(["roots", *geometry])
        catalog = assemble_catalog(cli._cross_section(args), j_max)
    assert catalog.roots
    assert first_match_merge(catalog.roots) == list(catalog.roots)


def test_case4_case5_bounds():
    catalog = sphere_catalog(j_max=12)
    for r in catalog.roots:
        if r.case_tag is CaseTag.CASE4:
            assert abs(r.value.real) > math.sqrt(6)
        if r.case_tag is CaseTag.CASE5:
            assert abs(r.value.real) >= math.sqrt(5) - 1e-12


def test_truncation_bound():
    catalog = sphere_catalog(j_max=3)
    # First omitted: scalar j=4 (Re alpha ~ sqrt(22)), oneform j=4 (type 2
    # gives 5, mixed gives sqrt(21)), tt j=4 (roots 4 and 6).
    assert catalog.complete_below_re == pytest.approx(4.0)


# The truncation bound against a per-kind dispatch: the roots of each
# omitted eigenvalue without the conformal Killing collapse.  The sphere's
# omitted eigenvalues come from their closed forms, the torus's from level
# j_max + 1 of one generous lattice enumeration, and a hyperbolic file's
# from the lowest nonzero eigenvalue of each kind that j_max cuts off and
# the largest eigenvalue the file lists.


def omitted_root_values(kind, ev, kappa):
    if kind is OperatorKind.DIVFREE_TT_ROUGH:
        if ev < spectra.TT_LOWER_BOUND[kappa]:
            return []
        return [v for v, _ in type3_roots(ev, kappa)]
    if kind is OperatorKind.SCALAR_HODGE:
        return list(alpha_pm(ev, kappa))
    return type2_roots(ev, kappa) + mixed_b_roots(ev, kappa)


def dispatch_complete_below_re(geo, j_max):
    if isinstance(geo, spectra.Sphere):
        j = max(j_max + 1, 2)  # the Killing fields (co-closed j = 1) are always listed
        omitted = [
            (OperatorKind.SCALAR_HODGE, float((j_max + 1) * (j_max + 3))),
            (OperatorKind.COCLOSED_ONEFORM_HODGE, float((j + 1) ** 2)),
            (OperatorKind.DIVFREE_TT_ROUGH, float(j * j + 2 * j - 2)),
        ]
    elif isinstance(geo, spectra.Torus):
        levels = spectra.torus_spectrum(geo.lengths, 200.0)
        assert len(levels) > j_max + 1
        omitted = [(kind, levels[j_max + 1].eigenvalue) for kind in OperatorKind]
    else:
        omitted = []
        for kind in OperatorKind:
            evs = [e.eigenvalue for e in geo.entries if e.kind is kind]
            cut = [e.eigenvalue for e in geo.entries if e.kind is kind and e.j > j_max]
            candidates = [min((ev for ev in cut if ev > 1e-12), default=0.0), max(evs, default=0.0)]
            omitted += [(kind, ev) for ev in candidates if ev > 1e-12]
    res = [
        abs(v.real)
        for kind, ev in omitted
        for v in omitted_root_values(kind, ev, geo.kappa)
        if abs(v.real) > 1e-12
    ]
    return min(res) if res else math.inf


@pytest.mark.parametrize("group", [(1, 1, 1), (2, 1, 1), (5, 1, 2), (7, 2, 3), (12, 1, 5)])
def test_truncation_bound_matches_dispatch_sphere_and_lens(group):
    geo = Sphere(GroupAction(*group))
    for j_max in range(41):
        bound = assemble_catalog(geo, j_max).complete_below_re
        assert bound == dispatch_complete_below_re(geo, j_max), j_max


@pytest.mark.parametrize("lengths", [(2 * math.pi,) * 3, (3.1, 4.7, 5.9), (3.0, 9.0, 8.0)])
def test_truncation_bound_matches_dispatch_torus(lengths):
    geo = Torus(lengths)
    for j_max in (0, 1, 2, 3, 7, 20, 40):
        bound = assemble_catalog(geo, j_max).complete_below_re
        assert bound == dispatch_complete_below_re(geo, j_max), j_max


def test_truncation_bound_matches_dispatch_hyperbolic(tmp_path):
    path = tmp_path / "spectrum.txt"
    path.write_text(_hyperbolic_text([(0.1 + 0.03 * (i % 7), 1 + i % 3) for i in range(25)]))
    geo = spectra.load_hyperbolic_spectrum(path)
    for j_max in range(41):
        bound = assemble_catalog(geo, j_max).complete_below_re
        assert bound == dispatch_complete_below_re(geo, j_max), j_max


def test_hyperbolic_bound_counts_entries_cut_by_jmax(tmp_path):
    path = tmp_path / "spectrum.txt"
    path.write_text("b1 0\ncodazzi 0\ntt 0 3.5 1\ntt 1 4.0 1\ntt 2 100.0 1\n")
    bounds = []
    for j_max in (0, 1, 2):
        code, out = _stdout(["roots", "--hyperbolic", str(path), "--jmax", str(j_max)])
        assert code == 0
        doc = json.loads(out)
        assert sorted({r["j"] for r in doc["roots"] if r["origin_kind"] == "tt"}) == list(
            range(j_max + 1)
        )
        bounds.append(doc["complete_below_re"])
    # At j_max 0 the roots +-1 +- i of the cut tt 1 entry are missing; past
    # that, the file's last eigenvalue 100 bounds the rest.
    assert bounds == [1.0, math.sqrt(97.0), math.sqrt(97.0)]


# ---------------------------------------------------------------------------
# Predicates
# ---------------------------------------------------------------------------


def test_spectral_gap_sphere():
    catalog = sphere_catalog(j_max=10)
    g = spectral_gap(catalog)
    assert g.gap == pytest.approx(1.0)
    assert g.gap_above_exceptional == pytest.approx(2.0)


def test_gluing_window_sphere_and_lens():
    assert gluing_window(sphere_catalog(j_max=4)) == (0.0, 2.0)
    lens = sphere_catalog(j_max=4, group=GroupAction(2, 1, 1))
    assert gluing_window(lens) == (0.0, 2.0)


def test_gluing_window_requires_sphere():
    catalog = assemble_catalog(Torus(), 3)
    with pytest.raises(ValueError):
        gluing_window(catalog)


@pytest.mark.parametrize("direction", [1.0, -1.0], ids=["above", "below"])
def test_gluing_window_bound_tolerance_boundary(monkeypatch, direction):
    # A computed bound g passes while |g - 2| <= _GLUING_BOUND_TOL: the
    # farthest float from 2 that does is accepted, the next one refused.
    limit = indicial._GLUING_BOUND_TOL
    g = 2.0 + direction * limit
    while abs(g - 2.0) > limit:
        g = math.nextafter(g, 2.0)
    outside = math.nextafter(g, direction * math.inf)
    assert abs(outside - 2.0) > limit
    catalog = sphere_catalog(j_max=4)
    for bound, ok in ((g, True), (outside, False)):
        gap = indicial.SpectralGap(gap=1.0, gap_above_exceptional=bound)
        monkeypatch.setattr(indicial, "spectral_gap", lambda _: gap)
        if ok:
            assert gluing_window(catalog) == (0.0, bound)
        else:
            with pytest.raises(indicial.GluingWindowError):
                gluing_window(catalog)


def test_gluing_window_wrong_bound_is_typed_error():
    root = indicial.IndicialRoot(
        value=complex(3.0),
        case_tag=CaseTag.CASE2,
        origin_kind=OperatorKind.DIVFREE_TT_ROUGH,
        origin_j=2,
        origin_eigenvalue=6.0,
    )
    catalog = indicial.RootCatalog(Sphere(), (root,), 2, 0, math.inf)
    with pytest.raises(indicial.GluingWindowError, match="computed bound 3.0") as info:
        gluing_window(catalog)
    assert not isinstance(info.value, ValueError)


def test_gluing_window_empty():
    catalog = sphere_catalog(j_max=1)
    with pytest.raises(ValueError):
        gluing_window(catalog)


def test_h2plus_predicate():
    geo = Hyperbolic(
        (SpectrumEntry(OperatorKind.DIVFREE_TT_ROUGH, 1, 3.0, 2),), b1=0, dim_codazzi=2
    )
    vanishes, notes = h2plus_predicate(geo)
    assert not vanishes and notes == []

    vanishes, _ = h2plus_predicate(Hyperbolic((), b1=0, dim_codazzi=0))
    assert vanishes

    vanishes, notes = h2plus_predicate(Hyperbolic((), b1=2, dim_codazzi=0))
    assert vanishes and any("rational homology" in n for n in notes)

    with pytest.raises(ValueError):
        h2plus_predicate(Torus())


def test_root_tags_derive_from_case():
    # Only the case is stored: the solution form and the conformal Killing
    # flag follow from it, so no root can contradict its case.
    table = {
        CaseTag.CASE0: (SolutionForm.OMEGA_ONLY, True),
        CaseTag.CASE1: (SolutionForm.OMEGA_ONLY, True),
        CaseTag.CASE2: (SolutionForm.Z_ONLY, False),
        CaseTag.CASE3: (SolutionForm.Z_ONLY, False),
        CaseTag.CASE4: (SolutionForm.MIXED, False),
        CaseTag.CASE5: (SolutionForm.MIXED, False),
    }
    assert set(table) == set(CaseTag)
    for case, (form, killing) in table.items():
        root = indicial.IndicialRoot(2 + 0j, case, OperatorKind.SCALAR_HODGE, 1, 3.0)
        assert root.solution_form is form
        assert root.conformal_killing is killing
    assert indicial.IndicialRoot._fields == (
        "value", "case_tag", "origin_kind", "origin_j", "origin_eigenvalue", "jordan", "multiplicity"
    )


def test_value_types_are_immutable():
    entry = SpectrumEntry(OperatorKind.SCALAR_HODGE, 0, 0.0, 1)
    catalog = assemble_catalog(Sphere(), 2)
    values = [
        (entry, "j"),
        (GroupAction(5, 1, 2), "p"),
        (Sphere(), "group"),
        (Torus(), "lengths"),
        (Hyperbolic((entry,), 0, 0), "b1"),
        (catalog.roots[0], "multiplicity"),
        (catalog, "j_max"),
        (spectral_gap(catalog), "gap"),
    ]
    assert len({type(v) for v, _ in values}) == 8
    for value, name in values:
        with pytest.raises(AttributeError):
            setattr(value, name, 1)
        with pytest.raises(AttributeError):
            value.extra = 1  # no instance dictionary either


@pytest.mark.parametrize(
    "call,message",
    [
        (lambda: mixed_a_roots(-1.0, 1), "scalar Hodge eigenvalue must be >= 0, got -1.0"),
        (lambda: mixed_b_roots(-1.0, 1), "co-closed Hodge eigenvalue must be >= 0, got -1.0"),
        (lambda: assemble_catalog(Sphere(), -1), "j_max must be nonnegative"),
    ],
    ids=["mixed-a-negative", "mixed-b-negative", "negative-jmax"],
)
def test_indicial_rejects_bad_input(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()
