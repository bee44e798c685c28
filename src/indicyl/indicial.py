"""Closed-form indicial roots and root catalogs for the cylinder operators.

The mixed-order operator pair (linearized anti-self-dual Weyl curvature,
twice the divergence) on R x Y^3 separates variables over the cross-section
spectra, and every indicial root comes from one of four scalar/small-matrix
ODE families:

* type 3 (divergence-free TT eigentensors, eigenvalue lam):
  roots +-beta +- sqrt(kappa) with beta = sqrt(lam + 3 kappa);
* type 2 (co-closed eigenform solutions with vanishing 1-form part,
  eigenvalue nu): roots +-sqrt(nu), constants only at nu = 0;
* mixed type (a) (scalar eigenvalue mu): roots +-alpha^{+-}(mu) with
  alpha^{+-}(mu) = sqrt(mu - 2 kappa +- 2 sqrt(kappa^2 - mu kappa / 3));
* mixed type (b) (co-closed eigenvalue nu): roots +-sqrt(nu - 4 kappa).

For kappa = +1 the scalar eigenvalues 0 and 3 and the co-closed eigenvalue 4
produce 1-forms dual to conformal Killing fields of the cylinder; their
surviving roots (0 and +-1) are tagged cases 0 and 1.  The constant scalar
mode behaves the same way for every kappa: only the root 0 with the
1-form dt survives.
"""

from __future__ import annotations

import cmath
import math
from enum import Enum, IntEnum
from typing import NamedTuple

from .spectra import (
    Hyperbolic,
    OperatorKind,
    Sphere,
    SpectrumEntry,
    Torus,
    TT_LOWER_BOUND,
)

__all__ = [
    "CaseTag",
    "SolutionForm",
    "IndicialRoot",
    "RootCatalog",
    "SpectralGap",
    "VerificationError",
    "GluingWindowError",
    "type3_roots",
    "type2_roots",
    "mixed_a_roots",
    "mixed_b_roots",
    "alpha_pm",
    "family_roots",
    "assemble_catalog",
    "spectral_gap",
    "h2plus_predicate",
    "gluing_window",
]

_ZERO_TOL = 1e-12


class VerificationError(Exception):
    """A computed result failed one of the package's own checks: exit 1 in
    the CLI.  Deliberately no ValueError, which means bad input."""


class GluingWindowError(VerificationError):
    """A spherical catalog whose gluing window is not (0, 2)."""


class CaseTag(IntEnum):
    CASE0 = 0  # root 0, 1-form dual to a conformal Killing field
    CASE1 = 1  # roots +-1 on the full sphere, conformal Killing growth
    CASE2 = 2  # TT eigentensor solutions, vanishing 1-form part
    CASE3 = 3  # co-closed eigenform solutions, vanishing 1-form part
    CASE4 = 4  # mixed solutions driven by a scalar eigenfunction
    CASE5 = 5  # mixed solutions driven by a co-closed eigenform


class SolutionForm(str, Enum):
    Z_ONLY = "z_only"
    OMEGA_ONLY = "omega_only"
    MIXED = "mixed"


_FORM_FOR_CASE = {
    CaseTag.CASE0: SolutionForm.OMEGA_ONLY,
    CaseTag.CASE1: SolutionForm.OMEGA_ONLY,
    CaseTag.CASE2: SolutionForm.Z_ONLY,
    CaseTag.CASE3: SolutionForm.Z_ONLY,
    CaseTag.CASE4: SolutionForm.MIXED,
    CaseTag.CASE5: SolutionForm.MIXED,
}


class IndicialRoot(NamedTuple):
    """One catalog root, on the kernel and the cokernel side alike (the two
    carry the same complex root set); the case fixes its solution form, and
    cases 0 and 1 are exactly the roots dual to conformal Killing fields."""

    value: complex
    case_tag: CaseTag
    origin_kind: OperatorKind
    origin_j: int
    origin_eigenvalue: float
    jordan: bool = False
    multiplicity: int = 1

    @property
    def solution_form(self) -> SolutionForm:
        return _FORM_FOR_CASE[self.case_tag]

    @property
    def conformal_killing(self) -> bool:
        return self.case_tag <= CaseTag.CASE1


class RootCatalog(NamedTuple):
    """Roots of one cross-section up to j_max.  dim_at_zero counts the
    solutions at real part 0, the same on the kernel and cokernel sides."""

    geometry: Sphere | Torus | Hyperbolic
    roots: tuple[IndicialRoot, ...]
    j_max: int
    dim_at_zero: int
    complete_below_re: float


class SpectralGap(NamedTuple):
    gap: float
    gap_above_exceptional: float


# ---------------------------------------------------------------------------
# Closed-form root families
# ---------------------------------------------------------------------------


def _csqrt(z: complex) -> complex:
    """Principal complex square root (nonnegative real part), with tiny
    parasitic components snapped to the axes."""
    r = cmath.sqrt(z)
    if r.real < 0 or (r.real == 0 and r.imag < 0):
        r = -r
    if abs(r.real) < _ZERO_TOL * max(1.0, abs(r)):
        r = complex(0.0, r.imag)
    if abs(r.imag) < _ZERO_TOL * max(1.0, abs(r)):
        r = complex(r.real, 0.0)
    return r


def type3_roots(lam: float, kappa: int) -> list[tuple[complex, bool]]:
    """Characteristic roots (value, jordan) for a TT eigentensor of eigenvalue
    lam: the two sign-branch ODEs have roots +-beta +- sqrt(kappa) with
    beta = sqrt(lam + 3 kappa).

    kappa=+1 gives {+-(beta+1), +-(beta-1)}; kappa=-1 gives {+-beta +- i}
    (the purely imaginary pair {+-i} at lam=3); kappa=0 gives double roots
    +-sqrt(lam) carrying genuine t-terms.
    """
    bound = TT_LOWER_BOUND[kappa]
    if lam < bound - _ZERO_TOL:
        raise ValueError(
            f"TT eigenvalue {lam} below the lower bound {bound} for kappa={kappa}"
        )
    beta = math.sqrt(max(lam + 3 * kappa, 0.0))
    if kappa == 1:
        vals = {beta + 1, beta - 1, -beta + 1, -beta - 1}
        return [(complex(v), False) for v in sorted(vals)]
    if kappa == -1:
        vals = {
            complex(beta, 1),
            complex(beta, -1),
            complex(-beta, 1),
            complex(-beta, -1),
        }
        return [(v, False) for v in sorted(vals, key=lambda z: (z.real, z.imag))]
    # kappa == 0: each branch ODE is (d/dt -+ beta)^2, a genuine double root.
    if beta <= _ZERO_TOL:  # parallel TT tensors: constant and t-linear solutions
        return [(complex(0.0), True)]
    return [(complex(-beta), True), (complex(beta), True)]


def type2_roots(nu: float, kappa: int) -> list[complex]:
    """Roots +-sqrt(nu) of f'' = nu f for co-closed eigenform solutions with
    vanishing 1-form part; nu = 0 admits constants only (harmonic 1-forms)."""
    if nu < -_ZERO_TOL:
        raise ValueError(f"co-closed Hodge eigenvalue must be >= 0, got {nu}")
    if nu <= _ZERO_TOL:
        return [complex(0.0)]
    r = math.sqrt(nu)
    return [complex(-r), complex(r)]


def alpha_pm(mu: float, kappa: int) -> tuple[complex, complex]:
    """The two branch rates alpha^{+-}(mu) of the scalar-driven mixed system."""
    disc = _csqrt(complex(kappa * kappa - mu * kappa / 3.0))
    ap = _csqrt(complex(mu - 2 * kappa) + 2 * disc)
    am = _csqrt(complex(mu - 2 * kappa) - 2 * disc)
    return ap, am


def mixed_a_roots(mu: float, kappa: int) -> list[tuple[complex, bool]]:
    """Roots +-alpha^{+-}(mu) of the scalar-driven mixed 4x4 system.

    At kappa=0 both branches coincide at sqrt(mu); the coincidence is a
    genuine repeated characteristic root (t-terms occur), so those roots
    carry the Jordan flag.  Coincidences at kappa=+-1 (only mu=3, kappa=1)
    do not produce t-term solutions and are reported plain.
    """
    if mu < -_ZERO_TOL:
        raise ValueError(f"scalar Hodge eigenvalue must be >= 0, got {mu}")
    ap, am = alpha_pm(mu, kappa)
    if kappa == 0:
        if abs(ap) <= _ZERO_TOL:
            return [(complex(0.0), True)]
        return [(-ap, True), (ap, True)]
    vals: list[complex] = []
    for a in (ap, am):
        for v in (a, -a):
            if not any(abs(v - w) <= _ZERO_TOL * max(1.0, abs(v)) for w in vals):
                vals.append(v)
    return [(v, False) for v in sorted(vals, key=lambda z: (z.real, z.imag))]


def mixed_b_roots(nu: float, kappa: int) -> list[complex]:
    """Roots +-sqrt(nu - 4 kappa) of the co-closed-driven mixed equation
    (principal branch; purely imaginary when nu < 4 kappa)."""
    if nu < -_ZERO_TOL:
        raise ValueError(f"co-closed Hodge eigenvalue must be >= 0, got {nu}")
    r = _csqrt(complex(nu - 4 * kappa))
    if abs(r) <= _ZERO_TOL:
        return [complex(0.0)]
    return sorted([-r, r], key=lambda z: (z.real, z.imag))


# ---------------------------------------------------------------------------
# Tagged roots of one spectrum entry
# ---------------------------------------------------------------------------


def _root(value, case, kind, j, eigenvalue, *, jordan=False, mult=1) -> IndicialRoot:
    value = complex(value)
    # + 0.0 drops negative zeros.
    return IndicialRoot(
        complex(value.real + 0.0, value.imag + 0.0), case, kind, j, float(eigenvalue) + 0.0, jordan, mult
    )


def family_roots(entry: SpectrumEntry, kappa: int) -> list[IndicialRoot]:
    """All tagged catalog roots produced by one spectrum entry.

    TT eigentensors give type 3 roots (case 2), scalar eigenfunctions the
    mixed type (a) roots (case 4), and co-closed eigenforms the type 2
    roots (case 3) plus the mixed type (b) roots (case 5).  Degenerate
    eigenvalues whose 1-forms are dual to conformal Killing fields of the
    cylinder collapse to their surviving roots:

    * scalar eigenvalue 0 (constants, every kappa): only the root 0 with the
      1-form dt remains; the other formal characteristic roots of the
      degenerate system carry no eigenfunction;
    * scalar eigenvalue 3 at kappa=+1: roots +-1, case 1;
    * co-closed eigenvalue 4 at kappa=+1 and eigenvalue 0 at kappa=0
      (Killing/parallel forms): root 0, case 0.
    """
    kind, j, ev = entry.kind, entry.j, entry.eigenvalue

    def tagged(case, pairs):
        return [
            _root(v, case, kind, j, ev, jordan=jd, mult=entry.multiplicity) for v, jd in pairs
        ]

    if kind is OperatorKind.DIVFREE_TT_ROUGH:
        return tagged(CaseTag.CASE2, type3_roots(ev, kappa))
    if kind is OperatorKind.SCALAR_HODGE:
        if abs(ev) <= _ZERO_TOL:
            return tagged(CaseTag.CASE0, [(0.0, False)])
        if kappa == 1 and abs(ev - 3.0) <= _ZERO_TOL:
            return tagged(CaseTag.CASE1, [(-1.0, False), (1.0, False)])
        return tagged(CaseTag.CASE4, mixed_a_roots(ev, kappa))
    if (kappa == 1 and abs(ev - 4.0) <= _ZERO_TOL) or (kappa == 0 and abs(ev) <= _ZERO_TOL):
        return tagged(CaseTag.CASE0, [(0.0, False)])
    out = tagged(CaseTag.CASE3, ((v, False) for v in type2_roots(ev, kappa)))
    return out + tagged(CaseTag.CASE5, ((v, False) for v in mixed_b_roots(ev, kappa)))


# ---------------------------------------------------------------------------
# Catalog assembly
# ---------------------------------------------------------------------------


def _dim_at_zero(roots: list[IndicialRoot]) -> int:
    dim = 0
    for r in roots:
        if abs(r.value.real) <= _ZERO_TOL:
            dim += r.multiplicity * (2 if r.jordan else 1)
    return dim


def assemble_catalog(geo: Sphere | Torus | Hyperbolic, j_max: int) -> RootCatalog:
    """Full indicial-root catalog for one cross-section, truncated at j_max:
    the family roots of every entry of geo.spectrum(j_max), sorted by value,
    case and origin.  Nothing is merged: an entry gives each of its roots
    once, and two entries of one kind never share an eigenvalue, so nearly
    equal roots of two entries are listed each under its own eigenvalue.

    The dimension at real part 0 is computed from the multiplicities, with
    Jordan roots counting twice for their t-linear solutions.
    """
    if j_max < 0:
        raise ValueError("j_max must be nonnegative")
    entries, omitted = geo.spectrum(j_max)
    # CaseTag and OperatorKind members order as their int and str values.
    roots = sorted(
        (r for entry in entries for r in family_roots(entry, geo.kappa)),
        key=lambda r: (r.value.real, r.value.imag, r.case_tag, r.origin_kind, r.origin_j),
    )
    # The omitted entries bound the real parts that the truncation can have
    # missed.
    omitted_res = [
        abs(r.value.real)
        for e in omitted
        for r in family_roots(e, geo.kappa)
        if abs(r.value.real) > _ZERO_TOL
    ]
    return RootCatalog(
        geometry=geo,
        roots=tuple(roots),
        j_max=j_max,
        dim_at_zero=_dim_at_zero(roots),
        complete_below_re=min(omitted_res, default=math.inf),
    )


# ---------------------------------------------------------------------------
# Derived predicates
# ---------------------------------------------------------------------------


def spectral_gap(catalog: RootCatalog) -> SpectralGap:
    """Smallest nonzero |Re| over all roots, and over the roots that are not
    conformal Killing (the gap above the exceptional set {0, +-1}); each is
    inf when no such root is listed."""
    nonzero = [r for r in catalog.roots if abs(r.value.real) > _ZERO_TOL]
    return SpectralGap(
        gap=min((abs(r.value.real) for r in nonzero), default=math.inf),
        gap_above_exceptional=min(
            (abs(r.value.real) for r in nonzero if not r.conformal_killing), default=math.inf
        ),
    )


def h2plus_predicate(geo: Sphere | Torus | Hyperbolic) -> tuple[bool, list[str]]:
    """Whether the space of subexponential trace-free cokernel 2-tensors on
    the cylinder vanishes: true exactly when the cross-section admits no
    nontrivial traceless Codazzi tensor field."""
    if not isinstance(geo, Hyperbolic):
        raise ValueError("the vanishing predicate applies to hyperbolic cross-sections")
    notes = []
    if geo.b1 > 0:
        notes.append("b1 > 0: not a rational homology sphere")
    return geo.dim_codazzi == 0, notes


def gluing_window(catalog: RootCatalog) -> tuple[float, float]:
    """Exponential weight window (0, g) on which the middle cylinder operator
    is an isomorphism: g is the spectral gap above the conformal Killing
    roots, and equals 2 for spherical cross-sections; GluingWindowError is
    raised when the computed bound is not 2."""
    if not isinstance(catalog.geometry, Sphere):
        raise ValueError("the gluing window is stated for spherical cross-sections")
    g = spectral_gap(catalog).gap_above_exceptional
    if g == math.inf:
        raise ValueError("no non-degenerate roots present; increase j_max")
    if abs(g - 2.0) > 1e-9:
        raise GluingWindowError(f"spherical gluing window should be (0, 2), computed bound {g}")
    return (0.0, g)
