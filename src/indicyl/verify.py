"""The three verify suites and the rules that decide whether each passes.

run_identities, run_linearization and run_oracle each return their report
rows and whether every row passed.  This module alone holds the tolerances
of those verdicts: no witness or closed form imports it.  It loads
curvature and oracle only in the suites that run them, so `verify oracle`
loads neither numpy.random nor the curvature engine.
"""

import math
import sys

import numpy as np

from . import fields, indicial

# Relative residual below which an identity of the identity suite passes
# (residual < tolerance).
_IDENTITY_TOL = 1e-10

# The identities of the suite, in the order it reports them: name and formula.
_IDENTITIES = (
    ("slashd_squared", "slashd^2 h = -4 Lap tf(h) - 2 tfHess tr(h) + 3 K(div h)"),
    ("div_slashd", "div(slashd h) = star_d(div h)"),
    ("slashd_laplacian_commute", "slashd(Lap h) = Lap(slashd h)"),
    ("conf_killing_commutators", "div K(w) = Lap w + (1/3) d div w;  Lap K(w) = K(Lap w)"),
    ("slashd_self_adjoint", "<slashd h, h'> = <h, slashd h'>"),
    ("slashd_trace_and_conformal", "tr(slashd h) = 0;  slashd(u g) = 0"),
    ("slashd_lie", "slashd(L w) = K(star_d w)"),
    ("eprime_from_slashd_squared", "E'(h) = (1/8) slashd^2 h - (1/4) tfHess tr(h) + (1/8) K(div h)"),
    ("killing_annihilation_and_box", "D(K_cyl w) = 0;  box_K w = div(K_cyl w)"),
    ("star_d_squared", "(star_d)^2 w = HodgeLap w on co-closed w"),
    ("flat_kernel_cokernel", "F(kernel elements) = 0;  F*(cokernel elements) = 0"),
)


def _import_numpy_random() -> None:
    """Import numpy.random without OpenSSL; nothing to do once numpy.random
    or _hashlib is loaded.

    numpy.random imports secrets, whose hmac loads _hashlib and so maps
    libcrypto (3.4 MB resident), though a seeded generator never calls it.
    With _hashlib masked for this one import, hmac and hashlib take their
    builtin fallbacks.  The mask is then lifted and the two fallback modules
    leave sys.modules, so a later import of _hashlib, hashlib or hmac loads
    them in full."""
    if "numpy.random" in sys.modules or "_hashlib" in sys.modules:
        return
    fallbacks = {"hashlib", "hmac"} - sys.modules.keys()
    sys.modules["_hashlib"] = None
    try:
        __import__("numpy.random")
    finally:
        del sys.modules["_hashlib"]
        for name in fallbacks:
            sys.modules.pop(name, None)


def run_identities(n: int = 8, seed: int = 7):
    """Operator-identity suite on fixed-seed random fields; band limit is
    n/2 - 1 so all fields are resolvable on an n-point grid."""
    _import_numpy_random()
    band = max(1, n // 2 - 1)
    residuals = fields.identity_suite(band=band, seed=seed)
    rows = [(name, formula, float(residuals[name])) for name, formula in _IDENTITIES]
    report = [
        {"identity_name": name, "ref": formula, "residual": r, "tolerance": _IDENTITY_TOL, "pass": r < _IDENTITY_TOL}
        for name, formula, r in rows
    ]
    return report, all(row["pass"] for row in report)


# Component mixes and time frequencies of the fixed-seed validation battery.
_BATTERY_CASES = (
    (("h",), (1,)),
    (("h00",), (2,)),
    (("alpha",), (1,)),
    (("h",), (0, 2)),
    (("h00", "h"), (1,)),
    (("alpha", "h"), (1, 2)),
    (("h00", "alpha"), (0, 1)),
    (("h00", "alpha", "h"), (1,)),
    (("h00", "alpha", "h"), (0, 1, 2)),
    (("h", "alpha"), (3,)),
)
# Scale of every battery variation, inside the linear regime of the
# finite differences.
_BATTERY_AMPLITUDE = 0.02


def linearization_battery(seed: int = 11, band: int = 2):
    """The ten fixed-seed t-periodic variations used to validate the
    linearized curvature operator, mixing all three component blocks."""
    rng = np.random.default_rng(seed)
    grid = fields.ModeGrid(band=band)
    return [
        fields.random_real_variation(rng, grid, kt_modes=kts, parts=parts) * _BATTERY_AMPLITUDE
        for parts, kts in _BATTERY_CASES
    ]


# Least ratio of the first case's errors at eps and eps / 2: a central
# difference converges at second order, so halving the step divides its
# error by about 4.
_HALVING_RATIO = 3.5

# Largest relative central-difference error of a battery case (see
# curvature.fd_linearization_errors) that passes (error <= tolerance).
_FD_TOL = 1e-6


def run_linearization(n: int = 16, seed: int = 11, eps: float = 1e-4):
    """Finite-difference battery with a step-halving convergence check on the
    first case.  The variation band limit shrinks on coarse grids so that the
    quadratic metric products stay below the Nyquist frequency."""
    from . import curvature

    _import_numpy_random()
    battery = linearization_battery(seed=seed, band=2 if n >= 16 else 1)
    cases = [(ht, [eps, eps / 2] if i == 0 else [eps]) for i, ht in enumerate(battery)]
    report = []
    for i, errs in enumerate(curvature.fd_battery_errors(cases, (n,) * 4)):
        row = {"case": i, "relative_error": errs[0]}
        case_ok = errs[0] <= _FD_TOL
        if i == 0:
            row["halved_step_error"] = errs[1]
            row["convergence_ratio"] = ratio = errs[0] / errs[1]
            case_ok = case_ok and ratio >= _HALVING_RATIO
        row["tolerance"] = _FD_TOL
        row["pass"] = case_ok
        report.append(row)
    return report, all(row["pass"] for row in report)


def _tt_closed_form(lam: float, kappa: int) -> list:
    """The type-3 roots as a multiset; a Jordan root counts twice."""
    return [v for v, jordan in indicial.type3_roots(lam, kappa) for _ in range(1 + jordan)]


def _coclosed_closed_form(nu: float, kappa: int) -> list:
    roots = indicial.mixed_b_roots(nu, kappa)
    return roots * 2 if len(roots) == 1 else roots  # double root of m'' = (nu - 4 kappa) m


_ORACLE_TOL = 1e-9  # closed-form roots against companion roots
_PENCIL_TOL = 1e-8  # flat pencil roots against +-|xi|
_ZERO_ROOT_TOL = 1e-6  # a pencil root this near 0 is zero
_TT_BRANCH_TOL = 1e-12  # lam + 3 kappa this near 0 makes beta = 0


def _tt_branch_systems(lam: float, kappa: int) -> list:
    """The TT branch ODEs whose companion roots reproduce the type-3 roots:
    both signs, or one when beta = sqrt(lam + 3 kappa) is 0 and the two
    coincide."""
    from . import oracle

    signs = (+1,) if lam + 3 * kappa <= _TT_BRANCH_TOL else (+1, -1)
    return [oracle.ode_tt_branch(lam, kappa, sign) for sign in signs]


def run_oracle():
    """Closed-form roots against companion/pencil eigenvalues, on fixed
    sweeps (eigenvalues 0..48, flat lattice vectors with |k|^2 <= 9)."""
    from . import oracle

    def check(name, matched, mismatch):
        return {"check": name, "pass": bool(matched), "max_mismatch": float(mismatch)}

    # Each companion sweep: its check, its first eigenvalue for kappa = -1,
    # 0, 1, the closed-form roots as a multiset, and the ODE systems whose
    # companion roots together must reproduce them.
    sweeps = (
        (
            "mixed_system_matrix_vs_closed_form",
            (0, 0, 0),
            lambda mu, kappa: [z for a in indicial.alpha_pm(mu, kappa) for z in (a, -a)],
            lambda mu, kappa: [oracle.matrixA_system(mu, kappa)],
        ),
        (
            "tt_branch_ode_vs_closed_form",
            (3, 0, 6),
            _tt_closed_form,
            _tt_branch_systems,
        ),
        (
            "coclosed_mixed_ode_vs_closed_form",
            (0, 0, 0),
            _coclosed_closed_form,
            lambda nu, kappa: [oracle.ode_mixed_b(nu, kappa)],
        ),
    )
    report = []
    for name, starts, closed_form, systems in sweeps:
        worst, good = 0.0, True
        for kappa, start in zip((-1, 0, 1), starts):
            for ev in map(float, range(start, 49)):
                actual = [z for ode in systems(ev, kappa) for z in oracle.companion_roots(ode)]
                cmp = oracle.compare_root_sets(
                    oracle.clustered_multiset(closed_form(ev, kappa)),
                    oracle.clustered_multiset(actual),
                    _ORACLE_TOL,
                )
                good = good and cmp.matched
                worst = max(worst, cmp.max_mismatch)
        report.append(check(name, good, worst))

    # Flat-torus pencil against the closed-form catalog values, mode by mode.
    worst, good = 0.0, True
    jordan_ok = True
    for k1 in range(0, 4):
        for k2 in range(0, k1 + 1):
            for k3 in range(0, k2 + 1):
                ksq = k1 * k1 + k2 * k2 + k3 * k3
                if ksq == 0 or ksq > 9:
                    continue
                clusters = oracle.pencil_roots(oracle.flat_mode_pencil((k1, k2, k3)))
                actual = [c.value for c in clusters]
                r = math.sqrt(float(ksq))
                cmp = oracle.compare_root_sets([r, -r], actual, _PENCIL_TOL)
                good = good and cmp.matched
                worst = max(worst, cmp.max_mismatch)
                jordan_ok = jordan_ok and all(c.jordan for c in clusters)
    report.append(check("flat_pencil_vs_closed_form", good and jordan_ok, worst))

    clusters = oracle.pencil_roots(oracle.flat_mode_pencil((0, 0, 0)))
    zero_dim = sum(c.algebraic for c in clusters if abs(c.value) < _ZERO_ROOT_TOL)
    report.append(check("flat_pencil_zero_mode_dimension_14", zero_dim == 14, abs(zero_dim - 14)))

    return report, all(row["pass"] for row in report)
