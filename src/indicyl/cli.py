"""Command-line interface: root tables, predicates, and verification suites.

Subcommands:
  roots   -- indicial-root catalog for a chosen cross-section (JSON/CSV)
  gap     -- spectral gap and gluing weight window
  ks      -- vanishing predicate for subexponential cokernel 2-tensors
  lens    -- scalar multiplicities on cyclic spherical space forms
  verify  -- identity / linearization / oracle suites

Exit codes: 0 success, 1 verification failure, 2 bad arguments,
3 input-file errors.  Identical flags and seeds produce byte-identical
output.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import numbers
import sys

from . import indicial, spectra

_SCHEMA = 1

# Case-4 rates follow the characteristic roots of the first-order mixed
# system; recorded in output metadata because printed normalizations of the
# imaginary part differ across sources.
_RATE_NOTE = (
    "case-4 rates are sqrt(mu - 2*kappa +/- 2*sqrt(kappa^2 - mu*kappa/3)); "
    "for kappa=+1 and mu=j(j+2) the imaginary part equals "
    "(2/3)*sqrt(3*(j-1)*(j+3))"
)


# ---------------------------------------------------------------------------
# Deterministic JSON
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=1024)
def _json_str(s: str) -> str:
    return json.dumps(s)


def _json_float(x: float) -> str:
    s = f"{x + 0.0:.17g}"  # + 0.0 normalizes negative zero
    if "." in s or "e" in s or "E" in s:
        return s
    if math.isfinite(x):
        return s + ".0"  # keep doubles typed as doubles on the way back in
    if x != x:
        return '"nan"'
    return '"inf"' if x > 0 else '"-inf"'


def _json_list(obj) -> str:
    return "[" + ",".join(map(_json, obj)) + "]"


def _json_dict(obj) -> str:
    return "{" + ",".join(f"{_json_str(str(k))}:{_json(v)}" for k, v in obj.items()) + "}"


# Exact types that documents are built of; everything else, numpy scalars
# and subclasses included, goes through _json_other.
_ENCODERS = {
    float: _json_float,
    str: _json_str,
    dict: _json_dict,
    list: _json_list,
    tuple: _json_list,
    int: str,
    bool: lambda b: "true" if b else "false",
    type(None): lambda _: "null",
}


def _json(obj) -> str:
    encode = _ENCODERS.get(type(obj))
    if encode is not None:
        return encode(obj)
    return _json_other(obj)


def _json_other(obj) -> str:
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, numbers.Integral):
        return str(int(obj))
    if isinstance(obj, numbers.Real):
        return _json_float(float(obj))
    if isinstance(obj, (list, tuple)):
        return _json_list(obj)
    if isinstance(obj, dict):
        return _json_dict(obj)
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _write(text: str, args) -> None:
    if getattr(args, "out", None):
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit(doc, args) -> None:
    _write(_json(doc) + "\n", args)


# ---------------------------------------------------------------------------
# Cross-section construction from flags
# ---------------------------------------------------------------------------


def _parse_part(part: str, kind, flag: str):
    """One comma-separated part of a flag value, as kind (int or float)."""
    try:
        return kind(part)
    except ValueError:
        what = "an integer" if kind is int else "a number"
        raise SystemExit2(f"{flag} part {part!r} is not {what}") from None


def _parse_triple(text: str, kind, flag: str):
    parts = text.split(",")
    if len(parts) != 3:
        raise SystemExit2(f"{flag} expects three comma-separated values")
    return tuple(_parse_part(p, kind, flag) for p in parts)


# Input ceilings, far above every documented use, so that no flag value
# can ask for an unbounded run.  A lens catalog costs about
# p * (j_max + 1)^2 character evaluations, hence the third ceiling; at it a
# catalog takes a few seconds.
JMAX_CEILING = 1000
LENS_ORDER_CEILING = 10_000
LENS_WORK_CEILING = 10_000_000


def _check_jmax(jmax: int) -> None:
    if jmax > JMAX_CEILING:
        raise SystemExit2(f"--jmax must be at most {JMAX_CEILING}, got {jmax}")


def _lens_group(text: str, jmax: int) -> spectra.GroupAction:
    p, q1, q2 = _parse_triple(text, int, "--lens")
    if p > LENS_ORDER_CEILING:
        raise SystemExit2(f"--lens order p must be at most {LENS_ORDER_CEILING}, got {p}")
    work = p * (max(jmax, 0) + 1) ** 2
    if work > LENS_WORK_CEILING:
        raise SystemExit2(
            f"--lens order p times (--jmax + 1)^2 must be at most {LENS_WORK_CEILING}, got {work}"
        )
    return spectra.GroupAction(p, q1, q2)


def _cross_section(args) -> spectra.CrossSectionSpec:
    chosen = [bool(args.sphere or args.lens), args.torus is not None, args.hyperbolic is not None]
    if sum(chosen) != 1:
        raise SystemExit2("choose exactly one of --sphere/--lens, --torus, --hyperbolic")
    _check_jmax(args.jmax)
    if args.torus is not None:
        lengths = _parse_triple(args.torus, float, "--torus")
        return spectra.CrossSectionSpec.torus(lengths)
    if args.hyperbolic is not None:
        hs = spectra.load_hyperbolic_spectrum(args.hyperbolic)
        return spectra.CrossSectionSpec.hyperbolic(hs, source=args.hyperbolic)
    group = spectra.GroupAction(1, 1, 1)
    if args.lens:
        group = _lens_group(args.lens, args.jmax)
    return spectra.CrossSectionSpec.sphere(group)


class SystemExit2(Exception):
    """Bad arguments (exit code 2)."""


def _geometry_doc(cs: spectra.CrossSectionSpec) -> dict:
    geo = cs.geometry
    if isinstance(geo, spectra.Sphere):
        return {
            "kind": "sphere",
            "kappa": 1,
            "group": {"p": geo.group.p, "q1": geo.group.q1, "q2": geo.group.q2},
        }
    if isinstance(geo, spectra.Torus):
        return {"kind": "torus", "kappa": 0, "lengths": list(geo.lengths)}
    return {
        "kind": "hyperbolic",
        "kappa": -1,
        "source": geo.source,
        "b1": geo.spectrum.b1,
        "dim_codazzi": geo.spectrum.dim_codazzi,
    }


# ---------------------------------------------------------------------------
# roots
# ---------------------------------------------------------------------------


# Column order of a root record, shared by the JSON objects and the CSV rows.
_ROOT_FIELDS = (
    "re",
    "im",
    "case",
    "origin_kind",
    "j",
    "eigenvalue",
    "side",
    "solution_form",
    "jordan",
    "conformal_killing",
    "multiplicity",
)


def _root_row(r: indicial.IndicialRoot) -> tuple:
    """The values of one root record, in _ROOT_FIELDS order."""
    return (
        r.value.real,
        r.value.imag,
        int(r.case_tag),
        r.origin_kind.value,
        r.origin_j,
        r.origin_eigenvalue,
        r.side.value,
        r.solution_form.value,
        r.jordan,
        r.conformal_killing,
        r.multiplicity,
    )


def _csv_cell(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return f"{v:.17g}"
    return str(v)


def cmd_roots(args) -> int:
    window = _parse_window(args.window) if args.window else None
    cs = _cross_section(args)
    catalog = indicial.assemble_catalog(cs, args.jmax)
    roots = list(catalog.roots)
    if window:
        lo, hi = window
        roots = [r for r in roots if lo < r.value.real < hi]
    rows = [_root_row(r) for r in roots]
    if args.format == "csv":
        lines = [",".join(_ROOT_FIELDS)] + [",".join(map(_csv_cell, row)) for row in rows]
        _write("\n".join(lines) + "\n", args)
        return 0
    doc = {
        "schema": _SCHEMA,
        "command": "roots",
        "cross_section": _geometry_doc(cs),
        "j_max": catalog.j_max,
        "kernel_dim_at_zero": catalog.kernel_dim_at_zero,
        "cokernel_dim_at_zero": catalog.cokernel_dim_at_zero,
        "complete_below_re": catalog.complete_below_re,
        "caveats": list(catalog.caveats),
        "notes": [_RATE_NOTE],
        "roots": [dict(zip(_ROOT_FIELDS, row)) for row in rows],
    }
    _emit(doc, args)
    return 0


def _parse_window(text):
    parts = text.split(",")
    if len(parts) != 2:
        raise SystemExit2("--window expects two comma-separated numbers")
    lo, hi = (_parse_part(p, float, "--window") for p in parts)
    if not lo < hi:
        raise SystemExit2(f"--window a,b needs a < b, got {lo!r},{hi!r}")
    return lo, hi


# ---------------------------------------------------------------------------
# gap / ks / lens
# ---------------------------------------------------------------------------


def cmd_gap(args) -> int:
    cs = _cross_section(args)
    catalog = indicial.assemble_catalog(cs, args.jmax)
    g = indicial.spectral_gap(catalog)
    doc = {
        "schema": _SCHEMA,
        "command": "gap",
        "cross_section": _geometry_doc(cs),
        "j_max": catalog.j_max,
        "gap": g.gap,
        "gap_above_conformal_killing": g.gap_above_exceptional,
    }
    if isinstance(cs.geometry, spectra.Sphere):
        doc["window"] = list(indicial.gluing_window(catalog))
        doc["caveats"] = list(catalog.caveats)
    _emit(doc, args)
    return 0


def cmd_ks(args) -> int:
    cs = _cross_section(args)
    if not isinstance(cs.geometry, spectra.Hyperbolic):
        raise SystemExit2("ks requires --hyperbolic FILE")
    vanishes, notes = indicial.h2plus_predicate(cs)
    hs = cs.geometry.spectrum
    doc = {
        "schema": _SCHEMA,
        "command": "ks",
        "cross_section": _geometry_doc(cs),
        "h2plus_vanishes": vanishes,
        "summary": "H2+ = 0" if vanishes else "H2+ nonzero",
        "b1": hs.b1,
        "dim_codazzi": hs.dim_codazzi,
        "cokernel_dim_at_zero": 1 + hs.b1 + 2 * hs.dim_codazzi,
        "notes": notes,
    }
    _emit(doc, args)
    return 0


def cmd_lens(args) -> int:
    if not args.lens:
        raise SystemExit2("lens requires --lens p,q1,q2")
    if args.jmax < 0:
        raise SystemExit2("--jmax must be nonnegative")
    _check_jmax(args.jmax)
    group = _lens_group(args.lens, args.jmax)
    mults = [[j, spectra.lens_scalar_multiplicity(group, j)] for j in range(args.jmax + 1)]
    doc = {
        "schema": _SCHEMA,
        "command": "lens",
        "group": {"p": group.p, "q1": group.q1, "q2": group.q2},
        "j_max": args.jmax,
        "multiplicities": mults,
    }
    _emit(doc, args)
    return 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def run_identities(n: int = 8, seed: int = 7, tol: float = 1e-10):
    """Operator-identity suite on fixed-seed random fields; band limit is
    n/2 - 1 so all fields are resolvable on an n-point grid."""
    from . import fields

    band = max(1, n // 2 - 1)
    results = fields.identity_suite(band=band, seed=seed, tol=tol)
    report = [
        {
            "identity_name": r.name,
            "ref": r.formula,
            "residual": r.residual,
            "tolerance": r.tolerance,
            "pass": r.ok,
        }
        for r in results
    ]
    return report, all(r.ok for r in results)


def run_linearization(n: int = 16, seed: int = 11, eps: float = 1e-4, tol: float = 1e-6):
    """Finite-difference battery with a step-halving convergence check on the
    first case.  The variation band limit shrinks on coarse grids so that the
    quadratic metric products stay below the Nyquist frequency."""
    from . import curvature

    shape = (n,) * 4
    battery = curvature.linearization_battery(seed=seed, band=2 if n >= 16 else 1)
    report = []
    ok = True
    for i, ht in enumerate(battery):
        if i == 0:
            errs = curvature.fd_linearization_errors(ht, [eps, eps / 2], shape=shape)
            ratio = errs[0]["relative_error"] / errs[1]["relative_error"]
            case_ok = errs[0]["relative_error"] <= tol and ratio >= 3.5
            report.append(
                {
                    "case": i,
                    "relative_error": errs[0]["relative_error"],
                    "halved_step_error": errs[1]["relative_error"],
                    "convergence_ratio": ratio,
                    "tolerance": tol,
                    "pass": case_ok,
                }
            )
        else:
            err = curvature.fd_linearization_errors(ht, [eps], shape=shape)[0]
            case_ok = err["relative_error"] <= tol
            report.append(
                {
                    "case": i,
                    "relative_error": err["relative_error"],
                    "tolerance": tol,
                    "pass": case_ok,
                }
            )
        ok = ok and case_ok
    return report, ok


def run_oracle(j_max: int = 10, tol: float = 1e-9):
    """Closed-form roots against companion/pencil eigenvalues, on fixed
    sweeps (eigenvalues 0..48, flat lattice vectors with |k|^2 <= 9);
    j_max is not used."""
    from . import oracle

    report = []
    ok = True

    def add(name, matched, mismatch):
        nonlocal ok
        report.append(
            {"check": name, "pass": bool(matched), "max_mismatch": float(mismatch)}
        )
        ok = ok and matched

    worst = 0.0
    good = True
    for kappa in (-1, 0, 1):
        for mu in range(49):
            ap, am = indicial.alpha_pm(float(mu), kappa)
            expected = oracle.clustered_multiset([ap, -ap, am, -am])
            actual = oracle.clustered_multiset(
                oracle.companion_roots(oracle.matrixA_system(float(mu), kappa))
            )
            cmp = oracle.compare_root_sets(expected, actual, tol)
            good = good and cmp.matched
            worst = max(worst, cmp.max_mismatch)
    add("mixed_system_matrix_vs_closed_form", good, worst)

    worst, good = 0.0, True
    bounds = {1: 6, 0: 0, -1: 3}
    for kappa in (-1, 0, 1):
        for lam in range(bounds[kappa], 49):
            expected_pairs = indicial.type3_roots(float(lam), kappa)
            expected = []
            for v, jordan in expected_pairs:
                expected.append(v)
                if jordan:
                    expected.append(v)
            # At beta = 0 the two branch ODEs coincide; run one of them.
            signs = (+1,) if lam + 3 * kappa <= 1e-12 else (+1, -1)
            actual = []
            for sign in signs:
                actual.extend(oracle.companion_roots(oracle.ode_tt_branch(float(lam), kappa, sign)))
            cmp = oracle.compare_root_sets(
                oracle.clustered_multiset(expected), oracle.clustered_multiset(actual), tol
            )
            good = good and cmp.matched
            worst = max(worst, cmp.max_mismatch)
    add("tt_branch_ode_vs_closed_form", good, worst)

    worst, good = 0.0, True
    for kappa in (-1, 0, 1):
        for nu in range(49):
            expected = indicial.mixed_b_roots(float(nu), kappa)
            if len(expected) == 1:
                expected = expected * 2  # double root of m'' = (nu - 4 kappa) m
            actual = oracle.clustered_multiset(
                oracle.companion_roots(oracle.ode_mixed_b(float(nu), kappa))
            )
            cmp = oracle.compare_root_sets(oracle.clustered_multiset(expected), actual, tol)
            good = good and cmp.matched
            worst = max(worst, cmp.max_mismatch)
    add("coclosed_mixed_ode_vs_closed_form", good, worst)

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
                cmp = oracle.compare_root_sets([r, -r], actual, 1e-8)
                good = good and cmp.matched
                worst = max(worst, cmp.max_mismatch)
                jordan_ok = jordan_ok and all(c.jordan for c in clusters)
    add("flat_pencil_vs_closed_form", good and jordan_ok, worst)

    clusters = oracle.pencil_roots(oracle.flat_mode_pencil((0, 0, 0)))
    zero_dim = sum(c.algebraic for c in clusters if abs(c.value) < 1e-6)
    add("flat_pencil_zero_mode_dimension_14", zero_dim == 14, float(abs(zero_dim - 14)))

    return report, ok


def cmd_verify(args) -> int:
    if args.suite in ("identities", "linearization") and (
        args.N & (args.N - 1) or not 2 <= args.N <= 32
    ):
        raise SystemExit2("--N must be a power of two <= 32")
    if args.suite == "linearization" and args.N < 8:
        # The battery's time frequencies go up to 3, which 4 samples cannot hold.
        raise SystemExit2(f"--N must be at least 8 for the linearization suite, got {args.N}")
    if args.suite == "oracle" and args.jmax < 0:
        raise SystemExit2("--jmax must be nonnegative")
    if args.suite in ("identities", "linearization") and args.seed < 0:
        raise SystemExit2(f"--seed must be nonnegative, got {args.seed}")
    # The battery also steps by eps / 2, which must not underflow to 0; the
    # comparison is written so that NaN fails it.
    if args.suite == "linearization" and not 0 < args.eps / 2 < 0.05:
        raise SystemExit2(f"--eps must satisfy 0 < eps < 0.1, got {args.eps!r}")
    if args.suite == "identities":
        report, ok = run_identities(n=args.N, seed=args.seed)
    elif args.suite == "linearization":
        report, ok = run_linearization(n=args.N, seed=args.seed, eps=args.eps)
    else:
        report, ok = run_oracle(j_max=args.jmax)
    doc = {
        "schema": _SCHEMA,
        "command": "verify",
        "suite": args.suite,
        "seed": args.seed,
        "pass": ok,
        "results": report,
    }
    _emit(doc, args)
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def _add_geometry_flags(p):
    p.add_argument("--sphere", action="store_true", help="round 3-sphere cross-section")
    p.add_argument(
        "--lens",
        metavar="p,q1,q2",
        help=f"cyclic quotient of the 3-sphere, of order p at most {LENS_ORDER_CEILING}",
    )
    p.add_argument("--torus", metavar="L1,L2,L3", help="flat torus side lengths")
    p.add_argument("--hyperbolic", metavar="FILE", help="hyperbolic spectrum file")
    p.add_argument(
        "--jmax", type=int, default=6, help=f"spectrum truncation index, at most {JMAX_CEILING}"
    )
    p.add_argument("--out", metavar="FILE", help="write output to FILE instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="indicyl",
        description="Indicial roots of the self-dual deformation complex on cylinders",
    )
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("roots", help="root catalog table")
    _add_geometry_flags(p)
    p.add_argument(
        "--window",
        metavar="a,b",
        help="keep roots with a < Re < b; write a negative a as --window=-2,2",
    )
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=cmd_roots)

    p = sub.add_parser("gap", help="spectral gap and gluing window")
    _add_geometry_flags(p)
    p.set_defaults(func=cmd_gap)

    p = sub.add_parser("ks", help="vanishing of subexponential cokernel 2-tensors")
    _add_geometry_flags(p)
    p.set_defaults(func=cmd_ks)

    p = sub.add_parser("lens", help="scalar multiplicities on a cyclic quotient")
    p.add_argument(
        "--lens", metavar="p,q1,q2", required=True, help=f"order p at most {LENS_ORDER_CEILING}"
    )
    p.add_argument("--jmax", type=int, default=10, help=f"at most {JMAX_CEILING}")
    p.add_argument("--out", metavar="FILE")
    p.set_defaults(func=cmd_lens)

    p = sub.add_parser("verify", help="verification suites")
    p.add_argument("suite", choices=("identities", "linearization", "oracle"))
    p.add_argument(
        "--N",
        type=int,
        default=8,
        help="grid size, a power of two: 2..32 for identities, 8..32 for linearization",
    )
    p.add_argument(
        "--seed",
        type=int,
        default=7,
        help="seed of the identities and linearization suites, nonnegative",
    )
    p.add_argument(
        "--eps",
        type=float,
        default=1e-4,
        help="finite-difference step of the linearization suite, 0 < eps < 0.1",
    )
    p.add_argument(
        "--jmax",
        type=int,
        default=10,
        help="must be nonnegative; the oracle suite runs fixed sweeps "
        "(eigenvalues 0..48, flat lattice vectors with |k|^2 <= 9) and does not use it",
    )
    p.add_argument("--out", metavar="FILE")
    p.set_defaults(func=cmd_verify)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except indicial.VerificationError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except SystemExit2 as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (OSError, spectra.SpectrumError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
