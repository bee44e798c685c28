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
import math
import sys

try:
    from _json import encode_basestring_ascii
except ImportError:  # an interpreter without the C accelerator
    from json.encoder import encode_basestring_ascii

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
    # What json.dumps(s) runs for a str, without loading the json package.
    return encode_basestring_ascii(s)


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


class _Encoded(str):
    """Text that is already JSON, written as it is."""


# The exact types that documents are built of; any other type, a numpy
# scalar or a subclass included, is refused.
_ENCODERS = {
    _Encoded: str,
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
    if encode is None:
        raise TypeError(f"cannot serialize {type(obj).__name__}")
    return encode(obj)


def _write(text: str, args) -> None:
    if args.out is not None:
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
# can ask for an unbounded run.  A lens multiplicity is an exact residue
# count in O(log p) steps; at both ceilings a `roots --lens` catalog takes
# well under a second.
JMAX_CEILING = 1000
LENS_ORDER_CEILING = 10**9


def _check_out(out: str | None) -> None:
    if out == "":
        raise SystemExit2("--out needs a file path, got an empty string")


def _check_jmax(jmax: int) -> None:
    if jmax < 0:
        raise SystemExit2(f"--jmax must be nonnegative, got {jmax}")
    if jmax > JMAX_CEILING:
        raise SystemExit2(f"--jmax must be at most {JMAX_CEILING}, got {jmax}")


def _lens_group(text: str) -> spectra.GroupAction:
    p, q1, q2 = _parse_triple(text, int, "--lens")
    if p > LENS_ORDER_CEILING:
        raise SystemExit2(f"--lens order p must be at most {LENS_ORDER_CEILING}, got {p}")
    try:
        return spectra.GroupAction(p, q1, q2)
    except ValueError as e:
        raise SystemExit2(f"--lens {text}: {e}") from None


def _cross_section(args) -> spectra.Sphere | spectra.Torus | spectra.Hyperbolic:
    chosen = [args.sphere or args.lens is not None, args.torus is not None, args.hyperbolic is not None]
    if sum(chosen) != 1:
        raise SystemExit2("choose exactly one of --sphere/--lens, --torus, --hyperbolic")
    if args.torus is not None:
        lengths = _parse_triple(args.torus, float, "--torus")
        try:
            return spectra.Torus(lengths)
        except ValueError as e:
            raise SystemExit2(f"--torus {args.torus}: {e}") from None
    if args.hyperbolic is not None:
        if not args.hyperbolic:
            raise SystemExit2("--hyperbolic needs a file path, got an empty string")
        return spectra.load_hyperbolic_spectrum(args.hyperbolic)
    if args.lens is not None:
        return spectra.Sphere(_lens_group(args.lens))
    return spectra.Sphere()


class SystemExit2(Exception):
    """Bad arguments (exit code 2)."""


def _geometry_doc(geo: spectra.Sphere | spectra.Torus | spectra.Hyperbolic) -> dict:
    if isinstance(geo, spectra.Sphere):
        return {
            "kind": "sphere",
            "kappa": geo.kappa,
            "group": {"p": geo.group.p, "q1": geo.group.q1, "q2": geo.group.q2},
        }
    if isinstance(geo, spectra.Torus):
        return {"kind": "torus", "kappa": geo.kappa, "lengths": list(geo.lengths)}
    return {
        "kind": "hyperbolic",
        "kappa": geo.kappa,
        "source": geo.source,
        "b1": geo.b1,
        "dim_codazzi": geo.dim_codazzi,
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
        "both",  # the kernel and cokernel sides carry the same roots
        r.solution_form.value,
        r.jordan,
        r.conformal_killing,
        r.multiplicity,
    )


# One root record as a JSON object and as a CSV line.  The keys are encoded
# once, and each value is written by the type that IndicialRoot guarantees
# for its column: floats to 17 significant digits, the two flags in lower
# case.
_ROOT_JSON = "{" + ",".join(f"{_json_str(k)}:%s" for k in _ROOT_FIELDS) + "}"
_ROOT_CSV = "%.17g,%.17g,%s,%s,%s,%.17g,%s,%s,%s,%s,%s"
_FLAG = ("false", "true")


def _root_json(row: tuple) -> str:
    re, im, case, kind, j, ev, side, form, jordan, killing, mult = row
    return _ROOT_JSON % (
        _json_float(re), _json_float(im), case, _json_str(kind), j, _json_float(ev),
        _json_str(side), _json_str(form), _FLAG[jordan], _FLAG[killing], mult,
    )


def _root_csv(row: tuple) -> str:
    re, im, case, kind, j, ev, side, form, jordan, killing, mult = row
    return _ROOT_CSV % (re, im, case, kind, j, ev, side, form, _FLAG[jordan], _FLAG[killing], mult)


def cmd_roots(args) -> int:
    window = _parse_window(args.window) if args.window else None
    geo = _cross_section(args)
    catalog = indicial.assemble_catalog(geo, args.jmax)
    roots = list(catalog.roots)
    if window:
        lo, hi = window
        roots = [r for r in roots if lo < r.value.real < hi]
    rows = map(_root_row, roots)
    if args.format == "csv":
        lines = [",".join(_ROOT_FIELDS), *map(_root_csv, rows)]
        _write("\n".join(lines) + "\n", args)
        return 0
    doc = {
        "schema": _SCHEMA,
        "command": "roots",
        "cross_section": _geometry_doc(geo),
        "j_max": catalog.j_max,
        "kernel_dim_at_zero": catalog.dim_at_zero,
        "cokernel_dim_at_zero": catalog.dim_at_zero,
        "complete_below_re": catalog.complete_below_re,
        "caveats": list(geo.caveats),
        "notes": [_RATE_NOTE],
        "roots": _Encoded("[" + ",".join(map(_root_json, rows)) + "]"),
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
    geo = _cross_section(args)
    catalog = indicial.assemble_catalog(geo, args.jmax)
    g = indicial.spectral_gap(catalog)
    doc = {
        "schema": _SCHEMA,
        "command": "gap",
        "cross_section": _geometry_doc(geo),
        "j_max": catalog.j_max,
        "gap": g.gap,
        "gap_above_conformal_killing": g.gap_above_exceptional,
    }
    if isinstance(geo, spectra.Sphere):
        if g.gap_above_exceptional == math.inf:
            raise SystemExit2(f"--jmax {args.jmax} lists no root outside {{0, +-1}}; increase --jmax")
        doc["window"] = list(indicial.gluing_window(catalog))
        doc["caveats"] = list(geo.caveats)
    _emit(doc, args)
    return 0


def cmd_ks(args) -> int:
    geo = _cross_section(args)
    if not isinstance(geo, spectra.Hyperbolic):
        raise SystemExit2("ks requires --hyperbolic FILE")
    vanishes, notes = indicial.h2plus_predicate(geo)
    catalog = indicial.assemble_catalog(geo, args.jmax)
    doc = {
        "schema": _SCHEMA,
        "command": "ks",
        "cross_section": _geometry_doc(geo),
        "h2plus_vanishes": vanishes,
        "summary": "H2+ = 0" if vanishes else "H2+ nonzero",
        "b1": geo.b1,
        "dim_codazzi": geo.dim_codazzi,
        "cokernel_dim_at_zero": catalog.dim_at_zero,
        "notes": notes,
    }
    _emit(doc, args)
    return 0


def cmd_lens(args) -> int:
    group = _lens_group(args.lens)
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
    from . import fields

    _import_numpy_random()
    band = max(1, n // 2 - 1)
    results = fields.identity_suite(band=band, seed=seed)
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
    battery = curvature.linearization_battery(seed=seed, band=2 if n >= 16 else 1)
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


def cmd_verify(args) -> int:
    # The smallest grid of each suite; the linearization battery's time
    # frequencies go up to 3, which 4 samples cannot hold.
    lowest_n = {"identities": 2, "linearization": 8}.get(args.suite)
    if lowest_n and (args.N & (args.N - 1) or not lowest_n <= args.N <= 32):
        raise SystemExit2(f"--N must be a power of two from {lowest_n} to 32, got {args.N}")
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
        report, ok = run_oracle()
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


def _roots_arguments(p):
    _add_geometry_flags(p)
    p.add_argument(
        "--window",
        metavar="a,b",
        help="keep roots with a < Re < b; write a negative a as --window=-2,2",
    )
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=cmd_roots)


def _gap_arguments(p):
    _add_geometry_flags(p)
    p.set_defaults(func=cmd_gap)


def _ks_arguments(p):
    _add_geometry_flags(p)
    p.set_defaults(func=cmd_ks)


def _lens_arguments(p):
    p.add_argument(
        "--lens", metavar="p,q1,q2", required=True, help=f"order p at most {LENS_ORDER_CEILING}"
    )
    p.add_argument("--jmax", type=int, default=10, help=f"at most {JMAX_CEILING}")
    p.add_argument("--out", metavar="FILE")
    p.set_defaults(func=cmd_lens)


def _verify_arguments(p):
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
        help=f"0..{JMAX_CEILING}, checked but read by no suite; the oracle suite runs fixed "
        "sweeps (eigenvalues 0..48, flat lattice vectors with |k|^2 <= 9)",
    )
    p.add_argument("--out", metavar="FILE")
    p.set_defaults(func=cmd_verify)


# Each subcommand's help line and the function that adds its arguments.
_SUBCOMMANDS = {
    "roots": ("root catalog table", _roots_arguments),
    "gap": ("spectral gap and gluing window", _gap_arguments),
    "ks": ("vanishing of subexponential cokernel 2-tensors", _ks_arguments),
    "lens": ("scalar multiplicities on a cyclic quotient", _lens_arguments),
    "verify": ("verification suites", _verify_arguments),
}


class _Subparsers(dict):
    """The subcommand parsers by name, each built when argparse first looks
    it up.  A run looks up only the command that argv names; usage, help and
    the invalid-choice error need only the names, which are the keys, and
    the help lines."""

    def __init__(self, action):
        super().__init__(dict.fromkeys(_SUBCOMMANDS))
        self._action = action

    def __getitem__(self, name):
        parser = super().__getitem__(name)
        if parser is None:  # as action.add_parser(name) would make it
            parser = self[name] = self._action._parser_class(prog=f"{self._action._prog_prefix} {name}")
            _SUBCOMMANDS[name][1](parser)
        return parser


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="indicyl",
        description="Indicial roots of the self-dual deformation complex on cylinders",
    )
    sub = ap.add_subparsers(dest="cmd", required=True)
    sub._name_parser_map = sub.choices = _Subparsers(sub)
    for name, (help_line, _) in _SUBCOMMANDS.items():
        sub._choices_actions.append(sub._ChoicesPseudoAction(name, (), help_line))
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        _check_out(args.out)
        _check_jmax(args.jmax)
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


if __name__ == "__main__":
    sys.exit(main())
