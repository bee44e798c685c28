"""Output checks for benchmark invocations.

Every check takes the captured standard output of one `indicyl` invocation
and returns None when the output is right, or a one-line reason when it is
not.  The checks share no code with the package: the lens check recomputes
multiplicities from Ikeda's character formula, the others compare against
values fixed by the workload's own inputs.
"""

from __future__ import annotations

import cmath
import csv
import io
import json
import math

# Roots of the round-sphere catalog with |Re| < 2: the conformal Killing
# roots 0 and +-1 (spherical gap theorem), all real.
SPHERE_ROOTS_BELOW_2 = {(-1.0, 0.0), (0.0, 0.0), (1.0, 0.0)}
GLUING_WINDOW = [0.0, 2.0]
FLAT_DIM_AT_ZERO = 14


def _character(two_s: int, phi: float) -> complex:
    """SU(2) character chi_s(phi) = sum_{k=0}^{2s} exp(i (2k - 2s) phi)."""
    return sum(cmath.exp(1j * (2 * k - two_s) * phi) for k in range(two_s + 1))


def ikeda_scalar_multiplicity(p: int, q1: int, q2: int, j: int) -> int:
    """Dimension of the degree-j scalar harmonics on S^3 invariant under the
    cyclic group of L(p; q1, q2).

    Ikeda, On the spectrum of a Riemannian manifold of positive constant
    curvature (Osaka J. Math. 1980): the harmonics are V_{j/2} x V_{j/2}
    under SU(2) x SU(2), and the element m of the group acts with half
    angles phi+- = pi m (q1 +- q2) / p, so the invariant dimension is
    (1/p) sum_m chi_{j/2}(phi+_m) chi_{j/2}(phi-_m).
    """
    total = sum(
        _character(j, math.pi * m * (q1 + q2) / p) * _character(j, math.pi * m * (q1 - q2) / p)
        for m in range(p)
    )
    value = total / p
    count = round(value.real)
    if abs(value - count) > 1e-6:
        raise ValueError(f"character sum {value} is not an integer at j={j}")
    return count


def _doc(stdout: str) -> dict:
    doc = json.loads(stdout)
    if not isinstance(doc, dict):
        raise ValueError("output is not a JSON object")
    return doc


def _roots(stdout: str, fmt: str) -> list[dict]:
    if fmt == "csv":
        return list(csv.DictReader(io.StringIO(stdout)))
    return _doc(stdout)["roots"]


def sphere_roots(stdout: str, fmt: str = "json") -> str | None:
    low = {
        (float(r["re"]), float(r["im"]))
        for r in _roots(stdout, fmt)
        if abs(float(r["re"])) < 2
    }
    if low != SPHERE_ROOTS_BELOW_2:
        return f"roots with |Re| < 2 are {sorted(low)}, expected {sorted(SPHERE_ROOTS_BELOW_2)}"
    return None


def gluing_window(stdout: str) -> str | None:
    window = _doc(stdout)["window"]
    if window != GLUING_WINDOW:
        return f"gluing window {window}, expected {GLUING_WINDOW}"
    return None


def _dims_at_zero(doc: dict, expected: int) -> str | None:
    dims = (doc["kernel_dim_at_zero"], doc["cokernel_dim_at_zero"])
    if dims != (expected, expected):
        return f"kernel/cokernel dimensions at 0 are {dims}, expected {expected}"
    return None


def torus_dims(stdout: str) -> str | None:
    return _dims_at_zero(_doc(stdout), FLAT_DIM_AT_ZERO)


def hyperbolic_dims(stdout: str, b1: int, codazzi: int) -> str | None:
    return _dims_at_zero(_doc(stdout), 1 + b1 + 2 * codazzi)


def ks_predicate(stdout: str, b1: int, codazzi: int) -> str | None:
    doc = _doc(stdout)
    if doc["cokernel_dim_at_zero"] != 1 + b1 + 2 * codazzi:
        return f"ks cokernel dimension {doc['cokernel_dim_at_zero']}, expected {1 + b1 + 2 * codazzi}"
    if doc["h2plus_vanishes"] is not (codazzi == 0):
        return f"h2plus_vanishes={doc['h2plus_vanishes']} with codazzi={codazzi}"
    return None


def verify_passed(stdout: str, suite: str) -> str | None:
    doc = _doc(stdout)
    if doc["suite"] != suite or not doc["results"]:
        return f"verify document for suite {doc['suite']!r} with {len(doc['results'])} results"
    if doc["pass"] is not True:
        failed = [r for r in doc["results"] if r.get("pass") is not True]
        return f"verify {suite} reports pass={doc['pass']} ({len(failed)} failing results)"
    return None


def lens_table(stdout: str, p: int, q1: int, q2: int, j_max: int) -> str | None:
    got = _doc(stdout)["multiplicities"]
    want = [[j, ikeda_scalar_multiplicity(p, q1, q2, j)] for j in range(j_max + 1)]
    if got != want:
        bad = [(w, g) for w, g in zip(want, got) if w != g]
        return f"lens multiplicities differ from Ikeda's count (want, got): {bad[:3]}, {len(got)} rows"
    return None


def lens_roots(stdout: str, p: int, q1: int, q2: int, j_max: int) -> str | None:
    """Every scalar-origin root of a lens catalog carries the invariant
    multiplicity of its degree, and every degree with invariants appears."""
    want = {j: ikeda_scalar_multiplicity(p, q1, q2, j) for j in range(j_max + 1)}
    seen = set()
    for r in _doc(stdout)["roots"]:
        if r["origin_kind"] != "scalar":
            continue
        seen.add(r["j"])
        if r["multiplicity"] != want.get(r["j"]):
            return f"scalar root at j={r['j']} has multiplicity {r['multiplicity']}, Ikeda gives {want.get(r['j'])}"
    missing = sorted(j for j, m in want.items() if m > 0 and j not in seen)
    if missing:
        return f"no scalar roots at degrees {missing} that carry invariants"
    return None


def run_check(check, stdout: str) -> str | None:
    """Apply one check; output that cannot be parsed counts as a failure."""
    try:
        return check(stdout)
    except (ValueError, KeyError, TypeError, IndexError, AttributeError) as e:
        return f"unreadable output ({type(e).__name__}: {e})"
