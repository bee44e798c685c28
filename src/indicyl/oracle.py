"""Numeric ground truth for the closed-form indicial roots.

Characteristic roots of the mode ODE systems are recomputed here by
general-purpose eigenvalue methods (block companion linearization plus QR
iteration, after a shift and inversion when the leading block is singular),
and the full flat-torus mode reduction of the wrapped deformation operator
is solved as a quadratic matrix pencil.  Nothing in this module uses the
closed-form root expressions.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

from . import fields

__all__ = [
    "OdeSystem",
    "RootSetComparison",
    "companion_roots",
    "matrix_a",
    "matrixA_system",
    "ode_tt_branch",
    "ode_mixed_b",
    "flat_mode_pencil",
    "pencil_roots",
    "RootCluster",
    "cluster_roots",
    "clustered_multiset",
    "compare_root_sets",
]

# Five independent rows of a trace-free symmetric 3x3 tensor.
_TF_PICK = ((0, 0), (1, 1), (0, 1), (0, 2), (1, 2))

# Fixed shift of the singular-lead solve, off both axes, and the |mu| / max|mu|
# below which a shifted-inverse eigenvalue mu stands for an infinite root.
_SHIFT = 0.3 + 0.7j
_INFINITE_TOL = 1e-8
# The leading block counts as singular when |det| is below this times
# max(1, its norm ** n).
_SINGULAR_LEAD_TOL = 1e-12
# The most an eigenvalue (for a TT branch, lam + 3 kappa) may lie below
# zero, by rounding, and still be taken.
_BELOW_ZERO_TOL = 1e-12
# Roots within this relative distance of a cluster's first root join it.
_CLUSTER_TOL = 1e-6
# Singular values below this fraction of the largest count toward a nullity.
_NULL_TOL = 1e-7


@dataclass(frozen=True)
class OdeSystem:
    """Constant-coefficient system sum_k M_k d^k/dt^k acting on C^n."""

    mats: tuple[np.ndarray, ...]

    def __post_init__(self):
        if len(self.mats) < 2:
            raise ValueError("need at least order 1 (two coefficient matrices)")
        n = self.mats[0].shape[0]
        for m in self.mats:
            if m.shape != (n, n):
                raise ValueError("all coefficient matrices must be square and equal-sized")

    @property
    def order(self) -> int:
        return len(self.mats) - 1

    @property
    def dim(self) -> int:
        return self.mats[0].shape[0]

    def eval(self, lam: complex) -> np.ndarray:
        out = np.zeros_like(np.asarray(self.mats[0], dtype=complex))
        for k, m in enumerate(self.mats):
            out = out + (lam**k) * m
        return out


def companion_roots(ode: OdeSystem) -> np.ndarray:
    """Finite roots of the matrix polynomial sum_k M_k lam^k from its block
    companion linearization: QR iteration on the companion matrix, or, when
    the leading block is singular, on (A - s B)^-1 B for the companion pencil
    (A, B), whose eigenvalues 1 / (lam - s) at zero are the infinite roots."""
    n, r = ode.dim, ode.order
    lead = np.asarray(ode.mats[-1], dtype=complex)
    comp = np.zeros((n * r, n * r), dtype=complex)
    for k in range(r - 1):
        comp[n * k : n * (k + 1), n * (k + 1) : n * (k + 2)] = np.eye(n)
    if not abs(np.linalg.det(lead)) < _SINGULAR_LEAD_TOL * max(1.0, np.linalg.norm(lead) ** n):
        inv = np.linalg.inv(lead)
        for k in range(r):
            comp[n * (r - 1) :, n * k : n * (k + 1)] = -inv @ ode.mats[k]
        return np.linalg.eigvals(comp)
    for k in range(r):
        comp[n * (r - 1) :, n * k : n * (k + 1)] = -np.asarray(ode.mats[k], dtype=complex)
    B = np.eye(n * r, dtype=complex)
    B[n * (r - 1) :, n * (r - 1) :] = lead
    mu = np.linalg.eigvals(np.linalg.solve(comp - _SHIFT * B, B))
    mu = mu[np.abs(mu) > _INFINITE_TOL * np.max(np.abs(mu))]
    return _SHIFT + 1.0 / mu


# ---------------------------------------------------------------------------
# The explicit small systems
# ---------------------------------------------------------------------------


def matrix_a(mu: float, kappa: int) -> np.ndarray:
    """First-order 4x4 matrix of the scalar-driven mixed system in the
    variables (l, l', m, m'):

        l'' = (2/3) mu l + (mu/3) m',
        m'' = -(1/2) l' + ((3/2) mu - 4 kappa) m.
    """
    if mu < -_BELOW_ZERO_TOL:
        raise ValueError(f"scalar eigenvalue must be >= 0, got {mu}")
    return np.array(
        [
            [0.0, 1.0, 0.0, 0.0],
            [2.0 * mu / 3.0, 0.0, 0.0, mu / 3.0],
            [0.0, 0.0, 0.0, 1.0],
            [0.0, -0.5, 1.5 * mu - 4.0 * kappa, 0.0],
        ]
    )


def matrixA_system(mu: float, kappa: int) -> OdeSystem:
    """The mixed system as a first-order OdeSystem, X' - A X = 0."""
    A = matrix_a(mu, kappa)
    return OdeSystem((np.asarray(-A, dtype=complex), np.eye(4, dtype=complex)))


def ode_tt_branch(lam: float, kappa: int, sign: int) -> OdeSystem:
    """Scalar ODE -(1/2) f'' + s*sqrt(lam+3k) f' - (k + lam/2) f = 0 for one
    eigentensor branch of the Dirac-type operator (s = +-1)."""
    if lam + 3 * kappa < -_BELOW_ZERO_TOL:
        raise ValueError(f"no real branch rate for eigenvalue {lam} at kappa={kappa}")
    beta = math.sqrt(max(lam + 3 * kappa, 0.0))
    return OdeSystem(
        (
            np.array([[-(kappa + lam / 2.0)]], dtype=complex),
            np.array([[sign * beta]], dtype=complex),
            np.array([[-0.5]], dtype=complex),
        )
    )


def ode_mixed_b(nu: float, kappa: int) -> OdeSystem:
    """Scalar ODE m'' - nu m + 4 kappa m = 0 of the co-closed mixed family."""
    if nu < -_BELOW_ZERO_TOL:
        raise ValueError(f"co-closed eigenvalue must be >= 0, got {nu}")
    return OdeSystem(
        (
            np.array([[4.0 * kappa - nu]], dtype=complex),
            np.array([[0.0]], dtype=complex),
            np.array([[1.0]], dtype=complex),
        )
    )


# ---------------------------------------------------------------------------
# Flat-torus mode pencil of the wrapped deformation operator
# ---------------------------------------------------------------------------


def _reduced_basis() -> dict[str, np.ndarray]:
    """The 9 columns of the reduced space (alpha: 3, h: 6 with h00 = -tr h)
    as component arrays with a trailing column axis."""
    alpha = np.zeros((3, 9), dtype=complex)
    h = np.zeros((3, 3, 9), dtype=complex)
    for i in range(3):
        alpha[i, i] = 1.0
    for col, (i, j) in enumerate(fields._SYM_PAIRS, start=3):
        h[i, j, col] = h[j, i, col] = 1.0
    return {"h00": -fields._trace(h), "alpha": alpha, "h": h}


def flat_mode_pencil(
    k: tuple[int, int, int], lengths=(2 * math.pi,) * 3
) -> OdeSystem:
    """Quadratic matrix pencil of the wrapped deformation operator restricted
    to the Fourier mode k on a flat torus.

    The 10 tensor components reduce to 9 after eliminating h00 = -tr h; the
    rows are the 5 trace-free curvature equations plus the 4 divergence
    equations.  Rate lam is an indicial root exactly when the pencil is
    singular at lam.  The coefficient matrices are the d/dt-coefficients of
    the curvature and of 2 * divergence, read at xi = 2 pi k / L.
    """
    if not all(0 < L < math.inf for L in lengths):  # NaN fails too
        raise ValueError(f"lattice side lengths must be positive and finite, got {lengths}")
    xi = np.array([2 * math.pi * int(ki) / L for ki, L in zip(k, lengths)])[:, None]
    x = _reduced_basis()
    div = fields.div_coefficients(xi, x) + ({"f": np.zeros(9), "omega": np.zeros((3, 9))},)
    mats = []
    for weyl, dv in zip(fields.weyl_coefficients(xi, x), div):
        rows = [weyl["h"][i, j] for i, j in _TF_PICK] + [2.0 * dv["f"], *(2.0 * dv["omega"])]
        mats.append(np.array(rows, dtype=complex))
    return OdeSystem(tuple(mats))


@dataclass(frozen=True)
class RootCluster:
    value: complex
    algebraic: int
    geometric: int

    @property
    def jordan(self) -> bool:
        return self.algebraic > self.geometric


def cluster_roots(values: np.ndarray) -> list[tuple[complex, int]]:
    """Greedy clustering of near-coincident roots; returns (center, count)."""
    clusters: list[list[complex]] = []
    for v in sorted(values, key=lambda z: (z.real, z.imag)):
        for c in clusters:
            if abs(v - c[0]) <= _CLUSTER_TOL * max(1.0, abs(c[0])):
                c.append(v)
                break
        else:
            clusters.append([complex(v)])
    return [(complex(np.mean(c)), len(c)) for c in clusters]


def clustered_multiset(values) -> list[complex]:
    """Replace near-coincident roots by their cluster mean, replicated by
    cluster size.  Means of defective (Jordan) eigenvalue pairs are accurate
    to rounding error even though the individual eigenvalues split by the
    square root of machine precision."""
    out: list[complex] = []
    for center, count in cluster_roots(np.asarray(values, dtype=complex)):
        out.extend([center] * count)
    return out


def pencil_roots(ode: OdeSystem):
    """Indicial roots of a mode pencil with multiplicities and Jordan flags.

    A cluster is Jordan when its algebraic multiplicity (cluster size among
    the generalized eigenvalues) exceeds the nullity of the pencil at the
    cluster center, i.e. when genuine t-polynomial solutions occur.
    """
    vals = companion_roots(ode)
    out = []
    for center, count in cluster_roots(vals):
        mat = ode.eval(center)
        svals = np.linalg.svd(mat, compute_uv=False)
        smax = svals[0] if svals[0] > 0 else 1.0
        geometric = int(np.sum(svals < _NULL_TOL * smax))
        out.append(RootCluster(center, count, geometric))
    return out


# ---------------------------------------------------------------------------
# Root-set comparison
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RootSetComparison:
    max_mismatch: float
    matched: bool


def _saturates(dist, bound: float) -> bool:
    """Whether each row of dist pairs with its own column at <= bound (Kuhn)."""
    owner: dict[int, int] = {}

    def augment(i, seen):
        for j, d in enumerate(dist[i]):
            if d <= bound and j not in seen:
                seen.add(j)
                if j not in owner or augment(owner[j], seen):
                    owner[j] = i
                    return True
        return False

    return all(augment(i, set()) for i in range(len(dist)))


def compare_root_sets(expected, actual, tol: float) -> RootSetComparison:
    """Match two root multisets within tol.

    Matched means every expected root pairs with a distinct actual root at
    distance < tol and no actual root is left over.  max_mismatch is the
    least possible largest distance of such a pairing of the expected roots,
    infinite when there is none: an exact bottleneck matching, bisected over
    the sorted pair distances below tol.
    """
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    exp = [complex(z) for z in expected]
    act = [complex(z) for z in actual]
    if not exp:
        return RootSetComparison(0.0, not act)
    dist = [[abs(z - w) for w in act] for z in exp]
    levels = sorted({d for row in dist for d in row if d < tol})
    i = bisect.bisect_left(levels, True, key=lambda d: _saturates(dist, d))
    if i == len(levels):
        return RootSetComparison(math.inf, False)
    return RootSetComparison(levels[i], len(exp) == len(act))
