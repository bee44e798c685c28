"""First-principles curvature on a periodic 4D grid.

Computes Christoffel symbols and the Riemann tensor of a sampled metric
from the general coordinate formulas with spectral derivatives (exact for
band-limited samples), assembles the anti-self-dual curvature block as a
bilinear form on cross-section 2-tensors, and verifies the linearized
curvature operator by central finite differences in the deformation
parameter.

Index conventions: coordinate order (t, y1, y2, y3); Riemann is
R^r_{smn} = d_m Gam^r_{ns} - d_n Gam^r_{ms} + Gam Gam, lowered on the first
index, so that a metric of constant sectional curvature c has
R_{abcd} = c (g_ac g_bd - g_ad g_bc).

Storage: the engine works components-first on contiguous arrays.  A
symmetric 4x4 field, the sampled metric included, is stored as its 10
components (a <= b), and the lowered Riemann tensor as its 21 independent
components R_PQ over the antisymmetric index pairs P = (r<s), Q = (m<n)
with P <= Q.  The first-kind Christoffel symbols are kept as four
(10, ...) arrays, one per lowered index; the inverse metric and the
second-kind symbols enter the Riemann tensor chunk by chunk and are not
stored.  The anti-self-dual block is read straight off the packed
components.  The inverse metric, the second-kind symbols, Ricci and scalar
curvature, and the unpacked (..., 4, 4) and (..., 4, 4, 4, 4) tensors, are
computed only on request.

Stages: the engine runs in two.  The derivative stage (the FFTs, the
second-derivative block of the Riemann tensor and the first-kind symbols;
see _derivative_spectrum) is linear in the metric; the pointwise stage (the
inverse metric and the term quadratic in the first-kind symbols) is not.
The identity has zero derivatives, so the derivative stage of I + c s is
exactly c times that of s: the finite-difference battery differentiates
each variation s once and feeds it, scaled, to its evaluations at
c = +-eps.  The battery holds no grid-sized array: it streams the grid a
group of at most _SLAB_POINTS points at a time (whole time planes, or whole
rows of one plane; see _groups) through the same module-level helpers that
the public functions run on the same groups (_metric_inverse,
_riemann_points, _asd_points), so every grid point keeps its bits; it
decides the metric and defect checks once over the whole grid, and takes
its norms by a streamed sum of squares (pairwise._PairwiseSum) that keeps
the bits of np.sum over the whole array.  It computes only the groups of
one period of a case's time symmetry, the shortest shift of the time axis
by whole groups under which the case's time passes repeat or change sign
exactly (see _time_symmetry); every other plane is plus or minus a
computed one, and enters the checks and the norms through it.

Sampling: a cylinder field is held as a Spectrum, the half spectrum of its
grid values on the box of the few Fourier modes it holds.  Its grid values
are the box's pruned inverse FFT, which skips the grid lines holding no
coefficient: one pass over the time axis of the whole box
(_time_inverse), then the rest a group at a time (_plane_inverse), which
transforms only the components not all +0.0, a chunk of them at a time,
each axis laid out last and contiguous, and writes +0.0 to the others.
Sampling (_pruned_irfftn) and the battery run the same two routines.  A
variation is differentiated on its box, without a forward FFT, and its
61 derivative spectra are inverted with its 10 coefficients; any other
metric is differentiated through its full rfftn, one component at a time.

Processes: everything runs in the calling process, a group at a time,
except that the battery (see fd_battery_errors) runs its cases in
parallel, on the calling process and on workers forked from it, one per
further CPU (see forks.run).  The package starts no threads.  Each
computed grid point's values come from the same expressions in the same
order however the grid is grouped and the cases are shared out, and the
battery's copied planes hold a computed plane's values times +-1, up to
the sign of exact zeros, which no check or squared norm reads; so every
result is bitwise the same for any number of CPUs, and the same as over
every grid point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, partial

import numpy as np

from . import forks
from .fields import (
    _SYM_PAIRS,
    _T_PERIOD,
    CylTensor,
    ModeGrid,
    linearized_weyl,
)
from .indicial import VerificationError
from .pairwise import _PairwiseSum, _sorted_unique

__all__ = [
    "MetricGrid4D",
    "CurvatureGrid",
    "CurvatureDefectError",
    "christoffel_riemann",
    "asd_form_background",
    "sample_cyl_tensor",
    "cyl_tensor_spectrum",
    "Spectrum",
    "sample_cross_section_tensor",
]


class CurvatureDefectError(VerificationError):
    """The double-epsilon contraction of the spatial curvature block
    disagrees with its Ricci-contraction rewriting."""

    def __init__(self, defect: float, scale: float):
        self.defect = defect
        self.scale = scale
        super().__init__(
            f"double-epsilon contraction disagrees with the Ricci-contraction "
            f"shortcut by {defect:.3e} (curvature scale {scale:.3e})"
        )

    def __reduce__(self):
        return type(self), (self.defect, self.scale)


@dataclass
class MetricGrid4D:
    """Sampled 4-metric on a periodic grid, point-indexed (t, y1, y2, y3),
    as its 10 components g_ab (a <= b, in _SYM order) components-first."""

    periods: tuple[float, float, float, float]
    g: np.ndarray  # (10, Nt, N1, N2, N3)

    def __post_init__(self):
        self.g = np.ascontiguousarray(self.g, dtype=float)
        if self.g.ndim != 5 or self.g.shape[0] != 10 or 0 in self.g.shape:
            raise ValueError(
                "metric samples must have shape (10, Nt, N1, N2, N3), the components "
                f"g_ab with a <= b; got {self.g.shape}"
            )
        # The comparisons are written so that NaN fails them.
        if len(self.periods) != 4 or not all(0 < p < math.inf for p in self.periods):
            raise ValueError(f"periods must be four positive finite numbers, got {self.periods}")
        g = self.g.reshape(10, -1)
        _check_metric([_metric_inverse(g[:, points]) for *_, points in _groups(self.shape)])

    @property
    def shape(self) -> tuple[int, int, int, int]:
        return self.g.shape[1:]


def _check_metric(flags) -> None:
    """Raises ValueError unless every (finite, positive) of flags, the
    _metric_inverse flags of the parts of one metric, holds."""
    finite, positive = zip(*flags)
    if not all(finite):
        raise ValueError("metric samples must be finite")
    if not all(positive):
        raise ValueError("metric is not positive definite at some grid point")


# Symmetric slots (a <= b) of a 4x4 field and their index table.
_SYM = tuple((a, b) for a in range(4) for b in range(a, 4))
_SYM_INDEX = np.empty((4, 4), dtype=int)
for _c, (_a, _b) in enumerate(_SYM):
    _SYM_INDEX[_a, _b] = _SYM_INDEX[_b, _a] = _c
_IDENTITY = np.array([float(a == b) for a, b in _SYM]).reshape((10, 1))

# Antisymmetric index pairs, the 21 packed Riemann slots (P <= Q), and the
# packed slot and sign of every R_abcd (sign 0 when a == b or c == d).
_PAIRS4 = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
_PACKED = tuple((P, Q) for P in range(6) for Q in range(P, 6))
# The derivative stage's output components: the 21 packed Riemann
# components, then the 10 first-kind symbols of each derivative index.
_DERIVATIVES = len(_PACKED) + 4 * len(_SYM)
_PACKED_INDEX = np.empty((6, 6), dtype=int)
for _c, (_P, _Q) in enumerate(_PACKED):
    _PACKED_INDEX[_P, _Q] = _PACKED_INDEX[_Q, _P] = _c
_PAIR_INDEX = np.zeros((4, 4), dtype=int)
_PAIR_SIGN = np.zeros((4, 4), dtype=int)
for _P, (_a, _b) in enumerate(_PAIRS4):
    _PAIR_INDEX[_a, _b] = _PAIR_INDEX[_b, _a] = _P
    _PAIR_SIGN[_a, _b], _PAIR_SIGN[_b, _a] = 1, -1
_RIEMANN_INDEX = _PACKED_INDEX[_PAIR_INDEX[:, :, None, None], _PAIR_INDEX[None, None, :, :]]
_RIEMANN_SIGN = _PAIR_SIGN[:, :, None, None] * _PAIR_SIGN[None, None, :, :]


def _row_pair_minors(a) -> tuple[tuple, tuple]:
    """2x2 minors of a symmetric 4x4 field a[i, j] (i <= j) on the upper
    rows (0, 1) and on the lower rows (2, 3), each over the column pairs
    _PAIRS4 in order."""
    s = (
        a[0, 0] * a[1, 1] - a[0, 1] * a[0, 1],
        a[0, 0] * a[1, 2] - a[0, 2] * a[0, 1],
        a[0, 0] * a[1, 3] - a[0, 3] * a[0, 1],
        a[0, 1] * a[1, 2] - a[0, 2] * a[1, 1],
        a[0, 1] * a[1, 3] - a[0, 3] * a[1, 1],
        a[0, 2] * a[1, 3] - a[0, 3] * a[1, 2],
    )
    c = (
        a[0, 2] * a[1, 3] - a[1, 2] * a[0, 3],
        a[0, 2] * a[2, 3] - a[2, 2] * a[0, 3],
        a[0, 2] * a[3, 3] - a[2, 3] * a[0, 3],
        a[1, 2] * a[2, 3] - a[2, 2] * a[1, 3],
        a[1, 2] * a[3, 3] - a[2, 3] * a[1, 3],
        a[2, 2] * a[3, 3] - a[2, 3] * a[2, 3],
    )
    return s, c


def _det(s, c):
    """Determinant by Laplace expansion in the row pair minors."""
    return s[0] * c[5] - s[1] * c[4] + s[2] * c[3] + s[3] * c[2] - s[4] * c[1] + s[5] * c[0]


def _minor3(a, s):
    """Leading 3x3 principal minor, expanded along row 2."""
    return a[0, 2] * s[3] - a[1, 2] * s[1] + a[2, 2] * s[0]


# The cofactors of the inverse metric's slots _SYM[:9] by Laplace expansion
# in the row pair minors: each the sum of three products x u, y v, z w of a
# metric component (i, j) and a minor (its index in s + c, see
# _row_pair_minors), alternating in sign, and whether the first product is
# negative.  The cofactor of (3, 3) is the leading 3x3 minor.
_COFACTORS = (
    (((1, 1), 11), ((1, 2), 10), ((1, 3), 9), False),
    (((0, 1), 11), ((0, 2), 10), ((0, 3), 9), True),
    (((1, 3), 5), ((2, 3), 4), ((3, 3), 3), False),
    (((1, 2), 5), ((2, 2), 4), ((2, 3), 3), True),
    (((0, 0), 11), ((0, 2), 8), ((0, 3), 7), False),
    (((0, 3), 5), ((2, 3), 2), ((3, 3), 1), True),
    (((0, 2), 5), ((2, 2), 2), ((2, 3), 1), False),
    (((0, 3), 4), ((1, 3), 2), ((3, 3), 0), False),
    (((0, 2), 4), ((1, 2), 2), ((2, 3), 0), True),
)


def _metric_inverse(g: np.ndarray, out: np.ndarray | None = None) -> tuple[bool, bool]:
    """(finite, positive definite) for the metric components g (10, ...):
    finiteness, then Sylvester's criterion on the finite samples.  When
    both hold and out is given, the inverse metric, by 2x2 minors of the
    upper and lower row pairs (Laplace expansion), is written to out (10,
    ...).  The leading minors are read off the same row pair minors, which
    are formed once; nothing is divided unless both flags hold."""
    if not np.all(np.isfinite(g)):
        return False, False
    a = {(i, j): g[c] for c, (i, j) in enumerate(_SYM)}
    s, c = _row_pair_minors(a)
    det, minor3 = _det(s, c), _minor3(a, s)
    if not all(np.all(d > 0) for d in (a[0, 0], s[0], minor3, det)):
        return True, False
    if out is None:
        return True, True
    minors = s + c
    inv_det = 1.0 / det
    for o, ((x, u), (y, v), (z, w), negative) in zip(out, _COFACTORS):
        # Each cofactor is summed left to right in its slot of out, then
        # scaled there; -x u + y v is y v - x u, the same IEEE operation.
        if negative:  # -x u + y v - z w
            np.multiply(a[y], minors[v], out=o)
            o -= a[x] * minors[u]
            o -= a[z] * minors[w]
        else:  # x u - y v + z w
            np.multiply(a[x], minors[u], out=o)
            o -= a[y] * minors[v]
            o += a[z] * minors[w]
        o *= inv_det
    np.multiply(minor3, inv_det, out=out[len(_COFACTORS)])
    return True, True


def _unpack_sym(c10: np.ndarray) -> np.ndarray:
    """(10, ...) symmetric components to a (..., 4, 4) array."""
    return np.moveaxis(c10[_SYM_INDEX], (0, 1), (-2, -1))


@dataclass
class CurvatureGrid:
    """Curvature of a sampled metric in packed components-first storage.

    The inverse metric ginv_sym (10, ...), the second-kind symbols
    gamma_sym (4, 10, ...), the Ricci components ricci_sym (10, ...) and
    the scalar curvature are computed on first access.  The full tensors
    ginv (..., a, b), gamma (..., r, m, n), riemann (..., a, b, c, d) and
    ricci (..., a, b) are unpacked on first access.
    """

    metric: MetricGrid4D
    riemann_packed: np.ndarray          # (21, ...) lowered R_PQ, slots _PACKED
    first_kind: tuple[np.ndarray, ...]  # 4 x (10, ...) 2 Gam_{s,mn}, slots _SYM

    @cached_property
    def ginv_sym(self) -> np.ndarray:
        """g^ab, slots _SYM, by the closed-form inverse of the metric."""
        g = self.metric.g.reshape(10, -1)
        out = np.empty_like(g)
        for *_, points in _groups(self.metric.shape):
            _metric_inverse(g[:, points], out[:, points])
        return out.reshape(self.metric.g.shape)

    @cached_property
    def gamma_sym(self) -> np.ndarray:
        """Gam^r_mn = g^rs Gam_{s,mn}, slots (r, _SYM)."""
        low = np.stack(self.first_kind)
        low *= 0.5
        return np.einsum("rs...,sc...->rc...", self.ginv_sym[_SYM_INDEX], low)

    @cached_property
    def ricci_sym(self) -> np.ndarray:
        """Ricci R_sn = g^ab R_asbn over the nine (a, b) with a != s, b != n."""
        S = _SYM_INDEX
        ricci_sym = np.zeros_like(self.ginv_sym)
        for c, (s, n) in enumerate(_SYM):
            for a in range(4):
                for b in range(4):
                    sign = _RIEMANN_SIGN[a, s, b, n]
                    if sign:
                        ricci_sym[c] += (
                            sign * self.ginv_sym[S[a, b]] * self.riemann_packed[_RIEMANN_INDEX[a, s, b, n]]
                        )
        return ricci_sym

    @cached_property
    def scalar(self) -> np.ndarray:
        weights = np.array([1.0 if a == b else 2.0 for a, b in _SYM])
        return np.einsum("c,c...,c...->...", weights, self.ginv_sym, self.ricci_sym)

    @cached_property
    def ginv(self) -> np.ndarray:
        return _unpack_sym(self.ginv_sym)

    @cached_property
    def gamma(self) -> np.ndarray:
        return np.moveaxis(self.gamma_sym[:, _SYM_INDEX], (0, 1, 2), (-3, -2, -1))

    @cached_property
    def riemann(self) -> np.ndarray:
        full = np.take(self.riemann_packed, _RIEMANN_INDEX.ravel(), axis=0)
        grid_shape = self.riemann_packed.shape[1:]
        full *= _RIEMANN_SIGN.reshape((-1,) + (1,) * len(grid_shape))
        return np.moveaxis(full.reshape((4, 4, 4, 4) + grid_shape), (0, 1, 2, 3), (-4, -3, -2, -1))

    @cached_property
    def ricci(self) -> np.ndarray:
        return _unpack_sym(self.ricci_sym)


def _ik_factors(periods, grid_shape, positions):
    """Broadcastable i*k multipliers for each coordinate at the given grid
    positions, the last axis on the half-spectrum."""
    out = []
    for mu in range(4):
        n = grid_shape[mu]
        if mu < 3:
            freq = 2 * math.pi * np.fft.fftfreq(n, d=1.0 / n) / periods[mu]
        else:
            freq = 2 * math.pi * np.fft.rfftfreq(n, d=1.0 / n) / periods[mu]
        shape = [1] * 4
        shape[mu] = len(positions[mu])
        out.append(1j * freq[positions[mu]].reshape(shape))
    return out


# Most grid points per group of a streamed pass (see _group_planes), unless
# one row holds more.  Each group repeats every NumPy call of a stage, so
# small groups cost more in call overhead than they save in memory.  A
# battery group's buffers hold about 290 doubles per point and a case holds
# nothing grid-sized, so with 2048 points (half a 16^4 time plane, two rows
# at 32^4) a case with two steps peaks at 5.8-6.3 MiB of traced arrays at
# 16^4 and 11.0-11.6 MiB at 32^4, the more the more live components it
# has (see _plane_inverse); with 4096 points it peaks at 9.8-10.7 and
# 14.9-15.6 MiB.  On one CPU, 2048-point groups run the 16^4 battery about
# as fast as 4096-point ones (their transforms and dot products take less
# time per point, their other NumPy calls more), and 1024-point groups
# run it slower.
_SLAB_POINTS = 2048

# Most components per chunk of the pruned inverse's spatial passes (see
# _plane_inverse), which bounds their scratch.  Chunks of 12 to 71
# components inverted the 16^4 battery equally fast; against one chunk of
# all 71, chunks of 24 lower the traced peak of a case whose 71 components
# are all live from 13.8 to 12.0 MiB at 16^4.
_INVERSE_ROWS = 24

@dataclass(frozen=True, eq=False)
class Spectrum:
    """A real field on a periodic grid of the given shape, as the Fourier
    coefficients on a box of grid modes whose pruned inverse (see
    _pruned_irfftn) is its grid values.

    coefficients[:, i, j, k, l] is the field's rfftn over its four grid
    axes at the grid position (positions[0][i], positions[1][j],
    positions[2][k], positions[3][l]); every position outside the box holds
    zero.  The last axis is rfftn's half spectrum and its positions run
    0, 1, ... up; an axis with as many positions as grid points holds them
    in order.
    """

    coefficients: np.ndarray           # (C, m0, m1, m2, m3), complex
    positions: tuple[np.ndarray, ...]  # 4 integer arrays of grid positions
    shape: tuple[int, int, int, int]   # the grid, (Nt, N1, N2, N3)


def _group_planes(grid_shape) -> tuple[int, int, int]:
    """(planes, rows, points) of each group of a streamed pass over the
    grid (see _groups), which holds at most _SLAB_POINTS points unless one
    row holds more: the most whole time planes that fit, when one plane
    fits, and otherwise one plane's most whole rows of the first spatial
    axis that fit (at least one row); points is their number of points."""
    nt, n1 = grid_shape[:2]
    row = math.prod(grid_shape[2:])
    if n1 * row <= _SLAB_POINTS:
        planes, rows = min(nt, _SLAB_POINTS // (n1 * row)), n1
    else:
        planes, rows = 1, max(1, _SLAB_POINTS // row)
    return planes, rows, planes * rows * row


def _groups(grid_shape):
    """The groups of a streamed pass over the grid, in grid order: (times,
    block, points), the slices of a block of whole time planes or of whole
    rows of one plane (see _group_planes), and the slice of the flattened
    grid's points that the group covers, which are consecutive.  Every
    pass over a grid, in or out of the battery, runs on these groups."""
    planes, rows, _ = _group_planes(grid_shape)
    nt, n1 = grid_shape[:2]
    row = math.prod(grid_shape[2:])
    for lo in range(0, nt, planes):
        times = slice(lo, min(lo + planes, nt))
        for r in range(0, n1, rows):
            block = slice(r, min(r + rows, n1))
            start = (lo * n1 + r) * row
            yield times, block, slice(start, start + (times.stop - lo) * (block.stop - r) * row)


def _widen(x: np.ndarray, axis: int, positions, n: int) -> np.ndarray:
    """A new zero array holding x's entries at positions along the given
    axis, which it widens to n grid points; every other axis keeps x's
    length."""
    shape = list(x.shape)
    shape[axis] = n
    where = [slice(None)] * x.ndim
    where[axis] = positions
    wide = np.zeros(shape, dtype=complex)
    wide[tuple(where)] = x
    return wide


def _time_inverse(box: np.ndarray, times, nt: int) -> np.ndarray:
    """The first pass of the pruned inverse (see _pruned_irfftn) of a box
    of coefficients (C, m0, m1, m2, m3): its time axis, widened to the nt
    grid points (unless it holds them all) and transformed, (C, nt, m1, m2,
    m3)."""
    if box.shape[1] < nt:
        box = _widen(box, 1, times, nt)
    return np.fft.ifft(box, axis=1, norm="forward")


def _plane_inverse(stack: np.ndarray, positions, grid_shape, planes: int, rows: int):
    """The rest of the pruned inverse of a box whose time pass is stack
    (see _time_inverse), a group (see _groups) at a time: a function
    (times, block, out) that writes the grid values of the rows block of
    the first spatial axis in the time planes times, at most planes planes
    and rows rows, to out (C, planes', rows', N2, N3).

    Only the live components, those whose rows of stack hold a float
    other than +0.0, are transformed, in chunks of at most _INVERSE_ROWS
    consecutive ones; the other rows of out are set to +0.0, which is what
    the transforms give for them.  (A row of -0.0 is live: irfftn maps it
    to -0.0 at some grid points.)  Per chunk, each call widens and
    transforms the first spatial axis of its time planes, laid out (...,
    m2, m3, N1); then widens and transforms the second on its rows, laid
    out (..., rows, m3, N2); then transposes that once to (..., rows, N2,
    m3), runs the c2r into out and scales by 1/N.  So every transform runs
    along the last axis of a C-contiguous array, where pocketfft copies no
    strided lines, and each line meets the same 1-D transform as in
    irfftn.  The temporaries are one chunk's buffers, made here and reused
    by every call, which keeps no other state.
    """
    count, _, _, m2, m3 = stack.shape
    n1, n2, n3 = grid_shape[1:]
    alive = np.any(stack.reshape(count, -1).view(np.uint64), axis=1)
    dead = np.flatnonzero(~alive)
    chunks = []  # [lo, hi) of each chunk of consecutive live components
    for row in np.flatnonzero(alive).tolist():
        if chunks and chunks[-1][1] == row and row - chunks[-1][0] < _INVERSE_ROWS:
            chunks[-1][1] += 1
        else:
            chunks.append([row, row + 1])
    width = max((hi - lo for lo, hi in chunks), default=0)
    # Flat buffers, viewed per call as C-contiguous arrays of the call's
    # shape; the widened axis is the last one, so the zeros of each
    # widened line stay in place whatever the leading shape.
    wide1 = np.zeros(width * planes * m2 * m3 * n1, dtype=complex)
    wide2 = np.zeros(width * planes * rows * m3 * n2, dtype=complex)
    part1 = np.empty(len(wide1), dtype=complex)
    part2, flip = np.empty((2, len(wide2)), dtype=complex)
    scale = 1.0 / math.prod(grid_shape)

    def invert(times, block, out):
        t, r = times.stop - times.start, block.stop - block.start
        if len(dead):
            out[dead] = 0.0
        for lo, hi in chunks:
            k = hi - lo
            a = wide1[: k * t * m2 * m3 * n1].reshape(k, t, m2, m3, n1)
            a[..., positions[1]] = stack[lo:hi, times].transpose(0, 1, 3, 4, 2)
            b = np.fft.ifft(a, axis=-1, norm="forward", out=part1[: a.size].reshape(a.shape))
            shape = (k, t, r, m3, n2)
            c = wide2[: math.prod(shape)].reshape(shape)
            c[..., positions[2]] = b[..., block].transpose(0, 1, 4, 3, 2)
            d = np.fft.ifft(c, axis=-1, norm="forward", out=part2[: c.size].reshape(shape))
            e = flip[: c.size].reshape(k, t, r, n2, m3)
            np.copyto(e, d.transpose(0, 1, 2, 4, 3))
            np.fft.irfft(e, n=n3, axis=-1, norm="forward", out=out[lo:hi])
            out[lo:hi] *= scale

    return invert


def _pruned_irfftn(coefficients: np.ndarray, positions, grid_shape) -> np.ndarray:
    """scipy.fft.irfftn over axes 1-4, to grid_shape, of a box of
    coefficients at the given positions of the half spectrum, zeros
    elsewhere, bit for bit.

    irfftn transforms the complex axes 1, 2 and 3 in that order, unscaled,
    then runs the c2r on axis 4 and scales by 1/N in that pass.  Here the
    same 1-D transforms of numpy.fft, which runs the same pocketfft, go
    axis by axis: each complex axis is widened to its grid size right
    before its own transform, so that only lines that hold a nonzero
    coefficient are transformed (the transform of an all-zero line is
    zero), and the c2r pads the half spectrum itself.  The 1/N follows as
    the same single product.  The time axis is transformed once
    (_time_inverse); the rest runs a group at a time (see _plane_inverse
    and _groups).
    """
    grid_shape = tuple(grid_shape)
    stack = _time_inverse(coefficients, positions[0], grid_shape[0])
    out = np.empty((len(coefficients),) + grid_shape)
    planes, rows, _ = _group_planes(grid_shape)
    invert = _plane_inverse(stack, positions, grid_shape, planes, rows)
    for times, block, _ in _groups(grid_shape):
        invert(times, block, out[:, times, block])
    return out


def _derivative_spectrum(j: int, gk: np.ndarray, k, out: np.ndarray, term: np.ndarray) -> np.ndarray:
    """Component j of the derivative stage of a symmetric field s, in
    spectrum, from the spectrum gk (10, ...) of s and the i*k factors k at
    its positions, summed term by term into out (term is scratch of its
    shape): the 21 packed Riemann components, then the 10 first-kind
    symbols of each derivative index,

        L_rsmn = 1/2 (s_rn,sm + s_sm,rn - s_rm,sn - s_sn,rm)
        2 Gam_{s,mn} = s_sn,m + s_sm,n - s_mn,s."""
    S = _SYM_INDEX
    if j < len(_PACKED):
        (r, s), (mm, nn) = (_PAIRS4[P] for P in _PACKED[j])
        np.multiply(k[s] * k[mm], gk[S[r, nn]], out=out)
        out += np.multiply(k[r] * k[nn], gk[S[s, mm]], out=term)
        out -= np.multiply(k[s] * k[nn], gk[S[r, mm]], out=term)
        out -= np.multiply(k[r] * k[mm], gk[S[s, nn]], out=term)
        out *= 0.5
    else:
        s, c = divmod(j - len(_PACKED), len(_SYM))
        mm, nn = _SYM[c]
        np.multiply(k[mm], gk[S[s, nn]], out=out)
        out += np.multiply(k[nn], gk[S[s, mm]], out=term)
        out -= np.multiply(k[s], gk[S[mm, nn]], out=term)
    return out


# Per packed slot (r, s, m, n) of _PACKED, the two dot products over q of
# its quadratic term Gam_{q,rn} Gam^q_sm - Gam_{q,rm} Gam^q_sn (see
# christoffel_riemann), each as (its first-kind column, its second-kind
# column).
_QUADRATIC = tuple(
    ((int(_SYM_INDEX[r, nn]), int(_SYM_INDEX[s, mm])), (int(_SYM_INDEX[r, mm]), int(_SYM_INDEX[s, nn])))
    for (r, s), (mm, nn) in ((_PAIRS4[P], _PAIRS4[Q]) for P, Q in _PACKED)
)


def _riemann_buffers(size: int) -> tuple[np.ndarray, ...]:
    """Scratch arrays for _riemann_points on up to size points."""
    low, up = np.empty((2, 4, 10, size))
    return low, up, np.empty((4, size)), np.empty((2, size))


def _riemann_points(inv, kind, lin, c: float, out, buffers) -> None:
    """The pointwise stage of the curvature engine on n points: the 21
    packed Riemann components c lin + Q (see christoffel_riemann) written
    to out (21, n), which may be lin itself, of the metric whose inverse is
    inv (10, n) (see _metric_inverse) and whose derivative stage is c times
    lin (21, n) and the twice first-kind symbols kind (4 x (10, n)).

    The points are gathered into buffers (see _riemann_buffers) of the
    stacked layout that the einsums read, which form the second-kind
    symbols Gam^q_mn of the points and keep none of them: one einsum per
    row q, over the nine columns mn that the quadratic term reads (never
    (0, 0)), and both dot products of each slot (see _QUADRATIC).
    """
    half_c = 0.5 * c
    low, up, ginv, dots = (b[..., : out.shape[1]] for b in buffers)
    for q, f in enumerate(kind):
        np.multiply(f, half_c, out=low[q])
    for q in range(4):  # row q of the inverse metric, then Gam^q_mn
        np.take(inv, _SYM_INDEX[q], axis=0, out=ginv, mode="clip")  # unbuffered
        np.einsum("s...,sc...->c...", ginv, low[:, 1:], out=up[q, 1:])
    np.multiply(lin, c, out=out)
    for col, pair in enumerate(_QUADRATIC):
        for dot, (a, b) in zip(dots, pair):
            np.einsum("q...,q...->...", low[:, a], up[:, b], out=dot)
        out[col] += np.subtract(dots[0], dots[1], out=dots[0])


def christoffel_riemann(m: MetricGrid4D) -> CurvatureGrid:
    """Christoffel symbols and the Riemann tensor from the general coordinate
    formulas.  The inverse metric, second-kind symbols, Ricci and scalar
    curvature follow on first access.

    The 21 packed components of the lowered Riemann tensor are built in
    its second-derivative form

        R_rsmn = 1/2 (g_rn,sm + g_sm,rn - g_rm,sn - g_sn,rm)
                 + Gam_{q,rn} Gam^q_sm - Gam_{q,rm} Gam^q_sn,

    with Gam_{q,mn} the Christoffel symbols of the first kind.  The pair
    symmetries hold by construction; the first Bianchi identity holds only
    to rounding error.  The first term and the first-kind symbols are the
    metric's derivative stage (see _derivative_spectrum) and the quadratic
    term the pointwise stage (_riemann_points, at c = 1; multiplying by 1.0
    is exact).

    The metric goes through rfftn's 1-D transforms in its order (the r2c on
    axis 4, then axes 1, 2 and 3) one component at a time, and each of the
    61 derivative spectra through irfftn's straight into its slot of one
    (61, Nt, N1, N2, N3) array.  The spectra are freed before the pointwise
    stage, which overwrites the Riemann block a group of grid points at a
    time (see _groups); every value is computed by the same expressions in
    the same order whatever the grouping.
    """
    shape = m.shape
    gk = np.empty((10,) + shape[:3] + (shape[3] // 2 + 1,), dtype=complex)
    for c in range(10):
        x = np.fft.rfft(m.g[c])
        for axis in range(2):
            x = np.fft.fft(x, axis=axis)
        np.fft.fft(x, axis=2, out=gk[c])
    k = _ik_factors(m.periods, shape, tuple(np.arange(n) for n in gk.shape[1:]))
    out = np.empty((_DERIVATIVES,) + shape)
    spectrum, term = np.empty((2,) + gk.shape[1:], dtype=complex)
    for j in range(_DERIVATIVES):
        x = _derivative_spectrum(j, gk, k, spectrum, term)
        np.fft.irfftn(x, s=shape, axes=(0, 1, 2, 3), norm="forward", out=out[j])
        out[j] *= 1.0 / math.prod(shape)
    del gk, x, spectrum, term
    flat = out.reshape(_DERIVATIVES, -1)
    g, kind = m.g.reshape(10, -1), np.split(flat[len(_PACKED) :], 4)
    size = _group_planes(shape)[2]
    inv, buffers = np.empty((10, size)), _riemann_buffers(size)
    for *_, points in _groups(shape):
        group_inv = inv[:, : points.stop - points.start]
        _metric_inverse(g[:, points], group_inv)
        R = flat[: len(_PACKED), points]
        _riemann_points(group_inv, [f[:, points] for f in kind], R, 1.0, R, buffers)
    return CurvatureGrid(m, out[: len(_PACKED)], tuple(np.split(out[len(_PACKED) :], 4)))


# ---------------------------------------------------------------------------
# Anti-self-dual block as a bilinear form on cross-section tensors
# ---------------------------------------------------------------------------

# Hodge star of the cross-section on 2-forms: e^i -> sign * e^k ^ e^l, with
# (k, l) the spatial pair of slot _STAR[i] in _PAIRS4.
_STAR = np.array([5, 4, 3])
_HODGE_SIGN = np.array([1.0, -1.0, 1.0])

# Spatial Ricci contraction c_kl = sum_i R_ikil as its 12 signed terms
# (k, l, P, Q, sign) on the spatial pair block, from the pair orientations
# alone.
_SPATIAL_RICCI = tuple(
    (
        k,
        l,
        _PAIR_INDEX[i + 1, k + 1] - 3,
        _PAIR_INDEX[i + 1, l + 1] - 3,
        int(_PAIR_SIGN[i + 1, k + 1] * _PAIR_SIGN[i + 1, l + 1]),
    )
    for k in range(3)
    for l in range(3)
    for i in range(3)
    if i not in (k, l)
)


# Largest allowed disagreement of the double-epsilon block with its
# Ricci-contraction rewriting, relative to the curvature scale.
_DEFECT_TOL = 1e-10


def _max_abs(x, axis=None):
    """max |x| over axis, without the temporary |x|."""
    return np.maximum(np.max(x, axis=axis), -np.min(x, axis=axis))


def _ricci_contraction_shortcut(B: np.ndarray) -> np.ndarray:
    """Double epsilon contraction rewritten through the spatial Ricci
    contraction of the (3, 3, ...) spatial pair block:
    1/4 eps eps R_klpq = -(c - 1/2 tr(c) delta)."""
    c = np.zeros_like(B)
    for k, l, P, Q, sign in _SPATIAL_RICCI:
        if sign > 0:
            c[k, l] += B[P, Q]
        else:
            c[k, l] -= B[P, Q]
    half = 0.5 * np.einsum("kk...->...", c)
    out = np.negative(c, out=c)
    for i in range(3):
        out[i, i] += half
    return out


# Per entry (i, j) of the anti-self-dual block, in _SYM_PAIRS order: the
# packed slots of its time pair term phi, of the two time-star terms of psi
# and of its star-star term gam, and their factors 2 sign_i, 2 sign_j and
# sign_i sign_j (see _asd_points).
_ASD_TERMS = tuple(
    (
        i,
        j,
        int(_PACKED_INDEX[i, j]),
        int(_PACKED_INDEX[_STAR[i], j]),
        int(_PACKED_INDEX[_STAR[j], i]),
        int(_PACKED_INDEX[_STAR[i], _STAR[j]]),
        float(2 * _HODGE_SIGN[i]),
        float(2 * _HODGE_SIGN[j]),
        float(_HODGE_SIGN[i] * _HODGE_SIGN[j]),
    )
    for i, j in _SYM_PAIRS
)


def _asd_points(Rs: np.ndarray, o: np.ndarray) -> tuple[float, float]:
    """The anti-self-dual block (see asd_form_background) of the packed
    components Rs (21, n) of n points, written to o (n, 3, 3); returns the
    curvature peak max |Rs| and the shortcut defect.

    The shortcut is bitwise symmetric (its c_kl and c_lk add the same
    terms in the same order), so the defect of each of the six distinct
    entries is read on one side."""
    shortcut = _ricci_contraction_shortcut(Rs[_PACKED_INDEX[3:, 3:]])  # the spatial pair block
    gaps = np.empty((len(_ASD_TERMS),) + Rs.shape[1:])  # gam - shortcut, per entry
    diagonal = []
    for gap, (i, j, phi, x, y, z, two_i, two_j, sign) in zip(gaps, _ASD_TERMS):
        # phi - psi + gam: the time pair block, the symmetrized time-star
        # block and the star-star block of the pair matrix.
        psi = two_i * Rs[x]
        psi += two_j * Rs[y]
        psi *= 0.5
        gam = sign * Rs[z]
        entry = Rs[phi] - psi
        entry += gam
        np.subtract(gam, shortcut[i, j], out=gap)
        if i == j:
            diagonal.append(entry)
        else:
            o[..., i, j] = o[..., j, i] = entry
    tr = 0.0 + diagonal[0]
    tr += diagonal[1]
    tr += diagonal[2]
    tr /= 3.0
    for i, entry in enumerate(diagonal):
        np.subtract(entry, tr, out=o[..., i, i])
    return float(_max_abs(Rs)), float(_max_abs(gaps))


def _check_defect(reports) -> None:
    """Raises CurvatureDefectError unless the largest defect of reports,
    the (peak, defect) of the parts of one curvature tensor, is at most
    _DEFECT_TOL times its curvature scale, the largest peak or 1."""
    peaks, defects = zip(*reports)
    scale, defect = max(float(np.max(peaks)), 1.0), float(np.max(defects))
    if defect > _DEFECT_TOL * scale:
        raise CurvatureDefectError(defect, scale)


def asd_form_background(curv: CurvatureGrid) -> np.ndarray:
    """Anti-self-dual curvature block as a trace-free 3x3 bilinear form per
    grid point, read off the 6x6 curvature pair matrix through the Hodge
    star of the cross-section and paired against the background anti-self-
    dual frame of the flat product metric.  The self-dual and Ricci blocks
    pair into this slot only at second order around the conformally flat
    background, and the scalar part is removed by the trace-free projection.

    The block is symmetric, and each of its six distinct entries is read
    straight off the 21 packed components.  It is computed a group of grid
    points at a time (see _groups); the defect and the curvature scale are
    maxima over the groups, so neither depends on the grouping.

    Raises CurvatureDefectError when the double-epsilon block disagrees
    with its Ricci-contraction rewriting by more than _DEFECT_TOL times the
    curvature scale.
    """
    R = curv.riemann_packed
    grid_shape = R.shape[1:]
    out = np.empty(grid_shape + (3, 3))
    flat, blocks = R.reshape(len(_PACKED), -1), out.reshape(-1, 3, 3)
    _check_defect([_asd_points(flat[:, points], blocks[points]) for *_, points in _groups(grid_shape)])
    return out


# ---------------------------------------------------------------------------
# Sampling cylinder tensors onto grids
# ---------------------------------------------------------------------------


# Sampling tolerances: the largest |Re| of a term's rate; the largest
# distance of its time frequency from an integer; the largest imaginary part
# of a sampled field, relative to max(1, its real part); the largest mismatch
# of a spatial period and its lattice length L, relative to max(1, L).
_PERIODIC_RATE_TOL = 1e-12
_RESOLVED_RATE_TOL = 1e-9
_REALITY_TOL = 1e-9
_LATTICE_TOL = 1e-12


def _term_time_index(rate: complex, nt: int, t_period: float) -> int:
    if abs(rate.real) > _PERIODIC_RATE_TOL:
        raise ValueError("grid sampling requires purely imaginary rates (t-periodic fields)")
    kt = rate.imag * t_period / (2 * math.pi)
    kint = round(kt)
    if abs(kt - kint) > _RESOLVED_RATE_TOL:
        raise ValueError(f"rate {rate} is not resolved by the period {t_period}")
    if not -nt // 2 < kint <= nt // 2:
        raise ValueError(f"time frequency {kint} not representable on {nt} samples")
    return kint % nt


def _coefficient_box(field, picks, shape, periods) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
    """The coefficients of the components picks = ((part, index), ...) of a
    cylinder field, gathered into a compact box (len(picks), times, size,
    size, size), and the grid position of each box index along each axis:
    the time frequencies that occur (in order of first occurrence) and the
    spatial modes -band..band (mode m at position m mod n)."""
    field.grid._require_box("grid sampling")
    nt = shape[0]
    terms = []
    for (rk, d), slot in field.terms.items():
        if d != 0:
            raise ValueError("grid sampling supports exponential terms only (degree 0)")
        terms.append((_term_time_index(slot["rate"], nt, periods[0]), slot))
    times = list(dict.fromkeys(kt for kt, _ in terms))
    box = np.zeros((len(picks), len(times)) + (field.grid.size,) * 3, dtype=complex)
    for kt, slot in terms:
        box[:, times.index(kt)] += np.stack([slot[part].data[index] for part, index in picks])
    modes = np.arange(field.grid.size) - field.grid.band
    return box, (np.array(times, dtype=int),) + tuple(np.mod(modes, n) for n in shape[1:])


def _real_part_spectrum(field, picks, shape, periods) -> Spectrum:
    """The Spectrum of the components picks of a t-periodic cylinder field,
    formed on their coefficient box (see _coefficient_box), F = N box being
    the field's grid spectrum: the real part of the field, whose rfftn is
    the Hermitian part 1/2 (F(k) + conj F(-k)) on k3 >= 0.  The time
    positions are joined by their negatives; the spatial modes -band..band
    are their own negatives, reversed.

    ValueError unless the field is real on the grid: per component,
    max |Im| <= _REALITY_TOL max(1, max |Re|), Im being the inverse of -i N times
    the anti-Hermitian part 1/2 (F(k) - conj F(-k)).  That part is exactly
    zero for a reality-symmetrized field, which is then not transformed.
    """
    _check_sampling(field.grid, shape, periods)
    box, positions = _coefficient_box(field, picks, shape, periods)
    nt, n = shape[0], math.prod(shape)
    times = _sorted_unique(np.concatenate((positions[0], -positions[0] % nt)))
    full = _widen(box, 1, np.searchsorted(times, positions[0]), len(times))
    band = box.shape[-1] // 2
    mirror = np.conj(full[:, np.searchsorted(times, -times % nt), ::-1, ::-1, band::-1])
    half = full[..., band:] + mirror
    half *= 0.5 * n
    spectrum = Spectrum(half, (times,) + positions[1:3] + (np.arange(band + 1),), tuple(shape))
    anti = np.subtract(full[..., band:], mirror, out=mirror)
    if np.any(anti):
        anti *= -0.5j * n
        imag, real = (
            _max_abs(_pruned_irfftn(c, spectrum.positions, spectrum.shape), axis=(1, 2, 3, 4))
            for c in (anti, half)
        )
        if np.any(imag > _REALITY_TOL * np.maximum(1.0, real)):
            raise ValueError("field is not real on the grid; reality-symmetrize the input")
    return spectrum


_CYL_PICKS = tuple(
    ("h00", ()) if b == 0 else ("alpha", (b - 1,)) if a == 0 else ("h", (a - 1, b - 1)) for a, b in _SYM
)
# The components of a cross-section tensor's sample, slots _SYM_PAIRS.
_CROSS_PICKS = tuple(("h", ij) for ij in _SYM_PAIRS)


def sample_cyl_tensor(ht: CylTensor, shape, periods) -> np.ndarray:
    """Sample a t-periodic cylinder 2-tensor as its 10 components (a <= b,
    in _SYM order) on the grid, (10, Nt, N1, N2, N3): the pruned inverse of
    cyl_tensor_spectrum(ht, shape, periods)."""
    s = cyl_tensor_spectrum(ht, shape, periods)
    return _pruned_irfftn(s.coefficients, s.positions, s.shape)


def cyl_tensor_spectrum(ht: CylTensor, shape, periods) -> Spectrum:
    """The Spectrum of sample_cyl_tensor(ht, shape, periods) on the box of
    ht's modes, formed from ht's coefficients without a transform; its
    pruned inverse is that sample."""
    return _real_part_spectrum(ht, _CYL_PICKS, shape, periods)


def sample_cross_section_tensor(ct: CylTensor, shape, periods) -> np.ndarray:
    """Sample a cross-section-valued cylinder tensor as (Nt,N1,N2,N3,3,3)."""
    s = _real_part_spectrum(ct, _CROSS_PICKS, shape, periods)
    values = _pruned_irfftn(s.coefficients, s.positions, s.shape)
    out = np.zeros(tuple(shape) + (3, 3))
    for c, (i, j) in enumerate(_SYM_PAIRS):
        out[..., i, j] = out[..., j, i] = values[c]
    return out


def _check_sampling(grid: ModeGrid, shape, periods):
    if len(shape) != 4 or len(periods) != 4:
        raise ValueError("need four grid sizes and four periods")
    # The comparisons are written so that NaN fails them.
    if not all(0 < p < math.inf for p in periods):
        raise ValueError(f"periods must be four positive finite numbers, got {tuple(periods)}")
    for L, P in zip(grid.lengths, periods[1:]):
        if not abs(L - P) <= _LATTICE_TOL * max(1.0, L):
            raise ValueError("spatial periods must match the mode lattice")
    for n in shape:
        if n < 2 * grid.band + 2:
            raise ValueError(f"grid size {n} cannot resolve band limit {grid.band}")


# ---------------------------------------------------------------------------
# Finite-difference validation of the linearized curvature
# ---------------------------------------------------------------------------


def _variation_stack(periods, spectrum: Spectrum) -> np.ndarray:
    """The time pass (see _time_inverse) of the 61 derivative spectra of a
    variation (see _derivative_spectrum), formed on the box of its Spectrum
    without a forward FFT, then of its 10 own coefficients: (71, Nt, m1,
    m2, m3)."""
    gk, positions = spectrum.coefficients, spectrum.positions
    k = _ik_factors(periods, spectrum.shape, positions)
    box = np.empty((_DERIVATIVES + len(gk),) + gk.shape[1:], dtype=complex)
    term = np.empty(gk.shape[1:], dtype=complex)
    for j in range(_DERIVATIVES):
        _derivative_spectrum(j, gk, k, box[j], term)
    box[_DERIVATIVES:] = gk
    return _time_inverse(box, positions[0], spectrum.shape[0])


def _time_symmetry(stacks, planes: int) -> tuple[int, int]:
    """(period, sign) of the time passes stacks (C, Nt, ...) of one grid
    (see _time_inverse): the smallest shift d of the time axis, from Nt
    halved while d/2 is a multiple of planes, such that every time plane
    t + d of each stack equals sign (+1 or -1) times its plane t.  The
    planes are compared by value, one pair at a time, so a NaN never
    matches and -0.0 matches +0.0; (Nt, 1) when no shorter shift holds.
    A field whose time frequencies share one parity repeats, or changes
    sign, after half the period (the shift theorem of the DFT); whether
    its transformed planes do so exactly is read off the data."""
    nt = stacks[0].shape[1]
    period, sign = nt, 1
    while period % 2 == 0 and period // 2 % planes == 0:
        shift = period // 2
        for candidate in (1, -1):
            if all(
                np.array_equal(x[:, t + shift], x[:, t] if candidate > 0 else -x[:, t])
                for x in stacks
                for t in range(nt - shift)
            ):
                break
        else:
            break
        period, sign = shift, candidate
    return period, sign


def _fd_differences(periods, spectrum: Spectrum, exact: Spectrum, eps_values):
    """Streams the grid a group at a time (see _groups) and yields per
    computed group (copies, sample, block, differences): the slices of
    the flattened grid points that the group's values stand for, each
    with its sign (see below); the sample s (10, w) of the variation whose
    Spectrum is given, the grid values (w, 3, 3) of the cross-section
    tensor whose Spectrum is exact, and per step eps the difference
    m(I + eps s) - m(I - eps s) of the anti-self-dual blocks (see
    asd_form_background), (w, 3, 3), all on the group's own points, the
    first slice.  All are views of buffers made here and overwritten by
    the next group; no array is grid-sized.

    Only the groups of the time planes [0, d) are computed, d and its
    sign sigma being the time symmetry of the two time passes (see
    _time_symmetry).  Every later pass runs on each time plane alone in
    IEEE arithmetic, which is symmetric in sign, so the grid values on
    plane t + j d are sigma^j times those on plane t, up to the sign of
    exact zeros; the group at plane t stands for its copies at j = 0 ..
    Nt/d - 1.  Where sigma^j is -1, the copy's evaluation at +eps is the
    group's at -eps bit for bit (I + c (-s) is I + (-c) s), and its
    difference is the group's negated.  When d = Nt every group is
    computed and stands for itself alone.

    Each group's 71 components (the derivative stage, then s) and the 6 of
    exact are inverted, and each I + c s, c = +-eps, is validated, curved
    at c times the derivative stage and reduced to its block on the group
    alone.  The metric and defect checks of each evaluation are decided
    once over the whole grid, after the last group, in the order and with
    the errors of MetricGrid4D and asd_form_background, from the records
    of every group and copy; a copy's records are its group's, with the
    two steps of each pair swapped when its sign is -1.  So a group's
    differences stop before the first step whose metric fails there, and
    the first failing step and its error are those of the loop over every
    plane.  A battery worker whose parent has gone ends between groups
    (see forks.exit_if_orphaned).
    """
    shape = spectrum.shape
    stack = _variation_stack(periods, spectrum)
    exact_stack = _time_inverse(exact.coefficients, exact.positions[0], shape[0])
    steps = [(i, c) for i, eps in enumerate(eps_values) for c in (eps, -eps)]
    planes, rows, n = _group_planes(shape)
    period, sign = _time_symmetry((stack, exact_stack), planes)
    shift = period * math.prod(shape[1:])  # points between a group and its next copy
    signs = [sign**j for j in range(shape[0] // period)]
    invert = _plane_inverse(stack, spectrum.positions, shape, planes, rows)
    invert_exact = _plane_inverse(exact_stack, exact.positions, shape, planes, rows)
    values_buf, exact_buf = np.empty((len(stack), n)), np.empty((len(exact_stack), n))
    inv_buf, R_buf = np.empty((10, n)), np.empty((len(_PACKED), n))
    block_buf = np.empty((n, 3, 3))
    diff_bufs = [np.empty((n, 3, 3)) for _ in eps_values]
    buffers = _riemann_buffers(n)
    # Dead buffers hold the next stage's values: the metric I + c s is read
    # only by _metric_inverse, so it sits in R's first rows, and the scratch
    # up of _riemann_points is free once R is formed, so it holds the block
    # of I - eps s until that is taken from the block of I + eps s.
    minus_buf = buffers[1].reshape(-1)[: 9 * n].reshape(n, 3, 3)
    evaluations = []  # (step, (finite, positive), (peak, defect)) per group and negated copy
    for times, block, points in _groups(shape):
        if times.start >= period:
            break
        forks.exit_if_orphaned()
        group = (times.stop - times.start, block.stop - block.start) + shape[2:]
        w = points.stop - points.start
        flat, cross = values_buf[:, :w], exact_buf[:, :w]
        invert(times, block, flat.reshape((len(flat),) + group))
        invert_exact(times, block, cross.reshape((len(cross),) + group))
        exact_block = block_buf[:w]
        for c, (i, j) in enumerate(_SYM_PAIRS):
            exact_block[:, i, j] = exact_block[:, j, i] = cross[c]
        lin, kind, s = flat[: len(_PACKED)], np.split(flat[len(_PACKED) : _DERIVATIVES], 4), flat[_DERIVATIVES:]
        g, inv, R, minus = R_buf[:10, :w], inv_buf[:, :w], R_buf[:, :w], minus_buf[:w]
        differences, records = [], []
        for step, (i, c) in enumerate(steps):
            np.multiply(s, c, out=g)
            g += _IDENTITY  # the bits of I + c s, without its temporary
            flags = _metric_inverse(g, inv)
            if not all(flags):
                # This step fails; no later one is decided.  A negated copy
                # lacks the other step of a failing pair, which cannot
                # change the error: I + c s and I - c s are finite alike.
                records.append((step, flags, (0.0, 0.0)))
                break
            _riemann_points(inv, kind, lin, c, R, buffers)
            diff = diff_bufs[i][:w]
            records.append((step, flags, _asd_points(R, minus if step % 2 else diff)))
            if step % 2:
                diff -= minus
                differences.append(diff)
        evaluations += records
        if -1 in signs:
            evaluations += [(step ^ 1, flags, reports) for step, flags, reports in records]
        copies = [(slice(points.start + j * shift, points.stop + j * shift), sigma) for j, sigma in enumerate(signs)]
        yield copies, s, exact_block, differences
    for step in range(len(steps)):
        _, flags, reports = zip(*(row for row in evaluations if row[0] == step))
        _check_metric(flags)
        _check_defect(reports)


# A variation whose exact linearized block has norm below this times
# max(1, its own norm) is degenerate (see fd_linearization_errors).
_DEGENERATE_TOL = 1e-12


def fd_linearization_errors(
    ht: CylTensor,
    eps_values,
    shape=(16, 16, 16, 16),
) -> list[float]:
    """Relative central-difference errors of the anti-self-dual curvature
    block at the flat product metric against the exact linearized operator,
    one per step size, all sharing one sampling of the variation and its
    one derivative stage (see _fd_differences).

    The grid is streamed a group at a time, over one period of the case's
    time symmetry: each computed group forms (m(I + eps s) - m(I - eps s))
    / (2 eps) - exact in place, and the squares of the sample, of the
    exact block and of each difference go to one _PairwiseSum each, once
    at every copy of the group (the copies hold its values times +-1, so
    its squares), so every norm has the bits of pairwise._norm over the
    whole array.  No array of the case is grid-sized.

    The variation must be t-periodic (purely imaginary rates, no polynomial
    factors) and real on the grid.  A degenerate direction, one the exact
    operator annihilates, has no relative error and gives math.nan.
    """
    eps_values = tuple(eps_values)
    if not all(0 < eps < 0.1 for eps in eps_values):
        raise ValueError("finite-difference step must be small and positive")
    periods = (_T_PERIOD,) + ht.grid.lengths
    spectrum = cyl_tensor_spectrum(ht, shape, periods)
    exact = _real_part_spectrum(linearized_weyl(ht), _CROSS_PICKS, shape, periods)
    n = math.prod(shape)
    sample_sum, exact_sum = _PairwiseSum(10 * n), _PairwiseSum(9 * n)
    diff_sums = [_PairwiseSum(9 * n) for _ in eps_values]
    for copies, sample, block, differences in _fd_differences(periods, spectrum, exact, eps_values):
        for eps, diff in zip(eps_values, differences):
            diff /= 2 * eps
            diff -= block
        # A copy holds the group's values times +-1, so the group's squares,
        # which overwrite the group's buffers.
        starts = [points.start for points, _ in copies]
        np.square(sample, out=sample)
        for start in starts:
            sample_sum.add_runs(start, n, sample)  # one run per component
        for squares, total in zip((block, *differences), (exact_sum, *diff_sums)):
            np.square(squares, out=squares)
            for start in starts:
                total.add(9 * start, squares)
    sample_norm = _sum_norm(sample_sum)
    den = _sum_norm(exact_sum)
    degenerate = den < _DEGENERATE_TOL * max(1.0, sample_norm)
    return [math.nan if degenerate else _sum_norm(diff_sum) / den for diff_sum in diff_sums]


def _sum_norm(squares: _PairwiseSum) -> float:
    """The sqrt of a sum of squares, as pairwise._norm takes it of a real array."""
    return math.sqrt(float(squares.total()))


def fd_battery_errors(cases, shape) -> list[list[float]]:
    """fd_linearization_errors(ht, eps_values, shape) of each (ht,
    eps_values) of cases, in case order, case i in process i mod W (see
    forks.run); the exception of the lowest failing case is raised.  Each
    process holds its own buffers, so the battery's memory grows with W."""
    return forks.run(partial(fd_linearization_errors, ht, eps_values, shape) for ht, eps_values in cases)

