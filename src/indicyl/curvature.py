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
its norms by a streamed sum (_SquareSum) that keeps the bits of np.sum over
the whole array.

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
further CPU.  The package starts no threads.  Each grid point's values
come from the same expressions in the same order however the grid is
grouped and the cases are shared out, so every result is bitwise the same
for any number of CPUs.
"""

from __future__ import annotations

import math
import os
import pickle
import signal
import warnings
from contextvars import ContextVar
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .fields import (
    _SYM_PAIRS,
    _T_PERIOD,
    _SquareSum,
    CylTensor,
    ModeGrid,
    linearized_weyl,
    random_real_variation,
)
from .indicial import VerificationError

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
    s0, s1, s2, s3, s4, s5 = s
    c0, c1, c2, c3, c4, c5 = c
    inv_det = 1.0 / det
    cof = {
        (0, 0): a[1, 1] * c5 - a[1, 2] * c4 + a[1, 3] * c3,
        (0, 1): -a[0, 1] * c5 + a[0, 2] * c4 - a[0, 3] * c3,
        (0, 2): a[1, 3] * s5 - a[2, 3] * s4 + a[3, 3] * s3,
        (0, 3): -a[1, 2] * s5 + a[2, 2] * s4 - a[2, 3] * s3,
        (1, 1): a[0, 0] * c5 - a[0, 2] * c2 + a[0, 3] * c1,
        (1, 2): -a[0, 3] * s5 + a[2, 3] * s2 - a[3, 3] * s1,
        (1, 3): a[0, 2] * s5 - a[2, 2] * s2 + a[2, 3] * s1,
        (2, 2): a[0, 3] * s4 - a[1, 3] * s2 + a[3, 3] * s0,
        (2, 3): -a[0, 2] * s4 + a[1, 2] * s2 - a[2, 3] * s0,
        (3, 3): minor3,
    }
    for k, slot in enumerate(_SYM):
        np.multiply(cof[slot], inv_det, out=out[k])
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


def _battery_processes() -> int:
    """The number of CPUs this process may run on, and so the most
    processes that run the battery (see fd_battery_errors)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


# Most grid points per group of a streamed pass (see _group_planes), unless
# one row holds more.  Each group repeats every NumPy call of a stage, so
# small groups cost more in call overhead than they save in memory.  A
# battery group's buffers hold about 290 doubles per point and a case holds
# nothing grid-sized, so with 4096 points a case with two steps peaks at
# 11.0-12.0 MiB of traced arrays at 16^4 and 16.1-17.1 MiB at 32^4, the
# more the more live components it has (see _plane_inverse).  Groups of
# 1,024 and 2,048 points ran the 16^4 battery slower than 4,096 on one
# CPU, and groups of 8,192 no faster.
_SLAB_POINTS = 4096

# Most components per chunk of the pruned inverse's spatial passes (see
# _plane_inverse), which bounds their scratch.  Chunks of 12 to 71
# components inverted the 16^4 battery equally fast; against one chunk of
# all 71, chunks of 24 lower the traced peak of a case whose 71 components
# are all live from 13.8 to 12.0 MiB at 16^4.
_INVERSE_ROWS = 24

# The pid of the process running the battery (see fd_battery_errors), set
# while it runs and inherited by the workers it forks (see
# _exit_if_orphaned); None otherwise.
_BATTERY_OWNER: ContextVar[int | None] = ContextVar("battery_owner", default=None)


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
    m2, m3, N1), unless the call before had the same planes; then widens
    and transforms the second on its rows, laid out (..., rows, m3, N2);
    then transposes that once to (..., rows, N2, m3), runs the c2r into
    out and scales by 1/N.  So every transform runs along the last axis of
    a C-contiguous array, where pocketfft copies no strided lines, and
    each line meets the same 1-D transform as in irfftn.  The first
    spatial pass of the live components is kept for the calls of the same
    planes; the other temporaries are one chunk's buffers.  All are made
    here and reused by every call.
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
    part2, flip = np.empty((2, len(wide2)), dtype=complex)
    part1 = np.empty((int(alive.sum()), planes, m2, m3, n1), dtype=complex)
    scale = 1.0 / math.prod(grid_shape)
    passed = None  # the time planes whose first spatial pass part1 holds

    def invert(times, block, out):
        nonlocal passed
        t, r = times.stop - times.start, block.stop - block.start
        first = passed != times
        if len(dead):
            out[dead] = 0.0
        j = 0  # the chunk's first row in part1
        for lo, hi in chunks:
            k = hi - lo
            if first:
                a = wide1[: k * t * m2 * m3 * n1].reshape(k, t, m2, m3, n1)
                a[..., positions[1]] = stack[lo:hi, times].transpose(0, 1, 3, 4, 2)
                np.fft.ifft(a, axis=-1, norm="forward", out=part1[j : j + k, :t])
            shape = (k, t, r, m3, n2)
            c = wide2[: math.prod(shape)].reshape(shape)
            c[..., positions[2]] = part1[j : j + k, :t, :, :, block].transpose(0, 1, 4, 3, 2)
            d = np.fft.ifft(c, axis=-1, norm="forward", out=part2[: c.size].reshape(shape))
            e = flip[: c.size].reshape(k, t, r, n2, m3)
            np.copyto(e, d.transpose(0, 1, 2, 4, 3))
            np.fft.irfft(e, n=n3, axis=-1, norm="forward", out=out[lo:hi])
            out[lo:hi] *= scale
            j += k
        passed = times

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


def _quadratic_terms() -> tuple:
    """Per packed slot (r, s, m, n) of _PACKED, the two dot products over q
    of its quadratic term Gam_{q,rn} Gam^q_sm - Gam_{q,rm} Gam^q_sn (see
    christoffel_riemann), each as (its first-kind column, its second-kind
    column, its row of _riemann_points' dot buffer, whether it is formed
    there).  A product that recurs (three do, each in two slots) is formed
    once, in a row of its own from 2 on, and read again there; any other
    is formed in row 0 (the first) or 1 (the second)."""
    S = _SYM_INDEX
    pairs = []
    for P, Q in _PACKED:
        (r, s), (mm, nn) = _PAIRS4[P], _PAIRS4[Q]
        pairs.append(((int(S[r, nn]), int(S[s, mm])), (int(S[r, mm]), int(S[s, nn]))))
    every = [p for two in pairs for p in two]
    recurring = [p for p in dict.fromkeys(every) if every.count(p) > 1]
    formed, terms = set(), []
    for two in pairs:
        slot = []
        for i, p in enumerate(two):
            row = 2 + recurring.index(p) if p in recurring else i
            slot.append(p + (row, p not in formed))
            formed.add(p)
        terms.append(tuple(slot))
    return tuple(terms)


_QUADRATIC = _quadratic_terms()
_DOT_ROWS = 1 + max(row for slot in _QUADRATIC for _, _, row, _ in slot)


def _riemann_buffers(size: int) -> tuple[np.ndarray, ...]:
    """Scratch arrays for _riemann_points on up to size points."""
    low, up = np.empty((2, 4, 10, size))
    return low, up, np.empty((4, 4, size)), np.empty((_DOT_ROWS, size))


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
    (0, 0)).  Its 42 dot products are 39 distinct ones, each formed once
    (see _QUADRATIC).
    """
    half_c = 0.5 * c
    low, up, ginv, dots = (b[..., : out.shape[1]] for b in buffers)
    for q, f in enumerate(kind):
        np.multiply(f, half_c, out=low[q])
    np.take(inv, _SYM_INDEX, axis=0, out=ginv, mode="clip")  # unbuffered
    for q in range(4):
        np.einsum("s...,sc...->c...", ginv[q], low[:, 1:], out=up[q, 1:])
    for col, ((a, b, i, new_i), (a2, b2, j, new_j)) in enumerate(_QUADRATIC):
        if new_i:
            np.einsum("q...,q...->...", low[:, a], up[:, b], out=dots[i])
        if new_j:
            np.einsum("q...,q...->...", low[:, a2], up[:, b2], out=dots[j])
        np.subtract(dots[i], dots[j], out=dots[0])
        np.add(np.multiply(lin[col], c, out=dots[1]), dots[0], out=out[col])


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
        for axis in range(3):
            x = np.fft.ifft(x, axis=axis, norm="forward")
        np.fft.irfft(x, n=shape[3], norm="forward", out=out[j])
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
    tr = np.einsum("kk...->...", c)
    out = np.negative(c, out=c)
    for i in range(3):
        out[i, i] += 0.5 * tr
    return out


def _asd_points(Rs: np.ndarray, o: np.ndarray) -> tuple[float, float]:
    """The anti-self-dual block (see asd_form_background) of the packed
    components Rs (21, n) of n points, written to o (n, 3, 3); returns the
    curvature peak max |Rs| and the shortcut defect.

    The shortcut is bitwise symmetric (its c_kl and c_lk add the same
    terms in the same order), so the defect of each of the six distinct
    entries is read on one side."""
    P, star, sign = _PACKED_INDEX, _STAR, _HODGE_SIGN
    shortcut = _ricci_contraction_shortcut(Rs[P[3:, 3:]])  # the spatial pair block
    defects, diagonal = [], []
    for i, j in _SYM_PAIRS:
        # phi - psi + gam: the time pair block, the symmetrized time-star
        # block and the star-star block of the pair matrix.
        psi = 0.5 * (2 * sign[i] * Rs[P[star[i], j]] + 2 * sign[j] * Rs[P[star[j], i]])
        gam = sign[i] * sign[j] * Rs[P[star[i], star[j]]]
        entry = Rs[P[i, j]] - psi + gam
        defects.append(_max_abs(gam - shortcut[i, j]))
        if i == j:
            diagonal.append(entry)
        else:
            o[..., i, j] = o[..., j, i] = entry
    tr = 0.0 + diagonal[0]
    tr += diagonal[1]
    tr += diagonal[2]
    for i, entry in enumerate(diagonal):
        np.subtract(entry, tr / 3.0, out=o[..., i, i])
    return float(_max_abs(Rs)), float(np.max(defects))


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
    times = np.union1d(positions[0], -positions[0] % nt)
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


def _exit_if_orphaned() -> None:
    """Ends this process at once if it is a battery worker (see
    fd_battery_errors) whose parent has gone."""
    owner = _BATTERY_OWNER.get()
    if owner is not None and owner not in (os.getpid(), os.getppid()):
        os._exit(1)


def _fd_differences(periods, spectrum: Spectrum, exact: Spectrum, eps_values):
    """Streams the grid a group at a time (see _groups) and yields
    per group (points, sample, block, differences): the slice of the
    flattened grid points it covers; there, the sample s (10, w) of the
    variation whose Spectrum is given, the grid values (w, 3, 3) of the
    cross-section tensor whose Spectrum is exact, and per step eps the
    difference m(I + eps s) - m(I - eps s) of the anti-self-dual blocks
    (see asd_form_background), (w, 3, 3).  All are views of buffers made
    here and overwritten by the next group; no array is grid-sized.

    Each group's 71 components (the derivative stage, then s) and the 6 of
    exact are inverted, and each I + c s, c = +-eps, is validated, curved
    at c times the derivative stage and reduced to its block on the group
    alone.  The metric and defect checks of each evaluation are decided
    once over the whole grid, after the last group, in the order and with
    the errors of MetricGrid4D and asd_form_background; so a group's
    differences stop before the first step whose metric fails there.  A
    battery worker whose parent has gone ends between groups (see
    _exit_if_orphaned).
    """
    shape = spectrum.shape
    stack = _variation_stack(periods, spectrum)
    exact_stack = _time_inverse(exact.coefficients, exact.positions[0], shape[0])
    steps = [(i, c) for i, eps in enumerate(eps_values) for c in (eps, -eps)]
    planes, rows, n = _group_planes(shape)
    invert = _plane_inverse(stack, spectrum.positions, shape, planes, rows)
    invert_exact = _plane_inverse(exact_stack, exact.positions, shape, planes, rows)
    values_buf, exact_buf = np.empty((len(stack), n)), np.empty((len(exact_stack), n))
    g_buf, inv_buf, R_buf = np.empty((10, n)), np.empty((10, n)), np.empty((len(_PACKED), n))
    block_buf, minus_buf = np.empty((n, 3, 3)), np.empty((n, 3, 3))
    diff_bufs = [np.empty((n, 3, 3)) for _ in eps_values]
    buffers = _riemann_buffers(n)
    evaluations = []  # (step, (finite, positive), (peak, defect)) per group
    for times, block, points in _groups(shape):
        _exit_if_orphaned()
        group = (times.stop - times.start, block.stop - block.start) + shape[2:]
        w = points.stop - points.start
        flat, cross = values_buf[:, :w], exact_buf[:, :w]
        invert(times, block, flat.reshape((len(flat),) + group))
        invert_exact(times, block, cross.reshape((len(cross),) + group))
        exact_block = block_buf[:w]
        for c, (i, j) in enumerate(_SYM_PAIRS):
            exact_block[:, i, j] = exact_block[:, j, i] = cross[c]
        lin, kind, s = flat[: len(_PACKED)], np.split(flat[len(_PACKED) : _DERIVATIVES], 4), flat[_DERIVATIVES:]
        g, inv, R, minus = g_buf[:, :w], inv_buf[:, :w], R_buf[:, :w], minus_buf[:w]
        differences = []
        for step, (i, c) in enumerate(steps):
            np.multiply(s, c, out=g)
            g += _IDENTITY  # the bits of I + c s, without its temporary
            flags = _metric_inverse(g, inv)
            if not all(flags):
                # This step fails; no later one is decided.
                evaluations.append((step, flags, (0.0, 0.0)))
                break
            _riemann_points(inv, kind, lin, c, R, buffers)
            diff = diff_bufs[i][:w]
            evaluations.append((step, flags, _asd_points(R, minus if step % 2 else diff)))
            if step % 2:
                diff -= minus
                differences.append(diff)
        yield points, s, exact_block, differences
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

    The grid is streamed a group at a time: each group forms (m(I + eps s)
    - m(I - eps s)) / (2 eps) - exact in place, and the squares of the
    sample, of the exact block and of each difference go to one _SquareSum
    each, so every norm has the bits of fields._norm over the whole array.
    No array of the case is grid-sized.

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
    sample_sum, exact_sum = _SquareSum(10 * n), _SquareSum(9 * n)
    diff_sums = [_SquareSum(9 * n) for _ in eps_values]
    for points, sample, block, differences in _fd_differences(periods, spectrum, exact, eps_values):
        for c, component in enumerate(sample):  # the sample is components-first
            sample_sum.add(c * n + points.start, component)
        exact_sum.add(9 * points.start, block)
        for eps, diff, diff_sum in zip(eps_values, differences, diff_sums):
            diff /= 2 * eps
            diff -= block
            diff_sum.add(9 * points.start, diff)
    sample_norm = sample_sum.norm()
    den = exact_sum.norm()
    degenerate = den < _DEGENERATE_TOL * max(1.0, sample_norm)
    return [math.nan if degenerate else diff_sum.norm() / den for diff_sum in diff_sums]


def _run_share(cases, shape, first: int, stride: int) -> tuple[dict, tuple | None]:
    """fd_linearization_errors of the cases first, first + stride, ... one
    after another: {case: errors} of those that return, and (case,
    exception) of the first that raises, or None."""
    done = {}
    for i in range(first, len(cases), stride):
        ht, eps_values = cases[i]
        try:
            done[i] = fd_linearization_errors(ht, eps_values, shape)
        except Exception as e:
            return done, (i, e)
    return done, None


def _portable(exc: Exception) -> Exception:
    """exc if it survives pickling, else a RuntimeError naming its type
    and message."""
    try:
        pickle.loads(pickle.dumps(exc))
        return exc
    except Exception:
        return RuntimeError(f"{type(exc).__name__}: {exc}")


def _worker(cases, shape, first: int, stride: int, out_fd: int):
    """The whole life of a forked battery worker: its share of the cases
    (see _run_share), pickled to out_fd, then os._exit, whatever happens,
    so that nothing of the parent's stack, buffers or exit handlers runs
    here."""
    code = 1
    try:
        done, failure = _run_share(cases, shape, first, stride)
        if failure is not None:
            failure = (failure[0], _portable(failure[1]))
        payload = pickle.dumps((done, failure))
        with os.fdopen(out_fd, "wb") as out:
            out.write(payload)
        code = 0
    finally:
        os._exit(code)


def _read_all(fd: int) -> bytes:
    chunks = []
    while chunk := os.read(fd, 1 << 16):
        chunks.append(chunk)
    return b"".join(chunks)


def fd_battery_errors(cases, shape) -> list[list[float]]:
    """fd_linearization_errors(ht, eps_values, shape) of each (ht,
    eps_values) of cases, in case order, on every CPU the process may use.

    The cases are split between W = min(CPUs, cases) processes: this one
    and W - 1 workers forked from it, or this one alone without os.fork.
    Case i runs in process i mod W; each process runs its cases one after
    another, and a worker sends its errors back over a pipe.  So the result does not depend on W.  When
    cases raise, the exception of the lowest case is raised, as a loop
    over the cases would, with the type and message it had in its process.

    No worker outlives the call: a worker ends through os._exit after its
    share, or between groups once its parent is gone (see
    _exit_if_orphaned), and every worker not yet reaped when this returns
    or raises is killed and reaped.  Each process holds its own buffers,
    so the memory of the whole battery grows with W.
    """
    cases = list(cases)
    count = max(1, min(_battery_processes(), len(cases))) if hasattr(os, "fork") else 1
    token = _BATTERY_OWNER.set(os.getpid())
    workers = []  # (pid, read end of its pipe) of each worker not yet reaped
    try:
        for first in range(1, count):
            read_fd, write_fd = os.pipe()
            with warnings.catch_warnings():
                # Python 3.12+ warns about forking a process that has threads
                # (BLAS's); a worker uses none.
                warnings.simplefilter("ignore", DeprecationWarning)
                pid = os.fork()
            if pid == 0:
                _worker(cases, shape, first, count, write_fd)
            os.close(write_fd)
            workers.append((pid, read_fd))
        results, failure = _run_share(cases, shape, 0, count)
        failures = [failure]
        while workers:
            pid, read_fd = workers[0]
            payload = _read_all(read_fd)
            os.waitpid(pid, 0)
            os.close(read_fd)
            workers.pop(0)
            if not payload:
                raise RuntimeError(f"battery worker {pid} ended without a result")
            done, failure = pickle.loads(payload)
            results.update(done)
            failures.append(failure)
    finally:
        _BATTERY_OWNER.reset(token)
        for pid, read_fd in workers:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            os.close(read_fd)
    failures = [f for f in failures if f is not None]
    if failures:
        raise min(failures, key=lambda f: f[0])[1]
    return [results[i] for i in range(len(cases))]


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
    grid = ModeGrid(band=band)
    return [
        random_real_variation(rng, grid, kt_modes=kts, parts=parts) * _BATTERY_AMPLITUDE
        for parts, kts in _BATTERY_CASES
    ]
