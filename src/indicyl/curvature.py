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
second-derivative block of the Riemann tensor and the first-kind symbols)
is linear in the metric; the pointwise stage (the inverse metric and the
term quadratic in the first-kind symbols) is not.  The identity has zero
derivatives, so the derivative stage of I + c s is exactly c times that of
s: the finite-difference battery differentiates each variation s once and
feeds it, scaled, to its evaluations at c = +-eps.  The battery holds no
full-grid metric or curvature: it streams the grid a group of time planes
at a time through the same module-level helpers that the public functions
run on each slab (_metric_flags, _riemann_points, _asd_points), so every
grid point keeps its bits, and decides the metric and defect checks once
over the whole grid.

Sampling: a cylinder field is held as a Spectrum, the half spectrum of its
grid values on the box of the few Fourier modes it holds.  Its grid values
are the box's pruned inverse FFT, which skips the grid lines holding no
coefficient: one pass over the time axis of the whole box
(_time_inverse), then the rest a group of time planes at a time
(_plane_inverse), one numpy.fft call per axis over every component.
Sampling (_pruned_irfftn) and the battery run the same two routines.  A
variation is differentiated on its box, without a forward FFT, and its
61 derivative spectra are inverted with its 10 coefficients; any other
metric is differentiated through its full rfftn, one component at a time.

Threads: the public full-grid functions run on every CPU the process may
use, on one pool of threads (see _on_slabs): the derivative stage splits
the components between them; the pruned inverse, the pointwise stage, the
metric validation and the anti-self-dual block split the leading grid
axis.  Work on a slab runs inline on its thread and submits nothing to the
pool, which would deadlock once every worker waits.

Processes: the battery (see fd_battery_errors) runs its cases, not slabs,
in parallel, on the calling process and on workers forked from it, one
per further CPU.  While it runs, every slab of every process runs inline,
so a worker never touches the thread pool it inherits.

Each grid point's values come from the same expressions in the same order
however the work is split, so every result is bitwise the same for any
number of CPUs.
"""

from __future__ import annotations

import math
import os
import pickle
import signal
import warnings
from contextvars import ContextVar
from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

from .fields import (
    _SYM_PAIRS,
    _T_PERIOD,
    CylTensor,
    ModeGrid,
    _norm,
    linearized_weyl,
    random_real_variation,
)
from .indicial import VerificationError

__all__ = [
    "MetricGrid4D",
    "CurvatureGrid",
    "CurvatureDefectError",
    "Derivatives",
    "christoffel_riemann",
    "derivative_stage",
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
        if self.g.ndim != 5 or self.g.shape[0] != 10:
            raise ValueError(
                "metric samples must have shape (10, Nt, N1, N2, N3), the components "
                f"g_ab with a <= b; got {self.g.shape}"
            )
        # The comparisons are written so that NaN fails them.
        if len(self.periods) != 4 or not all(0 < p < math.inf for p in self.periods):
            raise ValueError(f"periods must be four positive finite numbers, got {self.periods}")
        chunk_points = _chunk_points(self.shape)
        flags = _on_slabs(lambda sl: _metric_flags(self.g[:, sl].reshape(10, -1), chunk_points), self.shape)
        _check_metric(flags)

    @property
    def shape(self) -> tuple[int, int, int, int]:
        return self.g.shape[1:]


def _metric_flags(g: np.ndarray, chunk_points: int) -> tuple[bool, bool]:
    """(finite, positive definite) for the metric components g (10, n) of
    n points: finiteness, then Sylvester's criterion on the finite samples,
    on chunks of chunk_points points, so that the minors' temporaries stay
    small whatever the grid."""
    positive = True
    for lo in range(0, g.shape[1], chunk_points):
        chunk = g[:, lo : lo + chunk_points]
        if not np.all(np.isfinite(chunk)):
            return False, False
        positive = positive and all(np.all(d > 0) for d in _leading_minors(dict(zip(_SYM, chunk))))
    return True, positive


def _check_metric(flags) -> None:
    """Raises ValueError unless every (finite, positive) of flags, the
    _metric_flags of the parts of one metric, holds."""
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


def _leading_minors(a) -> tuple:
    """The four leading principal minors of a symmetric 4x4 field a[i, j]."""
    s, c = _row_pair_minors(a)
    return a[0, 0], s[0], _minor3(a, s), _det(s, c)


def _sym_inverse(g: np.ndarray, out: np.ndarray) -> None:
    """Inverse of a (10, ...) symmetric 4x4 field by 2x2 minors of the
    upper and lower row pairs (Laplace expansion), written to out (10, ...)."""
    a = {(i, j): g[c] for c, (i, j) in enumerate(_SYM)}
    s, c = _row_pair_minors(a)
    s0, s1, s2, s3, s4, s5 = s
    c0, c1, c2, c3, c4, c5 = c
    inv_det = 1.0 / _det(s, c)
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
        (3, 3): _minor3(a, s),
    }
    for k, slot in enumerate(_SYM):
        np.multiply(cof[slot], inv_det, out=out[k])


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
        g = self.metric.g
        out = np.empty_like(g)
        _on_slabs(lambda sl: _sym_inverse(g[:, sl], out[:, sl]), self.metric.shape)
        return out

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


def _fft_workers() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


@cache
def _slab_pool():
    """The threads that run the slabs of _on_slabs, started on first use."""
    from concurrent.futures import ThreadPoolExecutor

    return ThreadPoolExecutor(max_workers=_fft_workers(), thread_name_prefix="indicyl-slab")


# Fewest grid points per slab, and most per chunk of a pointwise stage (see
# _chunk_points).  Each slab repeats every NumPy call of a stage, so small
# slabs cost more in call overhead than the second CPU saves: on 2 CPUs one
# 8^4 curvature evaluation took about 15 ms inline and 25-35 ms on 4 slabs,
# one 16^4 evaluation about 220 ms inline and 150 ms on 4 slabs.
_SLAB_POINTS = 8192

# The pid of the process running the battery (see fd_battery_errors), set
# while it runs and inherited by the workers it forks; None otherwise.
_BATTERY_OWNER: ContextVar[int | None] = ContextVar("battery_owner", default=None)


def _on_slabs(fn, shape) -> list:
    """fn(slice) on slabs that split the leading axis of an array of the
    given shape, run on every CPU the process may use; returns the results
    in slab order.

    NumPy releases the GIL in the pointwise loops, so the slabs run in
    parallel on threads.  Twice as many slabs as CPUs balances the load
    while keeping the temporaries in flight well below full size.  With
    one CPU, fewer than 2 * _SLAB_POINTS points, or while the battery runs
    (see fd_battery_errors), fn runs inline on the whole axis.  Every
    future is waited for before an exception from any slab is raised.
    """
    n, workers = shape[0], _fft_workers()
    inline = workers < 2 or _BATTERY_OWNER.get() is not None
    count = 1 if inline else min(n, 2 * workers, math.prod(shape) // _SLAB_POINTS)
    if count < 2:
        return [fn(slice(0, n))]
    from concurrent.futures import wait

    bounds = [n * i // count for i in range(count + 1)]
    futures = [_slab_pool().submit(fn, slice(lo, hi)) for lo, hi in zip(bounds, bounds[1:])]
    wait(futures)
    return [f.result() for f in futures]


def _chunk_points(grid_shape) -> int:
    """Points per chunk of a slab's pointwise work: at most _SLAB_POINTS,
    but never less than one plane of the last two axes, which bounds the
    number of chunks by the slab's planes."""
    return max(_SLAB_POINTS, grid_shape[2] * grid_shape[3])


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


def _group_planes(grid_shape) -> int:
    """Time planes per group of a streamed pass over the grid (see
    _plane_inverse): the fewest that hold at least _SLAB_POINTS points."""
    return -(-_SLAB_POINTS // math.prod(grid_shape[1:]))


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


def _plane_inverse(stack: np.ndarray, positions, grid_shape, planes: int):
    """The rest of the pruned inverse of a box whose time pass is stack
    (see _time_inverse), a group of time planes at a time: a function
    (lo, hi, out) that writes the grid values of the time planes lo:hi,
    at most planes of them, to out (C, hi - lo, N1, N2, N3).

    Each call widens and transforms the two complex spatial axes in turn,
    then runs the c2r on the last, each by one numpy call over every
    component, and scales by 1/N.  Its temporaries are one set of buffers
    made here, sized for planes time planes and reused by every call.
    """
    count, _, _, m2, m3 = stack.shape
    n1, n2, n3 = grid_shape[1:]
    wide1 = np.zeros((count, planes, n1, m2, m3), dtype=complex)
    wide2 = np.zeros((count, planes, n1, n2, m3), dtype=complex)
    part1, part2 = np.empty_like(wide1), np.empty_like(wide2)
    scale = 1.0 / math.prod(grid_shape)

    def invert(lo, hi, out):
        a, b, c, d = (x[:, : hi - lo] for x in (wide1, part1, wide2, part2))
        a[:, :, positions[1]] = stack[:, lo:hi]
        np.fft.ifft(a, axis=2, norm="forward", out=b)
        c[:, :, :, positions[2]] = b
        np.fft.ifft(c, axis=3, norm="forward", out=d)
        np.fft.irfft(d, n=n3, axis=4, norm="forward", out=out)
        out *= scale

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
    (_time_inverse); the rest runs on groups of time planes (_plane_inverse)
    on slabs of the time axis (see _on_slabs).
    """
    grid_shape = tuple(grid_shape)
    stack = _time_inverse(coefficients, positions[0], grid_shape[0])
    out = np.empty((len(coefficients),) + grid_shape)
    planes = _group_planes(grid_shape)

    def slab(sl):
        invert = _plane_inverse(stack, positions, grid_shape, min(planes, sl.stop - sl.start))
        for lo in range(sl.start, sl.stop, planes):
            hi = min(lo + planes, sl.stop)
            invert(lo, hi, out[:, lo:hi])

    _on_slabs(slab, grid_shape)
    return out


@dataclass(frozen=True, eq=False)
class Derivatives:
    """The derivative stage of a sampled symmetric field s (10, ...): the
    second-derivative block of its 21 packed Riemann components and twice
    its first-kind symbols.  Both are linear in s."""

    riemann: np.ndarray                 # (21, ...), slots _PACKED
    first_kind: tuple[np.ndarray, ...]  # 4 x (10, ...) 2 Gam_{s,mn}, slots _SYM


def _derivative_spectrum(j: int, gk: np.ndarray, k, out: np.ndarray, term: np.ndarray) -> np.ndarray:
    """The spectrum of the derivative stage's output component j (see
    derivative_stage) from the spectrum gk (10, ...) of the field and the
    i*k factors k at its positions, summed term by term into out; term is
    scratch of the same shape."""
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


def derivative_stage(periods, field: np.ndarray) -> Derivatives:
    """The part of the curvature engine that is linear in the metric, from
    spectral derivatives (exact for band-limited samples) of a symmetric
    field s given as its grid values (10, Nt, N1, N2, N3):

        L_rsmn = 1/2 (s_rn,sm + s_sm,rn - s_rm,sn - s_sn,rm)
        2 Gam_{s,mn} = s_sn,m + s_sm,n - s_mn,s.

    The derivative spectra are the products of the field's spectrum with
    the i*k factors (see _derivative_spectrum).  The grid values are
    transformed by rfftn's 1-D transforms in its order (the r2c on axis 4,
    then axes 1, 2 and 3), and each of the 61 output components (the 21
    Riemann components, then the 10 first-kind symbols of each derivative
    index) has its spectrum formed and inverted by irfftn's 1-D transforms
    straight into its slot of one (61, Nt, N1, N2, N3) array, whose slices
    are the results.

    Every transform runs one component at a time, and the components are
    split between the CPUs (see _on_slabs), so that the temporaries in
    flight are a few components' spectra.
    """
    grid_shape = field.shape[1:]
    gk = np.empty((10,) + grid_shape[:3] + (grid_shape[3] // 2 + 1,), dtype=complex)

    def forward(sl):
        for c in range(sl.start, sl.stop):
            x = np.fft.rfft(field[c])
            for axis in range(2):
                x = np.fft.fft(x, axis=axis)
            np.fft.fft(x, axis=2, out=gk[c])

    _on_slabs(forward, field.shape)
    k = _ik_factors(periods, grid_shape, tuple(np.arange(m) for m in gk.shape[1:]))
    out = np.empty((_DERIVATIVES,) + grid_shape)

    def inverse(sl):
        spectrum, term = np.empty((2,) + gk.shape[1:], dtype=complex)
        for j in range(sl.start, sl.stop):
            x = _derivative_spectrum(j, gk, k, spectrum, term)
            for axis in range(3):
                x = np.fft.ifft(x, axis=axis, norm="forward")
            np.fft.irfft(x, n=grid_shape[3], norm="forward", out=out[j])
            out[j] *= 1.0 / math.prod(grid_shape)

    _on_slabs(inverse, out.shape)
    return Derivatives(out[: len(_PACKED)], tuple(np.split(out[len(_PACKED) :], 4)))


def _riemann_buffers(size: int) -> tuple[np.ndarray, ...]:
    """Scratch arrays for _riemann_points on chunks of up to size points."""
    low, up = np.empty((2, 4, 10, size))
    return low, up, np.empty((10, size)), np.empty((4, 4, size)), np.empty((2, size))


def _riemann_points(g, kind, lin, c: float, out, buffers) -> None:
    """The pointwise stage of the curvature engine on n points, in chunks
    of the size of buffers (see _riemann_buffers): the 21 packed Riemann
    components c lin + Q (see christoffel_riemann) written to out (21, n),
    which may be lin itself, of the metric g (10, n) whose derivative stage
    is c times lin (21, n) and the twice first-kind symbols kind
    (4 x (10, n)).

    Each chunk is gathered into buffers of the stacked layout that the
    einsums read, and forms the closed-form inverse metric and the
    second-kind symbols Gam^q_mn of its points, keeping none of them.
    """
    S = _SYM_INDEX
    half_c = 0.5 * c
    n, size = out.shape[1], buffers[0].shape[-1]
    for lo in range(0, n, size):
        chunk = slice(lo, min(lo + size, n))
        w = chunk.stop - lo
        low, up, inv, ginv, (dot, dot2) = (b[..., :w] for b in buffers)
        _sym_inverse(g[:, chunk], inv)
        for q, f in enumerate(kind):
            np.multiply(f[:, chunk], half_c, out=low[q])
        np.take(inv, S, axis=0, out=ginv, mode="clip")  # unbuffered
        np.einsum("rs...,sc...->rc...", ginv, low, out=up)
        for col, (P, Q) in enumerate(_PACKED):
            r, s = _PAIRS4[P]
            mm, nn = _PAIRS4[Q]
            np.einsum("q...,q...->...", low[:, S[r, nn]], up[:, S[s, mm]], out=dot)
            np.einsum("q...,q...->...", low[:, S[r, mm]], up[:, S[s, nn]], out=dot2)
            np.subtract(dot, dot2, out=dot)
            np.add(np.multiply(lin[col, chunk], c, out=dot2), dot, out=out[col, chunk])


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
    to rounding error.  The first term is the metric's derivative stage
    (see derivative_stage) and the quadratic term the pointwise stage
    (_riemann_points, at c = 1; multiplying by 1.0 is exact).

    Everything runs on every CPU the process may use.  The pointwise stage
    runs on slabs of the leading grid axis, each slab overwriting its part
    of the derivative stage's Riemann block, and within a slab in chunks of
    _chunk_points points.  Every value is computed by the same expressions
    in the same order whatever the split, so the result does not depend on
    the number of CPUs.
    """
    d = derivative_stage(m.periods, m.g)
    chunk_points = _chunk_points(m.shape)

    def pointwise(sl):
        riemann = d.riemann[:, sl].reshape(len(_PACKED), -1)
        kind = [f[:, sl].reshape(10, -1) for f in d.first_kind]
        buffers = _riemann_buffers(min(riemann.shape[1], chunk_points))
        _riemann_points(m.g[:, sl].reshape(10, -1), kind, riemann, 1.0, riemann, buffers)

    _on_slabs(pointwise, m.shape)
    return CurvatureGrid(m, d.riemann, d.first_kind)


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
        c[k, l] += sign * B[P, Q]
    tr = np.einsum("kk...->...", c)
    out = np.negative(c, out=c)
    for i in range(3):
        out[i, i] += 0.5 * tr
    return out


def _asd_chunk(Rs: np.ndarray, o: np.ndarray) -> tuple[float, float]:
    """The anti-self-dual block (see asd_form_background) of the packed
    components Rs (21, n) of n points, written to o (n, 3, 3); returns the
    curvature peak max |Rs| and the shortcut defect."""
    P, star, sign = _PACKED_INDEX, _STAR, _HODGE_SIGN
    shortcut = _ricci_contraction_shortcut(Rs[P[3:, 3:]])  # the spatial pair block
    defects, diagonal = [], []
    for i, j in _SYM_PAIRS:
        # phi - psi + gam: the time pair block, the symmetrized time-star
        # block and the star-star block of the pair matrix.
        psi = 0.5 * (2 * sign[i] * Rs[P[star[i], j]] + 2 * sign[j] * Rs[P[star[j], i]])
        gam = sign[i] * sign[j] * Rs[P[star[i], star[j]]]
        entry = Rs[P[i, j]] - psi + gam
        defects += [_max_abs(gam - shortcut[i, j]), _max_abs(gam - shortcut[j, i])]
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


def _asd_points(R: np.ndarray, out: np.ndarray, chunk_points: int) -> tuple[float, float]:
    """The anti-self-dual block of the packed components R (21, n) of n
    points, written to out (n, 3, 3) in chunks of chunk_points points;
    returns the maxima of the chunks' peaks and defects."""
    n = R.shape[1]
    size = min(n, chunk_points)
    peaks, defects = zip(*(_asd_chunk(R[:, lo : lo + size], out[lo : lo + size]) for lo in range(0, n, size)))
    return float(np.max(peaks)), float(np.max(defects))


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
    straight off the 21 packed components.  It is computed on slabs of the
    leading grid axis (see _on_slabs), each in chunks of _chunk_points
    points; the defect and the curvature scale are maxima over the chunks,
    so neither depends on the split.

    Raises CurvatureDefectError when the double-epsilon block disagrees
    with its Ricci-contraction rewriting by more than _DEFECT_TOL times the
    curvature scale.
    """
    R = curv.riemann_packed
    out = np.empty(R.shape[1:] + (3, 3))
    chunk_points = _chunk_points(R.shape[1:])

    def slab(sl):
        return _asd_points(R[:, sl].reshape(len(_PACKED), -1), out[sl].reshape(-1, 3, 3), chunk_points)

    _check_defect(_on_slabs(slab, R.shape[1:]))
    return out


# ---------------------------------------------------------------------------
# Sampling cylinder tensors onto grids
# ---------------------------------------------------------------------------


def _term_time_index(rate: complex, nt: int, t_period: float) -> int:
    if abs(rate.real) > 1e-12:
        raise ValueError("grid sampling requires purely imaginary rates (t-periodic fields)")
    kt = rate.imag * t_period / (2 * math.pi)
    kint = round(kt)
    if abs(kt - kint) > 1e-9:
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
    max |Im| <= 1e-9 max(1, max |Re|), Im being the inverse of -i N times
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
        if np.any(imag > 1e-9 * np.maximum(1.0, real)):
            raise ValueError("field is not real on the grid; reality-symmetrize the input")
    return spectrum


_CYL_PICKS = tuple(
    ("h00", ()) if b == 0 else ("alpha", (b - 1,)) if a == 0 else ("h", (a - 1, b - 1)) for a, b in _SYM
)


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
    s = _real_part_spectrum(ct, [("h", ij) for ij in _SYM_PAIRS], shape, periods)
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
        if not abs(L - P) <= 1e-12 * max(1.0, L):
            raise ValueError("spatial periods must match the mode lattice")
    for n in shape:
        if n < 2 * grid.band + 2:
            raise ValueError(f"grid size {n} cannot resolve band limit {grid.band}")


# ---------------------------------------------------------------------------
# Finite-difference validation of the linearized curvature
# ---------------------------------------------------------------------------


def _variation_stack(periods, spectrum: Spectrum) -> np.ndarray:
    """The time pass (see _time_inverse) of the 61 derivative spectra of a
    variation (see derivative_stage), formed on the box of its Spectrum
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


def _fd_differences(periods, spectrum: Spectrum, eps_values) -> tuple[np.ndarray, list[np.ndarray]]:
    """The sample s (10, Nt, N1, N2, N3) of the variation whose Spectrum is
    given, and per step eps the difference m(I + eps s) - m(I - eps s) of
    the anti-self-dual blocks (see asd_form_background), (Nt, N1, N2, N3,
    3, 3); only these are grid-sized.

    The grid is streamed a group of time planes at a time, inline: each
    group's 71 components (the derivative stage, then s) are inverted into
    one set of buffers made here, and each I + c s, c = +-eps, is
    validated, curved at c times the derivative stage and reduced to its
    block on the group alone.  The metric and defect checks of each
    evaluation are decided once over the whole grid, in the order and with
    the errors of MetricGrid4D and asd_form_background.  A battery worker
    whose parent has gone ends between groups (see _exit_if_orphaned).
    """
    shape = spectrum.shape
    stack = _variation_stack(periods, spectrum)
    sample = np.empty((len(spectrum.coefficients),) + shape)
    differences = [np.empty(shape + (3, 3)) for _ in eps_values]
    steps = [(i, c) for i, eps in enumerate(eps_values) for c in (eps, -eps)]
    planes, chunk_points = min(_group_planes(shape), shape[0]), _chunk_points(shape)
    invert = _plane_inverse(stack, spectrum.positions, shape, planes)
    values_buf = np.empty((len(stack), planes) + shape[1:])
    n = values_buf[0].size
    g_buf, R_buf, minus_buf = np.empty((10, n)), np.empty((len(_PACKED), n)), np.empty((n, 3, 3))
    buffers = _riemann_buffers(min(n, chunk_points))
    rows = []  # (step, (finite, positive), (peak, defect)) per group
    for lo in range(0, shape[0], planes):
        _exit_if_orphaned()
        hi = min(lo + planes, shape[0])
        values = values_buf[:, : hi - lo]
        invert(lo, hi, values)
        sample[:, lo:hi] = values[_DERIVATIVES:]
        flat = values.reshape(len(values), -1)
        w = flat.shape[1]
        lin, kind, s = flat[: len(_PACKED)], np.split(flat[len(_PACKED) : _DERIVATIVES], 4), flat[_DERIVATIVES:]
        g, R, minus = g_buf[:, :w], R_buf[:, :w], minus_buf[:w]
        for step, (i, c) in enumerate(steps):
            np.multiply(s, c, out=g)
            g += _IDENTITY  # the bits of I + c s, without its temporary
            flags = _metric_flags(g, chunk_points)
            if not all(flags):
                # This step fails; no later one is decided.
                rows.append((step, flags, (0.0, 0.0)))
                break
            _riemann_points(g, kind, lin, c, R, buffers)
            diff = differences[i][lo:hi].reshape(-1, 3, 3)
            rows.append((step, flags, _asd_points(R, minus if step % 2 else diff, chunk_points)))
            if step % 2:
                diff -= minus
    for step in range(len(steps)):
        _, flags, reports = zip(*(row for row in rows if row[0] == step))
        _check_metric(flags)
        _check_defect(reports)
    return sample, differences


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

    The variation must be t-periodic (purely imaginary rates, no polynomial
    factors) and real on the grid.  A degenerate direction, one the exact
    operator annihilates, has no relative error and gives math.nan.
    """
    eps_values = tuple(eps_values)
    if not all(0 < eps < 0.1 for eps in eps_values):
        raise ValueError("finite-difference step must be small and positive")
    periods = (_T_PERIOD,) + ht.grid.lengths
    sample, differences = _fd_differences(periods, cyl_tensor_spectrum(ht, shape, periods), eps_values)
    sample_norm = _norm(sample)
    del sample
    exact = sample_cross_section_tensor(linearized_weyl(ht), shape, periods)
    den = _norm(exact)
    degenerate = den < _DEGENERATE_TOL * max(1.0, sample_norm)
    out = []
    for eps, diff in zip(eps_values, differences):
        diff /= 2 * eps
        diff -= exact
        out.append(math.nan if degenerate else _norm(diff) / den)
    return out


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
    another with every slab inline (see _on_slabs), and a worker sends its
    errors back over a pipe.  So the result does not depend on W.  When
    cases raise, the exception of the lowest case is raised, as a loop
    over the cases would, with the type and message it had in its process.

    No worker outlives the call: a worker ends through os._exit after its
    share, or between groups of time planes once its parent is gone (see
    _exit_if_orphaned), and every worker not yet reaped when this returns
    or raises is killed and reaped.  Each process holds its own buffers,
    so the memory of the whole battery grows with W.
    """
    cases = list(cases)
    count = max(1, min(_fft_workers(), len(cases))) if hasattr(os, "fork") else 1
    token = _BATTERY_OWNER.set(os.getpid())
    workers = []  # (pid, read end of its pipe) of each worker not yet reaped
    try:
        for first in range(1, count):
            read_fd, write_fd = os.pipe()
            with warnings.catch_warnings():
                # Python 3.12+ warns about forking a process that has threads
                # (BLAS's, or the slab pool's); a worker uses neither.
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
