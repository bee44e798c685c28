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
(10, ...) arrays, one per lowered index; the second-kind symbols enter the
Riemann tensor chunk by chunk and are not stored.  The anti-self-dual
block is read straight off the packed components.  The second-kind
symbols, Ricci and scalar curvature, and the unpacked (..., 4, 4) and
(..., 4, 4, 4, 4) tensors, are computed only on request.

Threads: the engine's FFTs, and its pointwise stages together with the
metric validation and the anti-self-dual block, run on every CPU the
process may use (the pointwise stages on slabs of the leading grid axis,
see _on_slabs).  Each grid point's values come from the same
expressions in the same order however the work is split, so every result
is bitwise the same for any number of CPUs.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from functools import cache, cached_property, partial

import numpy as np

from .fields import (
    _SYM_PAIRS,
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
    "christoffel_riemann",
    "asd_form_background",
    "sample_cyl_tensor",
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
        a = dict(zip(_SYM, self.g))

        def check(sl):
            # Finiteness, then Sylvester's criterion on the finite samples.
            if not np.all(np.isfinite(self.g[:, sl])):
                return False, False
            minors = _leading_minors({slot: c[sl] for slot, c in a.items()})
            return True, all(np.all(d > 0) for d in minors)

        finite, positive = zip(*_on_slabs(check, self.shape))
        if not all(finite):
            raise ValueError("metric samples must be finite")
        if not all(positive):
            raise ValueError("metric is not positive definite at some grid point")

    @property
    def shape(self) -> tuple[int, int, int, int]:
        return self.g.shape[1:]


# Symmetric slots (a <= b) of a 4x4 field and their index table.
_SYM = tuple((a, b) for a in range(4) for b in range(a, 4))
_SYM_INDEX = np.empty((4, 4), dtype=int)
for _c, (_a, _b) in enumerate(_SYM):
    _SYM_INDEX[_a, _b] = _SYM_INDEX[_b, _a] = _c

# Antisymmetric index pairs, the 21 packed Riemann slots (P <= Q), and the
# packed slot and sign of every R_abcd (sign 0 when a == b or c == d).
_PAIRS4 = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
_PACKED = tuple((P, Q) for P in range(6) for Q in range(P, 6))
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

    The second-kind symbols gamma_sym (4, 10, ...), the Ricci components
    ricci_sym (10, ...) and the scalar curvature are computed on first
    access.  The full tensors ginv (..., a, b), gamma (..., r, m, n),
    riemann (..., a, b, c, d) and ricci (..., a, b) are unpacked on first
    access.
    """

    metric: MetricGrid4D
    ginv_sym: np.ndarray                # (10, ...) inverse metric, slots _SYM
    first_kind: tuple[np.ndarray, ...]  # 4 x (10, ...) 2 Gam_{s,mn}, slots _SYM
    riemann_packed: np.ndarray          # (21, ...) lowered R_PQ, slots _PACKED

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


def _ik_factors(periods, grid_shape):
    """Broadcastable i*k multipliers for each coordinate on the half-spectrum."""
    out = []
    for mu in range(4):
        n = grid_shape[mu]
        if mu < 3:
            freq = 2 * math.pi * np.fft.fftfreq(n, d=1.0 / n) / periods[mu]
        else:
            freq = 2 * math.pi * np.fft.rfftfreq(n, d=1.0 / n) / periods[mu]
        shape = [1] * 4
        shape[mu] = len(freq)
        out.append(1j * freq.reshape(shape))
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


# Fewest grid points per slab, and most per chunk of the quadratic stage
# in christoffel_riemann.  Each slab repeats every NumPy call of a stage,
# so small slabs cost more in call overhead than the second CPU saves: on 2 CPUs one 8^4 curvature evaluation took about 15 ms inline and
# 25-35 ms on 4 slabs, one 16^4 evaluation about 220 ms inline and 150 ms
# on 4 slabs.
_SLAB_POINTS = 8192


def _on_slabs(fn, shape) -> list:
    """fn(slice) on slabs that split the leading axis of an array of the
    given shape, run on every CPU the process may use; returns the results
    in slab order.

    NumPy releases the GIL in the pointwise loops, so the slabs run in
    parallel on threads.  Twice as many slabs as CPUs balances the load
    while keeping the temporaries in flight well below full size.  With
    one CPU, or fewer than 2 * _SLAB_POINTS points, fn runs inline on the
    whole axis.  Every future is waited for before an exception from any
    slab is raised.
    """
    n, workers = shape[0], _fft_workers()
    count = min(n, 2 * workers, math.prod(shape) // _SLAB_POINTS) if workers > 1 else 1
    if count < 2:
        return [fn(slice(0, n))]
    from concurrent.futures import wait

    bounds = [n * i // count for i in range(count + 1)]
    futures = [_slab_pool().submit(fn, slice(lo, hi)) for lo, hi in zip(bounds, bounds[1:])]
    wait(futures)
    return [f.result() for f in futures]


def christoffel_riemann(m: MetricGrid4D) -> CurvatureGrid:
    """Christoffel symbols and the Riemann tensor from the general coordinate
    formulas, with derivative combinations assembled on the half-spectrum
    (exact for band-limited samples).  The second-kind symbols, Ricci and
    scalar curvature follow on first access.

    The 21 packed components of the lowered Riemann tensor are built in
    its second-derivative form

        R_rsmn = 1/2 (g_rn,sm + g_sm,rn - g_rm,sn - g_sn,rm)
                 + Gam_{q,rn} Gam^q_sm - Gam_{q,rm} Gam^q_sn,

    with Gam_{q,mn} the Christoffel symbols of the first kind.  The pair
    symmetries hold by construction; the first Bianchi identity holds only
    to rounding error.

    Everything runs on every CPU the process may use.  The FFTs are split
    by pocketfft into whole lines per thread.  The pointwise stages (the
    closed-form inverse, the derivative spectra and the quadratic term) run
    on slabs of the leading grid axis, or of the spectrum's first axis,
    each slab writing its part of preallocated arrays.  The quadratic term
    forms the second-kind symbols Gam^q_mn in chunks of at most
    _SLAB_POINTS points (or one plane of the last two grid axes, if that
    is larger) and keeps none of them.  Every value is computed by
    the same expressions in the same order whatever the split, so the
    result does not depend on the number of CPUs.
    """
    import scipy.fft

    workers = _fft_workers()
    grid_shape = m.shape
    ik = _ik_factors(m.periods, grid_shape)
    S = _SYM_INDEX
    ginv_sym = np.empty_like(m.g)
    _on_slabs(lambda sl: _sym_inverse(m.g[:, sl], ginv_sym[:, sl]), grid_shape)
    gk = scipy.fft.rfftn(m.g, axes=(1, 2, 3, 4), workers=workers)
    spectrum_shape = gk.shape[1:]

    # The second-derivative block first, while no Christoffel array exists.
    # Each component is summed term by term in its slot of shat.
    shat = np.empty((len(_PACKED),) + spectrum_shape, dtype=complex)

    def second_derivatives(sl):
        k, g = [ik[0][sl]] + ik[1:], gk[:, sl]
        term = np.empty(g.shape[1:], dtype=complex)
        for col, (P, Q) in enumerate(_PACKED):
            r, s = _PAIRS4[P]
            mm, nn = _PAIRS4[Q]
            acc = shat[col, sl]
            np.multiply(k[s] * k[mm], g[S[r, nn]], out=acc)
            acc += np.multiply(k[r] * k[nn], g[S[s, mm]], out=term)
            acc -= np.multiply(k[s] * k[nn], g[S[r, mm]], out=term)
            acc -= np.multiply(k[r] * k[mm], g[S[s, nn]], out=term)
            acc *= 0.5

    _on_slabs(second_derivatives, spectrum_shape)
    riemann = scipy.fft.irfftn(shat, s=grid_shape, axes=(1, 2, 3, 4), workers=workers)
    del shat

    # Twice the first-kind symbols, g_sn,m + g_sm,n - g_mn,s, one
    # derivative index s at a time, kept as the four transforms return them.
    that = np.empty((10,) + spectrum_shape, dtype=complex)

    def first_kind_spectra(s, sl):
        k, g = [ik[0][sl]] + ik[1:], gk[:, sl]
        term = np.empty(g.shape[1:], dtype=complex)
        for c, (mm, nn) in enumerate(_SYM):
            acc = that[c, sl]
            np.multiply(k[mm], g[S[s, nn]], out=acc)
            acc += np.multiply(k[nn], g[S[s, mm]], out=term)
            acc -= np.multiply(k[s], g[S[mm, nn]], out=term)

    first_kind = []
    for s in range(4):
        _on_slabs(partial(first_kind_spectra, s), spectrum_shape)
        if s == 3:
            del gk  # read for the last time; gone before the last transform
        first_kind.append(scipy.fft.irfftn(that, s=grid_shape, axes=(1, 2, 3, 4), workers=workers))
    del that

    # Chunks of at most _SLAB_POINTS points, but never less than one plane
    # of the last two axes, which bounds their number by the slab's planes.
    chunk_points = max(_SLAB_POINTS, grid_shape[2] * grid_shape[3])

    def quadratic(sl):
        # Flat views of the slab's points.  Each chunk of them is gathered
        # into buffers of the stacked layout that the einsums read.
        kind = [f[:, sl].reshape(10, -1) for f in first_kind]
        inv, rie = ginv_sym[:, sl].reshape(10, -1), riemann[:, sl].reshape(len(_PACKED), -1)
        n = rie.shape[1]
        size = min(n, chunk_points)
        low_buf, up_buf = np.empty((2, 4, 10, size))
        inv_buf, dot_buf = np.empty((4, 4, size)), np.empty((2, size))
        for lo in range(0, n, size):
            chunk = slice(lo, min(lo + size, n))
            w = chunk.stop - lo
            low, up, ginv, (dot, dot2) = (b[..., :w] for b in (low_buf, up_buf, inv_buf, dot_buf))
            for q, f in enumerate(kind):
                np.multiply(f[:, chunk], 0.5, out=low[q])
            np.take(inv[:, chunk], S, axis=0, out=ginv, mode="clip")  # unbuffered
            np.einsum("rs...,sc...->rc...", ginv, low, out=up)
            for col, (P, Q) in enumerate(_PACKED):
                r, s = _PAIRS4[P]
                mm, nn = _PAIRS4[Q]
                np.einsum("q...,q...->...", low[:, S[r, nn]], up[:, S[s, mm]], out=dot)
                np.einsum("q...,q...->...", low[:, S[r, mm]], up[:, S[s, nn]], out=dot2)
                rie[col, chunk] += np.subtract(dot, dot2, out=dot)

    _on_slabs(quadratic, grid_shape)
    return CurvatureGrid(m, ginv_sym, tuple(first_kind), riemann)


# ---------------------------------------------------------------------------
# Anti-self-dual block as a bilinear form on cross-section tensors
# ---------------------------------------------------------------------------

# Hodge star of the cross-section on 2-forms: e^i -> sign * e^k ^ e^l, with
# (k, l) the spatial pair of slot _STAR[i] in _PAIRS4.
_STAR = np.array([5, 4, 3])
_HODGE_SIGN = np.array([1.0, -1.0, 1.0])

# The six distinct entries (i, j) of a symmetric 3x3 block, diagonal first.
_UPPER3 = ((0, 0), (1, 1), (2, 2), (0, 1), (0, 2), (1, 2))

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


def asd_form_background(curv: CurvatureGrid) -> np.ndarray:
    """Anti-self-dual curvature block as a trace-free 3x3 bilinear form per
    grid point, read off the 6x6 curvature pair matrix through the Hodge
    star of the cross-section and paired against the background anti-self-
    dual frame of the flat product metric.  The self-dual and Ricci blocks
    pair into this slot only at second order around the conformally flat
    background, and the scalar part is removed by the trace-free projection.

    The block is symmetric, and each of its six distinct entries is read
    straight off the 21 packed components.  It is computed on slabs of the
    leading grid axis (see _on_slabs); the defect and the curvature scale
    are maxima over the slabs, so neither depends on the split.

    Raises CurvatureDefectError when the double-epsilon block disagrees
    with its Ricci-contraction rewriting.
    """
    R = curv.riemann_packed
    out = np.empty(R.shape[1:] + (3, 3))
    P, star, sign = _PACKED_INDEX, _STAR, _HODGE_SIGN

    def slab(sl):
        Rs, o = R[:, sl], out[sl]
        shortcut = _ricci_contraction_shortcut(Rs[P[3:, 3:]])  # the spatial pair block
        defects, diagonal = [], []
        for i, j in _UPPER3:
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

    peaks, defects = zip(*_on_slabs(slab, R.shape[1:]))
    scale, defect = max(float(np.max(peaks)), 1.0), float(np.max(defects))
    if defect > 1e-10 * scale:
        raise CurvatureDefectError(defect, scale)
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


def _evaluate_terms(field, picks, shape, periods) -> np.ndarray:
    """Evaluate the components picks = ((part, index), ...) of a cylinder
    field on the grid, as contiguous (len(picks), Nt, N1, N2, N3) real
    values."""
    import scipy.fft

    nt = shape[0]
    # The coefficients, gathered into a compact box of the time frequencies
    # that occur (in order of first occurrence) and spatial modes -band..band.
    terms = []
    for (rk, d), slot in field.terms.items():
        if d != 0:
            raise ValueError("grid sampling supports exponential terms only (degree 0)")
        terms.append((_term_time_index(slot["rate"], nt, periods[0]), slot))
    times = list(dict.fromkeys(kt for kt, _ in terms))
    box = np.zeros((len(picks), len(times)) + (field.grid.size,) * 3, dtype=complex)
    for kt, slot in terms:
        box[:, times.index(kt)] += np.stack([slot[part].data[index] for part, index in picks])
    # One axis at a time, last axis first, as np.fft.ifftn does, each axis
    # widened to its grid size (mode -band..band sits at index mode mod n)
    # right before its transform.  So only lines that hold a nonzero
    # coefficient are transformed, the FFT of an all-zero line is zero, and
    # the values are bitwise those of np.fft.ifftn of the whole box.  The
    # lines of each axis are split between the CPUs.
    modes = np.arange(field.grid.size) - field.grid.band
    workers = _fft_workers()
    for axis, index in ((4, modes), (3, modes), (2, modes), (1, times)):
        n = shape[axis - 1]
        wide = np.zeros(box.shape[:axis] + (n,) + box.shape[axis + 1 :], dtype=complex)
        wide[(slice(None),) * axis + (np.mod(index, n),)] = box
        box = scipy.fft.ifft(wide, axis=axis, overwrite_x=True, workers=workers)
    box *= np.prod(shape)
    axes = (1, 2, 3, 4)
    imag = _max_abs(box.imag, axis=axes)
    if np.any(imag > 1e-9 * np.maximum(1.0, _max_abs(box.real, axis=axes))):
        raise ValueError("field is not real on the grid; reality-symmetrize the input")
    return np.ascontiguousarray(box.real)


def sample_cyl_tensor(ht: CylTensor, shape, periods) -> np.ndarray:
    """Sample a t-periodic cylinder 2-tensor as its 10 components (a <= b,
    in _SYM order) on the grid, (10, Nt, N1, N2, N3)."""
    _check_sampling(ht.grid, shape, periods)
    picks = [
        ("h00", ()) if b == 0 else ("alpha", (b - 1,)) if a == 0 else ("h", (a - 1, b - 1))
        for a, b in _SYM
    ]
    return _evaluate_terms(ht, picks, shape, periods)


def sample_cross_section_tensor(ct: CylTensor, shape, periods) -> np.ndarray:
    """Sample a cross-section-valued cylinder tensor as (Nt,N1,N2,N3,3,3)."""
    _check_sampling(ct.grid, shape, periods)
    values = _evaluate_terms(ct, [("h", ij) for ij in _SYM_PAIRS], shape, periods)
    out = np.zeros(tuple(shape) + (3, 3))
    for c, (i, j) in enumerate(_SYM_PAIRS):
        out[..., i, j] = out[..., j, i] = values[c]
    return out


def _check_sampling(grid: ModeGrid, shape, periods):
    if len(shape) != 4 or len(periods) != 4:
        raise ValueError("need four grid sizes and four periods")
    for L, P in zip(grid.lengths, periods[1:]):
        if abs(L - P) > 1e-12 * max(1.0, L):
            raise ValueError("spatial periods must match the mode lattice")
    for n in shape:
        if n < 2 * grid.band + 2:
            raise ValueError(f"grid size {n} cannot resolve band limit {grid.band}")


# ---------------------------------------------------------------------------
# Finite-difference validation of the linearized curvature
# ---------------------------------------------------------------------------


def fd_linearization_errors(
    ht: CylTensor,
    eps_values,
    shape=(16, 16, 16, 16),
    t_period: float = 2 * math.pi,
) -> list[dict[str, float]]:
    """Central-difference errors of the anti-self-dual curvature block at the
    flat product metric against the exact linearized operator, for several
    step sizes sharing one sampling of the variation.

    The variation must be t-periodic (purely imaginary rates, no polynomial
    factors) and real on the grid.
    """
    periods = (t_period,) + ht.grid.lengths
    sample = sample_cyl_tensor(ht, shape, periods)
    exact = sample_cross_section_tensor(linearized_weyl(ht), shape, periods)
    identity = np.array([float(a == b) for a, b in _SYM]).reshape((10, 1, 1, 1, 1))
    den = _norm(exact)
    degenerate = den < 1e-12 * max(1.0, _norm(sample))
    out = []
    for eps in eps_values:
        if not 0 < eps < 0.1:
            raise ValueError("finite-difference step must be small and positive")
        # Each metric is built right before its own evaluation, so that
        # only one is alive at a time.
        m_plus = asd_form_background(christoffel_riemann(MetricGrid4D(periods, identity + eps * sample)))
        m_minus = asd_form_background(christoffel_riemann(MetricGrid4D(periods, identity - eps * sample)))
        num = _norm((m_plus - m_minus) / (2 * eps) - exact)
        if degenerate:
            # Degenerate direction (exactly annihilated): the absolute
            # finite-difference defect should be of size eps^2.
            out.append(
                {"relative_error": math.nan, "absolute_error": num, "reference_norm": den}
            )
        else:
            out.append(
                {"relative_error": num / den, "absolute_error": num, "reference_norm": den}
            )
    return out


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


def linearization_battery(seed: int = 11, band: int = 2, amplitude: float = 0.02):
    """The ten fixed-seed t-periodic variations used to validate the
    linearized curvature operator, mixing all three component blocks."""
    rng = np.random.default_rng(seed)
    grid = ModeGrid(band=band)
    return [
        random_real_variation(rng, grid, kt_modes=kts, parts=parts) * amplitude
        for parts, kts in _BATTERY_CASES
    ]
