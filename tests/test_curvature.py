import dataclasses
import math
import os
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from indicyl import curvature as C
from indicyl import fields as F
from indicyl import forks
from indicyl import pairwise as P
from indicyl import verify
from slabs import slab

PERIODS = (2 * math.pi,) * 4

# The slots (a <= b) of a symmetric 4x4 field, in the order of the metric
# components that MetricGrid4D stores.
_UPPER = tuple((a, b) for a in range(4) for b in range(a, 4))

# The Levi-Civita symbol eps_{ijk} of the cross-section, eps_123 = +1.
EPSILON = np.zeros((3, 3, 3))
for _i, _j, _k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
    EPSILON[_i, _j, _k] = 1.0
    EPSILON[_i, _k, _j] = -1.0


def pack(g):
    """(..., 4, 4) metric samples as the (10, ...) components g_ab, a <= b."""
    return np.stack([g[..., a, b] for a, b in _UPPER])


def unpack(c):
    """(10, ...) components g_ab, a <= b, as symmetric (..., 4, 4) samples."""
    out = np.empty(c.shape[1:] + (4, 4))
    for k, (a, b) in enumerate(_UPPER):
        out[..., a, b] = out[..., b, a] = c[k]
    return out


def flat(shape):
    """(..., 4, 4) samples of the flat product metric."""
    return np.broadcast_to(np.eye(4), tuple(shape) + (4, 4)).copy()


def warped_metric(shape, amp=0.01, profile=np.sin):
    tvals = 2 * math.pi * np.arange(shape[0]) / shape[0]
    g = np.zeros(tuple(shape) + (4, 4))
    g[..., 0, 0] = 1.0
    w = 1 + amp * profile(tvals)[:, None, None, None]
    for i in range(1, 4):
        g[..., i, i] = w
    return C.MetricGrid4D(PERIODS, pack(g))


def random_metric(shape, seed, amp=0.003):
    grid = F.ModeGrid(band=2)
    ht = F.random_real_variation(
        np.random.default_rng(seed), grid, kt_modes=(0, 1), parts=("h00", "alpha", "h")
    ) * amp
    sample = unpack(C.sample_cyl_tensor(ht, shape, PERIODS))
    return C.MetricGrid4D(PERIODS, pack(flat(shape) + sample))


# ---------------------------------------------------------------------------
# Full-tensor oracle for the packed engine
# ---------------------------------------------------------------------------
#
# The engine stores the 21 packed Riemann components and reads the
# anti-self-dual block off the 6x6 pair matrix through the Hodge star.  The
# oracle below shares no code with it: full complex FFTs, all 64 first-kind
# Christoffel combinations, the scatter of the second-derivative block into
# every (a, b, c, d) slot, the quadratic block by einsum over the whole
# tensor, and the anti-self-dual block by explicit epsilon contractions.

_ORACLE_PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))


def oracle_curvature(m):
    g = unpack(m.g)
    ginv = np.linalg.inv(g)
    ik = []
    for mu in range(4):
        n = m.shape[mu]
        freq = 2 * math.pi * np.fft.fftfreq(n, d=1.0 / n) / m.periods[mu]
        shape = [1] * 4
        shape[mu] = n
        ik.append(1j * freq.reshape(shape))
    gk = np.fft.fftn(g, axes=(0, 1, 2, 3))

    that = np.empty(gk.shape[:4] + (4, 4, 4), dtype=complex)
    for s in range(4):
        for mu in range(4):
            for nu in range(4):
                that[..., s, mu, nu] = (
                    ik[mu] * gk[..., s, nu] + ik[nu] * gk[..., s, mu] - ik[s] * gk[..., mu, nu]
                )
    T = np.fft.ifftn(that, axes=(0, 1, 2, 3)).real
    gamma = 0.5 * np.einsum("...rs,...smn->...rmn", ginv, T)

    riemann = np.zeros(m.shape + (4, 4, 4, 4))
    for pi in range(6):
        for qi in range(pi, 6):
            r, s = _ORACLE_PAIRS[pi]
            mm, nn = _ORACLE_PAIRS[qi]
            v = np.fft.ifftn(
                0.5
                * (
                    ik[s] * ik[mm] * gk[..., r, nn]
                    + ik[r] * ik[nn] * gk[..., s, mm]
                    - ik[s] * ik[nn] * gk[..., r, mm]
                    - ik[r] * ik[mm] * gk[..., s, nn]
                ),
                axes=(0, 1, 2, 3),
            ).real
            blocks = [(r, s, mm, nn)] if pi == qi else [(r, s, mm, nn), (mm, nn, r, s)]
            for a, b, c, d in blocks:
                riemann[..., a, b, c, d] = v
                riemann[..., b, a, c, d] = -v
                riemann[..., a, b, d, c] = -v
                riemann[..., b, a, d, c] = v

    gam_low = np.einsum("...pq,...qrn->...prn", g, gamma)
    e = np.einsum("...prn,...psm->...rsmn", gam_low, gamma)
    riemann += e - np.einsum("...rsnm->...rsmn", e)
    ricci = np.einsum("...ab,...asbn->...sn", ginv, riemann)
    scalar = np.einsum("...ab,...ab->...", ginv, ricci)
    return {"ginv": ginv, "gamma": gamma, "riemann": riemann, "ricci": ricci, "scalar": scalar}


def oracle_asd(R, frame=None):
    """phi - psi + gamma, trace-free, from epsilon contractions of the full
    tensor, optionally in a spatial frame[..., i, A]."""
    r0i0j = R[..., 0, 1:, 0, 1:]
    r0jkl = R[..., 0, 1:, 1:, 1:]
    rklpq = R[..., 1:, 1:, 1:, 1:]
    if frame is not None:
        f = frame
        r0i0j = np.einsum("...ia,...jb,...ij->...ab", f, f, r0i0j)
        r0jkl = np.einsum("...ja,...kb,...lc,...jkl->...abc", f, f, f, r0jkl)
        rklpq = np.einsum("...ka,...lb,...pc,...qd,...klpq->...abcd", f, f, f, f, rklpq)
    eps = EPSILON
    psi_raw = np.einsum("ikl,...jkl->...ij", eps, r0jkl)
    psi = 0.5 * (psi_raw + psi_raw.swapaxes(-1, -2))
    gam = 0.25 * np.einsum("ikl,jpq,...klpq->...ij", eps, eps, rklpq)
    form = r0i0j - psi + gam
    tr = np.einsum("...ii->...", form)
    return form - tr[..., None, None] * np.eye(3) / 3.0


def _rel(a, b):
    return float(np.max(np.abs(a - b))) / max(float(np.max(np.abs(b))), 1e-300)


def test_packed_engine_matches_full_tensor_oracle():
    m = random_metric((8, 8, 8, 8), seed=21)
    curv = C.christoffel_riemann(m)
    ref = oracle_curvature(m)
    assert np.max(np.abs(ref["riemann"])) > 1e-2  # genuinely curved sample
    for name, want in ref.items():
        got = getattr(curv, name)
        assert got.shape == want.shape, name
        assert _rel(got, want) < 1e-12, (name, _rel(got, want))
    assert _rel(C.asd_form_background(curv), oracle_asd(ref["riemann"])) < 1e-12


def test_shortcut_defect_is_a_typed_error(monkeypatch):
    curv = C.christoffel_riemann(random_metric((8, 8, 8, 8), seed=21))
    shortcut = C._ricci_contraction_shortcut
    monkeypatch.setattr(C, "_ricci_contraction_shortcut", lambda M: shortcut(M) + 1e-3)
    with pytest.raises(C.CurvatureDefectError) as info:
        C.asd_form_background(curv)
    assert abs(info.value.defect - 1e-3) < 1e-6


# ---------------------------------------------------------------------------
# Bitwise oracle: the eager engine
# ---------------------------------------------------------------------------
#
# The packed engine as it was before Ricci and scalar curvature became lazy,
# kept verbatim in arithmetic so that production must match it bit for bit:
# eager Ricci and scalar, all 40 Christoffel components in one FFT, the
# 36-slot pair matrix with the spatial Ricci contraction by tensordot,
# single-threaded FFTs, and the battery loop on a validated flat product
# with its norms taken inside the loop, each as the square root of numpy's
# pairwise sum of squares.  The battery differentiates each variation s
# once and feeds I +- eps s the derivatives scaled by +-eps; a general
# metric is its own variation at factor 1; the variation's derivatives
# come from its coefficients, scattered into the zero-padded half spectrum
# and inverted by whole irfftn calls.  Its index tables and helpers are its
# own; only the sampling of the variation is shared with production.

_E_SYM = tuple((a, b) for a in range(4) for b in range(a, 4))
_E_SYM_INDEX = np.empty((4, 4), dtype=int)
for _c, (_a, _b) in enumerate(_E_SYM):
    _E_SYM_INDEX[_a, _b] = _E_SYM_INDEX[_b, _a] = _c
_E_PACKED = tuple((P, Q) for P in range(6) for Q in range(P, 6))
_E_PACKED_INDEX = np.empty((6, 6), dtype=int)
for _c, (_P, _Q) in enumerate(_E_PACKED):
    _E_PACKED_INDEX[_P, _Q] = _E_PACKED_INDEX[_Q, _P] = _c
_E_PAIR_INDEX = np.zeros((4, 4), dtype=int)
_E_PAIR_SIGN = np.zeros((4, 4), dtype=int)
for _P, (_a, _b) in enumerate(_ORACLE_PAIRS):
    _E_PAIR_INDEX[_a, _b] = _E_PAIR_INDEX[_b, _a] = _P
    _E_PAIR_SIGN[_a, _b], _E_PAIR_SIGN[_b, _a] = 1, -1
_E_RIEMANN_INDEX = _E_PACKED_INDEX[_E_PAIR_INDEX[:, :, None, None], _E_PAIR_INDEX[None, None, :, :]]
_E_RIEMANN_SIGN = _E_PAIR_SIGN[:, :, None, None] * _E_PAIR_SIGN[None, None, :, :]
_E_STAR = np.array([5, 4, 3])
_E_HODGE_SIGN = np.array([1.0, -1.0, 1.0])
_E_SPATIAL_RICCI = np.zeros((3, 3, 6, 6))
for _k in range(3):
    for _l in range(3):
        for _i in range(3):
            if _i not in (_k, _l):
                _E_SPATIAL_RICCI[_k, _l, _E_PAIR_INDEX[_i + 1, _k + 1], _E_PAIR_INDEX[_i + 1, _l + 1]] += (
                    _E_PAIR_SIGN[_i + 1, _k + 1] * _E_PAIR_SIGN[_i + 1, _l + 1]
                )


def eager_sym_inverse(g):
    a = {(i, j): g[_E_SYM_INDEX[i, j]] for i in range(4) for j in range(4)}
    s0 = a[0, 0] * a[1, 1] - a[0, 1] * a[0, 1]
    s1 = a[0, 0] * a[1, 2] - a[0, 2] * a[0, 1]
    s2 = a[0, 0] * a[1, 3] - a[0, 3] * a[0, 1]
    s3 = a[0, 1] * a[1, 2] - a[0, 2] * a[1, 1]
    s4 = a[0, 1] * a[1, 3] - a[0, 3] * a[1, 1]
    s5 = a[0, 2] * a[1, 3] - a[0, 3] * a[1, 2]
    c5 = a[2, 2] * a[3, 3] - a[2, 3] * a[2, 3]
    c4 = a[1, 2] * a[3, 3] - a[2, 3] * a[1, 3]
    c3 = a[1, 2] * a[2, 3] - a[2, 2] * a[1, 3]
    c2 = a[0, 2] * a[3, 3] - a[2, 3] * a[0, 3]
    c1 = a[0, 2] * a[2, 3] - a[2, 2] * a[0, 3]
    c0 = a[0, 2] * a[1, 3] - a[1, 2] * a[0, 3]
    inv_det = 1.0 / (s0 * c5 - s1 * c4 + s2 * c3 + s3 * c2 - s4 * c1 + s5 * c0)
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
        (3, 3): a[0, 2] * s3 - a[1, 2] * s1 + a[2, 2] * s0,
    }
    return np.stack([cof[slot] for slot in _E_SYM]) * inv_det


def eager_derivatives(g_sym, periods):
    """(twice the first-kind symbols (4, 10, ...), the second-derivative
    block of the packed Riemann components (21, ...)) of the (10, ...)
    components g_sym: the part of the curvature linear in the metric."""
    import scipy.fft

    gk = scipy.fft.rfftn(g_sym, axes=(1, 2, 3, 4), workers=1)
    return eager_spectrum_derivatives(gk, g_sym.shape[1:], periods)


_E_CYL_PICKS = tuple(
    ("h00", ()) if b == 0 else ("alpha", (b - 1,)) if a == 0 else ("h", (a - 1, b - 1)) for a, b in _E_SYM
)


def eager_half_spectrum(field, picks, shape, periods):
    """The rfftn of the components picks = ((part, index), ...) of a sampled
    cylinder field, from its coefficients alone: every term scattered into
    the zero-padded grid spectrum F of the complex field, then the
    Hermitian part 1/2 (F(k) + conj F(-k)), times the number of grid
    points, on the half spectrum."""
    F = np.zeros((len(picks),) + tuple(shape), dtype=complex)
    modes = np.arange(field.grid.size) - field.grid.band
    where = (slice(None),) + np.ix_(*[modes % n for n in shape[1:]])
    for slot in field.terms.values():
        kt = round(slot["rate"].imag * periods[0] / (2 * math.pi)) % shape[0]
        F[:, kt][where] += np.stack([slot[part].data[index] for part, index in picks])
    mirror = F[(slice(None),) + np.ix_(*[-np.arange(n) % n for n in shape])]
    half = (F + np.conj(mirror))[..., : shape[3] // 2 + 1]
    half *= 0.5 * math.prod(shape)
    return half


def eager_spectrum_derivatives(gk, grid_shape, periods):
    """eager_derivatives of the field whose rfftn is gk."""
    import scipy.fft

    ik = []
    for mu in range(4):
        n = grid_shape[mu]
        if mu < 3:
            freq = 2 * math.pi * np.fft.fftfreq(n, d=1.0 / n) / periods[mu]
        else:
            freq = 2 * math.pi * np.fft.rfftfreq(n, d=1.0 / n) / periods[mu]
        shape = [1] * 4
        shape[mu] = len(freq)
        ik.append(1j * freq.reshape(shape))
    S = _E_SYM_INDEX

    that = np.empty((4, 10) + gk.shape[1:], dtype=complex)
    for s in range(4):
        for c, (mm, nn) in enumerate(_E_SYM):
            that[s, c] = ik[mm] * gk[S[s, nn]] + ik[nn] * gk[S[s, mm]] - ik[s] * gk[S[mm, nn]]
    first_kind = scipy.fft.irfftn(that, s=grid_shape, axes=(2, 3, 4, 5), workers=1)

    shat = np.empty((len(_E_PACKED),) + gk.shape[1:], dtype=complex)
    for col, (P, Q) in enumerate(_E_PACKED):
        r, s = _ORACLE_PAIRS[P]
        mm, nn = _ORACLE_PAIRS[Q]
        shat[col] = 0.5 * (
            ik[s] * ik[mm] * gk[S[r, nn]]
            + ik[r] * ik[nn] * gk[S[s, mm]]
            - ik[s] * ik[nn] * gk[S[r, mm]]
            - ik[r] * ik[mm] * gk[S[s, nn]]
        )
    return first_kind, scipy.fft.irfftn(shat, s=grid_shape, axes=(1, 2, 3, 4), workers=1)


def eager_pointwise(g_sym, derivatives, c):
    """(ginv_sym, gamma_sym, riemann_packed) of the metric components g_sym
    whose derivative stage is c times derivatives."""
    S = _E_SYM_INDEX
    first_kind, linear = derivatives
    ginv_sym = eager_sym_inverse(g_sym)
    gam_low = first_kind * (0.5 * c)
    gamma_sym = np.einsum("rs...,sc...->rc...", ginv_sym[S], gam_low)
    riemann = c * linear

    def gam_dot(lo, up):
        return np.einsum("q...,q...->...", gam_low[:, lo], gamma_sym[:, up])

    for col, (P, Q) in enumerate(_E_PACKED):
        r, s = _ORACLE_PAIRS[P]
        mm, nn = _ORACLE_PAIRS[Q]
        riemann[col] += gam_dot(S[r, nn], S[s, mm]) - gam_dot(S[r, mm], S[s, nn])
    return ginv_sym, gamma_sym, riemann


def eager_curvature(g, periods):
    """(ginv_sym, gamma_sym, riemann_packed, ricci_sym, scalar) of the
    (..., 4, 4) metric samples g, differentiated themselves (c = 1)."""
    S = _E_SYM_INDEX
    g_sym = np.stack([g[..., a, b] for a, b in _E_SYM])
    ginv_sym, gamma_sym, riemann = eager_pointwise(g_sym, eager_derivatives(g_sym, periods), 1.0)
    ricci_sym = np.zeros_like(g_sym)
    for c, (s, n) in enumerate(_E_SYM):
        for a in range(4):
            for b in range(4):
                sign = _E_RIEMANN_SIGN[a, s, b, n]
                if sign:
                    ricci_sym[c] += sign * ginv_sym[S[a, b]] * riemann[_E_RIEMANN_INDEX[a, s, b, n]]
    weights = np.array([1.0 if a == b else 2.0 for a, b in _E_SYM])
    scalar = np.einsum("c,c...,c...->...", weights, ginv_sym, ricci_sym)
    return ginv_sym, gamma_sym, riemann, ricci_sym, scalar


def eager_shortcut(M):
    c = np.tensordot(_E_SPATIAL_RICCI, M, axes=2)
    out = -c
    tr = np.einsum("kk...->...", c)
    for i in range(3):
        out[i, i] += 0.5 * tr
    return out


def eager_asd(riemann_packed):
    M = riemann_packed[_E_PACKED_INDEX]
    s = _E_HODGE_SIGN.reshape((3, 1) + (1,) * (M.ndim - 2))
    phi = M[:3, :3]
    psi_raw = 2 * s * M[_E_STAR, :3]
    psi = 0.5 * (psi_raw + psi_raw.swapaxes(0, 1))
    gam = s * s.swapaxes(0, 1) * M[_E_STAR][:, _E_STAR]
    scale = max(float(np.max(np.abs(M))), 1.0)
    assert float(np.max(np.abs(gam - eager_shortcut(M)))) <= 1e-10 * scale
    out = np.moveaxis(phi - psi + gam, (0, 1), (-2, -1))
    tr = np.einsum("...ii->...", out)
    out = out.copy()
    for i in range(3):
        out[..., i, i] -= tr / 3.0
    return out


def eager_norm(x):
    return math.sqrt(float(np.sum(np.square(x))))


def eager_fd_errors(ht, eps_values, shape):
    periods = (2 * math.pi,) + ht.grid.lengths
    sample_sym = C.sample_cyl_tensor(ht, shape, periods)
    sample = unpack(sample_sym)
    base = np.zeros(tuple(shape) + (4, 4))
    base[..., range(4), range(4)] = 1.0
    np.linalg.cholesky(base)
    exact = C.sample_cross_section_tensor(F.linearized_weyl(ht), shape, periods)
    den = eager_norm(exact)
    # The identity has zero derivatives: I +- eps s takes +-eps times the
    # derivative stage of s, formed from the coefficients of s.
    derivatives = eager_spectrum_derivatives(
        eager_half_spectrum(ht, _E_CYL_PICKS, shape, periods), tuple(shape), periods
    )
    out = []
    for eps in eps_values:
        plus, minus = base + eps * sample, base - eps * sample
        np.linalg.cholesky(plus)
        np.linalg.cholesky(minus)
        m_plus = eager_asd(eager_pointwise(pack(plus), derivatives, eps)[2])
        m_minus = eager_asd(eager_pointwise(pack(minus), derivatives, -eps)[2])
        num = eager_norm((m_plus - m_minus) / (2 * eps) - exact)
        assert den >= 1e-12 * max(1.0, eager_norm(sample))
        out.append(num / den)
    return out


# The complex step of complex_step_asd, and the largest relative error
# between its derivative and linearized_weyl that passes.
_COMPLEX_STEP = 1e-30
_COMPLEX_STEP_TOL = 1e-13


def complex_step_asd(ht, shape):
    """The derivative at the flat product metric along the variation ht of
    its anti-self-dual Weyl block, sampled on the grid (..., 3, 3), by the
    complex step: Im m(I + i h s) / h with h = _COMPLEX_STEP (Squire and
    Trapp, SIAM Review 40, 1998).  The curvature is analytic in the metric,
    and the step subtracts nothing, so the O(h^2) truncation lies far below
    rounding.  The identity has zero derivatives: the derivative stage of
    I + i h s is i h times that of s, formed from the coefficients of ht."""
    import scipy.fft

    periods = (2 * math.pi,) + ht.grid.lengths
    half = eager_half_spectrum(ht, _E_CYL_PICKS, shape, periods)
    derivatives = eager_spectrum_derivatives(half, tuple(shape), periods)
    sample = scipy.fft.irfftn(half, s=shape, axes=(1, 2, 3, 4), workers=1)
    c = 1j * _COMPLEX_STEP
    metric = unpack(sample) * c
    metric[..., range(4), range(4)] += 1.0
    np.linalg.cholesky(metric.real)
    return eager_asd(eager_pointwise(pack(metric), derivatives, c)[2]).imag / _COMPLEX_STEP


@pytest.mark.parametrize("seed", [7, 11])
def test_complex_step_witnesses_linearized_weyl(seed):
    # Seven digits sharper than the FD battery's 1e-6: a linearized_weyl
    # off by 1e-9 on the h00 variations alone passes verify linearization
    # --N 8, and fails here.
    shape = (8, 8, 8, 8)
    for case, ht in enumerate(verify.linearization_battery(seed=seed, band=1)):
        exact = C.sample_cross_section_tensor(F.linearized_weyl(ht), shape, (2 * math.pi,) + ht.grid.lengths)
        error = eager_norm(complex_step_asd(ht, shape) - exact) / eager_norm(exact)
        assert error < _COMPLEX_STEP_TOL, (case, error)


def test_engine_matches_eager_engine_bitwise():
    m = random_metric((8, 8, 8, 8), seed=21)
    curv = C.christoffel_riemann(m)
    want = eager_curvature(unpack(m.g), m.periods)
    names = ("ginv_sym", "gamma_sym", "riemann_packed", "ricci_sym", "scalar")
    for name, value in zip(names, want):
        assert np.array_equal(getattr(curv, name), value), name
    assert np.array_equal(C.asd_form_background(curv), eager_asd(want[2]))


# The battery runs case i in process i mod W, W = min(workers, cases): the
# caller and W - 1 forked workers, every case streamed inline in groups of
# at most _SLAB_POINTS points, whole time planes of 512 points when one
# fits and otherwise whole rows of 64 points of one plane: 100 points make
# one-row groups; 200 make row blocks of 3, 3 and 2 rows; 1100 make
# two-plane groups; 1600 make three-plane groups (3, 3, 2 planes of 8);
# the default 2048 make four-plane groups (4, 4 planes of 8; 4, 2 of 6);
# 4096 make one group of the whole grid.  6 time points make a short last
# group of one plane at 1100 and 1600.
@pytest.mark.parametrize("shape", [(8, 8, 8, 8), (6, 8, 8, 8)], ids=["even", "uneven"])
@pytest.mark.parametrize(
    "slab_points", [None, 100, 200, 1100, 1600, 4096], ids=["default", "100", "200", "1100", "1600", "4096"]
)
@pytest.mark.parametrize("workers", [1, 2, 3])
def test_fd_battery_matches_eager_loop_bitwise(monkeypatch, shape, slab_points, workers):
    monkeypatch.setattr(forks, "_processes", lambda: workers)
    if slab_points is not None:
        monkeypatch.setattr(C, "_SLAB_POINTS", slab_points)
    battery = verify.linearization_battery(seed=11, band=1)
    cases = [(battery[5], [1e-4, 5e-5]), (battery[2], [1e-4]), (battery[8], [5e-5])]
    got = C.fd_battery_errors(cases, shape)
    assert got == [eager_fd_errors(ht, eps_values, shape) for ht, eps_values in cases]


def streamed_case(ht, shape, eps_values):
    """What C._fd_differences streams for the variation ht, its groups put
    together: the sample (10, Nt, N1, N2, N3), the exact block and, per
    step, the difference of the anti-self-dual blocks, each (Nt, N1, N2,
    N3, 3, 3).  Every group holds at most _SLAB_POINTS points, and the
    groups cover the grid once."""
    periods = (2 * math.pi,) + ht.grid.lengths
    spectrum = C.cyl_tensor_spectrum(ht, shape, periods)
    exact = C._real_part_spectrum(F.linearized_weyl(ht), C._CROSS_PICKS, shape, periods)
    n = math.prod(shape)
    sample, block = np.full((10, n), np.nan), np.full((n, 3, 3), np.nan)
    differences = [np.full((n, 3, 3), np.nan) for _ in eps_values]
    covered = 0
    for points, s, b, diffs in C._fd_differences(periods, spectrum, exact, eps_values):
        assert points.stop - points.start <= C._SLAB_POINTS and len(diffs) == len(eps_values)
        covered += points.stop - points.start
        sample[:, points], block[points] = s, b
        for whole, diff in zip(differences, diffs):
            whole[points] = diff
    assert covered == n
    return (
        sample.reshape((10,) + tuple(shape)),
        block.reshape(tuple(shape) + (3, 3)),
        [d.reshape(tuple(shape) + (3, 3)) for d in differences],
    )


@pytest.mark.parametrize("eps", [1e-4, -1e-4, 5e-5])
def test_shared_derivatives_match_full_engine_to_rounding(eps):
    # The battery takes +-eps times the one derivative stage of s for
    # I +- eps s; a general metric transforms I + eps s itself, whose
    # rounding error is relative to the identity's unit entries, about
    # 2e-15 at 8^4 against an anti-self-dual block of order 1e-4.  The
    # battery's differences are read off its streamed groups.
    ht = verify.linearization_battery(seed=11, band=1)[5]
    periods = (2 * math.pi,) + ht.grid.lengths
    shape = (8, 8, 8, 8)
    sample, _, (shared,) = streamed_case(ht, shape, [eps])
    plus, minus = (
        C.asd_form_background(C.christoffel_riemann(C.MetricGrid4D(periods, pack(flat(shape)) + c * sample)))
        for c in (eps, -eps)
    )
    assert np.max(np.abs(plus)) > 1e-5
    assert np.max(np.abs(shared - (plus - minus))) <= 1e-14
    # A metric carries nothing but its samples.
    assert [f.name for f in dataclasses.fields(C.MetricGrid4D)] == ["periods", "g"]


def test_battery_decides_the_defect_once_over_the_grid(monkeypatch):
    # With no tolerance the first evaluation, of I + eps s, fails the
    # shortcut check.  Its defect and scale are maxima over the whole grid,
    # however the battery splits it: those of asd_form_background on the
    # same metric and its Riemann tensor (the eager engine's, bit for bit).
    monkeypatch.setattr(C, "_DEFECT_TOL", 0.0)
    monkeypatch.setattr(C, "_SLAB_POINTS", 1100)
    ht = verify.linearization_battery(seed=11, band=1)[5]
    shape, eps = (8, 8, 8, 8), 1e-4
    periods = (2 * math.pi,) + ht.grid.lengths
    with pytest.raises(C.CurvatureDefectError) as got:
        C.fd_linearization_errors(ht, [eps], shape=shape)
    derivatives = eager_spectrum_derivatives(eager_half_spectrum(ht, _E_CYL_PICKS, shape, periods), shape, periods)
    plus = pack(flat(shape) + eps * unpack(C.sample_cyl_tensor(ht, shape, periods)))
    curv = C.CurvatureGrid(C.MetricGrid4D(periods, plus), eager_pointwise(plus, derivatives, eps)[2], ())
    with pytest.raises(C.CurvatureDefectError) as want:
        C.asd_form_background(curv)
    assert want.value.defect > 0
    assert (got.value.defect, got.value.scale) == (want.value.defect, want.value.scale)


def test_battery_metric_error_matches_metric_grid(monkeypatch):
    # The battery validates each metric group by group and decides once,
    # with the error MetricGrid4D raises on the whole metric.
    monkeypatch.setattr(C, "_SLAB_POINTS", 1100)
    ht = verify.linearization_battery(seed=11, band=1)[5] * 2000.0
    shape, eps = (8, 8, 8, 8), 0.05
    message = "metric is not positive definite at some grid point"
    periods = (2 * math.pi,) + ht.grid.lengths
    with pytest.raises(ValueError, match=message):
        C.MetricGrid4D(periods, pack(flat(shape)) + eps * C.sample_cyl_tensor(ht, shape, periods))
    with pytest.raises(ValueError, match=message):
        C.fd_linearization_errors(ht, [eps], shape=shape)


# A fresh interpreter runs the full-grid engine on more groups than one
# and a two-process battery, then reports its thread count before and
# after, and whether concurrent.futures was ever imported.
THREAD_PROBE = """
import math, sys, threading
from indicyl import curvature as C, forks, verify
before = threading.active_count()
forks._processes = lambda: 2
C._SLAB_POINTS = 512
battery = verify.linearization_battery(seed=11, band=1)
periods = (2 * math.pi,) + battery[0].grid.lengths
shape = (8, 8, 8, 8)
metric = C._IDENTITY.reshape((10, 1, 1, 1, 1)) + 0.01 * C.sample_cyl_tensor(battery[5], shape, periods)
C.asd_form_background(C.christoffel_riemann(C.MetricGrid4D(periods, metric)))
C.fd_battery_errors([(ht, [1e-4]) for ht in battery[:2]], shape)
print(before, threading.active_count(), "concurrent.futures" in sys.modules)
"""


def test_engine_and_battery_start_no_threads():
    import os
    import subprocess
    import sys

    src = os.path.dirname(os.path.dirname(os.path.abspath(C.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", THREAD_PROBE], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    before, after, futures = proc.stdout.split()
    assert after == before and futures == "False"


def test_fd_battery_runs_every_case_itself_without_fork(monkeypatch):
    monkeypatch.setattr(forks, "_processes", lambda: 3)
    monkeypatch.delattr(os, "fork")
    battery = verify.linearization_battery(seed=11, band=1)
    cases, shape = [(ht, [1e-4]) for ht in battery[:3]], (8, 8, 8, 8)
    assert C.fd_battery_errors(cases, shape) == [C.fd_linearization_errors(ht, e, shape) for ht, e in cases]


# The two suites that fork, at the sizes of `verify linearization --N 8`
# (two cases) and `verify identities --N 8`.
_FORKING_SUITES = {
    "linearization": lambda: C.fd_battery_errors(
        [(ht, [1e-4]) for ht in verify.linearization_battery(seed=11, band=1)[:2]], (8, 8, 8, 8)
    ),
    "identities": lambda: F.identity_suite(band=3, seed=7),
}


# From Python 3.12, os.fork() in a process with more than one OS thread
# (numpy's BLAS pool starts one) warns in the parent, after the child
# exists.  Tier-1 makes warnings errors, so the fork helper silences
# exactly that warning at its fork; here a patched fork issues it on any
# Python.
@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
@pytest.mark.parametrize("suite", ["linearization", "identities"])
def test_suites_fork_under_the_multithreaded_fork_warning(monkeypatch, suite):
    import warnings

    fork, pids = os.fork, []

    def warning_fork():
        pid = fork()
        if pid:
            pids.append(pid)
            warnings.warn(
                f"This process (pid={os.getpid()}) is multi-threaded, use of fork() may lead to deadlocks in the child.",
                DeprecationWarning,
                stacklevel=2,
            )
        return pid

    run = _FORKING_SUITES[suite]
    monkeypatch.setattr(forks, "_processes", lambda: 1)
    want = run()
    monkeypatch.setattr(forks, "_processes", lambda: 2)
    monkeypatch.setattr(os, "fork", warning_fork)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DeprecationWarning, match="multi-threaded"):
            warnings.warn("This process is multi-threaded", DeprecationWarning)
        assert run() == want
    assert len(pids) == 1


# Runs the verify suite named in argv with two processes, and prints its
# exit code, the OS threads right after importing numpy, and those at
# every fork.
FORK_THREADS_PROBE = """
import contextlib, io, os, sys

def threads():
    with open("/proc/self/status") as f:
        return int(next(line for line in f if line.startswith("Threads:")).split()[1])

import numpy
numpy_threads = threads()
at_fork = []
os.register_at_fork(before=lambda: at_fork.append(threads()))
from indicyl import cli, forks
forks._processes = lambda: 2
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(["verify", sys.argv[1], "--N", "8"])
print(code, numpy_threads, *at_fork)
"""


# The README's count: both verify suites fork their worker with the OS
# threads that importing numpy starts (OpenBLAS's pool) and no more, so
# one thread when OPENBLAS_NUM_THREADS=1 is set before numpy loads.  A
# fresh process counts Threads: in /proc/self/status right after
# importing numpy and at every fork of a two-process run.
@pytest.mark.parametrize("suite", ["linearization", "identities"])
@pytest.mark.parametrize("blas_threads", [None, "1"])
def test_verify_suites_fork_with_only_the_threads_numpy_starts(suite, blas_threads):
    import subprocess
    import sys

    src = os.path.dirname(os.path.dirname(os.path.abspath(C.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    env.pop("OPENBLAS_NUM_THREADS", None)
    if blas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = blas_threads
    proc = subprocess.run([sys.executable, "-c", FORK_THREADS_PROBE, suite], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    code, numpy_threads, *at_fork = map(int, proc.stdout.split())
    assert code == 0
    assert at_fork == [numpy_threads]
    if blas_threads is not None:
        assert numpy_threads == 1


def test_fd_battery_of_no_cases_is_empty():
    assert C.fd_battery_errors([], (8, 8, 8, 8)) == []


def test_curvature_defect_error_survives_pickling():
    import pickle

    error = pickle.loads(pickle.dumps(C.CurvatureDefectError(1.25e-3, 2.5)))
    assert type(error) is C.CurvatureDefectError
    assert (error.defect, error.scale) == (1.25e-3, 2.5)
    assert str(error) == str(C.CurvatureDefectError(1.25e-3, 2.5))


# With no shortcut tolerance every nonzero variation fails its defect
# check, the zero variation passes it, and a large variation fails its
# metric check first.
def _failing_cases():
    ht = verify.linearization_battery(seed=11, band=1)[5]
    return {"zero": (ht * 0.0, [1e-4]), "defect": (ht, [1e-4]), "metric": (ht * 2000.0, [0.05])}


@pytest.mark.parametrize(
    "kinds,error",
    [
        (("zero", "defect", "metric", "defect"), C.CurvatureDefectError),
        (("zero", "zero", "metric", "defect"), ValueError),
        (("zero", "zero", "zero", "defect"), C.CurvatureDefectError),
    ],
    ids=["worker-defect", "worker-metric-before-own-defect", "own-defect"],
)
@pytest.mark.parametrize("workers", [1, 3])
def test_fd_battery_raises_the_lowest_failing_case(monkeypatch, kinds, error, workers):
    # Three processes run cases (0, 3), (1,) and (2,), one runs them all:
    # the lowest failing case may be a worker's, and its exception is raised with the type
    # and message it had there, as the one-process loop raises it.
    monkeypatch.setattr(C, "_DEFECT_TOL", 0.0)
    monkeypatch.setattr(forks, "_processes", lambda: workers)
    cases = [_failing_cases()[kind] for kind in kinds]
    with pytest.raises(error) as got:
        C.fd_battery_errors(cases, (8, 8, 8, 8))
    lowest = next(i for i, kind in enumerate(kinds) if kind != "zero")
    with pytest.raises(error) as want:
        C.fd_linearization_errors(*cases[lowest], shape=(8, 8, 8, 8))
    assert str(got.value) == str(want.value)
    if error is C.CurvatureDefectError:
        assert (got.value.defect, got.value.scale) == (want.value.defect, want.value.scale)


@pytest.mark.parametrize("below", [False, True], ids=["at", "below"])
def test_degenerate_threshold(monkeypatch, below):
    # A variation is degenerate, with a nan error, when the norm of its
    # exact block lies below _DEGENERATE_TOL max(1, |s|); at the threshold
    # it still has a relative error.  The norm of the exact block, the
    # second one taken, is replaced by the threshold or the float below it.
    norm, seen = C._sum_norm, []

    def norm_at_threshold(squares):
        seen.append(norm(squares))
        if len(seen) != 2:
            return seen[-1]
        threshold = C._DEGENERATE_TOL * max(1.0, seen[0])
        return math.nextafter(threshold, 0.0) if below else threshold

    monkeypatch.setattr(C, "_sum_norm", norm_at_threshold)
    ht = verify.linearization_battery(seed=11, band=1)[5]
    (err,) = C.fd_linearization_errors(ht, [1e-4], shape=(8, 8, 8, 8))
    assert len(seen) == (2 if below else 3)  # a degenerate error takes no third norm
    assert math.isnan(err) == below


def test_curvature_grid_holds_no_inverse_until_asked():
    m = random_metric((8, 8, 8, 8), seed=21)
    curv = C.christoffel_riemann(m)
    assert [f.name for f in dataclasses.fields(curv)] == ["metric", "riemann_packed", "first_kind"]
    assert "ginv_sym" not in vars(curv)
    assert np.array_equal(curv.ginv_sym, eager_sym_inverse(m.g))
    assert "ginv_sym" in vars(curv)


@pytest.mark.parametrize("shape", [(8, 8, 8, 8), (6, 8, 8, 8)], ids=["even", "uneven"])
@pytest.mark.parametrize("workers", [1, 2, 3])
def test_engine_matches_eager_engine_for_any_cpu_count(monkeypatch, shape, workers):
    # The engine runs in the calling process, on groups that do not depend
    # on the CPU count, so whatever forks._processes reports, its bits are
    # the eager engine's.  A group size of one point lowers the groups,
    # which would otherwise hold the whole grid, to the chunking rule's
    # floor: one row of 64 points.
    monkeypatch.setattr(forks, "_processes", lambda: workers)
    monkeypatch.setattr(C, "_SLAB_POINTS", 1)
    m = random_metric(shape, seed=21)
    curv = C.christoffel_riemann(m)
    want = eager_curvature(unpack(m.g), m.periods)
    for name, value in zip(("ginv_sym", "gamma_sym", "riemann_packed"), want):
        assert np.array_equal(getattr(curv, name), value), name
    assert np.array_equal(C.asd_form_background(curv), eager_asd(want[2]))


@pytest.mark.parametrize("workers", [1, 2])
def test_quadratic_chunks_match_eager_engine_bitwise(monkeypatch, workers):
    # 200-point groups split each time plane of an 8^4 grid unevenly, into
    # blocks of 3, 3 and 2 rows, the last group of each plane short; the
    # CPU count, as above, must not matter.
    monkeypatch.setattr(forks, "_processes", lambda: workers)
    monkeypatch.setattr(C, "_SLAB_POINTS", 200)
    m = random_metric((8, 8, 8, 8), seed=21)
    want = eager_curvature(unpack(m.g), m.periods)
    assert np.array_equal(C.christoffel_riemann(m).riemann_packed, want[2])


def test_curvature_working_set_is_bounded():
    # One 16^4 evaluation with its anti-self-dual block allocates at most
    # this many times its metric in traced arrays.  Every stage runs in
    # this process, so the count does not depend on the machine.  The
    # engine keeps 61 components (the first-kind symbols and the packed
    # Riemann tensor), 6.1 metrics, and no inverse metric; at 16^4 the
    # peak is 7.68.
    import tracemalloc

    ht = verify.linearization_battery(seed=11, band=2)[8]
    periods = (2 * math.pi,) + ht.grid.lengths
    sample = C.sample_cyl_tensor(ht, (16,) * 4, periods)
    m = C.MetricGrid4D(periods, pack(flat((16,) * 4)) + 1e-4 * sample)
    del sample
    tracemalloc.start()
    try:
        base, _ = tracemalloc.get_traced_memory()
        C.asd_form_background(C.christoffel_riemann(m))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - base < 8.0 * m.g.nbytes


def test_battery_case_working_set_is_bounded():
    # One 16^4 battery case allocates at most this many times its sample
    # (10 components, 5 MiB) in traced arrays.  No array of the case is
    # grid-sized: the peak is the variation's time pass and one 2048-point
    # group's buffers, 1.22 samples (1.37 with separate buffers for the
    # metric I + c s, the block of I - eps s and the whole 4x4 inverse
    # metric, 2.33 with 4096-point groups, 2.49 while the pruned inverse
    # held every component's spatial passes at once), where one grid-sized
    # exact block or difference would add 0.9.  The same case runs once
    # untraced first, so that one-time allocations (numpy's and the
    # summation tree's caches) are not counted and the reading does not
    # depend on which test ran before.
    # The bound may only be tightened.
    import tracemalloc

    ht = verify.linearization_battery(seed=11, band=2)[8]
    sample_nbytes = 10 * 16**4 * np.dtype(float).itemsize
    C.fd_linearization_errors(ht, [1e-4], shape=(16,) * 4)
    tracemalloc.start()
    try:
        base, _ = tracemalloc.get_traced_memory()
        C.fd_linearization_errors(ht, [1e-4], shape=(16,) * 4)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - base < 1.4 * sample_nbytes


def ifftn_evaluate_terms(field, picks, shape, periods):
    """The grid values of field components by one np.fft.ifftn of the
    whole complex mode box, real part kept: a witness for sampling at
    rounding level."""
    nt = shape[0]
    box = np.zeros((len(picks),) + tuple(shape), dtype=complex)
    modes = np.arange(field.grid.size) - field.grid.band
    where = (slice(None),) + np.ix_(*[modes % n for n in shape[1:]])
    for slot in field.terms.values():
        kt = round(slot["rate"].imag * periods[0] / (2 * math.pi)) % nt
        box[:, kt][where] += np.stack([slot[part].data[index] for part, index in picks])
    return (np.fft.ifftn(box, axes=(1, 2, 3, 4)) * np.prod(shape)).real


# The pruned transform skips lines that hold no coefficient; at n = 2 band + 2
# (band 3 on 8 points) almost every line holds one.
@pytest.mark.parametrize("n,band", [(8, 1), (16, 2), (8, 3)])
@pytest.mark.parametrize("workers", [1, 2])
def test_sampling_matches_ifftn_bitwise(n, band, workers):
    # A sampled field is bit for bit scipy's irfftn of its zero-padded half
    # spectrum, built here from the coefficients alone, and the battery,
    # which streams it from its Spectrum, holds the same sample, and the
    # same exact block as the sampled linearized_weyl.  One np.fft.ifftn of
    # the whole complex mode box agrees to rounding.  workers is the
    # reference's thread count.
    import scipy.fft

    shape = (n,) * 4
    h_picks = [("h", ij) for ij in F._SYM_PAIRS]

    def irfftn(field, picks, periods):
        half = eager_half_spectrum(field, picks, shape, periods)
        return scipy.fft.irfftn(half, s=shape, axes=(1, 2, 3, 4), workers=workers)

    # Case 8 mixes time frequencies 0, 1 and 2; case 9 has frequency 3.
    for ht in verify.linearization_battery(seed=11, band=band)[8:]:
        periods = (2 * math.pi,) + ht.grid.lengths
        want = irfftn(ht, _E_CYL_PICKS, periods)
        got = C.sample_cyl_tensor(ht, shape, periods)
        assert got.flags.c_contiguous
        assert np.array_equal(got, want)
        streamed, block, _ = streamed_case(ht, shape, [])
        assert np.array_equal(streamed, want)
        exact = C.sample_cross_section_tensor(F.linearized_weyl(ht), shape, periods)
        assert np.array_equal(block, exact)
        witness = ifftn_evaluate_terms(ht, _E_CYL_PICKS, shape, periods)
        assert np.max(np.abs(got - witness)) <= 4 * np.finfo(float).eps * np.max(np.abs(witness))
        cross, want = C.sample_cross_section_tensor(ht, shape, periods), irfftn(ht, h_picks, periods)
        for c, (i, j) in enumerate(F._SYM_PAIRS):
            assert np.array_equal(cross[..., i, j], want[c]) and np.array_equal(cross[..., j, i], want[c])


@pytest.mark.parametrize(
    "shape,band",
    [((16,) * 4, 2), ((8,) * 4, 1), ((8,) * 4, 3), ((6, 8, 8, 8), 2)],
    ids=["16^4-band2", "8^4-band1", "8^4-band3", "6x8^3-band2"],
)
@pytest.mark.parametrize("workers", [1, 2])
def test_pruned_inverse_matches_irfftn_bitwise(shape, band, workers):
    # Only an uneven grid tells a 1/N scaling from one split between the
    # axes; on 6 time points the two round differently.  workers is the
    # reference's thread count.
    import scipy.fft

    rng = np.random.default_rng(17)
    modes = np.arange(-band, band + 1)
    nt = shape[0]
    # One to five time frequencies, the Nyquist one included, and all of
    # them, which leaves the time axis as wide as the grid.
    sets = [(nt // 2,), (1, nt - 1), (0, 1, nt - 1), (1, 2, nt - 2, nt - 1), (0, 1, 2, nt - 2, nt - 1)]
    for times in sets + [tuple(range(nt))]:
        positions = (np.array(times),) + tuple(modes % n for n in shape[1:3]) + (np.arange(band + 1),)
        size = (3, len(times), 2 * band + 1, 2 * band + 1, band + 1)
        box = rng.standard_normal(size) + 1j * rng.standard_normal(size)
        half = np.zeros((3,) + shape[:3] + (shape[3] // 2 + 1,), dtype=complex)
        half[(slice(None),) + np.ix_(*positions)] = box
        want = scipy.fft.irfftn(half, s=shape, axes=(1, 2, 3, 4), workers=workers)
        got = C._pruned_irfftn(box, positions, shape)
        assert np.array_equal(got, want), times


def _box_with_zero_components(shape, band, seed=23):
    """A random box of 9 components at the modes -band..band, and its
    positions.  Rows 0 and 4 are +0.0, which the pruned inverse skips;
    rows 3 and 8 are -0.0, as a derivative of a zero component can be,
    which irfftn maps to -0.0 at some grid points, so the live rows run
    1-3 and 5-8."""
    rng = np.random.default_rng(seed)
    nt = shape[0]
    times = (0, 1, nt - 1)
    modes = np.arange(-band, band + 1)
    positions = (np.array(times),) + tuple(modes % n for n in shape[1:3]) + (np.arange(band + 1),)
    size = (9, len(times), 2 * band + 1, 2 * band + 1, band + 1)
    box = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    box[[0, 4]] = 0.0
    box[[3, 8]] = -0.0 - 0.0j
    return box, positions


def _bits(x):
    """x's float bits, so that -0.0 and +0.0 differ."""
    return np.ascontiguousarray(x).view(np.uint64)


# Chunks of 1, 2 and 3 components split the live runs 1-3 and 5-8
# differently, and chunks of 9 take each run whole.  On a (6, 8, 8, 10) grid,
# groups of 1300 points are two whole time planes and groups of 200 are
# blocks of two rows of one plane, which reuse their plane's first pass.
@pytest.mark.parametrize("chunk", [1, 2, 3, 9])
@pytest.mark.parametrize("slab_points", [1300, 200], ids=["planes", "row-blocks"])
def test_pruned_inverse_skips_zero_components_bitwise(monkeypatch, chunk, slab_points):
    # The pruned inverse transforms only the live components and sets the
    # others to +0.0, bit for bit what irfftn gives for them, into an
    # output that held NaN.
    import scipy.fft

    monkeypatch.setattr(C, "_INVERSE_ROWS", chunk)
    monkeypatch.setattr(C, "_SLAB_POINTS", slab_points)
    shape = (6, 8, 8, 10)
    box, positions = _box_with_zero_components(shape, band=2)
    half = np.zeros((len(box),) + shape[:3] + (shape[3] // 2 + 1,), dtype=complex)
    half[(slice(None),) + np.ix_(*positions)] = box
    want = scipy.fft.irfftn(half, s=shape, axes=(1, 2, 3, 4))
    assert not np.any(np.signbit(want[[0, 4]])) and np.any(np.signbit(want[[3, 8]]))
    stack = C._time_inverse(box, positions[0], shape[0])
    planes, rows, _ = C._group_planes(shape)
    assert (planes, rows) == ((2, 8) if slab_points == 1300 else (1, 2))
    invert = C._plane_inverse(stack, positions, shape, planes, rows)
    got = np.full(want.shape, np.nan)
    for times, block, _ in C._groups(shape):
        invert(times, block, got[:, times, block])
    assert np.array_equal(_bits(got), _bits(want))
    assert np.array_equal(_bits(C._pruned_irfftn(box, positions, shape)), _bits(want))


def test_pruned_inverse_transforms_contiguous_last_axes(monkeypatch):
    # Every transform of the spatial passes runs along axis -1 of a
    # C-contiguous input, where pocketfft copies no strided lines.
    import inspect

    monkeypatch.setattr(C, "_SLAB_POINTS", 200)
    monkeypatch.setattr(C, "_INVERSE_ROWS", 2)
    shape = (6, 8, 8, 10)
    box, positions = _box_with_zero_components(shape, band=2)
    stack = C._time_inverse(box, positions[0], shape[0])
    calls = []
    for name in ("fft", "ifft", "rfft", "irfft", "fftn", "ifftn", "rfftn", "irfftn"):
        transform = getattr(np.fft, name)

        def spy(*args, transform=transform, name=name, **kwargs):
            bound = inspect.signature(transform).bind(*args, **kwargs)
            bound.apply_defaults()
            a = bound.arguments["a"]
            axes = bound.arguments.get("axes", bound.arguments.get("axis"))
            calls.append((name, axes, a.ndim, a.flags.c_contiguous))
            return transform(*args, **kwargs)

        monkeypatch.setattr(np.fft, name, spy)
    planes, rows, _ = C._group_planes(shape)
    invert = C._plane_inverse(stack, positions, shape, planes, rows)
    out = np.empty((len(box),) + shape)
    for times, block, _ in C._groups(shape):
        invert(times, block, out[:, times, block])
    assert {name for name, *_ in calls} == {"ifft", "irfft"}
    for name, axis, ndim, contiguous in calls:
        assert axis in (-1, ndim - 1) and contiguous, (name, axis, ndim, contiguous)


@pytest.mark.parametrize("n,band", [(8, 1), (16, 2)])
def test_box_derivatives_match_rfftn_derivatives(n, band):
    # The box holds the spectrum of the field the sample holds, so the
    # derivative stage the battery forms on it agrees with the scipy
    # oracle's (eager_derivatives), transformed from the sample, up to the
    # sample's rounding, and its last 10 components are the sample.
    import scipy.fft

    shape = (n,) * 4
    for ht in verify.linearization_battery(seed=11, band=band):
        periods = (2 * math.pi,) + ht.grid.lengths
        sample = C.sample_cyl_tensor(ht, shape, periods)
        spectrum = C.cyl_tensor_spectrum(ht, shape, periods)
        full = scipy.fft.rfftn(sample, axes=(1, 2, 3, 4))
        box = (slice(None),) + np.ix_(*spectrum.positions)
        assert _rel(spectrum.coefficients, full[box]) <= 1e-13
        full[box] = 0.0
        assert np.max(np.abs(full)) <= 1e-13 * np.max(np.abs(spectrum.coefficients))
        stack = C._variation_stack(periods, spectrum)
        got = np.empty((len(stack),) + shape)
        C._plane_inverse(stack, spectrum.positions, shape, n, n)(slice(0, n), slice(0, n), got)
        want_kind, want_riemann = eager_derivatives(sample, periods)
        for a, b in zip([got[:21]] + np.split(got[21:61], 4), [want_riemann, *want_kind]):
            assert _rel(a, b) <= 1e-13
        assert np.array_equal(got[61:], sample)


def test_shortcut_matches_tensordot_form():
    M = np.random.default_rng(4).standard_normal((6, 6, 5, 7))
    M = M + M.swapaxes(0, 1)
    got = C._ricci_contraction_shortcut(M[3:, 3:])
    assert np.max(np.abs(got - eager_shortcut(M))) <= 1e-14 * np.max(np.abs(M))


def test_shortcut_is_bitwise_symmetric():
    # The anti-self-dual block reads the defect of each off-diagonal entry
    # against one side of the shortcut only.  That loses nothing because
    # c_kl and c_lk add the same packed components in the same order; a
    # shortcut that broke the symmetry would hide its other half there.
    rng = np.random.default_rng(29)
    for scale in 10.0 ** np.arange(-4, 5):
        for _ in range(3):
            Rs = scale * rng.standard_normal((21, 4096))
            shortcut = C._ricci_contraction_shortcut(Rs[C._PACKED_INDEX[3:, 3:]])
            assert np.array_equal(shortcut, shortcut.swapaxes(0, 1)), scale


def test_fd_norm_matches_linalg_norm():
    x = np.random.default_rng(5).standard_normal((16, 16, 16, 16, 3, 3))
    total = P._PairwiseSum(x.size)
    total.add(0, np.square(x))
    assert abs(C._sum_norm(total) - np.linalg.norm(x)) <= 1e-14 * np.linalg.norm(x)


# _PairwiseSum reproduces np.sum's pairwise order, and every battery norm
# depends on it; a numpy whose np.sum adds in another order fails here
# before any pinned digest moves.  One value of 2**26 among values below 1
# makes the total depend on how the values are grouped: with a square of
# 2**52 in a partial sum, every addend below 1 is rounded to an integer.
_SUM_ORDER = (
    "np.sum(np.square(x)) no longer adds in numpy's pairwise order as _PairwiseSum reproduces it "
    "(leaves of at most 128 values summed in 8 lanes, inner splits at n/2 rounded down to a multiple of 8)"
)


def _fed_square_sum(x, pieces):
    total = P._PairwiseSum(x.size)
    for lo, hi in pieces:
        total.add(lo, np.square(x.reshape(-1)[lo:hi]))
    return total


def _np_norm(x):
    return math.sqrt(float(np.sum(np.square(x))))


@settings(max_examples=60, deadline=None)
@given(
    size=st.integers(min_value=0, max_value=100_000),
    big=st.integers(min_value=0, max_value=100_000),
    cuts=st.lists(st.integers(min_value=0, max_value=100_000), max_size=12),
    order=st.randoms(use_true_random=False),
)
def test_square_sum_matches_np_sum_bitwise(size, big, cuts, order):
    x = np.random.default_rng(size).random(size)
    if size:
        x[big % size] = 2.0**26
    bounds = sorted({0, size} | {c % (size + 1) for c in cuts})
    pieces = list(zip(bounds, bounds[1:]))
    order.shuffle(pieces)
    assert C._sum_norm(_fed_square_sum(x, pieces)) == _np_norm(x), _SUM_ORDER


# Every grid that the CLI and the tests stream, times the 6 components of a
# cross-section sample, the 9 entries of a 3x3 block and the 10 of a
# metric, fed in 4096-value pieces, last piece first, with the value of
# 2**26 at four places in turn.  Each of 64 leaves, picked at random, also
# holds np.sum of its own values.
@pytest.mark.parametrize("grid", [(8,) * 4, (6, 8, 8, 8), (16,) * 4, (32,) * 4], ids=["8^4", "6x8^3", "16^4", "32^4"])
@pytest.mark.parametrize("components", [6, 9, 10])
def test_square_sum_matches_np_sum_on_every_grid(grid, components):
    rng = np.random.default_rng(components)
    x = rng.random(components * math.prod(grid))
    bounds = list(range(0, x.size, 4096)) + [x.size]
    pieces = list(zip(bounds, bounds[1:]))[::-1]
    for at in rng.integers(0, x.size, 4):
        kept, x[at] = x[at], 2.0**26
        total = _fed_square_sum(x, pieces)
        assert C._sum_norm(total) == _np_norm(x), _SUM_ORDER
        for leaf in rng.integers(0, len(total._sums), 64):
            lo, hi = total._bounds[leaf : leaf + 2]
            assert total._sums[leaf] == np.sum(np.square(x[lo:hi])), _SUM_ORDER
        x[at] = kept


def test_fd_battery_reads_no_lazy_or_unpacked_array(monkeypatch):
    # The battery needs only the packed components; Ricci, scalar curvature
    # and the unpacked tensors are for callers that ask for them.  It
    # streams the grid through the engine's helpers and builds no full-grid
    # metric, derivative stage or curvature, so it calls none of the public
    # engine functions, which a traced run wraps.
    def refuse(*args, **kwargs):
        raise AssertionError("lazy or unpacked curvature array or full-grid engine call in the FD battery")

    for name in ("ginv", "gamma", "gamma_sym", "riemann", "ricci", "ricci_sym", "scalar"):
        monkeypatch.setattr(C.CurvatureGrid, name, property(refuse))
    for name in ("MetricGrid4D", "CurvatureGrid", "christoffel_riemann", "asd_form_background"):
        monkeypatch.setattr(C, name, refuse)
    ht = verify.linearization_battery(seed=11, band=1)[7]
    (err,) = C.fd_linearization_errors(ht, [1e-4], shape=(8, 8, 8, 8))
    assert err < 1e-4


def test_fd_battery_makes_no_blas_calls(monkeypatch):
    # A threaded BLAS call leaves its threads spinning after it returns,
    # holding the CPUs the FFT workers need, and its split of a reduction
    # depends on the thread count, so the battery must make none.
    def refuse(*args, **kwargs):
        raise AssertionError("BLAS-backed call in the FD battery")

    for name in ("tensordot", "dot", "matmul"):
        monkeypatch.setattr(np, name, refuse)
    monkeypatch.setattr(np.linalg, "norm", refuse)
    ht = verify.linearization_battery(seed=11, band=1)[7]
    (err,) = C.fd_linearization_errors(ht, [1e-4], shape=(8, 8, 8, 8))
    assert err < 1e-4


# ---------------------------------------------------------------------------
# Curvature from the metric
# ---------------------------------------------------------------------------


def test_flat_product_curvature_vanishes():
    m = C.MetricGrid4D(PERIODS, pack(flat((8, 8, 8, 8))))
    curv = C.christoffel_riemann(m)
    assert np.max(np.abs(curv.gamma)) < 1e-12
    assert np.max(np.abs(curv.riemann)) < 1e-12


def test_block_christoffel_entries():
    shape = (16, 4, 4, 4)
    m = warped_metric(shape)
    curv = C.christoffel_riemann(m)
    tvals = 2 * math.pi * np.arange(shape[0]) / shape[0]
    gdot = 0.01 * np.cos(tvals)[:, None, None, None]
    for i in range(1, 4):
        assert np.max(np.abs(curv.gamma[..., 0, i, i] + 0.5 * gdot)) < 1e-13


def test_block_riemann_time_components():
    shape = (16, 4, 4, 4)
    m = warped_metric(shape)
    curv = C.christoffel_riemann(m)
    tvals = 2 * math.pi * np.arange(shape[0]) / shape[0]
    gdot = 0.01 * np.cos(tvals)[:, None, None, None]
    gddot = -0.01 * np.sin(tvals)[:, None, None, None]
    w = 1 + 0.01 * np.sin(tvals)[:, None, None, None]
    predicted = -0.5 * gddot + 0.25 * gdot * gdot / w
    assert np.max(np.abs(curv.riemann[..., 0, 1, 0, 1] - predicted)) < 1e-13
    # R_{0ijk} vanishes for block metrics depending on t only.
    assert np.max(np.abs(curv.riemann[..., 0, 1, 1:, 1:])) < 1e-13


def test_richardson_warped_riemann():
    # The quadratic term in the warped Riemann component is isolated by
    # comparing two amplitudes.
    shape = (16, 4, 4, 4)
    tvals = 2 * math.pi * np.arange(shape[0]) / shape[0]
    vals = {}
    for amp in (1e-3, 2e-3):
        curv = C.christoffel_riemann(warped_metric(shape, amp=amp))
        gddot = -amp * np.sin(tvals)[:, None, None, None]
        linear = -0.5 * gddot
        vals[amp] = np.max(np.abs(curv.riemann[..., 0, 1, 0, 1] - linear))
    # Residual after the linear part is the quadratic gdot*gdot term.
    ratio = vals[2e-3] / vals[1e-3]
    assert abs(ratio - 4.0) < 0.05


def riemann_symmetry_residuals(R):
    """Relative residuals of the Riemann symmetries and the first Bianchi
    identity of a full (..., 4, 4, 4, 4) tensor."""
    scale = max(float(np.max(np.abs(R))), 1e-300)
    return {
        "antisymmetry_first_pair": float(np.max(np.abs(R + R.swapaxes(-4, -3)))) / scale,
        "antisymmetry_second_pair": float(np.max(np.abs(R + R.swapaxes(-2, -1)))) / scale,
        "pair_exchange": float(np.max(np.abs(R - np.einsum("...abcd->...cdab", R)))) / scale,
        "first_bianchi": float(
            np.max(np.abs(R + np.einsum("...acdb->...abcd", R) + np.einsum("...adbc->...abcd", R)))
        )
        / scale,
    }


def test_riemann_symmetries_and_bianchi():
    grid = F.ModeGrid(band=2)
    rng = np.random.default_rng(5)
    ht = F.random_real_variation(rng, grid, kt_modes=(0, 1), parts=("h00", "alpha", "h")) * 0.002
    shape = (8, 8, 8, 8)
    sample = unpack(C.sample_cyl_tensor(ht, shape, PERIODS))
    m = C.MetricGrid4D(PERIODS, pack(flat(shape) + sample))
    curv = C.christoffel_riemann(m)
    res = riemann_symmetry_residuals(curv.riemann)
    for name, value in res.items():
        assert value < 1e-10, (name, value)


def test_metric_validation():
    g = np.zeros((2, 2, 2, 2, 4, 4))
    with pytest.raises(ValueError, match="positive definite"):
        C.MetricGrid4D(PERIODS, pack(g))


def _flat_with(point_value):
    g = flat((2, 2, 2, 2))
    g[1, 0, 1, 1] = point_value
    return pack(g)


@pytest.mark.parametrize(
    "periods,g,message",
    [
        (PERIODS, _flat_with(np.full((4, 4), np.nan)), "finite"),
        (PERIODS, _flat_with(np.diag([1.0, 1.0, np.inf, 1.0])), "finite"),
        ((2 * math.pi, math.inf, 1.0, 1.0), _flat_with(np.eye(4)), "periods"),
        ((2 * math.pi, 1.0, math.nan, 1.0), _flat_with(np.eye(4)), "periods"),
        # Symmetric with a positive diagonal, but indefinite.
        (PERIODS, _flat_with(np.eye(4) + np.diag([1.5, 1.5], 2) + np.diag([1.5, 1.5], -2)), "positive definite"),
        # Singular: positive semidefinite of rank 3.
        (PERIODS, _flat_with(np.diag([1.0, 1.0, 1.0, 0.0])), "positive definite"),
        (PERIODS, _flat_with(np.ones((4, 4))), "positive definite"),
        # (..., 4, 4) samples, not the 10 components.
        (PERIODS, flat((2, 2, 2, 2)), re.escape("shape (10, Nt, N1, N2, N3)")),
        # A grid without points, which has no groups to validate.
        (PERIODS, np.empty((10, 2, 0, 2, 2)), re.escape("shape (10, Nt, N1, N2, N3)")),
    ],
    ids=["nan-sample", "inf-sample", "inf-period", "nan-period", "indefinite", "singular", "rank-1", "unpacked", "empty"],
)
def test_metric_validation_rejects_bad_values(periods, g, message):
    with pytest.raises(ValueError, match=message):
        C.MetricGrid4D(periods, g)


@pytest.mark.parametrize("t", range(6))
def test_metric_validation_checks_every_slab(monkeypatch, t):
    # A group size of one point gives the chunking rule's floor: one row of
    # 4 points per group, 12 groups over the 6 time planes.
    monkeypatch.setattr(C, "_SLAB_POINTS", 1)
    for value, message in (
        (np.diag([1.0, 1.0, 1.0, -1.0]), "positive definite"),
        (np.diag([1.0, np.nan, 1.0, 1.0]), "finite"),
    ):
        g = flat((6, 2, 2, 2))
        g[t, 1, 0, 1] = value
        with pytest.raises(ValueError, match=message):
            C.MetricGrid4D(PERIODS, pack(g))


def test_metric_validation_matches_cholesky():
    # Sylvester's criterion accepts exactly the samples that have a
    # Cholesky factor, on a mix of definite and indefinite points.
    rng = np.random.default_rng(3)
    a = rng.standard_normal((400, 4, 4))
    samples = np.einsum("nij,nkj->nik", a, a) - rng.uniform(0.0, 1.5, 400)[:, None, None] * np.eye(4)
    for sample in samples:
        g = _flat_with(sample)
        try:
            np.linalg.cholesky(sample)
        except np.linalg.LinAlgError:
            with pytest.raises(ValueError, match="positive definite"):
                C.MetricGrid4D(PERIODS, g)
        else:
            C.MetricGrid4D(PERIODS, g)


# ---------------------------------------------------------------------------
# Weyl tensor and the anti-self-dual block
# ---------------------------------------------------------------------------


def weyl_tensor(curv):
    """Fully lowered Weyl tensor: the engine's Riemann tensor minus the
    Kulkarni-Nomizu parts of its traceless Ricci tensor and of its scalar
    curvature."""
    g = unpack(curv.metric.g)
    e = curv.ricci - 0.25 * curv.scalar[..., None, None] * g

    def kn(a, b):
        return (
            np.einsum("...ac,...bd->...abcd", a, b)
            + np.einsum("...bd,...ac->...abcd", a, b)
            - np.einsum("...ad,...bc->...abcd", a, b)
            - np.einsum("...bc,...ad->...abcd", a, b)
        )

    return curv.riemann - 0.5 * kn(e, g) - (curv.scalar / 24.0)[..., None, None, None, None] * kn(g, g)


def test_weyl_conformal_invariance_as_13_tensor():
    shape = (12, 12, 12, 12)
    grid = F.ModeGrid(band=1)
    rng = np.random.default_rng(8)
    ht = F.random_real_variation(rng, grid, kt_modes=(1,), parts=("h00", "alpha", "h")) * 0.004
    sample = unpack(C.sample_cyl_tensor(ht, shape, PERIODS))
    base = flat(shape)

    # Conformal factor exp(2 f) for a single-mode f: its Fourier series
    # decays factorially, so the truncation sits below rounding error.
    tvals = 2 * math.pi * np.arange(shape[0]) / shape[0]
    yvals = 2 * math.pi * np.arange(shape[1]) / shape[1]
    f = 0.02 * np.cos(tvals)[:, None, None, None] + 0.015 * np.sin(yvals)[None, :, None, None]
    conf = np.exp(2 * f)[..., None, None]

    g1 = base + sample
    g2 = (base + sample) * conf
    w1 = weyl_tensor(C.christoffel_riemann(C.MetricGrid4D(PERIODS, pack(g1))))
    w2 = weyl_tensor(C.christoffel_riemann(C.MetricGrid4D(PERIODS, pack(g2))))
    up1 = np.einsum("...ar,...rbcd->...abcd", np.linalg.inv(g1), w1)
    up2 = np.einsum("...ar,...rbcd->...abcd", np.linalg.inv(g2), w2)
    scale = max(np.max(np.abs(up1)), 1e-300)
    assert np.max(np.abs(up1 - up2)) / scale < 1e-8


def test_wminus_flat_product_zero():
    m = C.MetricGrid4D(PERIODS, pack(flat((4, 8, 8, 8))))
    form = C.asd_form_background(C.christoffel_riemann(m))
    assert np.max(np.abs(form)) < 1e-12


def test_weyl_vanishes_for_conformally_flat_metric():
    # exp(2 v) (dt^2 + delta) with a t-independent band-limited v is
    # conformal to the flat product, so the full Weyl tensor vanishes.
    shape = (4, 12, 12, 12)
    y = 2 * math.pi * np.arange(shape[1]) / shape[1]
    v = 0.03 * np.sin(y)[None, :, None, None] + 0.02 * np.cos(y)[None, None, :, None]
    g = flat(shape) * np.exp(2 * v)[..., None, None]
    curv = C.christoffel_riemann(C.MetricGrid4D(PERIODS, pack(g)))
    w = weyl_tensor(curv)
    assert np.max(np.abs(w)) < 1e-9 * max(1.0, np.max(np.abs(curv.riemann)))


def test_wminus_constant_anisotropic_cross_section():
    # A constant non-identity spatial metric is still flat, so the
    # anti-self-dual block vanishes, also in the g_Y-orthonormal frame of
    # the nontrivial Cholesky factor.
    shape = (4, 8, 8, 8)
    g = np.zeros(tuple(shape) + (4, 4))
    g[..., 0, 0] = 1.0
    gy = np.array([[2.0, 0.3, 0.0], [0.3, 1.5, 0.2], [0.0, 0.2, 1.0]])
    g[..., 1:, 1:] = gy
    curv = C.christoffel_riemann(C.MetricGrid4D(PERIODS, pack(g)))
    form = C.asd_form_background(curv)
    assert np.max(np.abs(form)) < 1e-12
    # The assembled form is trace-free to rounding error.
    assert np.max(np.abs(np.einsum("...ii->...", form))) < 1e-12
    frame = np.linalg.inv(np.linalg.cholesky(g[..., 1:, 1:])).swapaxes(-1, -2)
    assert np.max(np.abs(oracle_asd(curv.riemann, frame))) < 1e-12


def test_wminus_omega_equals_traceless_ricci():
    # For a t-independent cross-section metric the double-epsilon block
    # equals minus the traceless Ricci tensor of g_Y, computed here from the
    # spatial Riemann block in the same orthonormal frame.
    shape = (4, 12, 12, 12)
    y = 2 * math.pi * np.arange(shape[1]) / shape[1]
    f = 0.08 * np.sin(y)[None, :, None, None]
    g = np.zeros(tuple(shape) + (4, 4))
    g[..., 0, 0] = 1.0
    for i in range(1, 4):
        g[..., i, i] = np.exp(2 * f)
    # Not Einstein: exp(2f) delta has nonvanishing traceless Ricci.
    curv = C.christoffel_riemann(C.MetricGrid4D(PERIODS, pack(g)))

    gy = g[..., 1:, 1:]
    L = np.linalg.cholesky(gy)
    frame = np.linalg.inv(L).swapaxes(-1, -2)
    spatial = np.einsum(
        "...ka,...lb,...pc,...qd,...klpq->...abcd",
        frame,
        frame,
        frame,
        frame,
        curv.riemann[..., 1:, 1:, 1:, 1:],
    )
    ric = np.einsum("...ikil->...kl", spatial)
    tr = np.einsum("...kk->...", ric)
    e_frame = ric.copy()
    for i in range(3):
        e_frame[..., i, i] -= tr / 3.0

    gam = 0.25 * np.einsum(
        "ikl,jpq,...klpq->...ij", EPSILON, EPSILON, spatial
    )
    gam_tf = gam - np.einsum("...kk->...", gam)[..., None, None] * np.eye(3) / 3.0
    assert np.max(np.abs(gam_tf + e_frame)) < 1e-9 * max(1.0, np.max(np.abs(e_frame)))
    assert np.max(np.abs(e_frame)) > 1e-4  # genuinely non-Einstein sample


# ---------------------------------------------------------------------------
# Finite-difference linearization
# ---------------------------------------------------------------------------


def fd_check(ht, eps=1e-4, shape=(16, 16, 16, 16)):
    """The relative finite-difference error of the battery at a single step."""
    return C.fd_linearization_errors(ht, [eps], shape)[0]


def test_fd_single_tensor_mode():
    grid = F.ModeGrid(band=2)
    ht = F.CylTensor(grid)
    M = np.array([[0.3, 0.1, 0.0], [0.1, -0.2, 0.05], [0.0, 0.05, -0.1]])
    mode = F.FourierSymTensor.zero(grid)
    mode.data[(slice(None), slice(None)) + (grid.band + 1, grid.band, grid.band)] = M
    F.add_real_mode(ht, 1, h=mode)
    res = fd_check(ht, eps=1e-4, shape=(16, 16, 16, 16))
    assert res <= 1e-6


def test_fd_conformal_variation_matches_hessian_branch():
    # For {h00, 0, 0} the linearization reduces to the traceless Hessian of
    # h00 with coefficient -1/2.
    grid = F.ModeGrid(band=2)
    phi = F.FourierScalar.zero(grid)
    phi.data[(grid.band + 1, grid.band + 1, grid.band)] = 0.4
    ht = F.CylTensor(grid)
    F.add_real_mode(ht, 2, h00=phi)
    exact = F.linearized_weyl(ht)
    direct = F.CylTensor(grid)
    for (rk, d), slot in ht.terms.items():
        direct.add_term(slot["rate"], d, h=-0.5 * F.traceless_hessian(slot["h00"]))
    assert (exact - direct).norm() < 1e-12 * max(1.0, direct.norm())
    res = fd_check(ht, eps=1e-4, shape=(16, 16, 16, 16))
    assert res <= 1e-6


def test_fd_alpha_variation_matches_killing_branch():
    grid = F.ModeGrid(band=2)
    a = F.FourierOneForm.zero(grid)
    a.data[(slice(None), grid.band, grid.band + 1, grid.band)] = [0.2, 0.0, 0.4]
    ht = F.CylTensor(grid)
    F.add_real_mode(ht, 1, alpha=a)
    exact = F.linearized_weyl(ht)
    direct = F.CylTensor(grid)
    for (rk, d), slot in ht.terms.items():
        assert d == 0  # d/dt multiplies an exponential term by its rate
        direct.add_term(slot["rate"], d, h=0.5 * slot["rate"] * F.conf_killing(slot["alpha"]))
        direct.add_term(slot["rate"], d, h=-0.5 * F.conf_killing(F.star_d(slot["alpha"])))
    assert (exact - direct).norm() < 1e-12 * max(1.0, direct.norm())
    res = fd_check(ht, eps=1e-4, shape=(16, 16, 16, 16))
    assert res <= 1e-6


def test_fd_second_order_convergence():
    grid = F.ModeGrid(band=2)
    rng = np.random.default_rng(17)
    ht = F.random_real_variation(rng, grid, kt_modes=(1, 2), parts=("h00", "alpha", "h")) * 0.03
    errs = C.fd_linearization_errors(ht, [1e-4, 5e-5], shape=(16, 16, 16, 16))
    assert errs[0] <= 1e-6
    ratio = errs[0] / errs[1]
    assert ratio >= 3.5


def test_sampling_rejects_unresolved_rates():
    grid = F.ModeGrid(band=1)
    ht = F.CylTensor(grid)
    s = F.FourierScalar.zero(grid)
    s.data[(grid.band,) * 3] = 1.0
    ht.add_term(0.5, 0, h00=s)  # real growth rate is not t-periodic
    with pytest.raises(ValueError, match="imaginary"):
        C.sample_cyl_tensor(ht, (8, 8, 8, 8), PERIODS)
    ht2 = F.CylTensor(grid)
    ht2.add_term(0.0, 1, h00=s)  # polynomial factor cannot be sampled
    with pytest.raises(ValueError, match="degree 0"):
        C.sample_cyl_tensor(ht2, (8, 8, 8, 8), PERIODS)


def test_sampling_matches_pointwise_mode_sum():
    # Direct evaluation of sum c e^{i (w t + xi . x)} at every grid point,
    # on an anisotropic lattice with all three blocks and kt in {0, 1, 2}.
    lengths = (2 * math.pi, 3.0, 5.0)
    grid = F.ModeGrid(lengths, band=2)
    rng = np.random.default_rng(23)
    ht = F.random_real_variation(rng, grid, kt_modes=(0, 1, 2), parts=("h00", "alpha", "h"))
    n = 8
    periods = (2 * math.pi,) + lengths
    got = unpack(C.sample_cyl_tensor(ht, (n,) * 4, periods))

    t = np.arange(n) * periods[0] / n
    modes = np.arange(-grid.band, grid.band + 1)
    # e^{i xi x} at xi = 2 pi k / L and x = m L / n, for every side L.
    wave = np.exp(2j * math.pi * np.outer(modes, np.arange(n)) / n)
    want = np.zeros((n,) * 4 + (4, 4), dtype=complex)
    for slot in ht.terms.values():
        et = np.exp(slot["rate"] * t)
        comps = {(0, 0): slot["h00"].data}
        for i in range(3):
            comps[(0, i + 1)] = comps[(i + 1, 0)] = slot["alpha"].data[i]
            for j in range(3):
                comps[(i + 1, j + 1)] = slot["h"].data[i, j]
        for (a, b), c in comps.items():
            want[..., a, b] += np.einsum("pqr,px,qy,rz,t->txyz", c, wave, wave, wave, et)
    assert np.abs(want.imag).max() < 1e-12 * np.abs(want).max()
    assert np.abs(got - want.real).max() < 1e-12 * np.abs(want).max()


def _unit_h00(grid, value=1.0):
    """A cylinder tensor whose only part is h00 = value at the zero mode."""
    s = F.FourierScalar.zero(grid)
    s.data[(grid.band,) * 3] = value
    return s


def _sample_with_term(rate, value, periods=PERIODS):
    grid = F.ModeGrid(band=1)
    ht = F.CylTensor(grid).add_term(rate, 0, h00=_unit_h00(grid, value))
    return lambda: C.sample_cyl_tensor(ht, (8, 8, 8, 8), periods)


def _fd_with_step(eps):
    ht = F.random_real_variation(np.random.default_rng(3), F.ModeGrid(band=1), kt_modes=(1,))
    return lambda: C.fd_linearization_errors(ht, [eps], shape=(8, 8, 8, 8))


@pytest.mark.parametrize(
    "call,message",
    [
        (_sample_with_term(0.5j, 1.0), "rate 0.5j is not resolved by the period"),
        (_sample_with_term(5j, 1.0), "time frequency 5 not representable on 8 samples"),
        (_sample_with_term(0.0, 1j), "field is not real on the grid"),
        (
            lambda: C.sample_cyl_tensor(F.CylTensor(F.ModeGrid(band=1)), (8, 8, 8), PERIODS),
            "need four grid sizes and four periods",
        ),
        (
            lambda: C.sample_cyl_tensor(F.CylTensor(F.ModeGrid(band=1)), (8,) * 4, (2 * math.pi, 1.0, 1.0, 1.0)),
            "spatial periods must match the mode lattice",
        ),
        (
            lambda: C.sample_cyl_tensor(F.CylTensor(F.ModeGrid(band=3)), (4,) * 4, PERIODS),
            "grid size 4 cannot resolve band limit 3",
        ),
        (
            lambda: C.sample_cyl_tensor(F.CylTensor(F.ModeGrid(band=1)), (8,) * 4, PERIODS[:3] + (math.nan,)),
            f"periods must be four positive finite numbers, got {PERIODS[:3] + (math.nan,)}",
        ),
        (_sample_with_term(1j, 1.0, periods=(math.nan,) + PERIODS[1:]), "periods must be four positive finite numbers"),
        (_sample_with_term(1j, 1.0, periods=(-PERIODS[0],) + PERIODS[1:]), "periods must be four positive finite numbers"),
        (_fd_with_step(0.2), "finite-difference step must be small and positive"),
        (_fd_with_step(0.0), "finite-difference step must be small and positive"),
    ],
    ids=[
        "unresolved-rate",
        "time-frequency-above-nyquist",
        "not-real",
        "three-sizes",
        "periods-off-lattice",
        "grid-below-band",
        "nan-spatial-period",
        "nan-time-period",
        "negative-time-period",
        "step-too-large",
        "step-zero",
    ],
)
def test_sampling_and_battery_reject_bad_input(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()


@pytest.mark.parametrize(
    "h00,alpha,real",
    [
        (1 + 0.9e-9j, 0.0, True),
        (1 + 1.1e-9j, 0.0, False),
        (4 + 3.9e-9j, 0.0, True),
        (4 + 4.1e-9j, 0.0, False),
        (100.0, 0.9e-9j, True),
        (100.0, 1.1e-9j, False),  # each component against its own real part
    ],
    ids=["unit-below", "unit-above", "scaled-below", "scaled-above", "other-component-below", "other-component-above"],
)
def test_reality_check_threshold(h00, alpha, real):
    # A constant field whose imaginary part lies just below or just above
    # 1e-9 max(1, max |Re|), per component.
    grid = F.ModeGrid(band=1)
    a = F.FourierOneForm.zero(grid)
    a.data[(0,) + (grid.band,) * 3] = alpha
    ht = F.CylTensor(grid).add_term(0.0, 0, h00=_unit_h00(grid, h00), alpha=a)
    if real:
        assert C.sample_cyl_tensor(ht, (8,) * 4, PERIODS)[0, 0, 0, 0, 0] == pytest.approx(h00.real)
    else:
        with pytest.raises(ValueError, match=re.escape("field is not real on the grid; reality-symmetrize the input")):
            C.sample_cyl_tensor(ht, (8,) * 4, PERIODS)


def test_reality_symmetrized_field_is_checked_without_a_transform(monkeypatch):
    # Its anti-Hermitian part is exactly zero, so the one pruned inverse
    # that sampling runs is the sample's own.
    calls = []
    pruned = C._pruned_irfftn
    monkeypatch.setattr(C, "_pruned_irfftn", lambda *args: calls.append(args) or pruned(*args))
    ht = verify.linearization_battery(seed=11, band=1)[8]
    C.sample_cyl_tensor(ht, (8,) * 4, (2 * math.pi,) + ht.grid.lengths)
    assert len(calls) == 1


# The sampling tolerances at their boundaries: a value at the tolerance
# passes and the next float above it fails.  Where the tolerance times its
# scale is no difference of two floats near the lattice length, the largest
# difference that passes and the smallest that fails stand in for it.
@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_periodic_rate_tolerance_boundary(sign):
    assert C._term_time_index(complex(sign * 1e-12, 1.0), 8, 2 * math.pi) == 1
    with pytest.raises(ValueError, match="requires purely imaginary rates"):
        C._term_time_index(complex(sign * np.nextafter(1e-12, 1.0), 1.0), 8, 2 * math.pi)


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_resolved_rate_tolerance_boundary(sign):
    # With a period of 2 pi the time frequency of the rate i y is y exactly.
    assert C._term_time_index(complex(0.0, sign * 1e-9), 8, 2 * math.pi) == 0
    with pytest.raises(ValueError, match="is not resolved by the period"):
        C._term_time_index(complex(0.0, sign * np.nextafter(1e-9, 1.0)), 8, 2 * math.pi)


@pytest.mark.parametrize("scale", [0.5, 8.0])
def test_reality_tolerance_boundary(scale):
    # A constant field samples to its value exactly, so its imaginary part
    # may reach 1e-9 max(1, its real part) and no further.
    limit = 1e-9 * max(1.0, scale)
    for imag, real in ((limit, True), (np.nextafter(limit, 1.0), False)):
        ht = F.CylTensor(F.ModeGrid(band=1)).add_term(0.0, 0, h00=_unit_h00(F.ModeGrid(band=1), complex(scale, imag)))
        if real:
            assert C.sample_cyl_tensor(ht, (8,) * 4, PERIODS)[0, 0, 0, 0, 0] == scale
        else:
            with pytest.raises(ValueError, match="field is not real on the grid"):
                C.sample_cyl_tensor(ht, (8,) * 4, PERIODS)


@pytest.mark.parametrize("length", [2.0**-41, 4.0], ids=["tiny", "above-one"])
def test_lattice_tolerance_boundary(length):
    limit = 1e-12 * max(1.0, length)
    inside = length + math.floor(limit / math.ulp(length)) * math.ulp(length)
    outside = np.nextafter(inside, math.inf)
    assert inside - length <= limit < outside - length
    grid = F.ModeGrid((length,) * 3, band=1)
    C._check_sampling(grid, (8,) * 4, (1.0,) + (inside,) * 3)
    with pytest.raises(ValueError, match="spatial periods must match the mode lattice"):
        C._check_sampling(grid, (8,) * 4, (1.0,) + (outside,) * 3)


def test_sampling_rejects_a_slab_view():
    ht = F.random_real_variation(np.random.default_rng(3), F.ModeGrid(band=1), kt_modes=(1,))
    with pytest.raises(ValueError, match=re.escape("grid sampling needs the whole mode box, not the planes (0, 2)")):
        C.cyl_tensor_spectrum(slab(ht, 0, 2), (8,) * 4, (2 * math.pi,) * 4)
