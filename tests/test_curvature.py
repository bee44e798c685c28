import math

import numpy as np
import pytest

from indicyl import curvature as C
from indicyl import fields as F

PERIODS = (2 * math.pi,) * 4


def warped_metric(shape, amp=0.01, profile=np.sin):
    tvals = 2 * math.pi * np.arange(shape[0]) / shape[0]
    g = np.zeros(tuple(shape) + (4, 4))
    g[..., 0, 0] = 1.0
    w = 1 + amp * profile(tvals)[:, None, None, None]
    for i in range(1, 4):
        g[..., i, i] = w
    return C.MetricGrid4D(PERIODS, g)


def random_metric(shape, seed, amp=0.003):
    grid = F.ModeGrid(band=2)
    ht = F.random_real_variation(
        np.random.default_rng(seed), grid, kt_modes=(0, 1), parts=("h00", "alpha", "h")
    ) * amp
    sample = C.sample_cyl_tensor(ht, shape, PERIODS)
    return C.MetricGrid4D(PERIODS, C.MetricGrid4D.flat_product(shape).g + sample)


def curved_block_metric(shape):
    # dt^2 + g_Y with a non-diagonal, y-dependent, band-limited
    # cross-section metric.
    y = 2 * math.pi * np.arange(shape[1]) / shape[1]
    f = 0.08 * np.sin(y)[None, :, None, None] + 0.05 * np.cos(y)[None, None, None, :]
    g = np.zeros(tuple(shape) + (4, 4))
    g[..., 0, 0] = 1.0
    for i in range(1, 4):
        g[..., i, i] = 1.0 + f
    g[..., 1, 2] = g[..., 2, 1] = 0.1 * np.cos(y)[None, None, :, None]
    return C.MetricGrid4D(PERIODS, g)


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
    g = m.g
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
    eps = F._EPSILON
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


def test_framed_extractor_matches_full_tensor_oracle():
    m = curved_block_metric((4, 8, 8, 8))
    curv = C.christoffel_riemann(m)
    frame = np.linalg.inv(np.linalg.cholesky(m.g[..., 1:, 1:])).swapaxes(-1, -2)
    want = oracle_asd(oracle_curvature(m)["riemann"], frame)
    assert np.max(np.abs(want)) > 1e-3
    assert _rel(C.wminus_bilinear(curv), want) < 1e-12


def test_shortcut_defect_is_a_typed_error(monkeypatch):
    curv = C.christoffel_riemann(random_metric((8, 8, 8, 8), seed=21))
    shortcut = C._ricci_contraction_shortcut
    monkeypatch.setattr(C, "_ricci_contraction_shortcut", lambda M: shortcut(M) + 1e-3)
    with pytest.raises(C.CurvatureDefectError) as info:
        C.asd_form_background(curv)
    assert abs(info.value.defect - 1e-3) < 1e-6


# ---------------------------------------------------------------------------
# Curvature from the metric
# ---------------------------------------------------------------------------


def test_flat_product_curvature_vanishes():
    m = C.MetricGrid4D.flat_product((8, 8, 8, 8))
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


def test_riemann_symmetries_and_bianchi():
    grid = F.ModeGrid(band=2)
    rng = np.random.default_rng(5)
    ht = F.random_real_variation(rng, grid, kt_modes=(0, 1), parts=("h00", "alpha", "h")) * 0.002
    shape = (8, 8, 8, 8)
    sample = C.sample_cyl_tensor(ht, shape, PERIODS)
    m = C.MetricGrid4D(PERIODS, C.MetricGrid4D.flat_product(shape).g + sample)
    curv = C.christoffel_riemann(m)
    res = C.riemann_symmetry_residuals(curv)
    for name, value in res.items():
        assert value < 1e-10, (name, value)


def test_metric_validation():
    g = np.zeros((2, 2, 2, 2, 4, 4))
    with pytest.raises(ValueError, match="positive definite"):
        C.MetricGrid4D(PERIODS, g)
    bad = C.MetricGrid4D.flat_product((2, 2, 2, 2)).g.copy()
    bad[..., 0, 1] = 0.5
    with pytest.raises(ValueError, match="symmetric"):
        C.MetricGrid4D(PERIODS, bad + np.triu(np.ones((4, 4)), 1) * 0.1)


# ---------------------------------------------------------------------------
# Weyl tensor and the anti-self-dual block
# ---------------------------------------------------------------------------


def test_weyl_conformal_invariance_as_13_tensor():
    shape = (12, 12, 12, 12)
    grid = F.ModeGrid(band=1)
    rng = np.random.default_rng(8)
    ht = F.random_real_variation(rng, grid, kt_modes=(1,), parts=("h00", "alpha", "h")) * 0.004
    sample = C.sample_cyl_tensor(ht, shape, PERIODS)
    base = C.MetricGrid4D.flat_product(shape, PERIODS).g

    # Conformal factor exp(2 f) for a single-mode f: its Fourier series
    # decays factorially, so the truncation sits below rounding error.
    tvals = 2 * math.pi * np.arange(shape[0]) / shape[0]
    yvals = 2 * math.pi * np.arange(shape[1]) / shape[1]
    f = 0.02 * np.cos(tvals)[:, None, None, None] + 0.015 * np.sin(yvals)[None, :, None, None]
    conf = np.exp(2 * f)[..., None, None]

    g1 = C.MetricGrid4D(PERIODS, base + sample)
    g2 = C.MetricGrid4D(PERIODS, (base + sample) * conf)
    w1 = C.weyl_tensor(C.christoffel_riemann(g1))
    w2 = C.weyl_tensor(C.christoffel_riemann(g2))
    up1 = np.einsum("...ar,...rbcd->...abcd", np.linalg.inv(g1.g), w1)
    up2 = np.einsum("...ar,...rbcd->...abcd", np.linalg.inv(g2.g), w2)
    scale = max(np.max(np.abs(up1)), 1e-300)
    assert np.max(np.abs(up1 - up2)) / scale < 1e-8


def test_wminus_flat_product_zero():
    m = C.MetricGrid4D.flat_product((4, 8, 8, 8))
    form = C.wminus_bilinear(C.christoffel_riemann(m))
    assert np.max(np.abs(form)) < 1e-12


def test_weyl_vanishes_for_conformally_flat_metric():
    # exp(2 v) (dt^2 + delta) with a t-independent band-limited v is
    # conformal to the flat product, so the full Weyl tensor vanishes.
    shape = (4, 12, 12, 12)
    y = 2 * math.pi * np.arange(shape[1]) / shape[1]
    v = 0.03 * np.sin(y)[None, :, None, None] + 0.02 * np.cos(y)[None, None, :, None]
    g = C.MetricGrid4D.flat_product(shape, PERIODS).g * np.exp(2 * v)[..., None, None]
    curv = C.christoffel_riemann(C.MetricGrid4D(PERIODS, g))
    w = C.weyl_tensor(curv)
    assert np.max(np.abs(w)) < 1e-9 * max(1.0, np.max(np.abs(curv.riemann)))


def test_wminus_constant_anisotropic_cross_section():
    # A constant non-identity spatial metric is still flat, so the
    # anti-self-dual block vanishes; this exercises the orthonormal-frame
    # path with a nontrivial Cholesky factor.
    shape = (4, 8, 8, 8)
    g = np.zeros(tuple(shape) + (4, 4))
    g[..., 0, 0] = 1.0
    gy = np.array([[2.0, 0.3, 0.0], [0.3, 1.5, 0.2], [0.0, 0.2, 1.0]])
    g[..., 1:, 1:] = gy
    m = C.MetricGrid4D(PERIODS, g)
    form = C.wminus_bilinear(C.christoffel_riemann(m))
    assert np.max(np.abs(form)) < 1e-12
    # The assembled form is trace-free to rounding error.
    assert np.max(np.abs(np.einsum("...ii->...", form))) < 1e-12


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
    m = C.MetricGrid4D(PERIODS, g)
    curv = C.christoffel_riemann(m)

    gy = m.g[..., 1:, 1:]
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
        "ikl,jpq,...klpq->...ij", F._EPSILON, F._EPSILON, spatial
    )
    gam_tf = C._tf3(gam)
    assert np.max(np.abs(gam_tf + e_frame)) < 1e-9 * max(1.0, np.max(np.abs(e_frame)))
    assert np.max(np.abs(e_frame)) > 1e-4  # genuinely non-Einstein sample


# ---------------------------------------------------------------------------
# Finite-difference linearization
# ---------------------------------------------------------------------------


def test_fd_single_tensor_mode():
    grid = F.ModeGrid(band=2)
    ht = F.CylTensor(grid)
    M = np.array([[0.3, 0.1, 0.0], [0.1, -0.2, 0.05], [0.0, 0.05, -0.1]])
    mode = F.FourierSymTensor.zero(grid)
    mode.data[(slice(None), slice(None)) + (grid.band + 1, grid.band, grid.band)] = M
    F.add_real_mode(ht, 1, h=mode)
    res = C.fd_linearization_check(ht, eps=1e-4, shape=(16, 16, 16, 16))
    assert res["relative_error"] <= 1e-6


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
    res = C.fd_linearization_check(ht, eps=1e-4, shape=(16, 16, 16, 16))
    assert res["relative_error"] <= 1e-6


def test_fd_alpha_variation_matches_killing_branch():
    grid = F.ModeGrid(band=2)
    a = F.FourierOneForm.zero(grid)
    a.data[(slice(None), grid.band, grid.band + 1, grid.band)] = [0.2, 0.0, 0.4]
    ht = F.CylTensor(grid)
    F.add_real_mode(ht, 1, alpha=a)
    exact = F.linearized_weyl(ht)
    direct = F.CylTensor(grid)
    ht_dot = ht.t_derivative()
    for (rk, d), slot in ht_dot.terms.items():
        direct.add_term(slot["rate"], d, h=0.5 * F.conf_killing(slot["alpha"]))
    for (rk, d), slot in ht.terms.items():
        direct.add_term(slot["rate"], d, h=-0.5 * F.conf_killing(F.star_d(slot["alpha"])))
    assert (exact - direct).norm() < 1e-12 * max(1.0, direct.norm())
    res = C.fd_linearization_check(ht, eps=1e-4, shape=(16, 16, 16, 16))
    assert res["relative_error"] <= 1e-6


def test_fd_second_order_convergence():
    grid = F.ModeGrid(band=2)
    rng = np.random.default_rng(17)
    ht = F.random_real_variation(rng, grid, kt_modes=(1, 2), parts=("h00", "alpha", "h")) * 0.03
    errs = C.fd_linearization_errors(ht, [1e-4, 5e-5], shape=(16, 16, 16, 16))
    assert errs[0]["relative_error"] <= 1e-6
    ratio = errs[0]["relative_error"] / errs[1]["relative_error"]
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
    got = C.sample_cyl_tensor(ht, (n,) * 4, periods)

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
