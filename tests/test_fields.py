import math
import re

import numpy as np
import pytest

from indicyl import fields as F
from indicyl.fields import (
    CylOneForm,
    CylTensor,
    FourierOneForm,
    FourierScalar,
    FourierSymTensor,
    ModeGrid,
    adjoint_D,
    coclosed_projection,
    conf_killing,
    cyl_box_k,
    cyl_div,
    cyl_killing,
    div,
    e_prime,
    f_forward,
    f_star,
    grad,
    hessian,
    identity_suite,
    inner,
    laplacian,
    lie,
    linearized_weyl,
    slash_d,
    star_d,
    tf,
    trace,
    traceless_hessian,
)

GRID = ModeGrid(band=2)


def single_mode_scalar(k, value=1.0, grid=GRID):
    s = FourierScalar.zero(grid)
    s.data[tuple(grid.band + ki for ki in k)] = value
    return s


def single_mode_oneform(k, vec, grid=GRID):
    w = FourierOneForm.zero(grid)
    w.data[(slice(None),) + tuple(grid.band + ki for ki in k)] = np.asarray(vec, complex)
    return w


def single_mode_tensor(k, mat, grid=GRID):
    h = FourierSymTensor.zero(grid)
    h.data[(slice(None), slice(None)) + tuple(grid.band + ki for ki in k)] = np.asarray(
        mat, complex
    )
    return h


def rng():
    return np.random.default_rng(42)


# ---------------------------------------------------------------------------
# Basic operators on single modes
# ---------------------------------------------------------------------------


def test_laplacian_plane_wave():
    u = single_mode_scalar((1, 0, 0))
    lu = laplacian(u)
    assert np.allclose(lu.data, -u.data)


def test_star_d_single_mode():
    # omega = exp(i x) dy maps to i exp(i x) dz.
    w = single_mode_oneform((1, 0, 0), [0, 1, 0])
    sd = star_d(w)
    expected = single_mode_oneform((1, 0, 0), [0, 0, 1j])
    assert np.allclose(sd.data, expected.data)


def test_star_d_squared_is_hodge_laplacian():
    w = coclosed_projection(F.random_oneform(rng(), GRID))
    lhs = star_d(star_d(w))
    rhs = F.hodge_laplacian(w)
    assert np.max(np.abs(lhs.data - rhs.data)) < 1e-12 * max(1.0, rhs.norm())


def test_divergence_of_parallel_tensor():
    h = single_mode_tensor((0, 0, 0), np.diag([1.0, -2.0, 1.0]))
    assert div(h).norm() == 0.0


def test_slash_d_kills_pure_trace():
    u = F.random_scalar(rng(), GRID)
    ug = FourierSymTensor.zero(GRID)
    for i in range(3):
        ug.data[i, i] = u.data
    assert slash_d(ug).norm() < 1e-14 * max(1.0, u.norm())


def test_slash_d_trace_free():
    h = F.random_symtensor(rng(), GRID)
    assert trace(slash_d(h)).norm() < 1e-13 * max(1.0, h.norm())


def test_slash_d_kills_parallel():
    h = single_mode_tensor((0, 0, 0), np.diag([1.0, 1.0, -2.0]))
    assert slash_d(h).norm() == 0.0


def test_slash_d_helicity_eigenvalues():
    # On the divergence-free trace-free tensors of a single mode with
    # |xi|^2 = 1 the operator squares to 4, so its eigenvalues are +-2.
    k = (1, 0, 0)
    basis = [
        single_mode_tensor(k, np.diag([0.0, 1.0, -1.0])),
        single_mode_tensor(k, np.array([[0, 0, 0], [0, 0, 1], [0, 1, 0]], dtype=float)),
    ]
    mat = np.zeros((2, 2), dtype=complex)
    idx = tuple(GRID.band + ki for ki in k)
    for col, b in enumerate(basis):
        sd = slash_d(b)
        mat[0, col] = 0.5 * (sd.data[(1, 1) + idx] - sd.data[(2, 2) + idx])
        mat[1, col] = sd.data[(1, 2) + idx]
    eig = sorted(np.linalg.eigvals(mat).real)
    assert abs(eig[0] + 2.0) < 1e-12 and abs(eig[1] - 2.0) < 1e-12


def test_conf_killing_of_gradient():
    phi = single_mode_scalar((1, 1, 0))
    k = conf_killing(grad(phi))
    expected = 2.0 * hessian(phi).data.copy()
    lap = laplacian(phi)
    for i in range(3):
        expected[i, i] -= (2.0 / 3.0) * lap.data
    assert np.allclose(k.data, expected)


def test_e_prime_conformal_direction():
    u = F.random_scalar(rng(), GRID)
    ug = FourierSymTensor.zero(GRID)
    for i in range(3):
        ug.data[i, i] = u.data
    lhs = e_prime(ug)
    rhs = -0.5 * traceless_hessian(u)
    assert np.max(np.abs(lhs.data - rhs.data)) < 1e-13 * max(1.0, rhs.norm())


def test_e_prime_parallel_tt():
    h = single_mode_tensor((0, 0, 0), np.diag([1.0, -1.0, 0.0]))
    assert e_prime(h).norm() == 0.0


def box_k_3d(eta):
    """Divergence of the conformal Killing operator on a cross-section
    1-form, (delta d + 4/3 d delta) eta at curvature 0, from the mode
    symbols."""
    xi = eta.grid.xi
    xs = np.einsum("i...,i...->...", xi, eta.data)
    data = -eta.grid.xi_sq * eta.data + xi * xs[None] - (4.0 / 3.0) * xi * xs[None]
    return FourierOneForm(eta.grid, data)


def test_box_k_3d_gradient_eigenvalue():
    # box on d(phi) for a Hodge eigenfunction of eigenvalue mu gives
    # -(4/3) mu d(phi) at curvature 0.
    phi = single_mode_scalar((1, 2, 0))
    mu = 5.0
    lhs = box_k_3d(grad(phi))
    assert np.allclose(lhs.data, -(4.0 / 3.0) * mu * grad(phi).data)
    comp = div(conf_killing(grad(phi)))
    assert np.allclose(lhs.data, comp.data)


def test_inner_self_adjointness():
    h = F.random_symtensor(rng(), GRID)
    hp = F.random_symtensor(rng(), GRID)
    assert inner(slash_d(h), hp) == pytest.approx(inner(h, slash_d(hp)), rel=1e-12)


def test_reality_condition():
    u = F.random_scalar(rng(), GRID)
    assert np.allclose(u.data, u.conjugate_flip().data)


def test_symtensor_rejects_asymmetric_data():
    with pytest.raises(ValueError):
        FourierSymTensor(GRID, np.ones((3, 3) + (GRID.size,) * 3) * np.arange(9).reshape(3, 3, 1, 1, 1))


@pytest.mark.parametrize("scale", [0.5, 8.0])
def test_symtensor_tolerance_boundary(scale, monkeypatch):
    """Exactly symmetric data is accepted without computing an asymmetry;
    otherwise the asymmetry may reach 1e-12 max(1, max|d|) and no further."""
    absolute = np.abs
    calls = []

    def counting_abs(x):
        calls.append(1)
        return absolute(x)

    monkeypatch.setattr(np, "abs", counting_abs)
    data = np.zeros((3, 3) + (GRID.size,) * 3, dtype=complex)
    data[2, 2] = scale
    data[0, 1] = data[1, 0] = 0.25 * scale
    FourierSymTensor(GRID, data)
    assert calls == []

    limit = 1e-12 * max(1.0, scale)
    data[1, 0, 0, 0, 0] = 0.0
    for asym in (np.nextafter(limit, 0.0), limit):
        data[0, 1, 0, 0, 0] = asym
        FourierSymTensor(GRID, data)
    assert calls
    data[0, 1, 0, 0, 0] = np.nextafter(limit, 1.0)
    with pytest.raises(ValueError, match="symmetric tensor data is not symmetric"):
        FourierSymTensor(GRID, data)
    # A NaN asymmetry fails the comparison rather than passing it.
    data[0, 1, 0, 0, 0], data[1, 0, 0, 0, 0] = np.nan, 5.0
    with pytest.raises(ValueError, match="symmetric tensor data is not symmetric"):
        FourierSymTensor(GRID, data)


# ---------------------------------------------------------------------------
# Cylinder operators
# ---------------------------------------------------------------------------


def test_t_derivative_exact():
    # The cylinder operator P(d/dt) = d/dt.
    ht = CylTensor(GRID)
    h = tf(single_mode_tensor((1, 0, 0), np.eye(3)))
    ht.add_term(2.0, 2, h=h)
    dt = F._apply_cylinder(ht, CylTensor, lambda xi, x: ({}, x))
    # (t^2 e^{2t})' = 2 t^2 e^{2t} + 2 t e^{2t}
    keys = sorted(dt.terms.keys(), key=lambda kd: kd[1])
    assert [d for (_, d) in keys] == [1, 2]
    for key in keys:
        assert np.array_equal(dt.terms[key]["h"].data, 2.0 * h.data)


def test_linearized_weyl_kills_cylinder_killing():
    r = rng()
    omt = CylOneForm(GRID)
    omt.add_term(0.3, 0, f=F.random_scalar(r, GRID), omega=F.random_oneform(r, GRID))
    omt.add_term(-1.2 + 0.7j, 2, f=F.random_scalar(r, GRID), omega=F.random_oneform(r, GRID))
    kg = cyl_killing(omt)
    res = linearized_weyl(kg)
    assert res.norm() < 1e-12 * max(1.0, kg.norm())


def test_linearized_weyl_kills_flat_kernel():
    # 3 dt x dt - g_Y
    ht = CylTensor(GRID)
    ht.add_term(0.0, 0, h00=single_mode_scalar((0, 0, 0), 3.0), h=single_mode_tensor((0, 0, 0), -np.eye(3)))
    dpart, divpart = f_forward(ht)
    assert dpart.norm() == 0.0 and divpart.norm() == 0.0
    # t B for parallel trace-free B, plus its divergence
    htb = CylTensor(GRID)
    htb.add_term(0.0, 1, h=single_mode_tensor((0, 0, 0), np.diag([1.0, -1.0, 0.0])))
    dpart, divpart = f_forward(htb)
    assert dpart.norm() == 0.0 and divpart.norm() == 0.0


def test_adjoint_on_flat_cokernel():
    # (0, dt) and (t Z, 0) are annihilated.
    omt = CylOneForm(GRID)
    omt.add_term(0.0, 0, f=single_mode_scalar((0, 0, 0), 1.0))
    assert f_star(CylTensor(GRID), omt).norm() == 0.0
    tz = CylTensor(GRID)
    tz.add_term(0.0, 1, h=single_mode_tensor((0, 0, 0), np.diag([1.0, 0.0, -1.0])))
    assert adjoint_D(tz).norm() == 0.0


def test_adjoint_requires_cross_section_tracefree():
    bad = CylTensor(GRID)
    bad.add_term(0.0, 0, h=single_mode_tensor((1, 0, 0), np.eye(3)))
    with pytest.raises(ValueError, match="trace-free"):
        adjoint_D(bad)
    bad2 = CylTensor(GRID)
    bad2.add_term(0.0, 0, alpha=single_mode_oneform((1, 0, 0), [1, 0, 0]))
    with pytest.raises(ValueError, match="dt components"):
        adjoint_D(bad2)


def test_box_k_matches_divergence_of_killing():
    r = rng()
    omt = CylOneForm(GRID)
    omt.add_term(1.1, 1, f=F.random_scalar(r, GRID), omega=F.random_oneform(r, GRID))
    lhs = cyl_box_k(omt)
    rhs = cyl_div(cyl_killing(omt))
    assert (lhs - rhs).norm() < 1e-12 * max(1.0, rhs.norm())


def test_cyl_div_formula():
    # Divergence of h00 dt x dt for h00 = e^{lam t} phi is (lam phi) dt.
    phi = single_mode_scalar((1, 0, 0))
    ht = CylTensor(GRID)
    ht.add_term(1.5, 0, h00=phi)
    d = cyl_div(ht)
    (key,) = d.terms.keys()
    slot = d.terms[key]
    assert np.allclose(slot["f"].data, 1.5 * phi.data)
    assert slot["omega"].norm() == 0.0


def test_shared_zero_parts_are_read_only():
    # add_term fills every missing part with the grid's one cached zero
    # field of that type; writing into it raises, and adding into a slot
    # that holds it replaces the slot's part rather than the cached zero.
    ht = CylTensor(GRID)
    ht.add_term(0.5, 0, h=F.random_symtensor(rng(), GRID))
    (slot,) = ht.terms.values()
    assert slot["h00"] is FourierScalar._shared_zero(GRID)
    assert slot["alpha"] is FourierOneForm._shared_zero(GRID)
    with pytest.raises(ValueError, match="read-only"):
        slot["h00"].data[(GRID.band,) * 3] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        slot["alpha"].data += 1.0
    omt = CylOneForm(GRID)
    omt.add_term(0.5, 1, f=single_mode_scalar((1, 0, 0)))
    (slot,) = omt.terms.values()
    zero = slot["omega"]
    assert zero is FourierOneForm._shared_zero(GRID)
    with pytest.raises(ValueError, match="read-only"):
        zero.data[0] = 1.0
    w = single_mode_oneform((0, 1, 0), [1.0, 2.0, 3.0])
    omt.add_term(0.5, 1, omega=w)
    assert slot["omega"] is not zero and np.array_equal(slot["omega"].data, w.data)
    assert not zero.data.any()
    assert not FourierOneForm._shared_zero(GRID).data.any()


# The whole cylinder-operator surface on an anisotropic grid, with terms of
# degree 0, 1 and 2, a rate-0 term and two terms that share a rate, so that
# several input terms add into one output term.
_SLAB_GRID = ModeGrid((3.1, 4.7, 5.9), band=2)
_SLAB_TERMS = ((0.0, 1), (1.3, 0), (-0.4 + 0.9j, 1), (-0.4 + 0.9j, 2))


def _slab_input(name):
    r = np.random.default_rng(23)
    grid = _SLAB_GRID
    cls = CylOneForm if name in ("cyl_killing", "cyl_box_k") else CylTensor
    field = cls(grid)
    for rate, degree in _SLAB_TERMS:
        if name == "adjoint_D":
            parts = {"h": F.random_symtensor(r, grid, traceless=True)}
        elif cls is CylOneForm:
            parts = {"f": F.random_scalar(r, grid), "omega": F.random_oneform(r, grid)}
        else:
            parts = {
                "h00": F.random_scalar(r, grid),
                "alpha": F.random_oneform(r, grid),
                "h": F.random_symtensor(r, grid),
            }
        field.add_term(rate, degree, **parts)
    return field


# _SLAB_MODES of 1 makes one-plane slabs of the 5-plane box, 50 makes slabs
# of 2, 2 and 1 planes, and 10**9 one slab holding the whole box.
@pytest.mark.parametrize("name", ["linearized_weyl", "adjoint_D", "cyl_killing", "cyl_div", "cyl_box_k"])
def test_cylinder_operators_do_not_depend_on_slab_size(monkeypatch, name):
    field = _slab_input(name)
    outs = []
    for slab_modes in (1, 50, 10**9):
        monkeypatch.setattr(F, "_SLAB_MODES", slab_modes)
        outs.append(getattr(F, name)(field))
    first = outs[0]
    for out in outs[1:]:
        assert type(out) is type(first) and list(out.terms) == list(first.terms)
        for key, slot in first.terms.items():
            assert out.terms[key]["rate"] == slot["rate"]
            for part in first._parts:
                assert np.array_equal(out.terms[key][part].data, slot[part].data), (key, part)


def _leibniz_input(name, r):
    if name == "adjoint_D":
        return CylTensor, {"h": F.random_symtensor(r, GRID, traceless=True)}
    if name in ("cyl_killing", "cyl_box_k"):
        return CylOneForm, {"f": F.random_scalar(r, GRID), "omega": F.random_oneform(r, GRID)}
    return CylTensor, {
        "h00": F.random_scalar(r, GRID),
        "alpha": F.random_oneform(r, GRID),
        "h": F.random_symtensor(r, GRID),
    }


@pytest.mark.parametrize("name", ["linearized_weyl", "adjoint_D", "cyl_killing", "cyl_div", "cyl_box_k"])
def test_cylinder_operator_on_t_squared_term(name):
    # P(d/dt)(t^2 e^{lam t} X) = (t^2 P(lam) + 2 t P'(lam) + P''(lam)) X e^{lam t}.
    # P is at most quadratic in lam, so central differences of exponential
    # applications at lam and lam +- step give P' and P'' up to rounding.
    op = getattr(F, name)
    r = np.random.default_rng(5)
    cls, parts = _leibniz_input(name, r)
    lam, step = complex(r.standard_normal(), r.standard_normal()), 0.5

    def apply(rate, degree):
        field = cls(GRID)
        field.add_term(rate, degree, **parts)
        out = op(field)
        # Re-key every output degree as one rate-0 field so outputs at
        # different rates can be combined.
        return {
            d: type(out).from_parts(GRID, 0.0, 0, **{n: slot[n] for n in out._parts})
            for (_, d), slot in out.terms.items()
        }

    p0, pp, pm = (apply(rate, 0)[0] for rate in (lam, lam + step, lam - step))
    expected = {2: p0, 1: (pp - pm) * (1.0 / step), 0: (pp - p0 * 2.0 + pm) * (1.0 / step**2)}
    got = apply(lam, 2)
    scale = max(p0.norm(), pp.norm(), pm.norm())
    for d, want in expected.items():
        have = got.get(d, want * 0.0)
        assert (have - want).norm() <= 1e-12 * scale, (name, d)


@pytest.mark.parametrize("part", ["h00", "alpha"])
@pytest.mark.parametrize("scale", [0.25, 8.0])
def test_is_cross_section_tolerance_boundary(part, scale):
    """A dt part may reach 1e-10 max(1, norm) and no further."""

    def tensor(v):
        ht = CylTensor(GRID)
        h = single_mode_tensor((1, 0, 0), np.diag([scale, -scale, 0.0]))
        dt = single_mode_scalar((0, 1, 0), v) if part == "h00" else single_mode_oneform((0, 1, 0), [0.0, v, 0.0])
        ht.add_term(0.0, 0, h=h, **{part: dt})
        return ht

    limit = 1e-10 * max(1.0, tensor(0.0).norm())
    assert tensor(np.nextafter(limit, 0.0)).is_cross_section()
    assert tensor(limit).is_cross_section()
    assert not tensor(np.nextafter(limit, 1.0)).is_cross_section()


@pytest.mark.parametrize("scale", [0.25, 8.0])
def test_adjoint_trace_free_tolerance_boundary(scale):
    """The trace of an adjoint input may reach 1e-10 max(1, |h|) and no
    further."""

    def tensor(t):
        ht = CylTensor(GRID)
        ht.add_term(0.0, 0, h=single_mode_tensor((1, 0, 0), [[t, scale, 0.0], [scale, 0.0, 0.0], [0.0, 0.0, 0.0]]))
        return ht

    limit = 1e-10 * max(1.0, tensor(0.0).norm())
    adjoint_D(tensor(np.nextafter(limit, 0.0)))
    adjoint_D(tensor(limit))
    with pytest.raises(ValueError, match="trace-free"):
        adjoint_D(tensor(np.nextafter(limit, 1.0)))


def cyl_inner(a, b):
    """Pairing of two t-periodic cylinder fields over one period.

    Buckets with equal (rate, degree) pair as conj(a) . b; for real fields
    built from conjugate rate pairs this equals the t- and Y-integral of the
    pointwise contraction up to one overall positive constant.  Cylinder
    2-tensors contract with the full 4-dimensional index sum, so the mixed
    dt block enters with weight 2.
    """
    assert type(a) is type(b) and a.grid == b.grid
    weights = {"h00": 1.0, "alpha": 2.0, "h": 1.0, "f": 1.0, "omega": 1.0}
    total = 0.0 + 0.0j
    for key, slot in a.terms.items():
        other = b.terms.get(key)
        if other is None:
            continue
        for name in a._parts:
            total += weights[name] * np.sum(np.conj(slot[name].data) * other[name].data)
    return complex(total)


def _random_real_cross_section(r, kt_modes):
    """Real t-periodic trace-free cross-section-valued tensor."""
    Z = CylTensor(GRID)
    for kt in kt_modes:
        F.add_real_mode(Z, kt, h=F.random_symtensor(r, GRID, traceless=True))
    return Z


def test_adjoint_duality_pairing():
    # <D h, Z> over one period equals <h, D* Z> with the 4-dimensional
    # contraction; this pins every coefficient of the adjoint formula.
    r = rng()
    ht = F.random_real_variation(r, GRID, kt_modes=(0, 1, 2), parts=("h00", "alpha", "h"))
    Z = _random_real_cross_section(r, (0, 1, 2))
    lhs = cyl_inner(linearized_weyl(ht), Z)
    rhs = cyl_inner(ht, adjoint_D(Z))
    scale = max(abs(lhs), abs(rhs))
    assert abs(lhs - rhs) < 1e-12 * scale
    assert abs(lhs.imag) < 1e-12 * scale  # real fields pair to a real number


def test_divergence_killing_duality_pairing():
    # <2 div h, w> = -<h, K_cyl w>: the divergence block of the wrapped
    # operator is (minus half) adjoint to the cylinder conformal Killing
    # operator on trace-free tensors.
    r = rng()
    ht = F.random_real_variation(r, GRID, kt_modes=(0, 1), parts=("h00", "alpha", "h"))
    # Remove the 4-trace so the conformal-Killing trace term drops out.
    tracefree = CylTensor(GRID)
    for (rk, d), slot in ht.terms.items():
        v = (slot["h00"] + trace(slot["h"])) * 0.25
        h = slot["h"].copy()
        for i in range(3):
            h.data[i, i] -= v.data
        tracefree.add_term(slot["rate"], d, h00=slot["h00"] - v, alpha=slot["alpha"], h=h)
    omt = CylOneForm(GRID)
    for kt in (0, 1):
        fpart = F.random_scalar(r, GRID)
        wpart = F.random_oneform(r, GRID)
        if kt == 0:
            omt.add_term(0.0, 0, f=fpart.reality_symmetrize(), omega=wpart.reality_symmetrize())
        else:
            omt.add_term(1j * kt, 0, f=fpart, omega=wpart)
            omt.add_term(-1j * kt, 0, f=fpart.conjugate_flip(), omega=wpart.conjugate_flip())
    lhs = cyl_inner(cyl_div(tracefree) * 2.0, omt)
    rhs = -1.0 * cyl_inner(tracefree, cyl_killing(omt))
    assert abs(lhs - rhs) < 1e-12 * max(abs(lhs), abs(rhs))


# ---------------------------------------------------------------------------
# Kernels against their index formulas
# ---------------------------------------------------------------------------

EPSILON = np.zeros((3, 3, 3))
for _i, _j, _k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
    EPSILON[_i, _j, _k] = 1.0
    EPSILON[_i, _k, _j] = -1.0

LENGTHS = (3.1, 4.7, 5.9)


def index_formulas(xi, u, w, h):
    """(kernel name, arguments, value) for each flat kernel, the value
    written as np.einsum over the kernel's index formula."""

    def dot(a, b):
        return np.einsum("i...,i...->...", a, b)

    def g(v):
        return np.einsum("ij,...->ij...", np.eye(3), v)

    def sym(a):
        return a + a.swapaxes(0, 1)

    trace = np.einsum("ii...->...", h)
    lie = sym(1j * np.einsum("i...,j...->ij...", xi, w))
    return [
        ("_grad", (xi, u), 1j * np.einsum("i...,...->i...", xi, u)),
        ("_div", (xi, w), 1j * dot(xi, w)),
        ("_div", (xi, h), 1j * dot(xi, h)),
        ("_lap", (xi, u), -dot(xi, xi) * u),
        ("_lap", (xi, w), -dot(xi, xi) * w),
        ("_lap", (xi, h), -dot(xi, xi) * h),
        ("_star_d", (xi, w), 1j * np.einsum("ijk,j...,k...->i...", EPSILON, xi, w)),
        ("_lie", (xi, w), lie),
        ("_conf_killing", (xi, w), lie - g((2.0 / 3.0) * (1j * dot(xi, w)))),
        ("_trace", (h,), trace),
        ("_g", (u,), g(u)),
        ("_tf", (h,), h - g(trace / 3.0)),
        ("_slash_d", (xi, h), sym(1j * np.einsum("ikl,k...,lj...->ij...", EPSILON, xi, h))),
    ]


def random_components(r, tail):
    def c(*shape):
        return r.standard_normal(shape + tail) + 1j * r.standard_normal(shape + tail)

    h = c(3, 3)
    return c(), c(3), 0.5 * (h + h.swapaxes(0, 1))


@pytest.mark.parametrize("band", [1, 3, 15])
def test_kernels_match_index_formulas_on_mode_boxes(band):
    grid = ModeGrid(LENGTHS, band=band)
    xi = grid.xi
    u, w, h = random_components(np.random.default_rng(band), (grid.size,) * 3)
    for name, args, want in index_formulas(xi, u, w, h):
        got = getattr(F, name)(*args)
        assert got.shape == want.shape and np.array_equal(got, want), name
    assert np.array_equal(grid.xi_sq, np.einsum("i...,i...->...", xi, xi))
    want = -np.einsum("i...,j...->ij...", xi, xi) * u
    assert np.array_equal(hessian(FourierScalar(grid, u)).data, want)
    xs = np.einsum("i...,i...->...", xi, w)
    denom = grid.xi_sq.copy()
    denom[(band,) * 3] = 1.0
    want = w - xi * (xs / denom)
    want[(slice(None),) + (band,) * 3] = w[(slice(None),) + (band,) * 3]
    assert np.array_equal(coclosed_projection(FourierOneForm(grid, w)).data, want)


@pytest.mark.parametrize("k", [(0, 0, 0), (1, 0, 0), (0, 1, -1), (1, 2, 3), (3, -2, 5)])
def test_kernels_match_index_formulas_on_pencil_columns(k):
    """The pencil's single lattice vector xi has shape (3, 1).  einsum sums
    that contiguous length-3 axis in another order, (x0^2 + x2^2) + x1^2, so
    |xi|^2 may move by one ulp, and the Laplacian by that ulp times |x| plus
    the rounding of its own product."""
    xi = np.array([2 * math.pi * ki / L for ki, L in zip(k, LENGTHS)])[:, None]
    u, w, h = random_components(np.random.default_rng(sum(k) + 20), (9,))
    xi_sq = np.einsum("i...,i...->...", xi, xi)
    for name, args, want in index_formulas(xi, u, w, h):
        got = getattr(F, name)(*args)
        assert got.shape == want.shape, name
        if name == "_lap":
            x = args[1]
            assert np.all(np.abs(got - want) <= 2 * np.spacing(xi_sq) * np.abs(x)), name
        else:
            assert np.array_equal(got, want), name


# ---------------------------------------------------------------------------
# Identity suite
# ---------------------------------------------------------------------------


def test_identity_suite_passes():
    results = identity_suite(band=3, seed=7)
    assert len(results) == 11
    for r in results:
        assert r.ok, (r.name, r.residual)
        assert r.residual < 1e-10


def test_identity_suite_deterministic():
    a = identity_suite(band=2, seed=9)
    b = identity_suite(band=2, seed=9)
    assert [(r.name, r.residual) for r in a] == [(r.name, r.residual) for r in b]


def test_identity_suite_working_set_is_bounded():
    # The band-15 suite allocates at most this many band-15 symmetric
    # tensors in traced arrays.  Its peak is identity 9, which holds the
    # cylinder 1-form, its Killing image (3.3 tensors) and the curvature of
    # that image (3 tensors) besides the fields kept for identity 10; the
    # cylinder operators' temporaries are slab-sized.  The peak is 10.6
    # tensors (22.0 before the operators ran by slabs and the residuals were
    # streamed); the bound may only be tightened.
    import tracemalloc

    tensor_nbytes = 9 * 31**3 * np.dtype(complex).itemsize
    tracemalloc.start()
    try:
        base, _ = tracemalloc.get_traced_memory()
        identity_suite(band=15, seed=5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - base < 11.5 * tensor_nbytes


_GRID = ModeGrid(band=1)


@pytest.mark.parametrize(
    "call,error,message",
    [
        (lambda: ModeGrid(band=0), ValueError, "band limit must be >= 1"),
        (lambda: ModeGrid(lengths=(1.0, 0.0, 1.0)), ValueError, "lattice side lengths must be positive"),
        (lambda: ModeGrid(lengths=(math.nan, 1.0, 1.0)), ValueError, "lattice side lengths must be positive and finite"),
        (lambda: ModeGrid(lengths=(1.0, 1.0, math.inf)), ValueError, "lattice side lengths must be positive and finite"),
        (
            lambda: FourierScalar(_GRID, np.zeros((2, 2, 2))),
            ValueError,
            "FourierScalar data must have shape (3, 3, 3), got (2, 2, 2)",
        ),
        (lambda: FourierScalar.zero(_GRID) + FourierOneForm.zero(_GRID), ValueError, "field mismatch"),
        (
            lambda: FourierScalar.zero(_GRID) - FourierScalar.zero(ModeGrid(band=2)),
            ValueError,
            "field mismatch",
        ),
        (lambda: inner(FourierScalar.zero(_GRID), FourierOneForm.zero(_GRID)), ValueError, "field mismatch"),
        (
            lambda: inner(FourierScalar.zero(_GRID), FourierScalar.zero(ModeGrid((1.0, 1.0, 1.0), band=1))),
            ValueError,
            "field mismatch",
        ),
        (lambda: div(FourierScalar.zero(_GRID)), TypeError, "no divergence for FourierScalar"),
    ],
    ids=[
        "band-0",
        "zero-side",
        "nan-side",
        "infinite-side",
        "wrong-shape",
        "add-other-type",
        "subtract-other-grid",
        "inner-other-type",
        "inner-other-grid",
        "div-of-scalar",
    ],
)
def test_fields_reject_bad_input(call, error, message):
    with pytest.raises(error, match=re.escape(message)):
        call()
