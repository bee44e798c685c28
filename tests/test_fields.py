import math
import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

from indicyl import fields as F
from indicyl import forks
from indicyl import pairwise as P
from indicyl import verify
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
    laplacian,
    lie,
    linearized_weyl,
    slash_d,
    star_d,
    tf,
    trace,
    traceless_hessian,
)
from slabs import slab

GRID = ModeGrid(band=2)


def inner(a, b) -> complex:
    """L^2 pairing via mode sums over the whole box, full index contraction
    on tensors: the oracle of fields._SlabInner."""
    return complex(np.sum(np.conj(a.data) * b.data))


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
    # add_term fills every missing part with a shared zero field of that
    # type, a broadcast of the module's one read-only zero; writing into it
    # raises, and adding into a slot that holds it replaces the slot's part
    # rather than the shared zero.
    ht = CylTensor(GRID)
    ht.add_term(0.5, 0, h=F.random_symtensor(rng(), GRID))
    (slot,) = ht.terms.values()
    for name, kind in (("h00", FourierScalar), ("alpha", FourierOneForm)):
        assert F._is_shared_zero(slot[name]) and type(slot[name]) is kind and slot[name].grid == GRID
        assert not slot[name].data.flags.writeable and slot[name].data.strides == (0,) * slot[name].data.ndim
    assert not F._is_shared_zero(slot["h"])
    with pytest.raises(ValueError, match="read-only"):
        slot["h00"].data[(GRID.band,) * 3] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        slot["alpha"].data += 1.0
    omt = CylOneForm(GRID)
    omt.add_term(0.5, 1, f=single_mode_scalar((1, 0, 0)))
    (slot,) = omt.terms.values()
    zero = slot["omega"]
    assert F._is_shared_zero(zero) and zero.data.shape == (3,) + GRID.shape
    with pytest.raises(ValueError, match="read-only"):
        zero.data[0] = 1.0
    w = single_mode_oneform((0, 1, 0), [1.0, 2.0, 3.0])
    omt.add_term(0.5, 1, omega=w)
    assert not F._is_shared_zero(slot["omega"]) and np.array_equal(slot["omega"].data, w.data)
    assert not zero.data.any()
    assert not FourierOneForm._shared_zero(GRID).data.any()
    # One zero broadcast to the field's shape: no slab view's zeros hold memory.
    assert FourierSymTensor._shared_zero(GRID.slab(0, 2)).data.strides == (0,) * 5


def test_norms_skip_shared_zero_parts(monkeypatch):
    # norm and part_norm leave out the parts that are shared zeros, with
    # the bits of the sum over every part: a skipped 0.0 changes no sum of
    # squares.  Two terms, one of them all shared zeros but h.
    ht = linearized_weyl(F.random_real_variation(rng(), GRID, kt_modes=(0, 1), parts=("h00", "alpha", "h")))
    ht.add_term(0.25j, 0, h=F.random_symtensor(rng(), GRID))
    assert any(F._is_shared_zero(slot[n]) for slot in ht.terms.values() for n in ht._parts)
    want = math.sqrt(sum(sum(F._norm(slot[n].data) ** 2 for n in ht._parts) for slot in ht.terms.values()))
    want_parts = {
        name: math.sqrt(sum(F._norm(slot[name].data) ** 2 for slot in ht.terms.values())) for name in ht._parts
    }
    norm, seen = F._norm, []

    def recording_norm(x):
        seen.append(x)
        return norm(x)

    monkeypatch.setattr(F, "_norm", recording_norm)
    assert ht.norm() == want
    assert {name: ht.part_norm(name) for name in ht._parts} == want_parts
    # Every array measured is writeable and holds memory of its own: none
    # is a read-only broadcast of the shared zero.
    assert seen and all(x.flags.writeable and 0 not in x.strides for x in seen)


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
            parts = {"h": F.tf(F.random_symtensor(r, grid))}
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


# Slabs of one plane, of two, of the last plane and of the whole 5-plane box.
@pytest.mark.parametrize("name", ["linearized_weyl", "adjoint_D", "cyl_killing", "cyl_div", "cyl_box_k"])
def test_cylinder_operators_on_slab_views_match_the_box(name):
    # Every operator is elementwise in the mode, so on a slab view it gives
    # the box output's planes bit for bit, with the same terms and the same
    # shared zero parts.
    field = _slab_input(name)
    whole = getattr(F, name)(field)
    for lo, hi in ((0, 1), (1, 3), (4, 5), (0, 5)):
        out = getattr(F, name)(slab(field, lo, hi))
        assert type(out) is type(whole) and list(out.terms) == list(whole.terms)
        assert out.grid == _SLAB_GRID.slab(lo, hi) and out.grid.planes == (lo, hi)
        for key, slot in whole.terms.items():
            assert out.terms[key]["rate"] == slot["rate"]
            for part in whole._parts:
                got = out.terms[key][part]
                assert np.array_equal(got.data, slot[part].data[..., lo:hi, :, :]), (key, part)
                assert F._is_shared_zero(got) == F._is_shared_zero(slot[part]), (key, part)


def _square_sum_norm(data, pieces):
    """_norm of a complex components-first array from the real and imaginary
    parts of the given (component, planes lo:hi) runs, fed in that order."""
    size = data.shape[-1]
    real, imag = P._PairwiseSum(data.size), P._PairwiseSum(data.size)
    for c, lo, hi in pieces:
        offset = (c * size + lo) * size**2
        real.add(offset, np.square(data[c, lo:hi].real))
        imag.add(offset, np.square(data[c, lo:hi].imag))
    return math.sqrt(float(real.total() + imag.total()))


# The identity suite feeds each component's run of each slab, the squares
# of its real and imaginary parts to one _PairwiseSum each, and adds the
# two sums before the sqrt.  One value of 2**26 makes the total depend on how the values are
# grouped, so a feed in another order than numpy's pairwise sum fails.
@pytest.mark.parametrize("components,band", [(3, 3), (9, 3), (3, 7)], ids=["3x7^3", "9x7^3", "3x15^3"])
def test_square_sums_of_slab_runs_match_the_norm(components, band):
    r = np.random.default_rng(components * band)
    size = 2 * band + 1
    data = r.random((components,) + (size,) * 3) + 1j * r.random((components,) + (size,) * 3)
    for trial in range(4):
        data.flat[r.integers(data.size)] = 2.0**26 * (1j if trial % 2 else 1)
        cuts = [0, *sorted(r.choice(np.arange(1, size), 2, replace=False)), size]
        pieces = [(c, lo, hi) for c in range(components) for lo, hi in zip(cuts, cuts[1:])]
        r.shuffle(pieces)
        assert _square_sum_norm(data, pieces) == P._norm(data)


def test_slab_norm_matches_the_box_norm():
    # Slab views of an operator output, fed last slab first: the bits of
    # norm(), shared zero parts skipped as norm() skips them.
    whole = linearized_weyl(_slab_input("linearized_weyl"))
    assert any(F._is_shared_zero(slot[n]) for slot in whole.terms.values() for n in whole._parts)
    norm = F._SlabNorm()
    for lo, hi in ((3, 5), (1, 3), (0, 1)):
        norm.add(linearized_weyl(slab(_slab_input("linearized_weyl"), lo, hi)))
    assert norm.norm() == whole.norm()


# numpy sums a complex array over its floats in the same pairwise order,
# real and imaginary parts apart: leaves of at most 64 complex values,
# splits at multiples of 4.  One value of 2**26 (1 + i) makes the total
# depend on how the values are grouped, so a replica in another order
# fails.  The pieces cut through leaves and are fed in shuffled order.
@pytest.mark.parametrize("size", [1, 3, 64, 65, 200, 1024, 4096, 3 * 7**3, 9 * 15**3, 12345])
def test_complex_pairwise_sum_matches_np_sum(size):
    r = np.random.default_rng(size)
    x = r.random(size) + 1j * r.random(size)
    x[r.integers(size)] = 2.0**26 * (1 + 1j)
    for trial in range(3):
        cuts = np.unique(np.concatenate(([0, size], r.integers(0, size + 1, 2 + 3 * trial))))
        pieces = list(zip(cuts.tolist(), cuts[1:].tolist()))
        r.shuffle(pieces)
        total = P._PairwiseSum(size, dtype=complex)
        for lo, hi in pieces:
            total.add(lo, x[lo:hi])
        got, want = complex(total.total()), complex(np.sum(x))
        assert (got.real.hex(), got.imag.hex()) == (want.real.hex(), want.imag.hex())


def test_pairwise_sum_has_no_total_until_every_value_is_fed():
    total = P._PairwiseSum(10)
    total.add(0, np.ones(4))
    with pytest.raises(RuntimeError, match="6 of 10 values not fed"):
        total.total()
    total.add(4, np.ones(6))
    assert total.total() == 10.0


# _sorted_unique replaces np.unique in the summation plans and np.union1d
# (np.unique of the concatenation) in the sampling of a cylinder field,
# whose time positions are joined by their negatives modulo the grid size;
# both numpy functions import numpy.ma.  Values, order and dtype must match.
@given(st.lists(st.integers(-40, 40), max_size=16), st.integers(1, 17))
def test_sorted_unique_matches_np_unique_and_union1d(values, n):
    x = np.array(values, dtype=np.int64)
    a, b = x % n, -x % n
    for got, want in ((P._sorted_unique(x), np.unique(x)), (P._sorted_unique(np.concatenate((a, b))), np.union1d(a, b))):
        assert got.dtype == want.dtype and got.tolist() == want.tolist()


# Slab views fed in shuffled order, one plane, several planes and the
# whole box per slab (the whole box goes through the same leaves as any
# other piece): the bits of inner() and norm() on the box.
@pytest.mark.parametrize("band", [3, 7])
@pytest.mark.parametrize("planes", [1, 3, 100])
def test_slab_pairings_and_norms_match_the_box(band, planes):
    grid = ModeGrid(band=band)
    r = np.random.default_rng(band * planes)
    a, b, w = F.random_symtensor(r, grid), F.random_symtensor(r, grid), F.random_oneform(r, grid)
    slabs = [(lo, min(lo + planes, grid.size)) for lo in range(0, grid.size, planes)]
    r.shuffle(slabs)
    pairing, norm, oneform_norm = F._SlabInner(), F._SlabNorm(), F._SlabNorm()
    for lo, hi in slabs:
        pairing.add(slab(a, lo, hi), slab(b, lo, hi))
        norm.add(slab(a, lo, hi))
        oneform_norm.add(slab(w, lo, hi))
    assert pairing.value() == inner(a, b)
    assert norm.norm() == a.norm() and oneform_norm.norm() == w.norm()


def test_slab_pairings_reject_fields_of_different_slabs():
    a = F.random_symtensor(rng(), GRID)
    with pytest.raises(ValueError, match="field mismatch"):
        F._SlabInner().add(slab(a, 0, 2), slab(a, 2, 4))


def test_slab_norm_rejects_slab_views_of_different_fields():
    norm = F._SlabNorm()
    norm.add(slab(_slab_input("linearized_weyl"), 0, 1))
    with pytest.raises(ValueError, match="slab views of different fields"):
        norm.add(slab(_slab_input("cyl_killing"), 1, 2))


def _leibniz_input(name, r):
    if name == "adjoint_D":
        return CylTensor, {"h": F.tf(F.random_symtensor(r, GRID))}
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
        F.add_real_mode(Z, kt, h=F.tf(F.random_symtensor(r, GRID)))
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
        h = FourierSymTensor(GRID, slot["h"].data.copy())
        for i in range(3):
            h.data[i, i] -= v.data
        h00 = FourierScalar(GRID, slot["h00"].data - v.data)
        tracefree.add_term(slot["rate"], d, h00=h00, alpha=slot["alpha"], h=h)
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
        ("_curl", (xi, w), 1j * np.einsum("ijk,j...,k...->i...", EPSILON, xi, w)),
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
    assert coclosed_projection(FourierOneForm(grid, w)).data.tobytes() == want.tobytes()
    # The tensor-valued operators build their results without the symmetry
    # check of FourierSymTensor, so each must be exactly symmetric.
    U, W, H = FourierScalar(grid, u), FourierOneForm(grid, w), FourierSymTensor(grid, h)
    rate = 0.4 + 1.3j
    tensors = [lie(W), conf_killing(W), slash_d(H), hessian(U), tf(H), laplacian(H), F.hodge_laplacian(H)]
    tensors += [H + lie(W), H + -1.0 * slash_d(H), (0.3 - 2j) * H]
    cylinder = [
        linearized_weyl(CylTensor.from_parts(grid, rate, 2, h00=U, alpha=W, h=H)),
        adjoint_D(CylTensor.from_parts(grid, rate, 2, h=tf(H))),
        cyl_killing(CylOneForm.from_parts(grid, rate, 1, f=U, omega=W)),
    ]
    tensors += [slot["h"] for field in cylinder for slot in field.terms.values()]
    for d in (t.data for t in tensors):
        assert all(np.array_equal(d[i, j], d[j, i]) for i, j in ((0, 1), (0, 2), (1, 2)))


def test_coclosed_projection_keeps_the_zero_mode_as_it_is():
    # The projection zeroes its correction at the zero mode.  For a finite
    # field, leaving that out changes no bit: there xi is +0.0 and the
    # division by 1 + 0j drops a negative zero, so the correction is
    # already +0.0 + 0.0j.  A non-finite zero mode tells the two apart:
    # xi . w is NaN there, and only the zeroed correction keeps the value.
    grid = ModeGrid(band=2)
    w = random_components(np.random.default_rng(4), grid.shape)[1]
    centre = (slice(None),) + (grid.band,) * 3
    finite = coclosed_projection(FourierOneForm(grid, w)).data
    w[centre] = [math.inf, -math.inf + 1j, complex(math.nan, 2.0)]
    with np.errstate(invalid="ignore"):
        got = coclosed_projection(FourierOneForm(grid, w)).data
    assert got[centre].tobytes() == w[centre].tobytes()
    finite[centre] = w[centre]
    assert got.tobytes() == finite.tobytes()


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
    residuals = identity_suite(band=3, seed=7)
    assert sorted(residuals) == sorted(name for name, _ in verify._IDENTITIES)
    for name, residual in residuals.items():
        assert residual < 1e-10, (name, residual)


def test_identity_tolerance_boundary(monkeypatch):
    # An identity passes when its residual is below _IDENTITY_TOL, and
    # fails at it; the suite reports that tolerance for every identity.
    tol = verify._IDENTITY_TOL
    assert tol == 1e-10
    names = [name for name, _ in verify._IDENTITIES]
    for residual, passes in ((math.nextafter(tol, 0.0), True), (tol, False)):
        monkeypatch.setattr(F, "identity_suite", lambda band, seed, r=residual: dict.fromkeys(names, r))
        report, ok = verify.run_identities(n=8)
        assert all(row["tolerance"] == tol for row in report)
        assert [row["pass"] for row in report] == [passes] * len(names)
        assert ok is passes


def test_identity_suite_deterministic():
    a = identity_suite(band=2, seed=9)
    b = identity_suite(band=2, seed=9)
    assert list(a.items()) == list(b.items())


# The suite cuts the front half of the box (planes 0 .. band - 1) into
# slabs, each visited with its mirror slab, then the middle plane.
# _SLAB_MODES of 1 makes slabs of one plane; 50 makes slabs of 2 planes at
# bands 2 and 3 and of 1 at bands 4, 7 and 15; 100 of 4, 3, 2, 1 and 1
# planes (at most the band); 10**9 one slab holding the whole front half.
# Bands 7 and 15 are the benchmark's.
@pytest.mark.parametrize(
    "seed,band", [(9, 2), (9, 3), (9, 4), (385316, 2), (385316, 3), (385316, 4), (5, 7), (5, 15)]
)
def test_identity_suite_does_not_depend_on_slab_size(monkeypatch, band, seed):
    residuals = []
    for slab_modes in (1, 50, 100, 10**9):
        monkeypatch.setattr(F, "_SLAB_MODES", slab_modes)
        residuals.append({name: r.hex() for name, r in identity_suite(band=band, seed=seed).items()})
    assert all(hexes == residuals[0] for hexes in residuals[1:])


# The suite's three input families run in process i mod W of W = min(CPUs,
# 3) (see forks.run), each residual computed whole in one process: every
# bit is the same on 1, 2, 3 or 4 CPUs, and no worker is left.
@pytest.mark.parametrize("seed,band", [(9, 2), (9, 3), (9, 7), (385316, 2), (385316, 3), (385316, 7), (5, 15)])
def test_identity_suite_does_not_depend_on_process_count(monkeypatch, no_child_left, band, seed):
    residuals = []
    for workers in (1, 2, 3, 4):
        monkeypatch.setattr(forks, "_processes", lambda: workers)
        residuals.append({name: r.hex() for name, r in identity_suite(band=band, seed=seed).items()})
    assert all(hexes == residuals[0] for hexes in residuals[1:])


# The random fields are drawn straight into their arrays and symmetrized in
# place; the old construction below, which made them from whole-box
# temporaries, gives the same bits and leaves the generator in the same
# state.  The FD battery's pinned digests depend on random_real_variation.
def _flip(data):
    return np.conj(data[..., ::-1, ::-1, ::-1])


def _old_random(r, grid, comp_shape):
    shape = comp_shape + grid.shape
    data = r.standard_normal(shape) + 1j * r.standard_normal(shape)
    if comp_shape == (3, 3):
        data = 0.5 * (data + data.swapaxes(0, 1))
    return 0.5 * (data + _flip(data))


@pytest.mark.parametrize("band", [1, 4, 15])
def test_random_fields_drawn_in_place_match_the_old_construction(band):
    grid = ModeGrid(band=band)
    new, old = np.random.default_rng(band), np.random.default_rng(band)
    for draw, comp_shape in ((F.random_scalar, ()), (F.random_oneform, (3,)), (F.random_symtensor, (3, 3))):
        assert draw(new, grid).data.tobytes() == _old_random(old, grid, comp_shape).tobytes(), draw.__name__
    want = tf(FourierSymTensor(grid, _old_random(old, grid, (3, 3))))
    assert F.tf(F.random_symtensor(new, grid)).data.tobytes() == want.data.tobytes()
    assert new.standard_normal() == old.standard_normal()


def _replay_partitions(grid, r):
    """Slab partitions of grid's planes, each in a shuffled visit order: one
    plane per slab, random cuts (some slabs hold the middle plane with
    planes on both sides of it), and the whole box as one slab."""
    size = grid.size
    cuts = sorted({0, size, *r.integers(1, size, 3).tolist()})
    partitions = [[(p, p + 1) for p in range(size)], list(zip(cuts, cuts[1:])), [(0, size)]]
    for slabs in partitions:
        r.shuffle(slabs)
    return partitions


# A replayed field draws its slabs again from the generator states its skim
# kept: every slab, in any partition and visit order, alone or with its
# mirror slab, has the bits of the eagerly drawn field's slab (and of the
# old construction from whole-box temporaries), and each replay leaves the
# generator where it found it, however it was used since the skim.
@pytest.mark.parametrize("band", [1, 3, 7])
def test_replayed_slabs_match_the_eager_draw(band):
    grid, order = ModeGrid(band=band), np.random.default_rng(band)
    kinds = (
        (F.random_scalar, FourierScalar, ()),
        (F.random_oneform, FourierOneForm, (3,)),
        (F.random_symtensor, FourierSymTensor, (3, 3)),
    )
    for draw, kind, comp_shape in kinds:
        eager = np.random.default_rng(band + 100)
        want = draw(eager, grid)
        assert want.data.tobytes() == _old_random(np.random.default_rng(band + 100), grid, comp_shape).tobytes()
        between, after = eager.standard_normal(5), eager.standard_normal(3)
        for modes in (None, 1, 2 * grid.size**2):  # runs of the suite's slabs, of one plane, of two planes
            r = np.random.default_rng(band + 100)
            replay = F._ReplayedField(r, grid, kind, modes)
            assert r.standard_normal(5).tobytes() == between.tobytes()
            for slabs in _replay_partitions(grid, order):
                for lo, hi in slabs:
                    view = replay.pair(lo, hi)[0]
                    assert view.grid == grid.slab(lo, hi) and view.grid.planes == (lo, hi)
                    assert view.data.tobytes() == slab(want, lo, hi).data.tobytes(), (draw.__name__, modes, lo, hi)
            for lo, hi in replay.front_slabs:
                views = replay.pair(lo, hi)
                assert len(views) == (1 if lo + hi == grid.size else 2)
                for view, (a, b) in zip(views, ((lo, hi), (grid.size - hi, grid.size - lo))):
                    assert view.grid == grid.slab(a, b) and view.grid.planes == (a, b)
                    assert view.data.tobytes() == slab(want, a, b).data.tobytes(), (draw.__name__, modes, a, b)
            assert r.standard_normal(3).tobytes() == after.tobytes()


@pytest.mark.parametrize("kt_modes", [(0, 1), (1, 2), (0, 1, 2)])
def test_random_real_variation_matches_the_old_construction(kt_modes):
    parts = ("h00", "alpha", "h")
    comp_shapes = {"h00": (), "alpha": (3,), "h": (3, 3)}
    new, old = np.random.default_rng(sum(kt_modes)), np.random.default_rng(sum(kt_modes))
    got = F.random_real_variation(new, GRID, kt_modes=kt_modes, parts=parts)
    want = CylTensor(GRID)
    for kt in kt_modes:
        fresh = {n: F._PART_TYPES[n](GRID, _old_random(old, GRID, comp_shapes[n])) for n in parts}
        if kt == 0:
            want.add_term(0.0, 0, **{n: type(f)(GRID, 0.5 * (f.data + _flip(f.data))) for n, f in fresh.items()})
        else:
            want.add_term(1j * kt, 0, **fresh)
            want.add_term(-1j * kt, 0, **{n: type(f)(GRID, _flip(f.data)) for n, f in fresh.items()})
    assert list(got.terms) == list(want.terms)
    for key, slot in want.terms.items():
        assert got.terms[key]["rate"] == slot["rate"]
        for n in parts:
            assert got.terms[key][n].data.tobytes() == slot[n].data.tobytes(), (key, n)


def _identity_suite_peak(monkeypatch, band: int) -> float:
    """The traced peak of identity_suite(band, seed=5), in band-sized
    symmetric tensors, all of it run in this process, where tracemalloc
    sees it: a forked worker's allocations would not be traced.  A first
    run, untraced, makes the caches that later runs reuse (the summation
    trees and how slabs cover them), so the reading does not depend on the
    order of the tests."""
    import tracemalloc

    monkeypatch.setattr(forks, "_processes", lambda: 1)
    tensor_nbytes = 9 * (2 * band + 1) ** 3 * np.dtype(complex).itemsize
    identity_suite(band=band, seed=5)
    tracemalloc.start()
    try:
        base, _ = tracemalloc.get_traced_memory()
        identity_suite(band=band, seed=5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return (peak - base) / tensor_nbytes


def test_identity_suite_working_set_is_bounded(monkeypatch):
    # The band-15 suite allocates at most this many band-15 symmetric
    # tensors in traced arrays: its peak, 1.054, plus 10%.  No random input
    # is box-sized: each is skimmed for the generator states its runs start
    # from and replayed a mirror pair of slabs (3 planes each, and the
    # middle plane; one plane for identity 9) at a time, one pass per
    # family of inputs, and every identity streams its norms and pairings.
    # The peak falls in the pass over h, hp and u (1.04, read from
    # tracemalloc.reset_peak before each pass to the pass's end), which
    # holds the slabs of h (0.19) and of one more input, and the
    # accumulators of six identities; the block of box size that the suite
    # maps and frees untouched reads 1.  With h and hp drawn whole it read
    # 2.35.  The bound may only be tightened.
    assert _identity_suite_peak(monkeypatch, 15) < 1.18


def test_identity_suite_working_set_is_bounded_at_band_7(monkeypatch):
    # The band-7 box, 3,375 modes, is cut into front slabs of 7 planes, their
    # mirrors and the middle plane (identity 9: 3, 3 and 1 planes and their
    # mirrors), so the suite's operators never take the whole box: its
    # peak, 4.95 band-7 tensors, plus 10%.  With h and hp drawn whole it
    # read 5.47, and with the box as one slab 17.3.  The bound may only be
    # tightened.
    assert _identity_suite_peak(monkeypatch, 7) < 5.56


def test_mode_grid_xi_matches_the_box_meshgrid():
    # xi and xi_sq are built for the grid asked, the box or a slab view,
    # with the bits of the box's full meshgrid and its index-order dot.
    grid = ModeGrid(LENGTHS, band=4)
    axes = [2 * math.pi * np.arange(-4, 5) / L for L in LENGTHS]
    xi = np.array(np.meshgrid(*axes, indexing="ij"))
    xi_sq = xi[0] * xi[0]
    xi_sq += xi[1] * xi[1]
    xi_sq += xi[2] * xi[2]
    for lo, hi in ((0, 9), (0, 1), (3, 6), (8, 9), (2, 9), (0, 9)):
        view = grid if (lo, hi) == (0, 9) else grid.slab(lo, hi)
        assert view.xi.shape == (3, hi - lo, 9, 9) and view.xi_sq.shape == (hi - lo, 9, 9)
        assert view.xi.tobytes() == xi[:, lo:hi].tobytes()
        assert view.xi_sq.tobytes() == xi_sq[lo:hi].tobytes()


@pytest.mark.parametrize("lengths", [(2 * math.pi,) * 3, (2 * math.pi, 3.1, 0.7)])
def test_mode_grid_xi_sq_max_is_the_largest_xi_sq_bit_for_bit(lengths):
    for band in range(1, 16):
        grid = ModeGrid(lengths, band=band)
        assert grid.xi_sq_max.hex() == float(grid.xi_sq.max()).hex(), band


def test_identity_suite_holds_no_box_sized_xi(monkeypatch):
    # Every xi the band-15 suite builds on its box is one slab's (3 planes,
    # or 1 for the middle plane and for identity 9), and afterwards no grid
    # of the suite, box or slab view, holds an array other than its 1-D
    # lattice axes, or any dict.  Identity 11 runs on a band-1 box of its
    # own.  The suite runs in this process alone, so that the recorders see
    # identity 9 too.
    monkeypatch.setattr(forks, "_processes", lambda: 1)
    boxes, views, built = [], [], []
    init, make_view, make_xi = ModeGrid.__init__, ModeGrid.slab, ModeGrid.xi.fget

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        boxes.append(self)

    def recording_slab(self, lo, hi):
        views.append(make_view(self, lo, hi))
        return views[-1]

    def recording_xi(self):
        xi = make_xi(self)
        built.append((self.band, xi.shape[1]))
        return xi

    monkeypatch.setattr(ModeGrid, "__init__", recording_init)
    monkeypatch.setattr(ModeGrid, "slab", recording_slab)
    monkeypatch.setattr(ModeGrid, "xi", property(recording_xi))
    identity_suite(band=15, seed=5)
    planes = {n for band, n in built if band == 15}
    assert planes == {1, 3}
    assert [g.band for g in boxes] == [15, 1]

    def arrays(value):
        if isinstance(value, np.ndarray):
            yield value
        elif isinstance(value, (list, tuple)):
            for item in value:
                yield from arrays(item)

    assert len(views) > 2
    grids = [vars(g).values() for g in boxes + views]
    assert not any(isinstance(value, dict) for values in grids for value in values)
    assert all(a.ndim == 1 for values in grids for a in arrays(list(values)))


# The flat operators on a slab view: reading xi sums nothing, so only the
# operators that contract with xi, or square it, call _dot, once each.
_DOT_CALLS = {
    "grad": (FourierScalar, grad, 0),
    "star_d": (FourierOneForm, star_d, 0),
    "lie": (FourierOneForm, lie, 0),
    "slash_d": (FourierSymTensor, slash_d, 0),
    "hessian": (FourierScalar, hessian, 0),
    "div": (FourierOneForm, div, 1),
    "laplacian": (FourierSymTensor, laplacian, 1),
    "conf_killing": (FourierOneForm, conf_killing, 1),
    "hodge_laplacian": (FourierOneForm, F.hodge_laplacian, 1),
}


@pytest.mark.parametrize("name", list(_DOT_CALLS))
def test_flat_operators_on_a_slab_view_make_the_fewest_dots(monkeypatch, name):
    kind, operator, want = _DOT_CALLS[name]
    view = slab(kind(GRID, np.ones(kind._comp_shape + GRID.shape)), 1, 3)
    dot, calls = F._dot, []

    def counting_dot(a, b):
        calls.append(a.shape)
        return dot(a, b)

    monkeypatch.setattr(F, "_dot", counting_dot)
    assert view.grid.xi.shape == (3, 2, 5, 5) and calls == []
    operator(view)
    assert len(calls) == want


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
        (lambda: div(FourierScalar.zero(_GRID)), TypeError, "no divergence for FourierScalar"),
    ],
    ids=[
        "band-0",
        "zero-side",
        "nan-side",
        "infinite-side",
        "wrong-shape",
        "add-other-type",
        "div-of-scalar",
    ],
)
def test_fields_reject_bad_input(call, error, message):
    with pytest.raises(error, match=re.escape(message)):
        call()


_VIEW = slab(F.random_symtensor(rng(), GRID), 1, 3)


@pytest.mark.parametrize(
    "call",
    [
        lambda: _VIEW.conjugate_flip(),
        lambda: _VIEW.reality_symmetrize(),
        lambda: F.random_scalar(rng(), _VIEW.grid),
        lambda: F.random_oneform(rng(), _VIEW.grid),
        lambda: F.random_symtensor(rng(), _VIEW.grid),
        lambda: _VIEW.grid.slab(0, 1),
    ],
    ids=["conjugate_flip", "reality_symmetrize", "random_scalar", "random_oneform", "random_symtensor", "slab"],
)
def test_whole_box_operations_reject_slab_views(call):
    with pytest.raises(ValueError, match=re.escape("needs the whole mode box, not the planes (1, 3)")):
        call()


# At band 2 the box has planes 0 to 4; hi is clipped to 5 before the check.
@pytest.mark.parametrize("lo,hi", [(5, 3), (7, 9), (-1, 2), (2, 2)])
def test_slab_views_reject_an_empty_or_outside_range(lo, hi):
    with pytest.raises(ValueError, match=re.escape(f"0 <= lo < hi <= 5, got ({lo}, {hi})")):
        GRID.slab(lo, hi)


def test_fields_of_different_slabs_do_not_mix():
    # A slab view is made on each call, and views of the same planes are
    # equal, so fields on one slab mix; views of other planes differ even at
    # one size, and a one-plane slab never broadcasts against a wider one.
    h = F.random_symtensor(rng(), GRID)
    assert slab(h, 0, 2).grid == GRID.slab(0, 2) and GRID.slab(0, 2) != GRID.slab(2, 4)
    assert GRID.slab(0, 2) != GRID and GRID.slab(0, 9) == GRID
    assert np.array_equal((slab(h, 0, 2) + slab(h, 0, 2)).data, 2 * h.data[..., 0:2, :, :])
    for a, b in ((slab(h, 0, 2), slab(h, 2, 4)), (slab(h, 4, 5), slab(h, 0, 3)), (slab(h, 0, 2), h)):
        with pytest.raises(ValueError, match="field mismatch"):
            a + b
        with pytest.raises(ValueError, match="field mismatch"):
            F._SlabInner().add(a, b)
