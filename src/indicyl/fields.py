"""Exact spectral tensor calculus on the flat 3-torus and on cylinders over it.

Fields are band-limited Fourier series: every spatial derivative is the exact
multiplication by i*xi on each mode, so all first-order identities between
the operators hold to rounding error.  Each flat operator is defined once, as
a Fourier-symbol kernel on component arrays; the field functions apply it at
the mode lattice, and the flat mode pencil of the oracle applies it at a
single lattice vector.

Time dependence on the cylinder is carried symbolically as sums of
t^d * exp(lambda t) envelopes.  A cylinder operator is a polynomial
P(d/dt) = S0 + S1 d/dt + S2 d^2/dt^2 with flat-operator coefficients, and it
acts on t^d e^{lambda t} x exactly through the lambda-derivatives of P.

The curvature sign is 0 throughout this module; curved cross-sections are
handled at the ODE level elsewhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ModeGrid",
    "FourierScalar",
    "FourierOneForm",
    "FourierSymTensor",
    "CylTensor",
    "CylOneForm",
    "grad",
    "div",
    "laplacian",
    "hodge_laplacian",
    "star_d",
    "lie",
    "conf_killing",
    "slash_d",
    "hessian",
    "traceless_hessian",
    "tf",
    "trace",
    "e_prime",
    "inner",
    "linearized_weyl",
    "adjoint_D",
    "cyl_killing",
    "cyl_div",
    "cyl_box_k",
    "weyl_coefficients",
    "div_coefficients",
    "f_forward",
    "f_star",
    "random_scalar",
    "random_oneform",
    "random_symtensor",
    "coclosed_projection",
    "identity_suite",
    "IdentityResult",
]

_SYM_PAIRS = ((0, 0), (1, 1), (2, 2), (0, 1), (0, 2), (1, 2))

# Period in t of every t-periodic cylinder field.
_T_PERIOD = 2 * math.pi

# Largest asymmetry |d_ij - d_ji| a symmetric tensor may carry, relative to
# max(1, max |d|).
_SYMMETRY_TOL = 1e-12

# Largest dt part (h00 or alpha) of a cross-section-valued cylinder tensor,
# and largest trace of an adjoint input's cross-section tensor, each relative
# to max(1, the norm of the whole).
_CROSS_SECTION_TOL = 1e-10
_TRACE_FREE_TOL = 1e-10

# Floor of the norm a relative residual divides by, so that a zero field
# reads 0 rather than NaN.
_NORM_FLOOR = 1e-300

# Fewest modes per slab of _apply_cylinder, which evaluates the coefficient
# images of a term one slab of whole mode planes at a time, so that its
# temporaries are slab-sized rather than box-sized.
_SLAB_MODES = 4096


def _norm(x: np.ndarray) -> float:
    """Frobenius norm of a real or complex array by numpy's pairwise sums,
    whose order, unlike the BLAS dot inside np.linalg.norm, does not depend
    on the number of BLAS threads."""
    total = np.sum(np.square(x.real))
    if np.iscomplexobj(x):
        total += np.sum(np.square(x.imag))
    return math.sqrt(float(total))


class ModeGrid:
    """Fourier mode box |k_i| <= band on a rectangular lattice."""

    def __init__(self, lengths=(2 * math.pi,) * 3, band: int = 3):
        if band < 1:
            raise ValueError("band limit must be >= 1")
        self.lengths = tuple(float(L) for L in lengths)
        if not all(0 < L < math.inf for L in self.lengths):  # NaN fails too
            raise ValueError(f"lattice side lengths must be positive and finite, got {lengths}")
        self.band = band
        self.size = 2 * band + 1
        k = np.arange(-band, band + 1)
        axes = [2 * math.pi * k / L for L in self.lengths]
        self.xi = np.array(np.meshgrid(*axes, indexing="ij"))  # (3, M, M, M)
        self.xi_sq = _dot(self.xi, self.xi)
        self._zeros: dict[type, _Field] = {}  # see _Field._shared_zero

    def __eq__(self, other):
        return (
            isinstance(other, ModeGrid)
            and self.lengths == other.lengths
            and self.band == other.band
        )

    def __hash__(self):
        return hash((self.lengths, self.band))


class _Field:
    _comp_shape: tuple[int, ...] = ()

    def __init__(self, grid: ModeGrid, data):
        data = np.asarray(data, dtype=complex)
        want = self._comp_shape + (grid.size,) * 3
        if data.shape != want:
            raise ValueError(f"{type(self).__name__} data must have shape {want}, got {data.shape}")
        self.grid = grid
        self.data = data

    @classmethod
    def zero(cls, grid: ModeGrid):
        return cls(grid, np.zeros(cls._comp_shape + (grid.size,) * 3, dtype=complex))

    @classmethod
    def _shared_zero(cls, grid: ModeGrid):
        """The grid's one zero field of this type, read-only: writing into
        its data raises."""
        zero = grid._zeros.get(cls)
        if zero is None:
            zero = grid._zeros[cls] = cls.zero(grid)
            zero.data.flags.writeable = False
        return zero

    def copy(self):
        return type(self)(self.grid, self.data.copy())

    def __add__(self, other):
        self._check(other)
        return type(self)(self.grid, self.data + other.data)

    def __sub__(self, other):
        self._check(other)
        return type(self)(self.grid, self.data - other.data)

    def __mul__(self, c):
        return type(self)(self.grid, self.data * c)

    __rmul__ = __mul__

    def __neg__(self):
        return type(self)(self.grid, -self.data)

    def norm(self) -> float:
        return _norm(self.data)

    def conjugate_flip(self):
        """c(k) -> conj(c(-k)); fixed points of this map are real fields."""
        return type(self)(self.grid, np.conj(self.data[..., ::-1, ::-1, ::-1]))

    def reality_symmetrize(self):
        return type(self)(self.grid, 0.5 * (self.data + self.conjugate_flip().data))

    def _check(self, other):
        if type(other) is not type(self) or other.grid != self.grid:
            raise ValueError("field mismatch")


class FourierScalar(_Field):
    _comp_shape = ()


class FourierOneForm(_Field):
    _comp_shape = (3,)


class FourierSymTensor(_Field):
    _comp_shape = (3, 3)

    def __init__(self, grid, data):
        super().__init__(grid, data)
        d = self.data
        pairs = ((0, 1), (0, 2), (1, 2))
        if all(np.array_equal(d[i, j], d[j, i]) for i, j in pairs):
            return  # exactly symmetric: the asymmetry below would read 0
        asym = np.max([np.max(np.abs(d[i, j] - d[j, i])) for i, j in pairs])
        if not asym <= _SYMMETRY_TOL * max(1.0, float(np.max(np.abs(d)))):  # NaN fails
            raise ValueError("symmetric tensor data is not symmetric")


# ---------------------------------------------------------------------------
# Flat operator kernels
# ---------------------------------------------------------------------------
# Each kernel (xi, x) -> y is linear in the components-first array x; xi has
# shape (3, ...) and both broadcast over their trailing axes, which hold a
# mode box for fields and basis columns for the single-mode pencil.  Every
# derivative d_j is the multiplication by i xi_j.  Index sums run in a fixed
# component order, 0 then 1 then 2, so each kernel's bits do not depend on
# the shapes it is given.


def _dot(a, b):
    """sum_i a_i b_i over the leading axis, added in index order."""
    out = a[0] * b[0]
    out += a[1] * b[1]
    out += a[2] * b[2]
    return out


def _cross(a, b):
    """eps_{ikl} a_k b_l over the leading axes: the cyclic differences."""
    return np.stack([a[k] * b[l] - a[l] * b[k] for k, l in ((1, 2), (2, 0), (0, 1))])


def _grad(xi, u):
    return 1j * xi * u[None]


def _div(xi, x):
    """Contraction of d with the first index: 1-forms and symmetric tensors."""
    return 1j * _dot(xi, x)


def _lap(xi, x):
    return -_dot(xi, xi) * x


def _star_d(xi, w):
    return 1j * _cross(xi, w)


def _lie(xi, w):
    a = 1j * (xi[:, None] * w[None])
    return a + a.swapaxes(0, 1)


def _trace(h):
    return h[0, 0] + h[1, 1] + h[2, 2]


def _g(u):
    """The pure-trace tensor u delta_ij."""
    out = np.zeros((3, 3) + np.shape(u), dtype=np.result_type(u, 1.0))
    out[0, 0] = out[1, 1] = out[2, 2] = u
    return out


def _tf(h):
    return h - _g(_trace(h) / 3.0)


def _conf_killing(xi, w):
    return _lie(xi, w) - _g((2.0 / 3.0) * _div(xi, w))


def _slash_d(xi, h):
    a = 1j * _cross(xi, h)
    return a + a.swapaxes(0, 1)


# ---------------------------------------------------------------------------
# Cross-section operators (exact on modes)
# ---------------------------------------------------------------------------


def grad(u: FourierScalar) -> FourierOneForm:
    return FourierOneForm(u.grid, _grad(u.grid.xi, u.data))


def div(x):
    """Divergence: 1-forms to scalars, symmetric 2-tensors to 1-forms."""
    out_type = {FourierOneForm: FourierScalar, FourierSymTensor: FourierOneForm}.get(type(x))
    if out_type is not None:
        return out_type(x.grid, _div(x.grid.xi, x.data))
    raise TypeError(f"no divergence for {type(x).__name__}")


def laplacian(x):
    """Rough Laplacian (sum of second derivatives, nonpositive spectrum)."""
    return type(x)(x.grid, _lap(x.grid.xi, x.data))


def hodge_laplacian(x):
    """Hodge Laplacian; on the flat torus it is minus the rough Laplacian."""
    return type(x)(x.grid, x.grid.xi_sq * x.data)


def star_d(omega: FourierOneForm) -> FourierOneForm:
    """(star d omega)_i = eps_{ijk} d_j omega_k, with eps_123 = +1."""
    return FourierOneForm(omega.grid, _star_d(omega.grid.xi, omega.data))


def lie(omega: FourierOneForm) -> FourierSymTensor:
    """Symmetrized derivative d_i omega_j + d_j omega_i."""
    return FourierSymTensor(omega.grid, _lie(omega.grid.xi, omega.data))


def conf_killing(omega: FourierOneForm) -> FourierSymTensor:
    """Trace-free part of the symmetrized derivative (3-dimensional weight 2/3)."""
    return FourierSymTensor(omega.grid, _conf_killing(omega.grid.xi, omega.data))


def slash_d(h: FourierSymTensor) -> FourierSymTensor:
    """First-order operator Sym_ij(eps_{ikl} (d_k h_{lj} - d_l h_{kj}))."""
    return FourierSymTensor(h.grid, _slash_d(h.grid.xi, h.data))


def hessian(u: FourierScalar) -> FourierSymTensor:
    xi = u.grid.xi
    return FourierSymTensor(u.grid, -(xi[:, None] * xi[None]) * u.data)


def trace(h: FourierSymTensor) -> FourierScalar:
    return FourierScalar(h.grid, _trace(h.data))


def tf(h: FourierSymTensor) -> FourierSymTensor:
    return FourierSymTensor(h.grid, _tf(h.data))


def traceless_hessian(u: FourierScalar) -> FourierSymTensor:
    return tf(hessian(u))


def e_prime(h: FourierSymTensor) -> FourierSymTensor:
    """Linearized traceless Ricci tensor at the flat metric:
    -1/2 (Lap tf(h) + tf Hess tr(h)) + 1/2 K(div h)."""
    return (
        -0.5 * (laplacian(tf(h)) + traceless_hessian(trace(h)))
        + 0.5 * conf_killing(div(h))
    )


def inner(a, b) -> complex:
    """L^2 pairing via mode sums, full index contraction on tensors."""
    if type(a) is not type(b) or a.grid != b.grid:
        raise ValueError("field mismatch")
    return complex(np.sum(np.conj(a.data) * b.data))


# ---------------------------------------------------------------------------
# Cylinder fields: sums of t^d exp(lambda t) envelopes
# ---------------------------------------------------------------------------


def _rate_key(rate: complex) -> tuple[float, float]:
    return (round(rate.real, 12), round(rate.imag, 12))


class _CylField:
    """Shared machinery for t-dependent field collections.

    Terms are keyed by (rate, degree) and hold a dict: "rate", the complex
    rate, plus one component field per part name; d/dt maps the (rate, d)
    term into (rate, d) and (rate, d-1) exactly.
    """

    _parts: tuple[str, ...] = ()

    def __init__(self, grid: ModeGrid):
        self.grid = grid
        self.terms: dict[tuple[tuple[float, float], int], dict] = {}

    @classmethod
    def from_parts(cls, grid, rate, degree, **fields):
        out = cls(grid)
        out.add_term(rate, degree, **fields)
        return out

    def add_term(self, rate, degree, **fields):
        rate = complex(rate)
        key = (_rate_key(rate), int(degree))
        slot = self.terms.get(key)
        if slot is None:
            slot = {"rate": rate}
            for name in self._parts:
                slot[name] = fields.get(name) or _PART_TYPES[name]._shared_zero(self.grid)
            self.terms[key] = slot
        else:
            for name in self._parts:
                f = fields.get(name)
                if f is not None:
                    slot[name] = slot[name] + f
        return self

    def __add__(self, other):
        out = type(self)(self.grid)
        for obj in (self, other):
            for (rk, d), slot in obj.terms.items():
                out.add_term(slot["rate"], d, **{n: slot[n] for n in self._parts})
        return out

    def __sub__(self, other):
        return self + (other * (-1.0))

    def __mul__(self, c):
        out = type(self)(self.grid)
        for (rk, d), slot in self.terms.items():
            out.add_term(slot["rate"], d, **{n: slot[n] * c for n in self._parts})
        return out

    __rmul__ = __mul__

    def norm(self) -> float:
        return math.sqrt(
            sum(
                sum(slot[n].norm() ** 2 for n in self._parts)
                for slot in self.terms.values()
            )
        )

    def part_norm(self, name: str) -> float:
        return math.sqrt(sum(slot[name].norm() ** 2 for slot in self.terms.values()))


_PART_TYPES = {
    "h00": FourierScalar,
    "alpha": FourierOneForm,
    "h": FourierSymTensor,
    "f": FourierScalar,
    "omega": FourierOneForm,
}


class CylTensor(_CylField):
    """Symmetric 2-tensor on the cylinder, split {h00, alpha, h}.

    Cross-section-valued tensors (values in the trace-free symmetric
    2-tensors of Y) are represented with vanishing h00 and alpha.
    """

    _parts = ("h00", "alpha", "h")

    def is_cross_section(self, tol=_CROSS_SECTION_TOL) -> bool:
        scale = max(self.norm(), 1.0)
        return (
            self.part_norm("h00") <= tol * scale
            and self.part_norm("alpha") <= tol * scale
        )


class CylOneForm(_CylField):
    """1-form f dt + omega on the cylinder."""

    _parts = ("f", "omega")


# ---------------------------------------------------------------------------
# Cylinder operators
# ---------------------------------------------------------------------------


def _apply_cylinder(field, out_type, coefficients):
    """Apply P(d/dt) = sum_n S_n d^n/dt^n termwise, where
    coefficients(xi, x) returns the component dicts (S_0 x, S_1 x, ...).

    By the Leibniz rule t^d e^{lam t} x maps to
    sum_m C(d, m) t^(d-m) e^{lam t} P^(m)(lam) x, with
    P^(m)(lam) = sum_{n >= m} n!/(n-m)! lam^(n-m) S_n.

    The coefficients run on one slab of mode planes at a time (the fewest
    planes holding _SLAB_MODES modes), and each combination is added into
    its output term's zeroed arrays in the order the terms produce it.
    Every kernel is elementwise in the mode, and a combination, built from
    0 + c y, holds no -0.0 for the zeros to change, so the slabs change no
    bit.
    """
    grid = field.grid
    planes = -(-_SLAB_MODES // grid.size**2)
    sums: dict[tuple, tuple[complex, dict]] = {}  # output key -> (rate, part arrays)
    for lo in range(0, grid.size, planes):
        sl = (..., slice(lo, lo + planes), slice(None), slice(None))
        for (_, d), slot in field.terms.items():
            lam = slot["rate"]
            images = coefficients(grid.xi[sl], {name: slot[name].data[sl] for name in field._parts})
            for m in range(min(d, len(images) - 1) + 1):
                parts = {}
                for n in range(m, len(images)):
                    c = math.comb(d, m) * math.perm(n, m) * lam ** (n - m)
                    if c == 0:
                        continue
                    for name, y in images[n].items():
                        parts[name] = parts.get(name, 0) + c * y
                _, acc = sums.setdefault((_rate_key(lam), d - m), (lam, {}))
                for name, v in parts.items():
                    if name not in acc:
                        acc[name] = np.zeros(_PART_TYPES[name]._comp_shape + (grid.size,) * 3, dtype=complex)
                    acc[name][sl] += v
    out = out_type(grid)
    for (_, degree), (lam, acc) in sums.items():
        out.add_term(lam, degree, **{name: _PART_TYPES[name](grid, v) for name, v in acc.items()})
    return out


def weyl_coefficients(xi, x):
    """d/dt-coefficients (S0 x, S1 x, S2 x) of the linearized anti-self-dual
    Weyl curvature on the components x = {h00, alpha, h}, after removing
    the 4-trace."""
    v = 0.25 * (x["h00"] + _trace(x["h"]))
    h00, alpha, h = x["h00"] - v, x["alpha"], x["h"] - _g(v)
    theta = -0.5 * _grad(xi, h00) - _div(xi, h) + 0.5 * _grad(xi, _trace(h)) - _star_d(xi, alpha)
    return (
        {"h": 0.5 * _conf_killing(xi, theta) + 0.5 * _lap(xi, _tf(h))},
        {"h": 0.5 * _conf_killing(xi, alpha) + 0.5 * _slash_d(xi, h)},
        {"h": -0.5 * _tf(h)},
    )


def _adjoint_coefficients(xi, x):
    z = x["h"]
    dz = _div(xi, z)
    ddz = _div(xi, dz)
    return (
        {
            "h00": -0.5 * ddz,
            "alpha": 0.5 * _star_d(xi, dz),
            "h": 0.5 * _lap(xi, z) - 0.5 * _lie(xi, dz) + 0.5 * _g(ddz),
        },
        {"alpha": 0.5 * dz, "h": -0.5 * _slash_d(xi, z)},
        {"h": -0.5 * z},
    )


def _killing_coefficients(xi, x):
    f, w = x["f"], x["omega"]
    dw = _div(xi, w)
    return (
        {"h00": -0.5 * dw, "alpha": _grad(xi, f), "h": _lie(xi, w) - 0.5 * _g(dw)},
        {"h00": 1.5 * f, "alpha": w, "h": -0.5 * _g(f)},
    )


def div_coefficients(xi, x):
    """d/dt-coefficients (S0 x, S1 x) of the cylinder divergence on the
    components x = {h00, alpha, h}."""
    return (
        {"f": _div(xi, x["alpha"]), "omega": _div(xi, x["h"])},
        {"f": x["h00"], "omega": x["alpha"]},
    )


def _box_k_coefficients(xi, x):
    f, w = x["f"], x["omega"]
    return (
        {"f": _lap(xi, f), "omega": _lap(xi, w) + 0.5 * _grad(xi, _div(xi, w))},
        {"f": 0.5 * _div(xi, w), "omega": 0.5 * _grad(xi, f)},
        {"f": 1.5 * f, "omega": w},
    )


def linearized_weyl(ht: CylTensor) -> CylTensor:
    """Linearized anti-self-dual Weyl curvature at the product metric,
    valued in the trace-free symmetric 2-tensors of the cross-section.

    Inputs with nonzero 4-trace are reduced by subtracting a multiple of the
    metric (pure-trace directions are annihilated by conformal invariance).
    """
    return _apply_cylinder(ht, CylTensor, weyl_coefficients)


def adjoint_D(Z: CylTensor) -> CylTensor:
    """Formal adjoint of the linearized anti-self-dual Weyl curvature applied
    to a cross-section-valued trace-free tensor."""
    if not Z.is_cross_section():
        raise ValueError("adjoint input must have vanishing dt components")
    for slot in Z.terms.values():
        tr = trace(slot["h"])
        if tr.norm() > _TRACE_FREE_TOL * max(1.0, slot["h"].norm()):
            raise ValueError("adjoint input must be trace-free on the cross-section")
    return _apply_cylinder(Z, CylTensor, _adjoint_coefficients)


def cyl_killing(omt: CylOneForm) -> CylTensor:
    """Conformal Killing operator of the cylinder on f dt + omega."""
    return _apply_cylinder(omt, CylTensor, _killing_coefficients)


def cyl_div(ht: CylTensor) -> CylOneForm:
    """Divergence of a cylinder 2-tensor: (h00' + div alpha) dt + alpha' + div h."""
    return _apply_cylinder(ht, CylOneForm, div_coefficients)


def cyl_box_k(omt: CylOneForm) -> CylOneForm:
    """Divergence of the cylinder conformal Killing operator, written out:
    (3/2 f'' + 1/2 div omega' + Lap f) dt
      + omega'' + Lap omega + 1/2 d(div omega) + 1/2 d f'."""
    return _apply_cylinder(omt, CylOneForm, _box_k_coefficients)


def f_forward(ht: CylTensor) -> tuple[CylTensor, CylOneForm]:
    """The wrapped deformation operator: (linearized curvature, 2 divergence)."""
    return linearized_weyl(ht), cyl_div(ht) * 2.0


def f_star(Z: CylTensor, omt: CylOneForm) -> CylTensor:
    """Adjoint pair: adjoint curvature of Z minus the conformal Killing
    operator of the 1-form."""
    return adjoint_D(Z) - cyl_killing(omt)


# ---------------------------------------------------------------------------
# Random fields and the operator-identity suite
# ---------------------------------------------------------------------------


def _random_coeffs(rng, grid, comp_shape):
    shape = comp_shape + (grid.size,) * 3
    data = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return data


def random_scalar(rng, grid) -> FourierScalar:
    return FourierScalar(grid, _random_coeffs(rng, grid, ())).reality_symmetrize()


def random_oneform(rng, grid) -> FourierOneForm:
    return FourierOneForm(grid, _random_coeffs(rng, grid, (3,))).reality_symmetrize()


def random_symtensor(rng, grid, traceless=False) -> FourierSymTensor:
    raw = _random_coeffs(rng, grid, (3, 3))
    raw = 0.5 * (raw + raw.swapaxes(0, 1))
    h = FourierSymTensor(grid, raw).reality_symmetrize()
    return tf(h) if traceless else h


def add_real_mode(ht: CylTensor, kt: int, **parts) -> CylTensor:
    """Add a real t-periodic envelope cos/sin combination: the term
    e^{i w t} X plus its conjugate reflection e^{-i w t} conj(X(-k)), with
    w = 2 pi kt / _T_PERIOD.  For kt = 0 the fields are reality-symmetrized
    in place."""
    w = 2 * math.pi * kt / _T_PERIOD
    if kt == 0:
        ht.add_term(0.0, 0, **{n: f.reality_symmetrize() for n, f in parts.items()})
        return ht
    ht.add_term(1j * w, 0, **parts)
    ht.add_term(-1j * w, 0, **{n: f.conjugate_flip() for n, f in parts.items()})
    return ht


def random_real_variation(
    rng, grid: ModeGrid, kt_modes=(0, 1), parts=("h00", "alpha", "h")
) -> CylTensor:
    """Random real t-periodic cylinder 2-tensor supported on the given
    integer time frequencies, with the requested component blocks."""
    ht = CylTensor(grid)
    makers = {
        "h00": lambda: random_scalar(rng, grid),
        "alpha": lambda: random_oneform(rng, grid),
        "h": lambda: random_symtensor(rng, grid),
    }
    for kt in kt_modes:
        fresh = {name: makers[name]() for name in parts}
        add_real_mode(ht, kt, **fresh)
    return ht


def coclosed_projection(omega: FourierOneForm) -> FourierOneForm:
    """Remove the exact part: on each nonzero mode project out xi (xi . c)/|xi|^2."""
    xi = omega.grid.xi
    xs = _dot(xi, omega.data)
    denom = omega.grid.xi_sq.copy()
    center = (omega.grid.band,) * 3
    denom[center] = 1.0
    corr = xi * (xs / denom)[None]
    corr[(slice(None),) + center] = 0.0
    return FourierOneForm(omega.grid, omega.data - corr)


@dataclass(frozen=True)
class IdentityResult:
    name: str
    formula: str
    residual: float
    tolerance: float

    @property
    def ok(self) -> bool:
        return self.residual < self.tolerance


def _rel_residual(*makers) -> float:
    """Norm of the sum of the parts over the largest part norm.  Each maker
    is a zero-argument callable that builds one part; the parts are built,
    measured and added one at a time, and each is dropped once added."""
    total = scale = None
    for make in makers:
        part = make()
        norm = part.norm()
        scale = norm if scale is None else max(scale, norm)
        total = part if total is None else total + part
        del part
    if scale == 0.0:
        return 0.0
    return total.norm() / scale


def _rel_residual_scaled(value: float, scale: float) -> float:
    return value / max(scale, _NORM_FLOOR)


def identity_suite(band: int = 3, seed: int = 7, tol: float = 1e-10):
    """Run the 11 operator identities on fixed-seed random band-limited fields
    over the cube torus of side 2 pi.

    Returns a list of IdentityResult; every identity is checked with the
    relative residual (norm of the defect over the largest term norm).
    """
    rng = np.random.default_rng(seed)
    grid = ModeGrid(band=band)
    h = random_symtensor(rng, grid)
    hp = random_symtensor(rng, grid)
    om = random_oneform(rng, grid)
    u = random_scalar(rng, grid)
    results: list[IdentityResult] = []

    def record(name, formula, residual):
        results.append(IdentityResult(name, formula, float(residual), tol))

    # 1. Square of the Dirac-type operator against the second-order formula.
    record(
        "slashd_squared",
        "slashd^2 h = -4 Lap tf(h) - 2 tfHess tr(h) + 3 K(div h)",
        _rel_residual(
            lambda: slash_d(slash_d(h)),
            lambda: 4.0 * laplacian(tf(h)),
            lambda: 2.0 * traceless_hessian(trace(h)),
            lambda: -3.0 * conf_killing(div(h)),
        ),
    )
    # 2. Divergence intertwines slashd with star d.
    record(
        "div_slashd",
        "div(slashd h) = star_d(div h)",
        _rel_residual(lambda: div(slash_d(h)), lambda: -1.0 * star_d(div(h))),
    )
    # 3. slashd commutes with the rough Laplacian.
    record(
        "slashd_laplacian_commute",
        "slashd(Lap h) = Lap(slashd h)",
        _rel_residual(lambda: slash_d(laplacian(h)), lambda: -1.0 * laplacian(slash_d(h))),
    )
    # 4. Commutators of the conformal Killing operator.
    r1 = _rel_residual(
        lambda: div(conf_killing(om)),
        lambda: -1.0 * laplacian(om),
        lambda: (-1.0 / 3.0) * grad(div(om)),
    )
    r2 = _rel_residual(
        lambda: laplacian(conf_killing(om)), lambda: -1.0 * conf_killing(laplacian(om))
    )
    record(
        "conf_killing_commutators",
        "div K(w) = Lap w + (1/3) d div w;  Lap K(w) = K(Lap w)",
        max(r1, r2),
    )
    # 5. slashd is formally self-adjoint on the mode-sum pairing.
    lhs = inner(slash_d(h), hp)
    rhs = inner(h, slash_d(hp))
    record(
        "slashd_self_adjoint",
        "<slashd h, h'> = <h, slashd h'>",
        _rel_residual_scaled(abs(lhs - rhs), max(abs(lhs), abs(rhs))),
    )
    # 6. slashd is trace-free valued and kills pure-trace tensors.
    ug = FourierSymTensor(grid, _g(u.data))
    r1 = _rel_residual_scaled(trace(slash_d(h)).norm(), slash_d(h).norm())
    r2 = _rel_residual_scaled(slash_d(ug).norm(), ug.norm() * max(1.0, grid.xi_sq.max()))
    record("slashd_trace_and_conformal", "tr(slashd h) = 0;  slashd(u g) = 0", max(r1, r2))
    # 7. slashd of a Lie derivative is the conformal Killing operator of star d.
    record(
        "slashd_lie",
        "slashd(L w) = K(star_d w)",
        _rel_residual(lambda: slash_d(lie(om)), lambda: -1.0 * conf_killing(star_d(om))),
    )
    # 8. Linearized traceless Ricci from the slashd square.
    record(
        "eprime_from_slashd_squared",
        "E'(h) = (1/8) slashd^2 h - (1/4) tfHess tr(h) + (1/8) K(div h)",
        _rel_residual(
            lambda: e_prime(h),
            lambda: -0.125 * slash_d(slash_d(h)),
            lambda: 0.25 * traceless_hessian(trace(h)),
            lambda: -0.125 * conf_killing(div(h)),
        ),
    )
    del h, hp, ug  # unused from here on; identity 9 is the suite's peak
    # 9. The linearized curvature annihilates the image of the cylinder
    #    conformal Killing operator, whose divergence matches the box form.
    omt = CylOneForm(grid)
    omt.add_term(0.7, 0, f=random_scalar(rng, grid), omega=random_oneform(rng, grid))
    omt.add_term(-0.3 + 1.1j, 1, f=random_scalar(rng, grid), omega=random_oneform(rng, grid))
    kg = cyl_killing(omt)
    r1 = _rel_residual_scaled(linearized_weyl(kg).norm(), kg.norm() * max(1.0, grid.xi_sq.max()))
    r2 = _rel_residual(lambda: cyl_box_k(omt), lambda: -1.0 * cyl_div(kg))
    del kg, omt  # before identities 10 and 11 allocate
    record(
        "killing_annihilation_and_box",
        "D(K_cyl w) = 0;  box_K w = div(K_cyl w)",
        max(r1, r2),
    )
    # 10. Square of star d is the Hodge Laplacian on co-closed forms.
    occ = coclosed_projection(om)
    record(
        "star_d_squared",
        "(star_d)^2 w = HodgeLap w on co-closed w",
        _rel_residual(lambda: star_d(star_d(occ)), lambda: -1.0 * hodge_laplacian(occ)),
    )
    # 11. Parallel kernel and cokernel elements are annihilated exactly.
    record(
        "flat_kernel_cokernel",
        "F(kernel elements) = 0;  F*(cokernel elements) = 0",
        _flat_element_residual(ModeGrid(grid.lengths, band=1)),
    )
    return results


def _flat_element_residual(grid: ModeGrid) -> float:
    """Residual of the forward/adjoint operators on the 14 + 14 parallel
    solutions at the flat cross-section.  The elements live on the zero mode
    and every operator is mode-diagonal, so a band-1 grid holds them."""
    worst = 0.0

    def parallel_scalar(value):
        s = FourierScalar.zero(grid)
        s.data[(grid.band,) * 3] = value
        return s

    def parallel_oneform(i):
        w = FourierOneForm.zero(grid)
        w.data[(i,) + (grid.band,) * 3] = 1.0
        return w

    def parallel_tt(m):
        h = FourierSymTensor.zero(grid)
        h.data[(slice(None), slice(None)) + (grid.band,) * 3] = m
        return h

    tt_basis = [
        np.diag([1.0, -1.0, 0.0]),
        np.diag([1.0, 1.0, -2.0]) / math.sqrt(3),
        np.array([[0, 1, 0], [1, 0, 0], [0, 0, 0]], dtype=float),
        np.array([[0, 0, 1], [0, 0, 0], [1, 0, 0]], dtype=float),
        np.array([[0, 0, 0], [0, 0, 1], [0, 1, 0]], dtype=float),
    ]

    kernel: list[CylTensor] = []
    minus_g = parallel_tt(-np.eye(3))
    kernel.append(CylTensor.from_parts(grid, 0.0, 0, h00=parallel_scalar(3.0), h=minus_g))
    for i in range(3):
        kernel.append(CylTensor.from_parts(grid, 0.0, 0, alpha=parallel_oneform(i)))
    for m in tt_basis:
        kernel.append(CylTensor.from_parts(grid, 0.0, 0, h=parallel_tt(m)))
        kernel.append(CylTensor.from_parts(grid, 0.0, 1, h=parallel_tt(m)))
    for ht in kernel:
        dpart, divpart = f_forward(ht)
        worst = max(worst, (dpart.norm() + divpart.norm()) / max(ht.norm(), _NORM_FLOOR))

    cokernel: list[tuple[CylTensor, CylOneForm]] = []
    dt_form = CylOneForm(grid)
    dt_form.add_term(0.0, 0, f=parallel_scalar(1.0))
    cokernel.append((CylTensor(grid), dt_form))
    for i in range(3):
        w = CylOneForm(grid)
        w.add_term(0.0, 0, omega=parallel_oneform(i))
        cokernel.append((CylTensor(grid), w))
    for m in tt_basis:
        for degree in (0, 1):
            cokernel.append(
                (CylTensor.from_parts(grid, 0.0, degree, h=parallel_tt(m)), CylOneForm(grid))
            )
    for Z, w in cokernel:
        res = f_star(Z, w)
        scale = max(Z.norm() + w.norm(), _NORM_FLOOR)
        worst = max(worst, res.norm() / scale)
    return worst
