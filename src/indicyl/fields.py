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

The operator-identity suite at the end of the module measures the kernels
against each other on random fields, a slab of mode planes at a time, and
indicyl.verify judges its residuals; its norms and pairings keep the bits
of numpy's sums over the whole box through indicyl.pairwise.
"""

from __future__ import annotations

import bisect
import math
from functools import partial

import numpy as np

from . import forks
from .pairwise import _PairwiseSum, _norm

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

# The one zero that every missing part of a cylinder field is a broadcast
# of (see _Field._shared_zero).
_ZERO = np.zeros((), dtype=complex)
_ZERO.flags.writeable = False

# Fewest modes per slab of the identity suite, which evaluates every
# identity one slab of whole mode planes at a time (see _mirror_slabs), so
# that the operators' temporaries are slab-sized rather than box-sized.
# 2048 modes are 3 planes of a band-15 box and 10 of a band-7 box, whose
# front half holds 7.
_SLAB_MODES = 2048


class ModeGrid:
    """Fourier mode box |k_i| <= band on a rectangular lattice, or a view of
    its mode planes lo:hi along the first axis (see slab)."""

    def __init__(self, lengths=(2 * math.pi,) * 3, band: int = 3):
        if band < 1:
            raise ValueError("band limit must be >= 1")
        self.lengths = tuple(float(L) for L in lengths)
        if not all(0 < L < math.inf for L in self.lengths):  # NaN fails too
            raise ValueError(f"lattice side lengths must be positive and finite, got {lengths}")
        self.band = band
        self.size = 2 * band + 1
        k = np.arange(-band, band + 1)
        self._axes = tuple(2 * math.pi * k / L for L in self.lengths)
        self.planes, self.shape = (0, self.size), (self.size,) * 3

    def slab(self, lo: int, hi: int) -> ModeGrid:
        """The view of this box's planes lo:hi, hi clipped to the box:
        planes (lo, hi) and the slab's shape.  A new view on each call;
        views of the same planes are equal, so their fields mix."""
        self._require_box("a slab view")
        clipped = min(hi, self.size)
        if not 0 <= lo < clipped:
            raise ValueError(f"a slab view needs planes 0 <= lo < hi <= {self.size}, got ({lo}, {hi})")
        view = object.__new__(ModeGrid)
        view.__dict__.update(self.__dict__, shape=(clipped - lo,) + self.shape[1:], planes=(lo, clipped))
        return view

    @property
    def xi(self) -> np.ndarray:
        """The lattice vectors 2 pi k / L of this grid's modes, (3,) + shape,
        built anew on each call, so that a slab loop never holds the box's."""
        (lo, hi), (a0, a1, a2) = self.planes, self._axes
        xi = np.empty((3,) + self.shape)
        xi[0], xi[1], xi[2] = a0[lo:hi, None, None], a1[:, None], a2
        return xi

    @property
    def xi_sq(self) -> np.ndarray:
        """|xi|^2 of this grid's modes, summed in index order."""
        xi = self.xi
        return _dot(xi, xi)

    @property
    def xi_sq_max(self) -> float:
        """The largest |xi|^2 of the box: that of its corner mode, which
        has the largest |xi_i| on every axis, summed as _dot sums it, so
        float(xi_sq.max()) of the box bit for bit."""
        x0, x1, x2 = (float(a[-1]) for a in self._axes)
        return x0 * x0 + x1 * x1 + x2 * x2

    def _require_box(self, what: str) -> None:
        if self.planes != (0, self.size):
            raise ValueError(f"{what} needs the whole mode box, not the planes {self.planes}")

    # Views of different slabs differ, so that their fields never broadcast.
    def __eq__(self, other):
        return isinstance(other, ModeGrid) and self._key() == other._key()

    def _key(self):
        return self.lengths, self.band, self.planes


class _Field:
    _comp_shape: tuple[int, ...] = ()

    def __init__(self, grid: ModeGrid, data):
        data = np.asarray(data, dtype=complex)
        want = self._comp_shape + grid.shape
        if data.shape != want:
            raise ValueError(f"{type(self).__name__} data must have shape {want}, got {data.shape}")
        self.grid = grid
        self.data = data

    @classmethod
    def zero(cls, grid: ModeGrid):
        return cls(grid, np.zeros(cls._comp_shape + grid.shape, dtype=complex))

    @classmethod
    def _shared_zero(cls, grid: ModeGrid):
        """A zero field of this type on grid, read-only: its data is _ZERO
        broadcast to the field's shape, so writing into it raises and it
        holds no memory of its own (see _is_shared_zero)."""
        return cls._unchecked(grid, np.broadcast_to(_ZERO, cls._comp_shape + grid.shape))

    @classmethod
    def _unchecked(cls, grid: ModeGrid, data: np.ndarray):
        """A field on data known to pass the checks of __init__."""
        out = object.__new__(cls)
        out.grid, out.data = grid, data
        return out

    def __add__(self, other):
        self._check(other)
        return self._unchecked(self.grid, self.data + other.data)

    def __mul__(self, c):
        # complex(c) refuses an array c, which could broadcast to another
        # shape; the product has the same bits as with c itself.
        return self._unchecked(self.grid, self.data * complex(c))

    __rmul__ = __mul__

    def norm(self) -> float:
        return _norm(self.data)

    def conjugate_flip(self):
        """c(k) -> conj(c(-k)); fixed points of this map are real fields."""
        self.grid._require_box("conjugate_flip")
        return type(self)(self.grid, np.conj(self.data[..., ::-1, ::-1, ::-1]))

    def reality_symmetrize(self):
        """0.5 (c(k) + conj(c(-k)))."""
        self.grid._require_box("reality_symmetrize")
        return type(self)(self.grid, _symmetrize_reality(self.data.copy()))

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


def _grad(xi, u):
    return 1j * xi * u[None]


def _div(xi, x):
    """Contraction of d with the first index: 1-forms and symmetric tensors."""
    return 1j * _dot(xi, x)


def _lap(xi, x):
    return -_dot(xi, xi) * x


def _curl(xi, x):
    """1j eps_{ikl} xi_k x_l over the leading axis of x, the first of a
    tensor: star d of a 1-form.  Formed in one array with one product
    temporary: each row xi_k x_l - xi_l x_k, then all rows times 1j."""
    rows = np.broadcast_shapes(xi.shape[1:], x.shape[1:])
    out = np.empty((3,) + rows, dtype=np.result_type(xi, x, 1j))
    product = np.empty(rows, dtype=out.dtype)
    for a, (k, l) in zip(out, ((1, 2), (2, 0), (0, 1))):
        np.multiply(xi[k], x[l], out=a)
        a -= np.multiply(xi[l], x[k], out=product)
    out *= 1j
    return out


def _sym(a):
    """a_ij + a_ji over the two leading axes, in place, entry pair by entry pair."""
    for i, j in _SYM_PAIRS:
        a[i, j] += a[j, i]
        if i != j:
            a[j, i] = a[i, j]
    return a


def _lie(xi, w):
    return _sym(1j * (xi[:, None] * w[None]))


def _trace(h):
    return h[0, 0] + h[1, 1] + h[2, 2]


def _g(u):
    """The pure-trace tensor u delta_ij."""
    out = np.zeros((3, 3) + np.shape(u), dtype=np.result_type(u, 1.0))
    out[0, 0] = out[1, 1] = out[2, 2] = u
    return out


def _less_g(a, u):
    """a <- a - _g(u) in place, on the diagonal only: off it, a_ij - 0 is
    a_ij bit for bit, the sign of a zero included."""
    for i in range(3):
        a[i, i] -= u
    return a


def _tf(h):
    return _less_g(h.copy(), _trace(h) / 3.0)


def _conf_killing(xi, w):
    return _less_g(_lie(xi, w), (2.0 / 3.0) * _div(xi, w))


def _slash_d(xi, h):
    """Sym(1j eps_{ikl} xi_k h_{lj})."""
    return _sym(_curl(xi, h))


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
    return x._unchecked(x.grid, _lap(x.grid.xi, x.data))


def hodge_laplacian(x):
    """Hodge Laplacian; on the flat torus it is minus the rough Laplacian."""
    return x._unchecked(x.grid, x.grid.xi_sq * x.data)


def star_d(omega: FourierOneForm) -> FourierOneForm:
    """(star d omega)_i = eps_{ijk} d_j omega_k, with eps_123 = +1."""
    return FourierOneForm(omega.grid, _curl(omega.grid.xi, omega.data))


def lie(omega: FourierOneForm) -> FourierSymTensor:
    """Symmetrized derivative d_i omega_j + d_j omega_i."""
    return FourierSymTensor._unchecked(omega.grid, _lie(omega.grid.xi, omega.data))


def conf_killing(omega: FourierOneForm) -> FourierSymTensor:
    """Trace-free part of the symmetrized derivative (3-dimensional weight 2/3)."""
    return FourierSymTensor._unchecked(omega.grid, _conf_killing(omega.grid.xi, omega.data))


def slash_d(h: FourierSymTensor) -> FourierSymTensor:
    """First-order operator Sym_ij(eps_{ikl} (d_k h_{lj} - d_l h_{kj}))."""
    return FourierSymTensor._unchecked(h.grid, _slash_d(h.grid.xi, h.data))


def hessian(u: FourierScalar) -> FourierSymTensor:
    xi = u.grid.xi
    return FourierSymTensor._unchecked(u.grid, -(xi[:, None] * xi[None]) * u.data)


def trace(h: FourierSymTensor) -> FourierScalar:
    return FourierScalar(h.grid, _trace(h.data))


def tf(h: FourierSymTensor) -> FourierSymTensor:
    return FourierSymTensor._unchecked(h.grid, _tf(h.data))


def traceless_hessian(u: FourierScalar) -> FourierSymTensor:
    return tf(hessian(u))


def e_prime(h: FourierSymTensor) -> FourierSymTensor:
    """Linearized traceless Ricci tensor at the flat metric:
    -1/2 (Lap tf(h) + tf Hess tr(h)) + 1/2 K(div h)."""
    return (
        -0.5 * (laplacian(tf(h)) + traceless_hessian(trace(h)))
        + 0.5 * conf_killing(div(h))
    )


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

    # A part that is a shared zero (see add_term) is skipped: its 0.0 would
    # not change the sum's bits.
    def norm(self) -> float:
        return math.sqrt(
            sum(
                sum(slot[n].norm() ** 2 for n in self._parts if not _is_shared_zero(slot[n]))
                for slot in self.terms.values()
            )
        )

    def part_norm(self, name: str) -> float:
        parts = (slot[name] for slot in self.terms.values())
        return math.sqrt(sum(f.norm() ** 2 for f in parts if not _is_shared_zero(f)))


def _is_shared_zero(f: _Field) -> bool:
    """Whether f's data is a view of _ZERO (see _Field._shared_zero)."""
    return np.shares_memory(f.data, _ZERO)


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

    def is_cross_section(self) -> bool:
        scale = max(self.norm(), 1.0)
        return (
            self.part_norm("h00") <= _CROSS_SECTION_TOL * scale
            and self.part_norm("alpha") <= _CROSS_SECTION_TOL * scale
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
    """
    grid = field.grid
    out = out_type(grid)
    for (_, d), slot in field.terms.items():
        lam = slot["rate"]
        images = coefficients(grid.xi, {name: slot[name].data for name in field._parts})
        for m in range(min(d, len(images) - 1) + 1):
            parts = {}
            for n in range(m, len(images)):
                c = math.comb(d, m) * math.perm(n, m) * lam ** (n - m)
                if c == 0:
                    continue
                for name, y in images[n].items():
                    parts[name] = parts.get(name, 0) + c * y
            out.add_term(lam, d - m, **{name: _PART_TYPES[name]._unchecked(grid, v) for name, v in parts.items()})
    return out


def weyl_coefficients(xi, x):
    """d/dt-coefficients (S0 x, S1 x, S2 x) of the linearized anti-self-dual
    Weyl curvature on the components x = {h00, alpha, h}, after removing
    the 4-trace."""
    v = 0.25 * (x["h00"] + _trace(x["h"]))
    h00, alpha, h = x["h00"] - v, x["alpha"], _less_g(x["h"].astype(np.result_type(x["h"], v)), v)
    theta = -0.5 * _grad(xi, h00) - _div(xi, h) + 0.5 * _grad(xi, _trace(h)) - _curl(xi, alpha)
    tf_h = _tf(h)
    return (
        {"h": 0.5 * _conf_killing(xi, theta) + 0.5 * _lap(xi, tf_h)},
        {"h": 0.5 * _conf_killing(xi, alpha) + 0.5 * _slash_d(xi, h)},
        {"h": -0.5 * tf_h},
    )


def _adjoint_coefficients(xi, x):
    z = x["h"]
    dz = _div(xi, z)
    ddz = _div(xi, dz)
    return (
        {
            "h00": -0.5 * ddz,
            "alpha": 0.5 * _curl(xi, dz),
            "h": 0.5 * _lap(xi, z) - 0.5 * _lie(xi, dz) + 0.5 * _g(ddz),
        },
        {"alpha": 0.5 * dz, "h": -0.5 * _slash_d(xi, z)},
        {"h": -0.5 * z},
    )


def _killing_coefficients(xi, x):
    f, w = x["f"], x["omega"]
    dw = _div(xi, w)
    return (
        {"h00": -0.5 * dw, "alpha": _grad(xi, f), "h": _less_g(_lie(xi, w), 0.5 * dw)},
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


def _symmetrize_reality(data: np.ndarray) -> np.ndarray:
    """data <- 0.5 (data + conj(data at -k)) in place, one mirror pair of
    mode planes at a time: the bits of reality_symmetrize, with plane-sized
    temporaries.  -k pairs plane p of the size planes with plane
    size - 1 - p and reverses the two axes within a plane."""
    size = data.shape[-3]
    for p in range(size // 2 + 1):
        q = size - 1 - p
        front = np.conj(data[..., q, ::-1, ::-1])
        front += data[..., p, :, :]
        front *= 0.5
        back = np.conj(data[..., p, ::-1, ::-1])
        back += data[..., q, :, :]
        back *= 0.5
        data[..., q, :, :], data[..., p, :, :] = back, front
    return data


class _ReplayedField:
    """A random field of kind (FourierScalar, FourierOneForm or
    FourierSymTensor) on the box grid, held as generator states rather than
    values: the field random_scalar, random_oneform or random_symtensor
    draws from rng.

    Those draw standard normals in C order, components first: every real
    part, then every imaginary part.  The skim (__init__) passes over rng
    once in that order and keeps only the generator state at the start of
    each run of values, one part of one component over one slab of mode
    planes: the slabs front_slabs, _mirror_slabs(grid, modes), and their
    mirrors, so that pair(lo, hi) of a front slab replays whole runs.  Of
    that state it keeps the word a draw moves, the 128-bit state of PCG64,
    default_rng's bit generator.  pair and box draw the runs they need
    again, from their states.  standard_normal's ziggurat takes a variable
    number of raw words per value, so no run can be reached by counting."""

    def __init__(self, rng, grid: ModeGrid, kind: type, modes: int | None = None):
        grid._require_box("a random field")
        self.grid, self._rng, self._kind = grid, rng, kind
        size, plane = grid.size, grid.size**2
        self.front_slabs = _mirror_slabs(grid, modes)
        cuts = {0, size}
        for lo, hi in self.front_slabs:
            cuts.update((lo, hi, size - hi, size - lo))
        self._bounds = sorted(cuts)
        runs = list(zip(self._bounds, self._bounds[1:]))
        scratch = np.empty(max(hi - lo for lo, hi in runs) * plane)
        self._start = rng.bit_generator.state
        self._words = []  # per part, then component, then run
        for _ in range(2 * math.prod(kind._comp_shape)):
            for lo, hi in runs:
                self._words.append(rng.bit_generator.state["state"]["state"])
                rng.standard_normal(out=scratch[: (hi - lo) * plane])

    def box(self) -> _Field:
        """The field on the whole box."""
        return self._kind(self.grid, self._coefficients(((0, self.grid.size),)))

    def pair(self, lo: int, hi: int) -> tuple[_Field, ...]:
        """The field on the planes lo:hi, then on their mirror planes
        size - hi : size - lo unless those are the same planes, from one
        draw of both: the bits of those planes of box()."""
        size = self.grid.size
        hi = min(hi, size)
        mirror = (size - hi, size - lo)
        if mirror[0] < hi and lo < mirror[1]:  # they overlap: draw the planes c : size - c that hold both
            c = min(lo, mirror[0])
            data, at = self._coefficients(((c, size - c),)), (lo - c, mirror[0] - c)
        else:
            data, at = self._coefficients(((lo, hi), mirror)), (0, hi - lo)
        slabs = [(lo, hi, at[0])] if mirror == (lo, hi) else [(lo, hi, at[0]), (*mirror, at[1])]
        return tuple(self._kind._unchecked(self.grid.slab(a, b), data[..., s : s + b - a, :, :]) for a, b, s in slabs)

    def _coefficients(self, spans) -> np.ndarray:
        """The coefficients of the planes of spans, ranges (lo, hi) laid end
        to end: drawn again from the runs' states, averaged over each entry
        pair (tensors), then reality-symmetrized in place, which pairs plane
        i of the w laid end to end with plane w - 1 - i.  So spans are a
        range and its mirror planes, or a range that is its own mirror.
        Leaves rng where it was."""
        grid, bg = self.grid, self._rng.bit_generator
        plane, runs = grid.size**2, len(self._bounds) - 1
        width = sum(hi - lo for lo, hi in spans)
        data = np.empty(self._kind._comp_shape + (width, grid.size, grid.size), dtype=complex)
        rows = data.reshape(-1, width * plane)
        pieces, at = [], 0  # (run, values drawn before the span's, where the rest go in a row, how many)
        for lo, hi in spans:
            for r in range(bisect.bisect_right(self._bounds, lo) - 1, bisect.bisect_left(self._bounds, hi)):
                start, stop = max(self._bounds[r], lo), min(self._bounds[r + 1], hi)
                pieces.append((r, (start - self._bounds[r]) * plane, (at + start - lo) * plane, (stop - start) * plane))
            at += hi - lo
        scratch = np.empty(max(skip + count for _, skip, _, count in pieces))
        where, state = bg.state, {**self._start, "state": dict(self._start["state"])}
        for k, row in enumerate([*rows.real, *rows.imag]):
            for r, skip, to, count in pieces:
                state["state"]["state"] = self._words[k * runs + r]
                bg.state = state
                drawn = scratch[: skip + count]
                self._rng.standard_normal(out=drawn)
                row[to : to + count] = drawn[skip:]
        bg.state = where
        if self._kind is FourierSymTensor:  # data <- 0.5 (data + data^T)
            _sym(data)
            data *= 0.5
        return _symmetrize_reality(data)


def random_scalar(rng, grid) -> FourierScalar:
    return _ReplayedField(rng, grid, FourierScalar).box()


def random_oneform(rng, grid) -> FourierOneForm:
    return _ReplayedField(rng, grid, FourierOneForm).box()


def random_symtensor(rng, grid) -> FourierSymTensor:
    return _ReplayedField(rng, grid, FourierSymTensor).box()


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
    xi_sq = _dot(xi, xi)
    zero = xi_sq == 0
    xs = _dot(xi, omega.data)
    corr = xi * (xs / np.where(zero, 1.0, xi_sq))[None]
    corr[:, zero] = 0.0
    return FourierOneForm(omega.grid, omega.data - corr)


def _mirror_slabs(grid: ModeGrid, modes: int | None = None) -> list[tuple[int, int]]:
    """(lo, hi) of each slab of the front half of the box, planes 0 to
    band - 1, then of the middle plane band: the fewest whole mode planes
    holding this many modes, by default _SLAB_MODES.  With the mirror slab
    (size - hi, size - lo) of each front slab they cut the box."""
    planes, band = max(1, -(-(_SLAB_MODES if modes is None else modes) // grid.size**2)), grid.band
    return [(lo, min(lo + planes, band)) for lo in range(0, band, planes)] + [(band, band + 1)]


class _SlabNorm:
    """The norm() of a field on a box, a Fourier field or a cylinder field,
    bit for bit, from its slab views fed in any order: the squares of each
    part's real and imaginary values are summed apart (see _PairwiseSum),
    the parts of one type side by side, and each part's two sums are added
    before the sqrt, as _norm adds them.  A cylinder field's shared zero
    parts are skipped, as its norm() skips them; every slab must hold the
    same terms and parts."""

    def __init__(self):
        self._sums: dict = {}  # part type -> (its sums, their (term, part) names)
        self._names: list | None = None  # every (term, part) name in the order norm() sums them
        self._fourier = False

    def add(self, field) -> None:
        if isinstance(field, _Field):
            self._fourier, named = True, [((None, None), field)]
        else:
            named = [
                ((key, name), slot[name])
                for key, slot in field.terms.items()
                for name in field._parts
                if not _is_shared_zero(slot[name])
            ]
        if self._names is None:
            self._names = [name for name, _ in named]
        elif [name for name, _ in named] != self._names:
            raise ValueError("slab views of different fields")
        groups: dict[type, list] = {}
        for name, f in named:
            groups.setdefault(type(f), []).append((name, f))
        for kind, members in groups.items():
            first = members[0][1]
            squares = np.empty((len(members), 2) + first.data.shape)
            for i, (_, f) in enumerate(members):
                np.square(f.data.real, out=squares[i, 0])
                np.square(f.data.imag, out=squares[i, 1])
            if kind not in self._sums:
                self._sums[kind] = (_PairwiseSum(_box_size(first), lead=squares.shape[:2]), [n for n, _ in members])
            self._sums[kind][0].add_slab(first.grid, squares)

    def norm(self) -> float:
        parts = {}
        for sums, names in self._sums.values():
            parts.update(zip(names, sums.total()))
        if self._fourier:
            real, imag = parts[None, None]
            return math.sqrt(float(real + imag))
        terms: dict = {}  # summed term by term, as _CylField.norm sums
        for key, name in self._names:
            real, imag = parts[key, name]
            terms.setdefault(key, []).append(math.sqrt(float(real + imag)) ** 2)
        total = 0
        for squares in terms.values():
            total += sum(squares)
        return math.sqrt(total)


class _SlabInner:
    """The L^2 pairing sum conj(a) b over the modes of two Fourier fields on
    a box, full index contraction on tensors, from their slab views fed in
    any order: the products go to one complex _PairwiseSum, which sums them
    as np.sum over the box would."""

    def __init__(self):
        self._sum = None

    def add(self, a: _Field, b: _Field) -> None:
        a._check(b)
        products = np.conj(a.data)
        products *= b.data
        if self._sum is None:
            self._sum = _PairwiseSum(_box_size(a), dtype=complex)
        self._sum.add_slab(a.grid, products)

    def value(self) -> complex:
        return complex(self._sum.total())


def _box_size(f: _Field) -> int:
    """The number of values of f's type on the whole box of f's grid."""
    return math.prod(f._comp_shape) * f.grid.size**3


class _Residual:
    """The relative residual of an identity whose parts sum to 0: the norm
    of the sum of the parts over the largest part norm.  Each maker builds
    one part from the views add is given (a slab view of the input, and
    fields formed from it that several identities read); add builds,
    measures and adds the parts of one slab in place, one at a time, and
    every norm is streamed (see _SlabNorm), so that slabs come in any order
    and no part is box-sized.  Each later part is added into, never the
    first, so the first may be a field the caller keeps."""

    def __init__(self, *makers):
        self._makers = makers
        self._norms = [_SlabNorm() for _ in makers]
        self._total = _SlabNorm()

    def add(self, *views) -> None:
        total = None
        for make, norm in zip(self._makers, self._norms):
            part = make(*views)
            norm.add(part)
            if total is not None:
                total._check(part)
                part.data += total.data  # the bits of total + part, as addition commutes
            total = part
        self._total.add(total)

    def value(self) -> float:
        return _rel_residual_scaled(self._total.norm(), max(norm.norm() for norm in self._norms))


def _rel_residual_scaled(value: float, scale: float) -> float:
    """value relative to scale, which is floored at _NORM_FLOOR."""
    return value / max(scale, _NORM_FLOOR)


# Rates and degrees of the two terms of identity 9's random cylinder 1-form.
_KILLING_TERMS = ((0.7, 0), (-0.3 + 1.1j, 1))


def identity_suite(band: int = 3, seed: int = 7) -> dict[str, float]:
    """Run the 11 operator identities on fixed-seed random band-limited fields
    over the cube torus of side 2 pi.

    Returns the relative residual of each identity (norm of the defect
    over the largest term norm) by name; indicyl.verify judges them.
    The random inputs are replayed fields (see _ReplayedField): one skim of
    the generator, in the order the inputs are drawn, keeps only where each
    run of their values starts, so that no input is ever box-sized.  Then
    one pass per family of inputs replays them a mirror pair of slabs at a
    time (see _ReplayedField.pair) and feeds every identity that reads
    them, each identity running its operators on the slab and streaming
    its norms and pairings: h, hp and u feed identities 1, 2, 3, 5, 6 and
    8, the four parts of omt feed 9, and om feeds 4, 7 and 10.  The three
    passes run in that order on every CPU the process may use (see
    forks.run): on two, this process runs the first and third and a worker
    the second, which takes about as long as those two together.  Each
    residual is computed whole in one process, so its bits do not depend
    on the CPU count.
    """
    rng = np.random.default_rng(seed)
    grid = ModeGrid(band=band)
    # glibc's malloc gives the top of its heap back to the system whenever
    # more than twice the largest block it has mapped and freed lies free
    # there, and each slab's temporaries come and go by megabytes.  The
    # box-sized inputs of an eager suite were such blocks; one block of
    # their size, mapped and freed untouched, so that it is never resident,
    # spares the passes 16,000 page faults and a tenth of their time at
    # band 15.
    np.empty((3, 3) + grid.shape, dtype=complex)
    h, hp = _ReplayedField(rng, grid, FourierSymTensor), _ReplayedField(rng, grid, FourierSymTensor)
    om = _ReplayedField(rng, grid, FourierOneForm)
    u = _ReplayedField(rng, grid, FourierScalar)
    # Identity 9's cylinder fields hold about four times as many values per
    # mode as the Fourier fields of the others (K_cyl w alone holds three
    # terms of 13 components), so its slabs hold a quarter of _SLAB_MODES.
    kinds = (FourierScalar, FourierOneForm)
    omt = [_ReplayedField(rng, grid, kind, _SLAB_MODES // 4) for _ in _KILLING_TERMS for kind in kinds]
    passes = [partial(_tensor_identities, h, hp, u), partial(_killing_identity, omt), partial(_oneform_identities, om)]
    residuals = {name: r for family in forks.run(passes) for name, r in family.items()}
    # 11. Parallel kernel and cokernel elements are annihilated exactly.
    residuals["flat_kernel_cokernel"] = _flat_element_residual(ModeGrid(grid.lengths, band=1))
    return residuals


def _tensor_identities(h, hp, u) -> dict[str, float]:
    """Identities 1, 2, 3, 5, 6 and 8, in one pass over h, hp and u."""
    # The makers of identities 2 and 3 read d = slashd h of the slab, and
    # those of 1 and 8 read a = slashd^2 h, each formed once per slab.
    # 1. Square of the Dirac-type operator against the second-order formula.
    slashd_squared = _Residual(
        lambda h, a: a,
        lambda h, a: 4.0 * laplacian(tf(h)),
        lambda h, a: 2.0 * traceless_hessian(trace(h)),
        lambda h, a: -3.0 * conf_killing(div(h)),
    )
    # 2. Divergence intertwines slashd with star d.
    div_slashd = _Residual(lambda h, d: div(d), lambda h, d: -1.0 * star_d(div(h)))
    # 3. slashd commutes with the rough Laplacian.
    commute = _Residual(lambda h, d: slash_d(laplacian(h)), lambda h, d: -1.0 * laplacian(d))
    # 5. slashd is formally self-adjoint on the mode-sum pairing: the
    # pairings <slashd h, hp> and <h, slashd hp>, streamed (see _SlabInner).
    lhs, rhs = _SlabInner(), _SlabInner()
    # 6. slashd is trace-free valued and kills pure-trace tensors: the norms
    # of tr(slashd h), slashd h, slashd(u g) and u g, streamed (see _SlabNorm).
    trace_d, norm_d, pure, ug_norm = (_SlabNorm() for _ in range(4))
    # 8. Linearized traceless Ricci from the slashd square.
    eprime = _Residual(
        lambda h, a: e_prime(h),
        lambda h, a: -0.125 * a,
        lambda h, a: 0.25 * traceless_hessian(trace(h)),
        lambda h, a: -0.125 * conf_killing(div(h)),
    )

    for lo, hi in h.front_slabs:
        forks.exit_if_orphaned()
        pair = h.pair(lo, hi)
        for view in pair:
            d = slash_d(view)
            div_slashd.add(view, d)
            commute.add(view, d)
            trace_d.add(trace(d))
            norm_d.add(d)
            a = slash_d(d)
            del d
            slashd_squared.add(view, a)
            eprime.add(view, a)
            del a
        # u, then hp, is drawn for the one identity that reads it, so that
        # the pass holds the slabs of at most two inputs, and every view of
        # the slab is dropped before the next slab is drawn.
        for view in u.pair(lo, hi):
            ug = FourierSymTensor(view.grid, _g(view.data))
            pure.add(slash_d(ug))
            ug_norm.add(ug)
        del view, ug
        for view, other in zip(pair, hp.pair(lo, hi)):
            lhs.add(slash_d(view), other)
            rhs.add(view, slash_d(other))
        del pair, view, other
    lhs, rhs = lhs.value(), rhs.value()
    xi_sq_max = max(1.0, h.grid.xi_sq_max)
    return {
        "slashd_squared": slashd_squared.value(),
        "div_slashd": div_slashd.value(),
        "slashd_laplacian_commute": commute.value(),
        "slashd_self_adjoint": _rel_residual_scaled(abs(lhs - rhs), max(abs(lhs), abs(rhs))),
        "slashd_trace_and_conformal": max(
            _rel_residual_scaled(trace_d.norm(), norm_d.norm()),
            _rel_residual_scaled(pure.norm(), ug_norm.norm() * xi_sq_max),
        ),
        "eprime_from_slashd_squared": eprime.value(),
    }


def _oneform_identities(om) -> dict[str, float]:
    """Identities 4, 7 and 10, in one pass over om.  The makers of
    identity 4 read k = K(w) and l = Lap w of the slab, and those of 10
    the co-closed part p of w, each formed once per slab."""
    # 4. Commutators of the conformal Killing operator.
    conf_div = _Residual(
        lambda w, k, l: div(k),
        lambda w, k, l: -1.0 * l,
        lambda w, k, l: (-1.0 / 3.0) * grad(div(w)),
    )
    conf_lap = _Residual(lambda w, k, l: laplacian(k), lambda w, k, l: -1.0 * conf_killing(l))
    # 7. slashd of a Lie derivative is the conformal Killing operator of star d.
    slashd_lie = _Residual(lambda w: slash_d(lie(w)), lambda w: -1.0 * conf_killing(star_d(w)))
    # 10. Square of star d is the Hodge Laplacian on co-closed forms.
    coclosed = _Residual(lambda p: star_d(star_d(p)), lambda p: -1.0 * hodge_laplacian(p))

    for lo, hi in om.front_slabs:
        forks.exit_if_orphaned()
        for w in om.pair(lo, hi):
            k, l = conf_killing(w), laplacian(w)
            conf_div.add(w, k, l)
            conf_lap.add(w, k, l)
            del k, l
            slashd_lie.add(w)
            coclosed.add(coclosed_projection(w))
    return {
        "conf_killing_commutators": max(conf_div.value(), conf_lap.value()),
        "slashd_lie": slashd_lie.value(),
        "star_d_squared": coclosed.value(),
    }


def _killing_identity(parts) -> dict[str, float]:
    """Identity 9, in one pass over the parts f, omega of each term of
    omt (see _KILLING_TERMS): the linearized curvature annihilates the
    image of the cylinder conformal Killing operator, whose divergence
    matches the box form.  Its residual is the larger of |D(K_cyl w)| over
    |K_cyl w| times the largest |xi|^2 (at least 1) and the relative defect
    of box_K w = div(K_cyl w), every norm streamed (see _SlabNorm)."""
    d_kg, kg_norm, box, div_kg, defect = (_SlabNorm() for _ in range(5))
    for lo, hi in parts[0].front_slabs:
        forks.exit_if_orphaned()
        for views in zip(*[x.pair(lo, hi) for x in parts]):
            w = CylOneForm(views[0].grid)
            for (rate, degree), f, omega in zip(_KILLING_TERMS, views[0::2], views[1::2]):
                w.add_term(rate, degree, f=f, omega=omega)
            kg = cyl_killing(w)
            d_kg.add(linearized_weyl(kg))
            kg_norm.add(kg)
            b, d = cyl_box_k(w), -1.0 * cyl_div(kg)
            box.add(b)
            div_kg.add(d)
            defect.add(b + d)
            del kg, b, d
        del views, w, f, omega
    xi_sq_max = max(1.0, parts[0].grid.xi_sq_max)
    return {
        "killing_annihilation_and_box": max(
            _rel_residual_scaled(d_kg.norm(), kg_norm.norm() * xi_sq_max),
            _rel_residual_scaled(defect.norm(), max(box.norm(), div_kg.norm())),
        )
    }


def _flat_element_residual(grid: ModeGrid) -> float:
    """Residual of the forward/adjoint operators on the 14 + 14 parallel
    solutions at the flat cross-section.  The elements live on the zero mode
    and every operator is mode-diagonal, so a band-1 grid holds them."""

    def cyl(cls, degree=0, **values):
        """A rate-0 field of cls and degree whose parts hold values at the zero mode."""
        parts = {name: _PART_TYPES[name].zero(grid) for name in values}
        for name, value in values.items():
            parts[name].data[(...,) + (grid.band,) * 3] = value
        return cls.from_parts(grid, 0.0, degree, **parts)

    eye = np.eye(3)
    tt_basis = [np.diag([1.0, -1.0, 0.0]), np.diag([1.0, 1.0, -2.0]) / math.sqrt(3)]
    tt_basis += [np.outer(eye[i], eye[j]) + np.outer(eye[j], eye[i]) for i, j in ((0, 1), (0, 2), (1, 2))]
    kernel = [cyl(CylTensor, h00=3.0, h=-eye)] + [cyl(CylTensor, alpha=e) for e in eye]
    kernel += [cyl(CylTensor, degree, h=m) for m in tt_basis for degree in (0, 1)]
    cokernel = [(CylTensor(grid), cyl(CylOneForm, f=1.0))]
    cokernel += [(CylTensor(grid), cyl(CylOneForm, omega=e)) for e in eye]
    cokernel += [(cyl(CylTensor, degree, h=m), CylOneForm(grid)) for m in tt_basis for degree in (0, 1)]
    forward = [_rel_residual_scaled(sum(f.norm() for f in f_forward(ht)), ht.norm()) for ht in kernel]
    adjoint = [_rel_residual_scaled(f_star(Z, w).norm(), Z.norm() + w.norm()) for Z, w in cokernel]
    return max([0.0, *forward, *adjoint])
