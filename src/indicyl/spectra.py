"""Eigenvalue catalogs for the three constant-curvature cross-section geometries.

A cross-section is its geometry value, Sphere, Torus or Hyperbolic.  Each
geometry class states its curvature sign kappa and its catalog caveats as
class attributes, and lists its spectrum: spectrum(j_max) returns the
entries with index j <= j_max (a hyperbolic file's lowest-eigenvalue lines,
and a spherical geometry's Killing fields, whatever their j) and, per
operator kind, the omitted entries whose roots bound the real parts that
the truncation can have missed.

Provides closed-form spectra for the round 3-sphere, one-octant dual-lattice
enumeration for flat tori, descent of the scalar, co-closed 1-form and TT
multiplicities to cyclic spherical space forms by an exact count of the
invariant weight vectors, and a validating loader for externally supplied
hyperbolic spectra.

Eigenvalue conventions: scalar and co-closed 1-form eigenvalues are those of
the Hodge Laplacian (nonnegative); transverse-traceless 2-tensor eigenvalues
are those of -1 times the rough Laplacian on divergence-free trace-free
symmetric 2-tensors.
"""

from __future__ import annotations

import math
import os
import stat
from enum import Enum
from pathlib import Path
from typing import NamedTuple

__all__ = [
    "OperatorKind",
    "SpectrumEntry",
    "GroupAction",
    "Sphere",
    "Torus",
    "Hyperbolic",
    "SpectrumError",
    "sphere_scalar_eigenvalue",
    "sphere_coclosed_oneform_eigenvalue",
    "sphere_tt_eigenvalue",
    "torus_spectrum",
    "torus_level_entry",
    "lens_scalar_multiplicity",
    "lens_oneform_multiplicity",
    "lens_tt_multiplicity",
    "load_hyperbolic_spectrum",
]

# Lower bounds for TT eigenvalues on divergence-free trace-free tensors,
# by curvature sign.
TT_LOWER_BOUND = {1: 6.0, 0: 0.0, -1: 3.0}

# Codazzi / parallel borderline eigenvalue tolerance.
_EIG_TOL = 1e-12

# Torus eigenvalues within this relative distance (absolute below 1) of each
# other form one level.
_LEVEL_TOL = 1e-9
# torus_spectrum enumerates the lattice vectors whose eigenvalue is at most
# the cutoff times 1 + this, so that a level straddling the cutoff is whole.
_CUTOFF_REACH = 1e-6
# Largest (2 pi / L)^2 of a torus side: every catalog's levels stay finite.
_LEVEL_MAX = 1e200

# Largest hyperbolic spectrum file read, in bytes; the 900-entry benchmark
# file takes about 20 kB.
SPECTRUM_FILE_CEILING = 64 * 2**20


class SpectrumError(ValueError):
    """Raised for invalid spectral data (bad bounds, inconsistent files)."""


class OperatorKind(str, Enum):
    SCALAR_HODGE = "scalar"
    COCLOSED_ONEFORM_HODGE = "oneform"
    DIVFREE_TT_ROUGH = "tt"


# The lowest eigenvalue of each kind on a hyperbolic cross-section: the
# constants, the harmonic 1-forms and the Codazzi tensors, whose roots lie
# at real part 0.
_HYPERBOLIC_LOWEST = {
    OperatorKind.SCALAR_HODGE: 0.0,
    OperatorKind.COCLOSED_ONEFORM_HODGE: 0.0,
    OperatorKind.DIVFREE_TT_ROUGH: TT_LOWER_BOUND[-1],
}


class SpectrumEntry(NamedTuple):
    kind: OperatorKind
    j: int
    eigenvalue: float
    multiplicity: int


# ---------------------------------------------------------------------------
# Cross-sections: each geometry carries its curvature sign kappa
# ---------------------------------------------------------------------------
#
# The value types are named tuples: immutable, hashable, and cheap to import
# and build.  A type that validates its arguments is a thin subclass whose
# __new__ checks them, since a NamedTuple body may not define __new__.  The
# class attributes kappa and caveats carry no annotation, which would make
# them fields.


class _GroupActionFields(NamedTuple):
    p: int
    q1: int
    q2: int


class GroupAction(_GroupActionFields):
    """Cyclic subgroup of SO(4) of order p generated by simultaneous rotation
    by angles 2*pi*q1/p and 2*pi*q2/p in two orthogonal planes of R^4.

    The coprimality conditions make the action on the unit 3-sphere free.
    """

    __slots__ = ()

    def __new__(cls, p: int, q1: int, q2: int):
        if p < 1:
            raise ValueError(f"group order must be >= 1, got {p}")
        if p > 1:
            for q in (q1, q2):
                if math.gcd(q, p) != 1:
                    raise ValueError(
                        f"rotation parameter {q} not coprime to order {p}; "
                        "action would not be free"
                    )
        return super().__new__(cls, p, q1, q2)


class Sphere(NamedTuple):
    """Round S^3 or a cyclic quotient S^3/Gamma of curvature +1.

    The group fixes every multiplicity of the quotient, the Killing-field
    dimension included (see lens_scalar_multiplicity and its siblings).
    """

    group: GroupAction = GroupAction(1, 1, 1)
    kappa = 1
    caveats = ()

    def spectrum(self, j_max: int) -> tuple[list[SpectrumEntry], list[SpectrumEntry]]:
        """Entries with j <= j_max, and whatever j_max the co-closed j = 1
        entry, the Killing fields, whose roots lie at real part 0 (as the
        constants' do, at j = 0); multiplicities by descent to the quotient
        (the round sphere is the trivial group).  Also the first omitted
        entry of each kind, at multiplicity 1."""
        kinds = (
            (OperatorKind.SCALAR_HODGE, 0, sphere_scalar_eigenvalue, lens_scalar_multiplicity),
            (OperatorKind.COCLOSED_ONEFORM_HODGE, 1, sphere_coclosed_oneform_eigenvalue,
             lens_oneform_multiplicity),
            (OperatorKind.DIVFREE_TT_ROUGH, 2, sphere_tt_eigenvalue, lens_tt_multiplicity),
        )
        entries, omitted = [], []
        for kind, j_min, eigenvalue, multiplicity in kinds:
            j_top = max(j_max, 1) if kind is OperatorKind.COCLOSED_ONEFORM_HODGE else j_max
            for j in range(j_min, j_top + 1):
                mult = multiplicity(self.group, j)
                if mult > 0:
                    entries.append(SpectrumEntry(kind, j, eigenvalue(j), mult))
            j = max(j_top + 1, j_min)
            omitted.append(SpectrumEntry(kind, j, eigenvalue(j), 1))
        return entries, omitted


class _TorusFields(NamedTuple):
    lengths: tuple[float, float, float]


class Torus(_TorusFields):
    """Flat torus R^3 / (L1 Z x L2 Z x L3 Z).

    Each side needs (2 pi / L)^2 > 1e-9, i.e. L below about 1.987e5: the
    lowest eigenvalue along a longer side would fall inside the absolute
    floor of the level grouping and merge distinct levels.  Each side also
    needs (2 pi / L)^2 <= 1e200, i.e. L at least about 6.283e-100, so that
    the eigenvalues cannot overflow.
    """

    __slots__ = ()
    kappa = 0
    caveats = ()

    def __new__(cls, lengths: tuple[float, float, float] = (2 * math.pi, 2 * math.pi, 2 * math.pi)):
        lengths = tuple(float(L) for L in lengths)
        if len(lengths) != 3:
            raise ValueError(f"a torus needs three side lengths, got {lengths}")
        for i, L in enumerate(lengths):
            if not (math.isfinite(L) and L > 0):
                raise ValueError(f"torus side L{i + 1} must be a positive finite number, got {L}")
            step = 2 * math.pi / L
            if step * step <= _LEVEL_TOL:
                raise ValueError(
                    f"torus side L{i + 1} = {L} is too long: (2 pi / L)^2 must exceed "
                    f"{_LEVEL_TOL:g}, i.e. L < {2 * math.pi / math.sqrt(_LEVEL_TOL):.4g}"
                )
            if step * step > _LEVEL_MAX:
                raise ValueError(
                    f"torus side L{i + 1} = {L} is too short: (2 pi / L)^2 must be at most "
                    f"{_LEVEL_MAX:g}, i.e. L >= {2 * math.pi / math.sqrt(_LEVEL_MAX):.4g}"
                )
        return super().__new__(cls, lengths)

    def spectrum(self, j_max: int) -> tuple[list[SpectrumEntry], list[SpectrumEntry]]:
        """Levels j <= j_max of every operator kind, and level j_max + 1
        of each kind as the omitted entries.  The levels do not depend on the
        kind, so one doubling loop finds them in the scalar spectrum, starting
        at the lowest nonzero eigenvalue (2 pi / max L)^2: the lattice box
        grows with the number of levels asked for, not with the sides.
        The sides are enumerated in increasing order, so that every
        ordering of them gives the same levels, bit for bit.
        """
        sides = tuple(sorted(self.lengths))
        cutoff = (2 * math.pi / sides[-1]) ** 2
        while len(levels := torus_spectrum(sides, cutoff)) <= j_max + 1:
            cutoff *= 2
        entries, omitted = [], []
        for kind in OperatorKind:
            for e in levels[: j_max + 2]:
                entry = torus_level_entry(kind, e.j, e.eigenvalue, e.multiplicity)
                (entries if e.j <= j_max else omitted).append(entry)
        return entries, omitted


class Hyperbolic(NamedTuple):
    """Compact hyperbolic cross-section with an externally supplied spectrum:
    its entries, first Betti number and traceless Codazzi dimension, and the
    file it was read from."""

    entries: tuple[SpectrumEntry, ...]
    b1: int
    dim_codazzi: int
    source: str = "<memory>"
    kappa = -1
    caveats = ("spectrum truncation taken from the supplied file",)

    def spectrum(self, j_max: int) -> tuple[list[SpectrumEntry], list[SpectrumEntry]]:
        """The file's entries with j <= j_max, and whatever its j every entry
        at the lowest eigenvalue of its kind (scalar 0, co-closed 0, TT 3),
        whose roots are the ones at real part 0.  The constant scalar mode and
        the b1 harmonic 1-forms come first when the file has no such line:
        both are present even when the file lists only positive eigenvalues.

        For each kind, omitted holds the lowest eigenvalue among the other
        entries with j > j_max, which the catalog leaves out, and the largest
        eigenvalue of the other entries, past which the spectrum is unknown;
        both at multiplicity 1.  Every root family's real parts grow with the
        eigenvalue, so these two bound what is missing.
        """
        def lowest(e: SpectrumEntry) -> bool:
            return abs(e.eigenvalue - _HYPERBOLIC_LOWEST[e.kind]) <= _EIG_TOL

        rest = [e for e in self.entries if not lowest(e)]
        omitted = []
        for kind in OperatorKind:
            evs = sorted(e.eigenvalue for e in rest if e.kind is kind)
            cut = sorted(e.eigenvalue for e in rest if e.kind is kind and e.j > j_max)
            omitted += [SpectrumEntry(kind, 0, ev, 1) for ev in cut[:1] + evs[-1:]]
        listed = [e for e in self.entries if e.j <= j_max or lowest(e)]
        present = {e.kind for e in self.entries if lowest(e)}
        always = (
            SpectrumEntry(OperatorKind.SCALAR_HODGE, 0, 0.0, 1),
            SpectrumEntry(OperatorKind.COCLOSED_ONEFORM_HODGE, 0, 0.0, self.b1),
        )
        return [e for e in always if e.multiplicity > 0 and e.kind not in present] + listed, omitted


# ---------------------------------------------------------------------------
# Round sphere closed forms
# ---------------------------------------------------------------------------


def sphere_scalar_eigenvalue(j: int) -> float:
    """Hodge eigenvalue j(j+2) of the degree-j scalar harmonics on round S^3."""
    if j < 0:
        raise ValueError(f"scalar harmonic index must be >= 0, got {j}")
    return float(j * (j + 2))


def sphere_coclosed_oneform_eigenvalue(j: int) -> float:
    """Hodge eigenvalue (j+1)^2 on co-closed 1-forms on round S^3, j >= 1."""
    if j < 1:
        raise ValueError(
            f"co-closed 1-form index must be >= 1 (S^3 has no harmonic 1-forms), got {j}"
        )
    return float((j + 1) ** 2)


def sphere_tt_eigenvalue(j: int) -> float:
    """Rough-Laplacian eigenvalue j^2 + 2j - 2 on TT tensors on round S^3, j >= 2."""
    if j < 2:
        raise ValueError(
            f"TT tensor index must be >= 2 (eigenvalues below 6 cannot occur), got {j}"
        )
    return float(j * j + 2 * j - 2)


# ---------------------------------------------------------------------------
# Flat torus spectrum
# ---------------------------------------------------------------------------

# Dimension of the parallel (eigenvalue 0) space by operator kind: constants,
# parallel 1-forms, parallel trace-free symmetric 2-tensors.
_PARALLEL_DIM = {
    OperatorKind.SCALAR_HODGE: 1,
    OperatorKind.COCLOSED_ONEFORM_HODGE: 3,
    OperatorKind.DIVFREE_TT_ROUGH: 5,
}

# Per nonzero dual-lattice vector: 1 scalar mode, 2 co-closed 1-form
# polarizations, 2 TT polarizations.
_MODES_PER_VECTOR = {
    OperatorKind.SCALAR_HODGE: 1,
    OperatorKind.COCLOSED_ONEFORM_HODGE: 2,
    OperatorKind.DIVFREE_TT_ROUGH: 2,
}


def torus_level_entry(kind: OperatorKind, j: int, eigenvalue: float, nvec: int) -> SpectrumEntry:
    """Entry of the torus level j of the given kind carried by nvec lattice
    vectors: the parallel modes at eigenvalue 0, otherwise the modes per
    vector times nvec."""
    kind = OperatorKind(kind)
    if eigenvalue <= _EIG_TOL:
        mult = _PARALLEL_DIM[kind]
    else:
        mult = _MODES_PER_VECTOR[kind] * nvec
    return SpectrumEntry(kind, j, eigenvalue, mult)


def torus_spectrum(lengths: tuple[float, float, float], cutoff: float) -> list[SpectrumEntry]:
    """Scalar spectrum up to `cutoff` on the flat torus with the given side lengths.

    Eigenvalues are (2 pi k1 / L1)^2 + (2 pi k2 / L2)^2 + (2 pi k3 / L3)^2
    over integer vectors k, summed in that order.  Sorted
    eigenvalues that lie within 1e-9 * max(1, ev) of their neighbour form
    one level, so the grouping is transitive and members of one level may
    differ by a few ulps.  A level is kept whole when its smallest member is
    <= cutoff (the cutoff itself is included), and dropped whole otherwise;
    levels are assumed narrower than 1e-6 relative.  Each level is reported
    at the value of its member that comes first in the enumeration order
    k1, k2, k3 = -K..K (k1 outermost), and its multiplicity is its number
    of lattice vectors; torus_level_entry derives every operator kind from
    these levels.  The sides must satisfy the bounds documented on Torus:
    about 6.283e-100 <= L < about 1.987e5.

    Only the octant k_i >= 0 is enumerated: a sign flip leaves
    (2 pi k / L)^2 bit-equal, so each octant vector stands for its
    2^(number of nonzero k_i) sign copies, and the copy (-k1, -k2, -k3)
    is the one that comes first in the enumeration order.
    """
    if not (cutoff > 0 and math.isfinite(cutoff)):
        raise ValueError(f"cutoff must be a positive finite number, got {cutoff}")
    L = Torus(lengths).lengths
    reach = cutoff * (1 + _CUTOFF_REACH)
    a1, a2, a3 = (
        [(2 * math.pi * k / Li) ** 2 for k in range(int(Li * math.sqrt(reach) / (2 * math.pi)) + 1)]
        for Li in L
    )
    # Per distinct eigenvalue: its number of lattice vectors, and the visit
    # number of its last octant vector.  Visiting k1, k2, k3 upwards meets
    # the copies (-k1, -k2, -k3) in reverse enumeration order, so the last
    # visit is the member that comes first.
    count: dict[float, int] = {}
    last: dict[float, int] = {}
    visit = 0
    for k1, x1 in enumerate(a1):
        for k2, x2 in enumerate(a2):
            x12 = x1 + x2
            if x12 > reach:
                break
            copies = (2 if k1 else 1) * (2 if k2 else 1)
            for k3, x3 in enumerate(a3):
                ev = x12 + x3
                if ev > reach:
                    break
                count[ev] = count.get(ev, 0) + (2 * copies if k3 else copies)
                last[ev] = visit
                visit += 1
    levels: list[list[float]] = []
    for ev in sorted(count):
        if levels and ev - levels[-1][-1] <= _LEVEL_TOL * max(1.0, levels[-1][-1]):
            levels[-1].append(ev)
        elif ev > cutoff:
            break
        else:
            levels.append([ev])
    return [
        SpectrumEntry(
            OperatorKind.SCALAR_HODGE, j, max(level, key=last.get), sum(count[ev] for ev in level)
        )
        for j, level in enumerate(levels)
    ]


# ---------------------------------------------------------------------------
# Descent to cyclic spherical space forms by an exact residue count
# ---------------------------------------------------------------------------


def _floor_sum(count: int, n: int, a: int, b: int) -> int:
    """Sum of (a t + b) // n over t = 0..count-1, for n >= 1 and any signs of
    a and b, in O(log n) steps: the Euclid-like recursion of the AtCoder
    Library's floor_sum, with divmod folding the quotients of a and b into
    the sum at every step."""
    total = 0
    while count:
        qa, a = divmod(a, n)
        qb, b = divmod(b, n)
        total += qa * (count * (count - 1) // 2) + qb * count
        top = a * count + b
        if top < n:
            break
        count, b = divmod(top, n)
        n, a = a, n
    return total


def _invariant_dim(g: GroupAction, two_a: int, two_b: int) -> int:
    """Dimension of the Gamma-invariants of the SO(4) representation V_a x V_b.

    Under SO(4) = SU(2) x SU(2) / {+-1} the element m of Gamma acts on the
    two factors with half angles pi m (q1 +- q2) / p.  With s = a + b and
    d = a - b (integers: 2a + 2b is even for every caller) the weight vector
    (k, l), k = 0..2a and l = 0..2b, is then fixed exactly when
    l (q1 - q2) = c_k (mod p), c_k = (s - k) q1 + (d - k) q2.  For each k that
    needs h = gcd(q1 - q2, p) to divide c_k, and then l runs through the
    residue class l_k mod n = p / h, 0 <= l_k < n, which holds
    (2b - l_k) // n + 1 values of l in 0..2b (none when l_k > 2b).

    The k with h | c_k are the terms k = k0 + t m, t = 0..T-1, of one
    arithmetic progression with m = h / gcd(q1 + q2, h), and along it
    l_t = (B + t D) mod n.  Writing x mod n = x - n (x // n) turns the count
    into T plus two floor sums of t, each O(log n): exact integer
    arithmetic, and O(log p) steps whatever a is.
    """
    p = g.p
    q1, q2 = g.q1 % p, g.q2 % p
    h = math.gcd(q1 - q2, p)
    n = p // h
    inverse = pow((q1 - q2) // h, -1, n)
    c0 = (two_a + two_b) // 2 * q1 + (two_a - two_b) // 2 * q2  # c_k at k = 0
    step = q1 + q2  # c_k falls by step per unit of k
    gs = math.gcd(step, h)
    if c0 % gs:
        return 0  # no k has h | c_k
    m = h // gs
    k0 = c0 // gs * pow(step // gs, -1, m) % m
    terms = (two_a - k0) // m + 1  # 0 when k0 > 2a, since k0 < m
    start = (c0 - k0 * step) // h * inverse % n  # l_t at t = 0
    slope = -(step // gs) * inverse % n
    return (
        terms
        + _floor_sum(terms, n, slope, start)
        + _floor_sum(terms, n, -slope, two_b - start)
    )


def lens_scalar_multiplicity(g: GroupAction, j: int) -> int:
    """Multiplicity of the scalar eigenvalue j(j+2) on the quotient S^3/Gamma.

    The degree-j harmonics on S^3 are V_{j/2} x V_{j/2}; the multiplicity is
    the dimension of their Gamma-invariants.
    """
    if j < 0:
        raise ValueError(f"scalar harmonic index must be >= 0, got {j}")
    return _invariant_dim(g, j, j)


def lens_oneform_multiplicity(g: GroupAction, j: int) -> int:
    """Multiplicity of the co-closed 1-form eigenvalue (j+1)^2 on S^3/Gamma.

    The co-closed eigenforms are V_{(j+1)/2} x V_{(j-1)/2} plus its swap; at
    j = 1 they are the Killing fields, so the value is the dimension of the
    isometry group of the quotient.
    """
    if j < 1:
        raise ValueError(f"co-closed 1-form index must be >= 1, got {j}")
    return _invariant_dim(g, j + 1, j - 1) + _invariant_dim(g, j - 1, j + 1)


def lens_tt_multiplicity(g: GroupAction, j: int) -> int:
    """Multiplicity of the TT eigenvalue j^2 + 2j - 2 on S^3/Gamma.

    The TT eigentensors are V_{(j+2)/2} x V_{(j-2)/2} plus its swap.
    """
    if j < 2:
        raise ValueError(f"TT tensor index must be >= 2, got {j}")
    return _invariant_dim(g, j + 2, j - 2) + _invariant_dim(g, j - 2, j + 2)


# ---------------------------------------------------------------------------
# Hyperbolic spectra from files
# ---------------------------------------------------------------------------


def load_hyperbolic_spectrum(path: str | Path) -> Hyperbolic:
    """Parse and validate a hyperbolic spectrum file; the result records
    str(path) as its source.

    Line-oriented format: one `b1 <n>` and one `codazzi <n>` header plus
    data lines `kind j eigenvalue multiplicity` with kind in {scalar,
    oneform, tt}; `#` starts a comment.  j is a nonnegative integer and
    every eigenvalue a finite number.  A scalar entry at eigenvalue 0 has
    multiplicity 1, the constants of a connected cross-section.  TT
    eigenvalues must be >= 3, with the recorded Codazzi dimension equal to
    the multiplicity at eigenvalue exactly 3.  Every malformed line raises
    SpectrumError naming path:lineno.

    The path must name a regular file of at most SPECTRUM_FILE_CEILING
    bytes.  It is opened without blocking, and both are checked on the open
    descriptor before anything is read, so the file checked is the file
    read: a FIFO swapped in for the path is refused, not waited on.  The
    read stops one byte past the ceiling.
    """
    source = str(path)
    path = Path(path)
    fd = os.open(path, os.O_RDONLY | os.O_NONBLOCK)
    try:
        info = os.fstat(fd)
        if not stat.S_ISREG(info.st_mode):
            raise SpectrumError(f"{path}: not a regular file")
        # A file that grows after fstat, or misreports its size, is caught
        # by the bounded read.
        size = info.st_size
        if size <= SPECTRUM_FILE_CEILING:
            with os.fdopen(fd, "rb", closefd=False) as f:
                data = f.read(SPECTRUM_FILE_CEILING + 1)
            size = len(data)
    finally:
        os.close(fd)
    if size > SPECTRUM_FILE_CEILING:
        raise SpectrumError(
            f"{path}: {size} bytes or more, above the spectrum file ceiling of {SPECTRUM_FILE_CEILING} bytes"
        )
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as e:
        raise SpectrumError(f"{path}: not UTF-8 text (byte {e.start})") from None
    header: dict[str, int] = {}
    raw: list[tuple[int, OperatorKind, int, float, int]] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        where = f"{path}:{lineno}"
        parts = line.split()
        if parts[0] in ("b1", "codazzi"):
            if parts[0] in header:
                raise SpectrumError(f"{where}: a second '{parts[0]}' header")
            try:
                (value,) = parts[1:]
                header[parts[0]] = int(value)
            except ValueError:
                raise SpectrumError(f"{where}: expected '{parts[0]} <integer>', got {line!r}") from None
            continue
        if len(parts) != 4:
            raise SpectrumError(f"{where}: expected 'kind j eigenvalue mult', got {line!r}")
        try:
            kind = OperatorKind(parts[0])
        except ValueError:
            raise SpectrumError(f"{where}: unknown operator kind {parts[0]!r}") from None
        try:
            j, ev, mult = int(parts[1]), float(parts[2]), int(parts[3])
        except ValueError:
            raise SpectrumError(
                f"{where}: expected an integer j, a number eigenvalue and an integer mult, got {line!r}"
            ) from None
        if not math.isfinite(ev):
            raise SpectrumError(f"{where}: eigenvalue {parts[2]!r} is not a finite number")
        if j < 0:
            raise SpectrumError(f"{where}: negative j={j}")
        if kind is OperatorKind.SCALAR_HODGE and abs(ev) <= _EIG_TOL and mult != 1:
            raise SpectrumError(
                f"{where}: scalar eigenvalue 0 has multiplicity {mult}; "
                "the constants of a connected cross-section have multiplicity 1"
            )
        raw.append((lineno, kind, j, ev, mult))
    b1, codazzi = header.get("b1"), header.get("codazzi")
    if b1 is None or codazzi is None:
        raise SpectrumError(f"{path}: missing 'b1' or 'codazzi' header")
    if b1 < 0 or codazzi < 0:
        raise SpectrumError(f"{path}: b1 and codazzi must be nonnegative")

    entries = []
    last_by_kind: dict[OperatorKind, float] = {}
    tt_mult_at_3 = 0
    for lineno, kind, j, ev, mult in raw:
        where = f"{path}:{lineno}"
        if mult < 0:
            raise SpectrumError(f"{where}: negative multiplicity in entry {kind.value} j={j}")
        if ev < -_EIG_TOL:
            raise SpectrumError(f"{where}: negative eigenvalue {ev} in {kind.value} entry j={j}")
        if kind is OperatorKind.DIVFREE_TT_ROUGH and ev < TT_LOWER_BOUND[-1] - _EIG_TOL:
            raise SpectrumError(
                f"{where}: TT eigenvalue {ev} at j={j} violates the lower bound 3 "
                "for hyperbolic cross-sections"
            )
        if kind in last_by_kind and ev <= last_by_kind[kind]:
            raise SpectrumError(
                f"{where}: eigenvalues must be strictly increasing within {kind.value}"
            )
        last_by_kind[kind] = ev
        if kind is OperatorKind.DIVFREE_TT_ROUGH and abs(ev - 3.0) <= _EIG_TOL:
            tt_mult_at_3 = mult
        if kind is OperatorKind.COCLOSED_ONEFORM_HODGE and abs(ev) <= _EIG_TOL and mult != b1:
            raise SpectrumError(
                f"{where}: harmonic 1-form multiplicity {mult} inconsistent with b1={b1}"
            )
        entries.append(SpectrumEntry(kind, j, ev, mult))
    if tt_mult_at_3 != codazzi:
        raise SpectrumError(
            f"{path}: codazzi={codazzi} inconsistent with TT multiplicity "
            f"{tt_mult_at_3} at eigenvalue 3"
        )
    return Hyperbolic(tuple(entries), b1, codazzi, source)
