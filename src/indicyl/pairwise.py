"""numpy's summation order, reproduced for sums fed a piece at a time.

np.sum of a contiguous float or complex array is a pairwise sum whose tree
is fixed by the array's size alone.  _PairwiseSum holds one sum per leaf of
that tree and folds them as numpy does, so a sum fed its values in pieces,
in any order, has the bits of np.sum over the whole array: the verify
suites stream their norms and pairings this way and never hold the array.
Their printed residuals depend on every bit, so this module imports
nothing from the package and nothing it checks.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np


def _norm(x: np.ndarray) -> float:
    """Frobenius norm of a real or complex array by numpy's pairwise sums,
    whose order, unlike the BLAS dot inside np.linalg.norm, does not depend
    on the number of BLAS threads."""
    total = np.sum(np.square(x.real))
    if np.iscomplexobj(x):
        total += np.sum(np.square(x.imag))
    return math.sqrt(float(total))


# np.sum of a contiguous float array (numpy 2) is a pairwise sum: at most
# this many values form one leaf, summed in 8 lanes, and a longer run splits
# at half its length rounded down to a multiple of 8 (Higham, "The accuracy
# of floating point summation", SIAM J. Sci. Comput. 14, 1993).  A complex
# array is summed the same way over its floats, real and imaginary parts
# apart: leaves of at most half as many complex values, in 4 lanes, split
# at multiples of 4.  So a leaf's sum is np.sum of its own values, and
# np.sum over the rows of a (K, m) array, m at most a leaf, is K leaf sums.
_PAIRWISE_LEAF = 128
_PAIRWISE_LANES = 8


def _sorted_unique(values: np.ndarray) -> np.ndarray:
    """np.unique(values) of a 1-D integer array: its distinct values in
    increasing order, in its dtype.  Formed in Python because np.unique
    imports numpy.ma, 1.3 MB that nothing else here needs."""
    return np.array(sorted(set(values.tolist())), dtype=values.dtype)


def _as_index(idx: np.ndarray):
    """idx, or the slice it spells when it is a run of consecutive integers."""
    if len(idx) and idx[-1] - idx[0] == len(idx) - 1:
        return slice(int(idx[0]), int(idx[-1]) + 1)
    return idx


@lru_cache(maxsize=16)
def _pairwise_tree(size: int, leaf: int = _PAIRWISE_LEAF, lanes: int = _PAIRWISE_LANES) -> tuple[np.ndarray, list]:
    """numpy's pairwise summation tree of size values, with leaves of at
    most leaf values that split at multiples of lanes: the bounds (L + 1,)
    of its L leaves in order, and its levels from the root down, each as
    (nodes, leaf nodes, their leaf numbers, inner nodes).  The children of
    a level's inner nodes, in order, are the next level's nodes.  Built one
    level at a time with numpy, once per size; a power-of-two grid gives a
    perfect tree, each of whose levels is all leaves or all inner nodes
    and is held as slices."""
    starts = np.zeros(min(size, 1), dtype=np.int64)
    lengths = np.full(len(starts), size, dtype=np.int64)
    levels = []
    while len(starts):
        is_leaf = lengths <= leaf
        levels.append((len(starts), np.flatnonzero(is_leaf), starts[is_leaf], np.flatnonzero(~is_leaf)))
        half = lengths[~is_leaf] // 2
        half -= half % lanes
        inner = starts[~is_leaf]
        starts = np.column_stack((inner, inner + half)).ravel()
        lengths = np.column_stack((half, lengths[~is_leaf] - half)).ravel()
    leaf_starts = np.sort(np.concatenate([level[2] for level in levels] or [starts]))
    levels = [
        (count, _as_index(leaves), _as_index(np.searchsorted(leaf_starts, first)), _as_index(inner))
        for count, leaves, first, inner in levels
    ]
    return np.append(leaf_starts, size), levels


# One band-15 identity suite makes 134 plans and a band-7 suite 30, so the
# cache keeps every plan of a suite for the next suite in the process.
@lru_cache(maxsize=256)
def _run_plan(tree: tuple[int, int, int], start: int, stride: int, count: int, length: int):
    """How runs r = 0 .. count - 1 of length values, run r at start + r
    stride of a tree's values, cover its leaves.  The leaves that lie whole
    in a run come grouped by length, as (length, their starts in the runs
    laid end to end, their leaf numbers), the starts a slice when those
    leaves lie end to end: a tree has few leaf lengths (3 or 4 at a
    band-15 box), but they alternate.  Then (leaf, at, run, lo, hi) for
    each span of a leaf that a run only partly covers."""
    bounds = _pairwise_tree(*tree)[0]
    leaves, starts, cuts = [], [], []
    for r in range(count):
        lo = start + r * stride
        hi = lo + length
        first = int(bounds.searchsorted(lo))  # bounds[first - 1] < lo <= bounds[first]
        last = int(bounds.searchsorted(hi, side="right")) - 1  # bounds[last] <= hi
        if first > last:  # the run lies inside one leaf
            cuts.append((last, lo - int(bounds[last]), r, 0, length))
            continue
        if lo < bounds[first]:
            cuts.append((first - 1, lo - int(bounds[first - 1]), r, 0, int(bounds[first]) - lo))
        if bounds[last] < hi:
            cuts.append((last, 0, r, int(bounds[last]) - lo, length))
        leaves.append(np.arange(first, last))
        starts.append(bounds[first:last] - lo + r * length)
    classes = []
    if leaves:
        leaves, starts = np.concatenate(leaves), np.concatenate(starts)
        lengths = bounds[leaves + 1] - bounds[leaves]
        for size in _sorted_unique(lengths):
            at = lengths == size
            held = starts[at]
            if held[-1] - held[0] == size * (len(held) - 1):
                held = slice(int(held[0]), int(held[-1]) + int(size))
            classes.append((int(size), held, _as_index(leaves[at])))
    return tuple(classes), tuple(cuts)


class _PairwiseSum:
    """np.sum of an array x of size values, float or complex, bit for bit,
    from pieces of x fed in any order (see add_runs).  lead is the shape of
    the sums carried side by side over pieces of one layout: () for one,
    (2,) for the squares of a complex array's real and imaginary parts.
    Holds one sum per leaf of numpy's summation tree (see _pairwise_tree)
    and the values of the leaves that a piece only partly covers.  Leaves
    of one length (a power-of-two size) are found by arithmetic, others by
    a cached plan of how runs cover them (see _run_plan)."""

    def __init__(self, size: int, dtype=float, lead: tuple[int, ...] = ()):
        self._dtype, self._lead, self._size = np.dtype(dtype), lead, size
        self._fed = 0
        per_value = self._dtype.itemsize // 8  # numpy sums a complex array as pairs of floats
        self._tree = (size, _PAIRWISE_LEAF // per_value, _PAIRWISE_LANES // per_value)
        self._bounds, self._levels = _pairwise_tree(*self._tree)
        lengths = np.diff(self._bounds)
        self._leaf = int(lengths[0]) if len(lengths) and (lengths == lengths[0]).all() else 0  # 0: they differ
        self._sums = np.empty(self._lead + (len(lengths),), dtype=self._dtype)
        self._partial: dict[int, list] = {}  # leaf -> [its values so far, how many it lacks]

    def add_runs(self, start: int, stride: int, runs: np.ndarray) -> None:
        """Feeds runs[..., r, :] as x[start + r stride :][:n], n the runs'
        length, for every run r; every value of x must be fed exactly once."""
        count, length = runs.shape[-2:]
        self._fed += count * length
        if self._leaf:  # leaves of one length: their bounds are multiples of it
            for r in range(count):
                self._add_run(start + r * stride, runs[..., r, :])
            return
        classes, cuts = _run_plan(self._tree, start, stride, count, length)
        self._add_leaves(np.ascontiguousarray(runs.reshape(runs.shape[:-2] + (-1,))), classes)
        for leaf, at, r, lo, hi in cuts:
            self._add_partial(leaf, at, runs[..., r, lo:hi])

    def _add_run(self, offset: int, run: np.ndarray) -> None:
        """Feeds one run as x[offset:][:n] when all leaves have the length _leaf."""
        leaf, end = self._leaf, offset + run.shape[-1]
        first, last = -(-offset // leaf), end // leaf  # the leaves first .. last - 1 lie whole in the run
        if first > last:  # the run lies inside one leaf
            self._add_partial(last, offset - last * leaf, run)
            return
        lo, hi = first * leaf - offset, last * leaf - offset
        self._sums[..., first:last] = run[..., lo:hi].reshape(self._lead + (-1, leaf)).sum(axis=-1)
        if lo:
            self._add_partial(first - 1, leaf - lo, run[..., :lo])
        if hi < run.shape[-1]:
            self._add_partial(last, 0, run[..., hi:])

    def _add_partial(self, leaf: int, at: int, values: np.ndarray) -> None:
        """Feeds values as those of a leaf from its position at on, and sums
        the leaf once all its values are in."""
        entry = self._partial.get(leaf)
        if entry is None:
            size = int(self._bounds[leaf + 1] - self._bounds[leaf])
            entry = self._partial[leaf] = [np.empty(self._lead + (size,), dtype=self._dtype), size]
        entry[0][..., at : at + values.shape[-1]] = values
        entry[1] -= values.shape[-1]
        if not entry[1]:
            self._sums[..., leaf] = entry[0].sum(axis=-1)
            del self._partial[leaf]

    def add(self, offset: int, values: np.ndarray) -> None:
        """Feeds values as x[offset : offset + values.size] in C order."""
        self.add_runs(offset, 0, values.reshape(self._lead + (1, -1)))

    def add_slab(self, grid, values: np.ndarray) -> None:
        """Feeds the values (components first) of a field on the planes
        lo:hi = grid.planes along the first axis of a cube of side
        grid.size, where x is that field's type on the whole cube."""
        (lo, hi), plane = grid.planes, grid.size**2
        self.add_runs(lo * plane, grid.size * plane, values.reshape(self._lead + (-1, (hi - lo) * plane)))

    def _add_leaves(self, values: np.ndarray, classes: tuple) -> None:
        """Sums the leaves that values (C-contiguous) holds whole, one length
        at a time (see _run_plan): np.sum over the rows of a (K, m) array,
        m at most a leaf, is K leaf sums."""
        lead = values.shape[:-1]
        for length, starts, leaves in classes:
            if isinstance(starts, slice):
                rows = values[..., starts].reshape(lead + (-1, length))
            else:  # the windows of length values at every start, taken at these
                shape, strides = lead + (values.shape[-1] - length + 1, length), values.strides + values.strides[-1:]
                rows = np.ndarray(shape, values.dtype, values, strides=strides)[..., starts, :]
            self._sums[..., leaves] = rows.sum(axis=-1)

    def total(self):
        """The sum (of lead shape); every value must have been fed."""
        if self._fed != self._size:
            raise RuntimeError(f"{self._size - self._fed} of {self._size} values not fed")
        below = np.empty(self._lead + (0,), dtype=self._dtype)
        for count, leaves, numbers, inner in reversed(self._levels):
            level = np.empty(self._lead + (count,), dtype=self._dtype)
            level[..., leaves] = self._sums[..., numbers]
            level[..., inner] = below[..., 0::2] + below[..., 1::2]
            below = level
        return below[..., 0] if below.shape[-1] else np.zeros(self._lead, dtype=self._dtype)[()]
