"""Slab views of whole-box fields, for tests that compare an operator or a
streamed sum on the planes lo:hi of a box with the same planes of the box.
The identity suite draws its slab views itself (fields._ReplayedField)."""

from indicyl import fields as F


def slab(field, lo: int, hi: int):
    """field on field.grid.slab(lo, hi): a view of a Fourier field's data,
    which is a shared zero if the field's is; a cylinder field term by term."""
    grid = field.grid.slab(lo, hi)
    if isinstance(field, F._CylField):
        out = type(field)(grid)
        for key, term in field.terms.items():
            out.terms[key] = {"rate": term["rate"], **{n: slab(term[n], lo, hi) for n in field._parts}}
        return out
    return field._unchecked(grid, field.data[..., lo:hi, :, :])
