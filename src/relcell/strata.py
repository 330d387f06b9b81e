"""Single layers of attached cells ("strata") and the body each one glues.

A stratum is a boundary complex together with a finite set of cells; each
cell has a shape dimension k and an attaching map from the boundary of the
standard k-simplex into the stratum's boundary.  The body of a stratum glues
one fresh top simplex per cell onto the boundary; the fresh simplex reuses
the cell's id, so the boundary is a literal subcomplex of the body.  Strata
are immutable, so each one glues its body at most once.

A stratum is a cell complex of height at most one: its morphisms,
pushforwards, colimits and equalisers are those of ``cellcx``.
"""

from __future__ import annotations

from .delta import DeltaComplex, DeltaError, boundary_complex, facet_ids


class StrataError(DeltaError):
    pass


class Cell:
    """A cell: shape dimension plus an attaching map of its boundary."""

    __slots__ = ("id", "dim", "attach")

    def __init__(self, cell_id, dim, attach, validate=True):
        self.id = cell_id
        self.dim = dim
        self.attach = attach
        if validate and attach.dom != boundary_complex(dim):
            raise StrataError(
                f"cell {cell_id!r}: attach domain is not the boundary "
                f"of the standard {dim}-simplex")

    def __eq__(self, other):
        return isinstance(other, Cell) and \
            (self.id, self.dim, self.attach) == \
            (other.id, other.dim, other.attach)

    def __hash__(self):
        return hash((self.id, self.dim))

    def __repr__(self):
        return f"Cell({self.id!r}, dim={self.dim})"


class Stratum:
    """A boundary complex plus a finite ordered set of cells."""

    __slots__ = ("boundary", "cells", "_by_id", "_body")

    def __init__(self, boundary, cells, validate=True):
        self.boundary = boundary
        self.cells = tuple(sorted(cells, key=lambda c: c.id))
        self._by_id = {c.id: c for c in self.cells}
        self._body = None
        if len(self._by_id) != len(self.cells):
            raise StrataError("duplicate cell ids in stratum")
        if validate:
            for c in self.cells:
                if c.attach.cod != boundary:
                    raise StrataError(
                        f"cell {c.id!r} does not attach to the boundary")

    def cell(self, cid):
        return self._by_id[cid]

    def __eq__(self, other):
        return isinstance(other, Stratum) and \
            self.boundary == other.boundary and self.cells == other.cells

    def __repr__(self):
        return f"Stratum({self.boundary!r}, {len(self.cells)} cells)"


def body(st):
    """Glue all cells onto the boundary: the body complex.

    The glued top simplex of each cell carries the cell's id; a collision
    with a boundary id is an error.  The body is built on the first call and
    cached on the stratum, so every caller shares one; a stratum without
    cells has its boundary as its body.  The boundary is a literal
    subcomplex of the body (``inclusion_map(st.boundary, body(st))``), and a
    cell's characteristic map is ``delta.characteristic_map(body(st), id)``.
    """
    if st._body is not None:
        return st._body
    if not st.cells:
        st._body = st.boundary
        return st._body
    simp = {k: list(ids) for k, ids in st.boundary.simplices.items()}
    faces = dict(st.boundary.faces)
    for c in st.cells:
        if c.id in st.boundary:
            raise StrataError(
                f"cell id {c.id!r} collides with a boundary simplex")
        simp.setdefault(c.dim, []).append(c.id)
        if c.dim >= 1:
            faces[c.id] = tuple(map(c.attach.assign.__getitem__,
                                    facet_ids(c.dim)))
    st._body = DeltaComplex(simp, faces, validate=False)
    return st._body

