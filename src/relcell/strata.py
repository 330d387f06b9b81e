"""Single layers of attached cells ("strata") and the body each one glues.

A stratum is a boundary complex together with a finite set of cells; each
cell has a shape dimension k and an attaching map from the boundary of the
standard k-simplex into the stratum's boundary.  A cell is the plain tuple
``(id, k, images)``: its attach is stored as the images of the boundary ids
in ``boundary_keys(k)`` order.  The codomain is the stratum's boundary, so
``Stratum`` checks each attach, position by position against a plan cached
per shape: each image must have its boundary id's dimension and, above
dimension 0, the images of that id's faces as its faces, which is exactly
what makes the images a map into the boundary.  No map is built per cell.
The body of a stratum glues one fresh top simplex per cell onto the
boundary, its faces read off the image tuple by position; the fresh simplex
reuses the cell's id, so the boundary is a literal subcomplex of the body.
Strata are immutable, so each one glues its body at most once.

A stratum is a cell complex of height at most one: its morphisms,
pushforwards, colimits and equalisers are those of ``cellcx``.
"""

from __future__ import annotations

import functools
import operator

from .delta import DeltaError, boundary_complex, boundary_keys, facet_ids


class StrataError(DeltaError):
    pass


_ID = operator.itemgetter(0)  # a cell's id


class Stratum:
    """A boundary complex plus a finite set of cells, each the tuple
    ``(id, k, images)``, ordered by id.

    With ``validate``, each cell's images must be a map from the boundary
    of the standard simplex of its shape into ``boundary``.  They are
    checked in ``boundary_keys`` order against the shape's plan, the
    dimension before the faces at each position, so the first bad position
    raises what validating the images as a ``SimplicialMap`` would.
    """

    __slots__ = ("boundary", "cells", "_by_id", "_body")

    def __init__(self, boundary, cells, validate=True):
        self.boundary = boundary
        self.cells = tuple(sorted(cells, key=_ID))
        self._by_id = {c[0]: c for c in self.cells}
        self._body = None
        if len(self._by_id) != len(self.cells):
            raise StrataError("duplicate cell ids in stratum")
        if validate:
            dim_of, faces = boundary._dim_of.get, boundary.faces
            for cid, k, images in self.cells:
                plan = _attach_plan(k)
                if len(images) != len(plan):
                    raise StrataError(f"cell {cid!r}: {len(images)} "
                                      f"images for {len(plan)} boundary ids")
                for (s, d, get), t in zip(plan, images):
                    if dim_of(t) != d:
                        raise DeltaError(
                            f"{s!r} ({d}-simplex) maps to bad id {t!r}")
                    if d and faces[t] != get(images):
                        raise DeltaError(f"face commutation fails at {s!r}")

    def cell(self, cid):
        return self._by_id[cid]

    def __eq__(self, other):
        return isinstance(other, Stratum) and \
            self.boundary == other.boundary and self.cells == other.cells

    def __repr__(self):
        return f"Stratum({self.boundary!r}, {len(self.cells)} cells)"


@functools.lru_cache(maxsize=None)
def _attach_plan(k):
    """The check of a k-cell's images: one step per position, in the order
    of ``boundary_keys(k)``, of that boundary id s, its dimension d, and
    for d >= 1 the getter of the images of the faces of s from the image
    tuple (None for a vertex)."""
    bd, keys = boundary_complex(k), boundary_keys(k)
    position = {s: i for i, s in enumerate(keys)}.__getitem__
    return tuple((s, bd.dim(s), operator.itemgetter(
        *map(position, bd.faces[s])) if bd.dim(s) else None) for s in keys)


@functools.lru_cache(maxsize=None)
def _facets(k):
    """The getter of a k-cell's facet images, d_0..d_k, from ``images``."""
    return operator.itemgetter(*map(boundary_keys(k).index, facet_ids(k)))


def body(st):
    """Glue all cells onto the boundary: the body complex.

    The glued top simplex of each cell carries the cell's id, its faces
    read off the cell's images; a collision with a boundary id is an
    error.  Each grade is one merge onto the boundary's (see
    ``DeltaComplex._extended``).  The body is built on the first call and
    cached on the stratum, so every caller shares one; a stratum without
    cells glues nothing, so its body equals its boundary.  The boundary is
    a literal subcomplex of the body (``inclusion_map(st.boundary,
    body(st))``), and a cell's characteristic map is
    ``delta.characteristic_map(body(st), id)``.
    """
    if st._body is not None:
        return st._body
    added = {}
    faces = {}
    k_run = None
    for cid, k, images in st.cells:
        if k != k_run:  # a run of one shape: its id list and facet getter
            k_run, ids = k, added.setdefault(k, [])
            facets = _facets(k) if k else None
        ids.append(cid)
        if k:
            faces[cid] = facets(images)
    try:
        st._body = st.boundary._extended(added, faces)
    except DeltaError:  # cell ids are distinct: one is a boundary id
        cid = next(c for c, _, _ in st.cells if c in st.boundary)
        raise StrataError(
            f"cell id {cid!r} collides with a boundary simplex") from None
    return st._body
