"""Single layers of attached cells ("strata") and the body each one glues.

A stratum is a boundary complex together with a finite set of cells; each
cell has a shape dimension k and an attaching map from the boundary of the
standard k-simplex into the stratum's boundary.  A cell is the plain tuple
``(id, k, images)``: its attach is stored as the images of the boundary ids
in ``boundary_keys(k)`` order, checked by ``Stratum`` as a map into the
boundary without building a map per cell.  The body of a stratum glues one
top simplex per cell onto the boundary, reusing the cell's id (``body``).

A stratum is a cell complex of height at most one: its morphisms,
pushforwards, colimits and equalisers are those of ``cellcx``.
"""

from __future__ import annotations

import functools
import itertools
import operator

from .delta import (DeltaComplex, DeltaError, _first_repeat, _new, _strings,
                    boundary_complex, boundary_keys, facet_ids)


class StrataError(DeltaError):
    pass


_ID = operator.itemgetter(0)  # a cell's id


def _boundary_ids(cid, k):
    """``boundary_keys(k)`` for the shape k of cell ``cid``, an ``int``."""
    if type(k) is not int:
        raise StrataError(f"cell {cid!r}: dimension {k!r} is not an integer")
    return boundary_keys(k)


def _cells(boundary, cells):
    """The cells as a tuple, each checked as ``Stratum`` takes it."""
    if not (isinstance(boundary, DeltaComplex) and
            isinstance(cells, (list, tuple))):
        raise StrataError("a stratum takes a complex and a list or tuple "
                          "of cells")
    cells = tuple(cells)
    for c in cells:
        if type(c) is not tuple or len(c) != 3 or type(c[2]) is not tuple \
                or len(c[2]) != len(_boundary_ids(c[0], c[1])):
            raise StrataError(f"{c!r} is not (id, k, images for boundary ids)")
    if not _strings(itertools.chain(map(_ID, cells),
                                    *map(operator.itemgetter(2), cells))):
        c = next(c for c in cells if not _strings((c[0], *c[2])))
        raise StrataError(f"cell {c!r}: its id and images must be strings")
    return cells


class Stratum:
    """A boundary complex plus a finite set of cells ordered by id, each
    an exact tuple ``(id, k, images)`` of a ``str`` id, an ``int`` shape k
    and an exact tuple of ``str`` images: a map from the boundary of the
    standard k-simplex into ``boundary``, checked against a plan cached per
    shape, at each position the image's dimension, then its faces, so the
    first bad position raises what a checked ``SimplicialMap`` would.
    ``_owning`` is the one unchecked path.
    """

    __slots__ = ("boundary", "cells", "_by_id", "_body")

    def __init__(self, boundary, cells):
        st = Stratum._owning(boundary, _cells(boundary, cells))
        self.boundary, self.cells, self._by_id = boundary, st.cells, st._by_id
        self._body = None
        dim_of, faces = boundary._dim_of.get, boundary.faces
        for cid, k, images in self.cells:
            for (s, d, get), t in zip(_attach_plan(k), images):
                if dim_of(t) != d:
                    raise DeltaError(
                        f"{s!r} ({d}-simplex) maps to bad id {t!r}")
                if d and faces[t] != get(images):
                    raise DeltaError(f"face commutation fails at {s!r}")

    @classmethod
    def _owning(cls, boundary, cells):
        """Unchecked, but that its cell ids are distinct."""
        st = _new(cls)
        st.boundary = boundary
        st.cells = tuple(sorted(cells, key=_ID))
        st._by_id = {c[0]: c for c in st.cells}
        st._body = None
        if len(st._by_id) != len(st.cells):
            raise StrataError(f"duplicate cell id "
                              f"{_first_repeat(map(_ID, st.cells))!r}")
        return st

    def cell(self, cid):
        return self._by_id[cid]

    def __eq__(self, other):
        return isinstance(other, Stratum) and \
            self.boundary == other.boundary and self.cells == other.cells


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
