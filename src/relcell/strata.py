"""Single layers of attached cells ("strata") and their morphisms.

A stratum is a boundary complex together with a finite set of cells; each
cell has a shape dimension k and an attaching map from the boundary of the
standard k-simplex into the stratum's boundary.  The body of a stratum glues
one fresh top simplex per cell onto the boundary; the fresh simplex reuses
the cell's id, so the boundary is a literal subcomplex of the body.  Strata
are immutable, so each one glues its body at most once.

``cells_over`` reads the cells back off a body; ``strata_colimit`` and
``strata_equaliser`` read theirs off the colimit or equaliser of bodies.
"""

from __future__ import annotations

from .delta import (
    ArrowSquare,
    DeltaComplex,
    DeltaError,
    SimplicialMap,
    boundary_complex,
    boundary_restriction,
    colimit,
    compose,
    equaliser,
    facet_ids,
    identity_map,
    inclusion_map,
    pushout,
)


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
    """Glue all cells onto the boundary.

    Returns (body complex, inclusion of the boundary).  The glued top simplex
    of each cell carries the cell's id; a collision with a boundary id is an
    error.  The pair is built on the first call and cached on the stratum,
    so every caller shares one body; a stratum without cells has its
    boundary as its body.  A cell's characteristic map is
    ``delta.characteristic_map(body complex, cell id)``.
    """
    if st._body is not None:
        return st._body
    if not st.cells:
        st._body = (st.boundary, identity_map(st.boundary))
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
    total = DeltaComplex(simp, faces, validate=False)
    st._body = (total, inclusion_map(st.boundary, total))
    return st._body


class StrataMorphism:
    """A boundary map plus a shape- and attach-preserving cell assignment."""

    __slots__ = ("dom", "cod", "f", "p")

    def __init__(self, dom, cod, f, p, validate=True):
        self.dom = dom
        self.cod = cod
        self.f = f
        self.p = dict(p)
        if validate:
            if f.dom != dom.boundary or f.cod != cod.boundary:
                raise StrataError("boundary map endpoints do not match")
            if set(self.p) != set(dom._by_id):
                raise StrataError("cell assignment is not total")
            for tid in self.p.values():
                if tid not in cod._by_id:
                    raise StrataError(f"unknown target cell {tid!r}")
            # an attach is fixed by its facets: check shapes and attaches
            try:
                self.body_map._validate()
            except DeltaError as err:
                raise StrataError(f"not a map of bodies: {err}") from err

    @property
    def body_map(self):
        return SimplicialMap(body(self.dom)[0], body(self.cod)[0],
                             {**self.f.assign, **self.p}, validate=False)

    def __eq__(self, other):
        return isinstance(other, StrataMorphism) and \
            (self.dom, self.cod, self.f, self.p) == \
            (other.dom, other.cod, other.f, other.p)

    def __repr__(self):
        return f"StrataMorphism({self.dom!r} -> {self.cod!r})"


def identity_strata_morphism(st):
    return StrataMorphism(st, st, identity_map(st.boundary),
                          {c.id: c.id for c in st.cells}, validate=False)


def compose_strata_morphisms(m2, m1):
    if m1.cod != m2.dom:
        raise StrataError("strata morphisms do not compose")
    return StrataMorphism(m1.dom, m2.cod, compose(m2.f, m1.f),
                          {cid: m2.p[t] for cid, t in m1.p.items()},
                          validate=False)


def u_of_strata_morphism(m):
    """The square with the underlying-map legs and the induced body map."""
    return ArrowSquare(top=m.f, bottom=m.body_map, left=body(m.dom)[1],
                       right=body(m.cod)[1])


def pushforward_stratum(st, g):
    """Transport a stratum along a map out of its boundary."""
    return pushforward_morphism(st, g).cod


def pushforward_morphism(st, g):
    """The canonical morphism from a stratum to its pushforward.

    Each cell is attached along g and named by the pushout leg of the
    body: it keeps its id, with trailing ``'`` while g's codomain holds it,
    as ``cellcx.pushforward_complex`` names it.
    """
    if g.dom != st.boundary:
        raise StrataError("pushforward map must start at the boundary")
    _, leg, _ = pushout(body(st)[1], g)
    p = {c.id: leg(c.id) for c in st.cells}
    cells = [Cell(p[c.id], c.dim, compose(g, c.attach), validate=False)
             for c in st.cells]
    return StrataMorphism(st, Stratum(g.cod, cells, validate=False), g, p,
                          validate=False)


def cells_over(base, total, cod):
    """Each simplex of ``total`` outside its literal subcomplex ``base``,
    as a cell attached along its faces by a map into ``cod``."""
    return [Cell(s, k, SimplicialMap(boundary_complex(k), cod,
                                     boundary_restriction(total, s).assign,
                                     validate=False), validate=False)
            for k, s in total.all_ids() if s not in base]


def strata_colimit(objs, arrows):
    """Colimit of a finite diagram of strata.

    ``arrows`` is a list of (src_index, dst_index, StrataMorphism).  The
    boundary is the degreewise colimit of boundaries and the cells are read
    off the colimit of bodies, a literal supercomplex since both name a
    class by its least ``"<i>.<id>"`` tag.  Returns (stratum, cocone
    morphisms).
    """
    bound, legs = colimit([st.boundary for st in objs],
                          [(a, b, m.f) for a, b, m in arrows])
    for a, b, m in arrows:
        if m.dom != objs[a] or m.cod != objs[b]:
            raise StrataError("diagram arrow endpoints do not match")
    total, body_legs = colimit([body(st)[0] for st in objs],
                               [(a, b, m.body_map) for a, b, m in arrows])
    out = Stratum(bound, cells_over(bound, total, bound), validate=False)
    cocone = [StrataMorphism(st, out, legs[i],
                             {c.id: body_legs[i](c.id) for c in st.cells},
                             validate=False)
              for i, st in enumerate(objs)]
    return out, cocone


def strata_equaliser(m1, m2):
    """The equaliser of a parallel pair of strata morphisms.

    Returns (stratum, inclusion morphism).  The boundary is the agreement
    subcomplex; the cells, read off that of the body maps, are those sent
    to the same target by both.
    """
    if m1.dom != m2.dom or m1.cod != m2.cod:
        raise StrataError("equaliser needs a parallel pair")
    e, incl = equaliser(m1.f, m2.f)
    total, _ = equaliser(m1.body_map, m2.body_map)
    sub = Stratum(e, cells_over(e, total, e), validate=False)
    return sub, StrataMorphism(sub, m1.dom, incl,
                               {c.id: c.id for c in sub.cells}, validate=False)
