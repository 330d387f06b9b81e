"""Single layers of attached cells ("strata") and their morphisms.

A stratum is a boundary complex together with a finite set of cells; each
cell has a shape dimension k and an attaching map from the boundary of the
standard k-simplex into the stratum's boundary.  The body of a stratum glues
one fresh top simplex per cell onto the boundary; the fresh simplex reuses
the cell's id, so the boundary is a literal subcomplex of the body.  Strata
are immutable, so each one glues its body at most once.
"""

from __future__ import annotations

from .delta import (
    ArrowSquare,
    DeltaComplex,
    DeltaError,
    SimplicialMap,
    boundary_complex,
    colimit,
    compose,
    facet_ids,
    inclusion_map,
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
    so every caller shares one body.  A cell's characteristic map is
    ``delta.characteristic_map(body complex, cell id)``.
    """
    if st._body is not None:
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
            for cid, tid in self.p.items():
                s = dom.cell(cid)
                if tid not in cod._by_id:
                    raise StrataError(f"unknown target cell {tid!r}")
                t = cod.cell(tid)
                if s.dim != t.dim:
                    raise StrataError(f"cell {cid!r} changes dimension")
                if compose(f, s.attach) != t.attach:
                    raise StrataError(
                        f"attach of cell {cid!r} is not preserved")

    def __eq__(self, other):
        return isinstance(other, StrataMorphism) and \
            (self.dom, self.cod, self.f, self.p) == \
            (other.dom, other.cod, other.f, other.p)

    def __repr__(self):
        return f"StrataMorphism({self.dom!r} -> {self.cod!r})"


def identity_strata_morphism(st):
    from .delta import identity_map
    return StrataMorphism(st, st, identity_map(st.boundary),
                          {c.id: c.id for c in st.cells}, validate=False)


def compose_strata_morphisms(m2, m1):
    if m1.cod != m2.dom:
        raise StrataError("strata morphisms do not compose")
    return StrataMorphism(m1.dom, m2.cod, compose(m2.f, m1.f),
                          {cid: m2.p[t] for cid, t in m1.p.items()},
                          validate=False)


def body_map(m):
    """The induced map between bodies: boundary part by f, glued by p."""
    bx = body(m.dom)[0]
    by = body(m.cod)[0]
    assign = dict(m.f.assign)
    for cid, tid in m.p.items():
        assign[cid] = tid
    return SimplicialMap(bx, by, assign, validate=False)


def u_of_strata_morphism(m):
    """The square with the underlying-map legs and the induced body map."""
    bx, inclx = body(m.dom)
    by, incly = body(m.cod)
    assign = dict(m.f.assign)
    for cid, tid in m.p.items():
        assign[cid] = tid
    bot = SimplicialMap(bx, by, assign, validate=False)
    return ArrowSquare(top=m.f, bottom=bot, left=inclx, right=incly)


def pushforward_stratum(st, g):
    """Transport a stratum along a map out of its boundary."""
    if g.dom != st.boundary:
        raise StrataError("pushforward map must start at the boundary")
    cells = [Cell(c.id, c.dim, compose(g, c.attach), validate=False)
             for c in st.cells]
    return Stratum(g.cod, cells, validate=False)


def pushforward_morphism(st, g):
    """The canonical morphism from a stratum to its pushforward."""
    return StrataMorphism(st, pushforward_stratum(st, g), g,
                          {c.id: c.id for c in st.cells}, validate=False)


def strata_colimit(objs, arrows):
    """Colimit of a finite diagram of strata.

    ``arrows`` is a list of (src_index, dst_index, StrataMorphism).  The
    boundary is the degreewise colimit of boundaries; cells are merged by the
    equivalence generated by the diagram's cell assignments, each merged cell
    attaching by the common composite.  Returns (stratum, cocone morphisms).
    """
    bound, legs = colimit([st.boundary for st in objs],
                          [(a, b, m.f) for a, b, m in arrows])
    return _strata_colimit_onto(objs, arrows, bound, legs)


def _strata_colimit_onto(objs, arrows, bound, legs):
    """Cell-level colimit over a prescribed colimit cocone of boundaries."""
    from .delta import _DSU
    dsu = _DSU()
    for i, st in enumerate(objs):
        for c in st.cells:
            dsu.find((i, c.id))
    for a, b, m in arrows:
        if m.dom != objs[a] or m.cod != objs[b]:
            raise StrataError("diagram arrow endpoints do not match")
        for cid, tid in m.p.items():
            dsu.union((a, cid), (b, tid))
    groups = {}
    for i, st in enumerate(objs):
        for c in st.cells:
            groups.setdefault(dsu.find((i, c.id)), []).append((i, c.id))
    cells = []
    name_of = {}
    for members in sorted(sorted(g) for g in groups.values()):
        name = min(f"{i}.{cid}" for i, cid in members)
        attach = None
        dim = None
        for i, cid in members:
            name_of[(i, cid)] = name
            c = objs[i].cell(cid)
            cand = compose(legs[i], c.attach)
            if attach is None:
                attach, dim = cand, c.dim
            elif attach != cand or dim != c.dim:
                raise StrataError("inconsistent merged cell data in colimit")
        cells.append(Cell(name, dim, attach, validate=False))
    out = Stratum(bound, cells, validate=False)
    cocone = [StrataMorphism(
        objs[i], out, legs[i],
        {c.id: name_of[(i, c.id)] for c in objs[i].cells}, validate=False)
        for i in range(len(objs))]
    return out, cocone


def strata_equaliser(m1, m2):
    """The equaliser of a parallel pair of strata morphisms.

    Returns (stratum, inclusion morphism).  The boundary is the agreement
    subcomplex; the cells are those sent to the same target by both.
    """
    from .delta import equaliser
    if m1.dom != m2.dom or m1.cod != m2.cod:
        raise StrataError("equaliser needs a parallel pair")
    e, incl = equaliser(m1.f, m2.f)
    cells = []
    for c in m1.dom.cells:
        if m1.p[c.id] == m2.p[c.id]:
            cells.append(Cell(c.id, c.dim,
                              SimplicialMap(c.attach.dom, e, c.attach.assign,
                                            validate=False),
                              validate=False))
    sub = Stratum(e, cells, validate=False)
    return sub, StrataMorphism(sub, m1.dom, incl,
                               {c.id: c.id for c in cells}, validate=False)
