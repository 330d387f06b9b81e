"""Single layers of attached cells ("strata") and their morphisms.

A stratum is a boundary complex together with a finite set of cells; each
cell has a shape dimension k and an attaching map from the boundary of the
standard k-simplex into the stratum's boundary.  The body of a stratum glues
one fresh top simplex per cell onto the boundary; the fresh simplex reuses
the cell's id, so the boundary is a literal subcomplex of the body.  Strata
are immutable, so each one glues its body at most once.

``merge_cells`` merges the cells of a diagram; ``strata_colimit`` and
``cellcx.cellcx_colimit`` share it.
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
    least_tags,
    name_classes,
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


def merge_cells(cells, arrows, legs):
    """The cells of a colimit: classes of the equivalence that the diagram's
    cell assignments generate.

    ``cells[i]`` lists the cells of object i, ``arrows`` holds
    (src_index, dst_index, cell assignment) triples, and ``legs[i]`` maps
    the boundary of object i into the colimit boundary.  A class is named
    by its least ``"<i>.<id>"`` tag and attaches along the legs, extended
    by these names on cells; all its members must give one shape and one
    attach.  Returns (merged cells, name of each (i, cell id)).
    """
    name_of = name_classes(
        [(i, c.id) for i, cs in enumerate(cells) for c in cs],
        [((a, cid), (b, tid)) for a, b, p in arrows for cid, tid in p.items()],
        least_tags)
    extended = [dict(leg.assign) for leg in legs]
    for (i, cid), name in name_of.items():
        extended[i][cid] = name
    merged = {}
    for i, cs in enumerate(cells):
        for c in cs:
            attach = SimplicialMap(
                c.attach.dom, legs[i].cod,
                {s: extended[i][t] for s, t in c.attach.assign.items()},
                validate=False)
            cell = Cell(name_of[(i, c.id)], c.dim, attach, validate=False)
            if merged.setdefault(cell.id, cell) != cell:
                raise StrataError("inconsistent merged cell data in colimit")
    return list(merged.values()), name_of


def strata_colimit(objs, arrows):
    """Colimit of a finite diagram of strata.

    ``arrows`` is a list of (src_index, dst_index, StrataMorphism).  The
    boundary is the degreewise colimit of boundaries and the cells are
    merged by ``merge_cells``.  Returns (stratum, cocone morphisms).
    """
    bound, legs = colimit([st.boundary for st in objs],
                          [(a, b, m.f) for a, b, m in arrows])
    for a, b, m in arrows:
        if m.dom != objs[a] or m.cod != objs[b]:
            raise StrataError("diagram arrow endpoints do not match")
    cells, name_of = merge_cells([st.cells for st in objs],
                                 [(a, b, m.p) for a, b, m in arrows], legs)
    out = Stratum(bound, cells, validate=False)
    cocone = [StrataMorphism(st, out, legs[i],
                             {c.id: name_of[(i, c.id)] for c in st.cells},
                             validate=False)
              for i, st in enumerate(objs)]
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
