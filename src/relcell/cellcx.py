"""Proper connected sequences of strata and their morphisms.

A cell complex stores only its nonempty strata; the infinite tail of empty
strata is implicit.  Connectedness means each stratum's boundary is literally
the body of the previous one; properness means no cell of stage n >= 1
attaches entirely inside stage n - 1.  Because glued simplices reuse cell
ids, every filtration stage is a literal subcomplex of the body and
"factors through stage n" is a plain containment check.

A derived complex is fixed by its underlying inclusion, base in body:
``complex_of`` reads its cells off the body and hands them to ``assemble``,
which alone places each cell, at the least stage its attach allows.  A
pushforward, colimit, equaliser or decoded coalgebra is the ``delta``
construction on bodies read this way; normal forms and composites list
their cells for ``assemble`` directly.
"""

from __future__ import annotations

from .delta import (
    ArrowSquare,
    DeltaError,
    SimplicialMap,
    boundary_complex,
    boundary_restriction,
    colimit,
    compose,
    equaliser,
    identity_map,
    inclusion_map,
    pushout,
)
from .strata import Cell, Stratum, body


class CellComplexError(DeltaError):
    pass


class CellComplex:
    """A finite proper connected sequence of strata over a base complex.

    Its underlying map is built on first use and kept (``u_of_complex``).
    """

    __slots__ = ("boundary", "strata", "_stages", "_cell_stage", "_u")

    def __init__(self, boundary, strata, validate=True):
        self.boundary = boundary
        self.strata = tuple(strata)
        self._stages = (boundary, *map(body, self.strata))
        self._u = None
        self._cell_stage = {}
        for n, st in enumerate(self.strata):
            for c in st.cells:
                if c.id in self._cell_stage:
                    raise CellComplexError(f"duplicate cell id {c.id!r}")
                self._cell_stage[c.id] = n
        if validate:
            self._validate()

    def _validate(self):
        for n, st in enumerate(self.strata):
            if not st.cells:
                raise CellComplexError(
                    f"stratum {n} is empty; empty strata are implicit")
            if st.boundary != self._stages[n]:
                raise CellComplexError(
                    f"stratum {n} is not connected to the previous body")
            if n >= 1:
                prev = self._stages[n - 1].id_set
                for c in st.cells:
                    if set(c.attach.assign.values()) <= prev:
                        raise CellComplexError(
                            f"cell {c.id!r} at stage {n} attaches inside "
                            f"stage {n - 1}: sequence is improper")

    # -- queries -----------------------------------------------------------

    @property
    def height(self):
        return len(self.strata)

    @property
    def body(self):
        return self._stages[-1]

    @property
    def filtration(self):
        """The stages: the base, then each stratum's body, each a literal
        subcomplex of the next."""
        return self._stages

    def stage_of_cell(self, cid):
        return self._cell_stage[cid]

    def cell(self, cid):
        return self.strata[self._cell_stage[cid]].cell(cid)

    def all_cells(self):
        for n, st in enumerate(self.strata):
            for c in st.cells:
                yield n, c

    @property
    def cell_ids(self):
        return frozenset(self._cell_stage)

    def __eq__(self, other):
        return isinstance(other, CellComplex) and \
            self.boundary == other.boundary and self.strata == other.strata

    def __repr__(self):
        sizes = ",".join(str(len(st.cells)) for st in self.strata)
        return f"CellComplex(height={self.height}, cells=[{sizes}])"


def trivial_complex(x):
    return CellComplex(x, (), validate=False)


def u_of_complex(c):
    """The underlying map: the identifier inclusion of the base in the body,
    built and checked once per complex and shared."""
    if c._u is None:
        c._u = inclusion_map(c.boundary, c.body)
    return c._u


def generator_complex(k):
    """The canonical height-one single-cell complex over the k-th generator."""
    bd = boundary_complex(k)
    cell = Cell(f"cell{k}", k, identity_map(bd), validate=False)
    return CellComplex(bd, (Stratum(bd, [cell], validate=False),),
                       validate=False)


# -- normal form ----------------------------------------------------------


def assemble(boundary, cells):
    """Build the proper complex with the given cells over the base.

    ``cells`` attach into the union of the base and all glued simplices
    (cell ids).  Each cell is placed at the least stage containing its
    attach image; placement iterates to a fixpoint.  Fails if some cell's
    attach references ids that never appear.
    """
    remaining = sorted(cells, key=lambda c: c.id)
    strata = []
    current = boundary
    while remaining:
        ids = current.id_set
        placeable = [
            c for c in remaining if ids.issuperset(c.attach.assign.values())]
        if not placeable:
            missing = sorted(
                set().union(*(set(c.attach.assign.values())
                              for c in remaining)) - ids)
            raise CellComplexError(
                f"cells {[c.id for c in remaining]} can never be placed; "
                f"unreachable simplices include {missing[:5]}")
        st = Stratum(current,
                     [Cell(c.id, c.dim,
                           SimplicialMap(c.attach.dom, current,
                                         c.attach.assign, validate=False),
                           validate=False)
                      for c in placeable],
                     validate=False)
        strata.append(st)
        current = body(st)
        placed = {c.id for c in placeable}
        remaining = [c for c in remaining if c.id not in placed]
    return CellComplex(boundary, strata, validate=False)


def complex_of(base, total):
    """The proper complex whose underlying inclusion is ``base`` in
    ``total``: every other simplex of ``total`` is a cell, attached along
    its faces."""
    return assemble(base, [Cell(s, k, boundary_restriction(total, s),
                                validate=False)
                           for k, s in total.all_ids() if s not in base])


def normalize(boundary, strata_seq):
    """Reorder a connected (possibly improper) stratum sequence into a
    proper complex with the same cells, ids and underlying map."""
    cells = []
    for st in strata_seq:
        cells.extend(st.cells)
    return assemble(boundary, cells)


def compose_complexes(a, b):
    """The composite complex: b glued on top of a.

    ``b``'s boundary must be ``a``'s body.  Implemented by concatenating the
    stratum lists and renormalizing; cells of b sink to the least stage their
    attaching maps allow.
    """
    if b.boundary != a.body:
        raise CellComplexError(
            "boundary of the second complex must equal the body of the first")
    return normalize(a.boundary, a.strata + b.strata)


# -- morphisms ------------------------------------------------------------


class CellComplexMorphism:
    """A base map plus a global, stage-preserving cell assignment.

    The stagewise boundary maps are derived: the stage-(n+1) map extends the
    stage-n map by sending each glued simplex to the glued simplex of the
    assigned cell, which is exactly the coherence condition.
    """

    __slots__ = ("dom", "cod", "f0", "p")

    def __init__(self, dom, cod, f0, p, validate=True):
        self.dom = dom
        self.cod = cod
        self.f0 = f0
        self.p = dict(p)
        if validate:
            self._validate()

    def _validate(self):
        if self.f0.dom != self.dom.boundary or \
                self.f0.cod != self.cod.boundary:
            raise CellComplexError("base map endpoints do not match")
        if set(self.p) != set(self.dom._cell_stage):
            raise CellComplexError("cell assignment is not total")
        for cid, tid in self.p.items():
            if tid not in self.cod._cell_stage:
                raise CellComplexError(f"unknown target cell {tid!r}")
            n = self.dom._cell_stage[cid]
            if self.cod._cell_stage[tid] != n:
                raise CellComplexError(
                    f"cell {cid!r} at stage {n} maps across stages")
        # an attach is fixed by its facets: check shapes and attaches
        try:
            self.body_map._validate()
        except DeltaError as err:
            raise CellComplexError(f"not a map of bodies: {err}") from err

    @property
    def body_map(self):
        return SimplicialMap(self.dom.body, self.cod.body,
                             {**self.f0.assign, **self.p}, validate=False)

    def __eq__(self, other):
        return isinstance(other, CellComplexMorphism) and \
            (self.dom, self.cod, self.f0, self.p) == \
            (other.dom, other.cod, other.f0, other.p)

    def __repr__(self):
        return f"CellComplexMorphism({self.dom!r} -> {self.cod!r})"


def identity_morphism(c):
    return CellComplexMorphism(c, c, identity_map(c.boundary),
                               {cid: cid for cid in c._cell_stage},
                               validate=False)


def compose_morphisms(m2, m1):
    if m1.cod != m2.dom:
        raise CellComplexError("morphisms do not compose")
    return CellComplexMorphism(m1.dom, m2.cod, compose(m2.f0, m1.f0),
                               {cid: m2.p[t] for cid, t in m1.p.items()},
                               validate=False)


def u_of_morphism(m):
    """The underlying square of a cell complex morphism."""
    return ArrowSquare(top=m.f0, bottom=m.body_map,
                       left=u_of_complex(m.dom), right=u_of_complex(m.cod))


def is_isomorphism(m):
    """True iff the base map and the cell assignment are bijections."""
    if not m.f0.is_bijective():
        return False
    return sorted(m.p.values()) == sorted(m.cod._cell_stage)


def horizontal_compose(psi, phi):
    """Glue morphisms of stacked complexes: (b * a) -> (b' * a').

    ``phi: a -> a'`` and ``psi: b -> b'`` with b stacked on a and b' on a';
    psi's base map must be phi's body map.
    """
    if psi.f0 != phi.body_map:
        raise CellComplexError(
            "base map of the upper morphism must be the body map of "
            "the lower one")
    ba = compose_complexes(phi.dom, psi.dom)
    ba2 = compose_complexes(phi.cod, psi.cod)
    p = dict(phi.p)
    p.update(psi.p)
    return CellComplexMorphism(ba, ba2, phi.f0, p)


# -- pushforward ----------------------------------------------------------


def pushforward_complex(c, g):
    """Transport a complex along a map out of its base.

    Returns (pushforward complex, canonical morphism into it).  The body is
    the pushout of the underlying inclusion along g.  A cell keeps its id,
    with trailing ``'`` while g's codomain holds it, and its stage, so each
    stage square of the morphism is a pushout square.
    """
    if g.dom != c.boundary:
        raise CellComplexError("pushforward map must start at the base")
    total, leg, _ = pushout(u_of_complex(c), g)
    out = complex_of(g.cod, total)
    out._validate()
    return out, CellComplexMorphism(
        c, out, g, {cid: leg(cid) for cid in c._cell_stage})


# -- (co)limits -----------------------------------------------------------


def cellcx_colimit(objs, arrows):
    """Componentwise colimit of a finite diagram of cell complexes.

    ``arrows`` is a list of (src_index, dst_index, CellComplexMorphism).
    The base is the degreewise colimit of the bases, and the complex is read
    off the colimit of the bodies, a literal supercomplex since both name a
    class by its least ``"<i>.<id>"`` tag.  Morphisms preserve stages, so a
    merged cell keeps the stage of its members.  Returns (complex, cocone
    morphisms).
    """
    base, legs = colimit([o.boundary for o in objs],
                         [(a, b, m.f0) for a, b, m in arrows])
    for a, b, m in arrows:
        if m.dom != objs[a] or m.cod != objs[b]:
            raise CellComplexError("diagram arrow endpoints do not match")
    total, body_legs = colimit([o.body for o in objs],
                               [(a, b, m.body_map) for a, b, m in arrows])
    out = complex_of(base, total)
    out._validate()
    cocone = [CellComplexMorphism(o, out, legs[i],
                                  {cid: body_legs[i](cid)
                                   for cid in o._cell_stage})
              for i, o in enumerate(objs)]
    return out, cocone


def cellcx_coproduct(parts):
    return cellcx_colimit(parts, [])


def cellcx_equaliser(m1, m2):
    """Componentwise equaliser of a parallel pair of morphisms.

    Returns (subcomplex, inclusion morphism).  The base is the agreement
    subcomplex of the base maps and the complex is read off that of the body
    maps, so its cells are those on which the assignments agree.  Each kept
    cell keeps its stage.
    """
    if m1.dom != m2.dom or m1.cod != m2.cod:
        raise CellComplexError("equaliser needs a parallel pair")
    e0, incl0 = equaliser(m1.f0, m2.f0)
    sub = complex_of(e0, equaliser(m1.body_map, m2.body_map)[0])
    sub._validate()
    return sub, CellComplexMorphism(sub, m1.dom, incl0,
                                    {cid: cid for cid in sub._cell_stage})
