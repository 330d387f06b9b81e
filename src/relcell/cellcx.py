"""Proper connected sequences of strata and their morphisms.

A cell complex stores only its nonempty strata; the infinite tail of empty
strata is implicit.  Connectedness means each stratum's boundary is literally
the body of the previous one; properness means no cell of stage n >= 1
attaches entirely inside stage n - 1, which is read off the set of the
``images`` of the cell ``(id, k, images)``, its attach as an image tuple.
Because glued simplices reuse cell ids, every filtration stage is a literal
subcomplex of the body and "factors through stage n" is a plain
containment check.

A derived complex is fixed by its underlying inclusion, base in body:
``complex_of`` reads its cells off the body and hands them to ``assemble``,
which alone places each cell, at the least stage its attach allows, so
its output is proper and connected by construction.  A pushforward,
colimit, equaliser or decoded coalgebra is one ``delta`` construction on
bodies read this way; composites list their cells for ``assemble``
directly.
"""

from __future__ import annotations

from .delta import (
    ArrowSquare,
    DeltaError,
    SimplicialMap,
    boundary_complex,
    boundary_keys,
    boundary_restriction,
    colimit,
    compose,
    equaliser,
    identity_map,
    inclusion_map,
    pushout,
)
from .strata import _ID, Stratum, body


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
        stage = self._cell_stage = {}
        for n, st in enumerate(self.strata):
            stage.update(dict.fromkeys(st._by_id, n))
        if len(stage) != sum(len(st.cells) for st in self.strata):
            seen = set()  # the first id met twice
            cid = next(c for st in self.strata for c in st._by_id
                       if c in seen or seen.add(c))
            raise CellComplexError(f"duplicate cell id {cid!r}")
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
                for cid, _, images in st.cells:
                    if prev.issuperset(images):
                        raise CellComplexError(
                            f"cell {cid!r} at stage {n} attaches inside "
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
    cell = (f"cell{k}", k, boundary_keys(k))  # attached by the identity
    return CellComplex(bd, (Stratum(bd, [cell], validate=False),),
                       validate=False)


# -- normal form ----------------------------------------------------------


def assemble(boundary, cells):
    """Build the proper complex with the given cells over the base.

    ``cells`` attach into the union of the base and all glued simplices
    (cell ids).  Each cell is placed at the least stage containing its
    attach image (the set of its ``images``); placement iterates to a
    fixpoint, and each cell is placed as it is.  Fails if some cell's
    attach references ids that never appear.
    """
    remaining = sorted(cells, key=_ID)
    strata = []
    current = boundary
    while remaining:
        ids = current.id_set
        placeable = [c for c in remaining if ids.issuperset(c[2])]
        if not placeable:
            missing = sorted(
                set().union(*(images for _, _, images in remaining)) - ids)
            raise CellComplexError(
                f"cells {list(map(_ID, remaining))} can never be placed; "
                f"unreachable simplices include {missing[:5]}")
        st = Stratum(current, placeable, validate=False)
        strata.append(st)
        current = body(st)
        remaining = [c for c in remaining if c[0] not in st._by_id]
    return CellComplex(boundary, strata, validate=False)


def complex_of(base, total):
    """The proper complex whose underlying inclusion is ``base`` in
    ``total``: every other simplex of ``total`` is a cell, attached along
    its faces."""
    return assemble(base, [
        (s, k, tuple(map(boundary_restriction(total, s).assign.get,
                         boundary_keys(k))))
        for k, s in total.all_ids() if s not in base])


def compose_complexes(a, b):
    """The composite complex: b glued on top of a.

    ``b``'s boundary must be ``a``'s body.  The cells of a, then of b, go
    to ``assemble`` over a's base; cells of b sink to the least stage their
    attaching maps allow.
    """
    if b.boundary != a.body:
        raise CellComplexError(
            "boundary of the second complex must equal the body of the first")
    return assemble(a.boundary,
                    [c for st in a.strata + b.strata for c in st.cells])


# -- morphisms ------------------------------------------------------------


class CellComplexMorphism:
    """A map of bodies that keeps the base and the stages: it sends the
    base into the base and each cell to a cell at the same stage.

    Its restrictions to the base and to the cells are ``f0`` and ``p``; the
    stagewise boundary maps are its restrictions to the stages.
    """

    __slots__ = ("dom", "cod", "body_map")

    def __init__(self, dom, cod, body_map, validate=True):
        self.dom = dom
        self.cod = cod
        self.body_map = body_map
        if validate:
            self._validate()

    def _validate(self):
        m = self.body_map
        if m.dom != self.dom.body or m.cod != self.cod.body:
            raise CellComplexError("body map endpoints do not match")
        try:
            m._validate()
        except DeltaError as err:
            raise CellComplexError(f"not a map of bodies: {err}") from err
        a, base = m.assign, self.cod.boundary
        if any(a[s] not in base for s in self.dom.boundary._dim_of):
            raise CellComplexError("base map endpoints do not match")
        stage = self.cod._cell_stage
        for cid, n in self.dom._cell_stage.items():
            if a[cid] not in stage:
                raise CellComplexError(f"unknown target cell {a[cid]!r}")
            if stage[a[cid]] != n:
                raise CellComplexError(
                    f"cell {cid!r} at stage {n} maps across stages")

    @property
    def f0(self):
        """The base map: the body map restricted to the bases."""
        a = self.body_map.assign
        return SimplicialMap._owning(
            self.dom.boundary, self.cod.boundary,
            {s: a[s] for s in self.dom.boundary._dim_of})

    @property
    def p(self):
        """The cell assignment: the body map restricted to the cells."""
        a = self.body_map.assign
        return {cid: a[cid] for cid in self.dom._cell_stage}

    def __eq__(self, other):
        return isinstance(other, CellComplexMorphism) and \
            (self.dom, self.cod, self.body_map) == \
            (other.dom, other.cod, other.body_map)

    def __repr__(self):
        return f"CellComplexMorphism({self.dom!r} -> {self.cod!r})"


def identity_morphism(c):
    return CellComplexMorphism(c, c, identity_map(c.body), validate=False)


def compose_morphisms(m2, m1):
    if m1.cod != m2.dom:
        raise CellComplexError("morphisms do not compose")
    return CellComplexMorphism(m1.dom, m2.cod,
                               compose(m2.body_map, m1.body_map),
                               validate=False)


def u_of_morphism(m):
    """The underlying square of a cell complex morphism."""
    return ArrowSquare(top=m.f0, bottom=m.body_map,
                       left=u_of_complex(m.dom), right=u_of_complex(m.cod))


def is_isomorphism(m):
    """True iff the body map, and so ``f0`` and ``p``, are bijections."""
    return m.body_map.is_bijective()


def horizontal_compose(psi, phi):
    """Glue morphisms of stacked complexes: (b * a) -> (b' * a').

    ``phi: a -> a'`` and ``psi: b -> b'`` with b stacked on a and b' on a';
    psi's base map must be phi's body map, so psi's body map glues both.
    """
    if psi.f0 != phi.body_map:
        raise CellComplexError(
            "base map of the upper morphism must be the body map of "
            "the lower one")
    ba = compose_complexes(phi.dom, psi.dom)
    ba2 = compose_complexes(phi.cod, psi.cod)
    return CellComplexMorphism(ba, ba2, psi.body_map)


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
    return out, CellComplexMorphism(c, out, leg)


# -- (co)limits -----------------------------------------------------------


def cellcx_colimit(objs, arrows):
    """Componentwise colimit of a finite diagram of cell complexes.

    ``arrows`` is a list of (src_index, dst_index, CellComplexMorphism).
    The complex is read off the colimit of the bodies, with the image of
    the bases under its legs as base.  A morphism sends base to base and
    cells to cells, so each class of that colimit is all base or all cells,
    and the base read off is the colimit of the bases, ids included.
    Morphisms preserve stages, so a merged cell keeps the stage of its
    members.  Returns (complex, cocone morphisms).
    """
    for a, b, m in arrows:
        if m.dom != objs[a] or m.cod != objs[b]:
            raise CellComplexError("diagram arrow endpoints do not match")
    total, legs = colimit([o.body for o in objs],
                          [(a, b, m.body_map) for a, b, m in arrows])
    base = total.subcomplex({leg.assign[s] for o, leg in zip(objs, legs)
                             for s in o.boundary._dim_of})
    out = complex_of(base, total)
    return out, [CellComplexMorphism(o, out, leg)
                 for o, leg in zip(objs, legs)]


def cellcx_coproduct(parts):
    return cellcx_colimit(parts, [])


def cellcx_equaliser(m1, m2):
    """Componentwise equaliser of a parallel pair of morphisms.

    Returns (subcomplex, inclusion morphism).  The complex is read off the
    agreement subcomplex of the body maps, with the base ids it keeps as
    base, so its cells are those on which the assignments agree.  Each kept
    cell keeps its stage.
    """
    if m1.dom != m2.dom or m1.cod != m2.cod:
        raise CellComplexError("equaliser needs a parallel pair")
    total, incl = equaliser(m1.body_map, m2.body_map)
    base = m1.dom.boundary
    sub = complex_of(base.subcomplex(filter(total.__contains__,
                                            base._dim_of)), total)
    return sub, CellComplexMorphism(sub, m1.dom, incl)
