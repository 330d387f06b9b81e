"""The free factorization, its adjunction, and the monad/comonad law suite.

``free_complex`` factors any map f: A -> B as a proper cell complex on A
followed by a map from its body to B.  Stage n glues one cell for every pair
of a k-simplex of B and a boundary lift into the stage-n space whose image
is not contained in stage n - 1; iteration stops at the first empty stage.
Stage n - 1 is face-closed, so a lift is proper iff some facet is a cell
newly glued at stage n - 1.  Each stage therefore enumerates only the lifts
with a new facet (the semi-naive form of the construction), and shape-0
cells, whose boundary lift is empty, are glued at stage 0 only.  A stage
runs one search per shape over all the targets of that shape, and
computes the ids of that batch of lifts together.

Cell ids spell out (stage, shape dimension, target simplex, hashed
boundary lift) after a short digest of the factored map; they are the JSON
contract.  The hashed lift is 12 hex digits of the SHA-1 of the ASCII JSON
text ``[[key, image], ...]`` of the lift, sorted by key; a batch's texts
are written by one ``%`` fill of ASCII bytes, which costs about half a
``str`` fill per slot and is what SHA-1 reads, from one memo of the ids'
escaped texts per factorization.  Lookups go by target and faces instead:
one cell is glued per generating square and a boundary lift is fixed by
its facets, so ``FactorResult.cell_over`` finds the free cell that answers
a square.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import operator
from json.encoder import encode_basestring_ascii

from .delta import (
    ArrowSquare,
    DeltaError,
    InvariantError,
    SimplicialMap,
    _first_repeat,
    _lift_kernel,
    boundary_keys,
    compose,
    composes_to,
    identity_map,
    mediate,
    pushout,
)
from .strata import Stratum, body
from .cellcx import (
    CellComplex,
    CellComplexMorphism,
    complex_of,
    compose_complexes,
    u_of_complex,
)


DEFAULT_CAP = 32  # the safety cap on the factorization height, by default


class CapExceededError(RuntimeError):
    """The factorization did not stabilize within the safety cap."""

    def __init__(self, stage_counts):
        self.stage_counts = list(stage_counts)
        super().__init__(
            "safety cap exceeded; per-stage cell counts: "
            + ", ".join(map(str, stage_counts)))


def _map_digest(f):
    """10 hex digits of the SHA-1 of the ``repr`` of f's sorted form: each
    endpoint's sorted ``simplices`` and ``faces`` items, then the sorted
    assignment."""
    dom, cod = ((tuple(sorted(x.simplices.items())),
                 tuple(sorted(x.faces.items()))) for x in (f.dom, f.cod))
    raw = repr((dom, cod, tuple(sorted(f.assign.items())))).encode()
    return hashlib.sha1(raw).hexdigest()[:10]


@functools.lru_cache(maxsize=None)
def _lift_template(k):
    """The JSON text ``[["0", %s], ["01", %s], ...]`` of a boundary lift of
    shape k, keys sorted, then a NUL, as an ASCII bytes ``%`` template with
    one slot per image in the order of ``boundary_keys(k)``.  Shape 0 has
    no keys."""
    return ("[" + ", ".join("[" + encode_basestring_ascii(s).replace("%", "%%")
                            + ", %s]" for s in boundary_keys(k))
            + "]\0").encode()


def _cell_ids(digest, stage, k, targets, lifts, escape):
    """The ids ``digest.stage.k.t.LIFT`` of the cells glued at ``stage``
    along the boundary lifts of shape k with images ``lifts`` (in key
    order), each over its k-simplex t of ``targets``.  LIFT is 12 hex
    digits of the SHA-1 of ``json.dumps(sorted(u.assign.items()))`` for the
    lift u.  The texts of the whole batch are filled by one bytes ``%``
    with the images (ids, so strings) as ``escape`` writes them in JSON,
    ASCII bytes, each text followed by a NUL, and split at the NULs in one
    piece: an escaped id writes NUL as ``\\u0000``, and the template holds
    only punctuation and boundary keys.  A bytes fill costs about half a
    ``str`` fill per slot, and needs no encoding before the hash."""
    head = f"{digest}.{stage}.{k}."
    texts = _lift_template(k) * len(lifts) % tuple(
        map(escape, itertools.chain.from_iterable(lifts)))
    sha1 = hashlib.sha1
    return [f"{head}{t}.{sha1(text).hexdigest()[:12]}"
            for t, text in zip(targets, texts.split(b"\0"))]


class _Escapes(dict):
    """The ASCII JSON text of each id, computed on its first lookup, as
    bytes: what the bytes ``%`` fills of cell-id hash texts and of
    ``jsonio.text`` take."""

    __slots__ = ()

    def __missing__(self, s):
        text = self[s] = encode_basestring_ascii(s).encode()
        return text


def cell_index(kf, ef):
    """The cells of kf by their target under ef and their faces, the index
    ``FactorResult.cell_over`` reads; None if two cells share both."""
    over, faces = ef.assign, kf.body.faces
    index = {(over[c], faces.get(c, ())): c for c in kf._cell_stage}
    return index if len(index) == len(kf._cell_stage) else None


def _no_cell_over(target, faces):
    """The error for a square that no free cell answers."""
    return InvariantError(f"no free cell over {target!r} with faces "
                          f"{faces!r}; internal invariant violated")


class FactorResult:
    """A free factorization: input map, complex, and the counit map.

    It memoizes what is derived from it, each on first use, in lazily
    filled slots: the index of its free cells by target and faces
    (``cell_over``; a loader that built it to check its input passes it
    in), the monad multiplication (``monad_mult``), the comonad
    comultiplication (``comonad_comult``), and every map E(a, b) into its
    body (``k_of_square``).  All but the index are simplicial maps.  The
    factorization is deterministic, so the first three are pure functions
    of the factored map and E(a, b) one of the square.  Cached values are
    shared by every caller and, like every complex and map, immutable; a
    call that raises caches nothing.
    """

    __slots__ = ("input", "kf", "ef", "_cells_over", "_mu", "_delta",
                 "_k_into")

    def __init__(self, input_map, kf, ef, cells_over=None):
        self.input = input_map
        self.kf = kf
        self.ef = ef
        self._cells_over = cells_over
        self._mu = None
        self._delta = None
        self._k_into = {}

    @property
    def stage_counts(self):
        return [len(st.cells) for st in self.kf.strata]

    def _over(self):
        """The index from (target, faces) to free cell, built on first use
        unless it was given to the constructor."""
        index = self._cells_over
        if index is None:
            index = self._cells_over = cell_index(self.kf, self.ef)
            if index is None:
                raise InvariantError("two free cells share a target and "
                                     "faces; internal invariant violated")
        return index

    def cell_over(self, target, faces):
        """The free cell glued over ``target`` with the given facets (``()``
        for a vertex), read off the index of ``_over``."""
        cid = self._over().get((target, faces))
        if cid is None:
            raise _no_cell_over(target, faces)
        return cid


def k1_step(f, new=None, stage=0, digest=None, escape=None):
    """One gluing step: a stratum of all generating squares into f.

    One cell per pair of a k-simplex b of the codomain and a boundary lift
    u into the domain with ``f o u`` equal to the boundary of b.  With
    ``new``, the ids glued at the previous stage, lifts whose image lies
    inside the face-closed previous stage are omitted (properness
    filtering): a lift is kept iff some facet is in ``new``.  Only such
    lifts are enumerated, and only for shapes k whose facet dimension k - 1
    has new simplices, by one search of ``_lift_kernel(k)`` over all the
    k-simplices of the codomain: each lift arrives with its target and as
    its tuple of images, which is both what the cell id hashes and the
    cell's attach: the cell is the tuple ``(id, k, images)``.  The ids of
    a shape's lifts are computed together, by ``_cell_ids``.  Returns
    (stratum, extended codomain map from the stratum's body), which is f
    itself, with nothing copied, when no cell is glued.  An id glued twice
    can only be a collision of hashed lifts: InvariantError.  ``digest``
    and ``escape`` (an ``_Escapes`` lookup) are made here unless given.
    """
    if digest is None:
        digest = _map_digest(f)
    if escape is None:
        escape = _Escapes().__getitem__
    a, b = f.dom, f.cod
    new_dims = None if new is None else set(map(a._dim_of.__getitem__, new))
    cells = []
    glued = {}
    for k in range(b.max_dim + 1):
        if new_dims is not None and k - 1 not in new_dims:
            continue
        targets, lifts = _lift_kernel(k)(f, b.ids(k), new)
        ids = _cell_ids(digest, stage, k, targets, lifts, escape)
        cells += zip(ids, itertools.repeat(k), lifts)
        glued.update(zip(ids, targets))
    if not cells:
        return Stratum._owning(a, cells), f
    e_assign = {**f.assign, **glued}
    if len(e_assign) != len(f.assign) + len(cells):
        cid = _first_repeat((c for c, _, _ in cells), f.assign)
        raise InvariantError(f"cell id {cid!r} glued twice: a collision of "
                             f"hashed lifts; internal invariant violated")
    st = Stratum._owning(a, cells)
    return st, SimplicialMap._owning(body(st), b, e_assign)


def free_complex(f, safety_cap=DEFAULT_CAP):
    """Iterate the gluing step with properness filtering until it stabilizes.

    Each step is passed the ids the step before it glued, and one memo of
    escaped ids, since ids recur across lifts and stages.  Returns a
    FactorResult whose complex is proper and connected by construction and
    whose counit map satisfies ``ef o u == f``.  Raises CapExceededError
    with per-stage diagnostics if the cap is reached.
    """
    if safety_cap < 1:
        raise ValueError("safety_cap must be >= 1")
    digest = _map_digest(f)
    escape = _Escapes().__getitem__
    strata = []
    new = None
    g = f
    n = 0
    while True:
        st, e1 = k1_step(g, new, n, digest, escape)
        if not st.cells:
            break
        if n >= safety_cap:
            raise CapExceededError(
                [len(s.cells) for s in strata] + [len(st.cells)])
        strata.append(st)
        new = st._by_id
        g = e1
        n += 1
    kf = CellComplex._owning(f.dom, strata)
    return FactorResult(f, kf, g)


class Factorizer:
    """Memoized free factorization, shared across a law-checking session.

    ``k(f)`` factors each map once and returns the same ``FactorResult``
    for every equal map, so the structure maps that result memoizes are
    computed once per session too.
    """

    def __init__(self, safety_cap=DEFAULT_CAP):
        self.safety_cap = safety_cap
        self._cache = {}

    def k(self, f):
        fr = self._cache.get(f)
        if fr is None:
            fr = self._cache[f] = free_complex(f, self.safety_cap)
        return fr


# -- the adjunction -------------------------------------------------------


def transpose(c, g0, h, fr):
    """The adjunct morphism c -> Kf of a square (g0, h): U(c) -> f.

    Each cell of c at stage n, with glued simplex y, is sent to the free
    cell over h(y) whose facets are the images of y's facets; that cell is
    asserted to exist and to lie at stage n.  The square and the counit
    equation ``ef o body == h`` are verified pointwise, with no composite
    built.
    """
    f = fr.input
    if g0.dom != c.boundary or g0.cod != f.dom:
        raise DeltaError("transpose: base map endpoints do not match")
    if h.dom != c.body or h.cod != f.cod:
        raise DeltaError("transpose: body map endpoints do not match")
    fa, ha = f.assign, h.assign
    if any(fa[t] != ha[s] for s, t in g0.assign.items()):
        raise DeltaError("transpose: square does not commute")
    assign = dict(g0.assign)
    image = assign.__getitem__
    faces = c.body.faces
    index = fr._over()
    stage_of = fr.kf.stage_of_cell
    for n, st in enumerate(c.strata):
        for y, _, _ in st.cells:
            key = (ha[y], tuple(map(image, faces.get(y, ()))))
            cid = index.get(key)
            if cid is None:
                raise _no_cell_over(*key)
            if stage_of(cid) != n:
                raise InvariantError(
                    f"free cell {cid!r} is not at stage {n}; internal "
                    f"invariant violated")
            assign[y] = cid
    efa = fr.ef.assign
    if not all(map(operator.eq, map(efa.__getitem__, assign.values()),
                   map(ha.__getitem__, assign))):
        raise InvariantError("transpose does not factor the given square")
    body_map = SimplicialMap._owning(c.body, fr.kf.body, assign)
    return CellComplexMorphism._owning(c, fr.kf, body_map)


def k_of_square(a, b, fr_dom, fr_cod):
    """E(a, b): body(Kf) -> body(Kg), the factorization's action on a
    square (a, b): f -> g of the arrow category, where ``fr_dom`` factors
    f and ``fr_cod`` factors g.

    It is the body map of the adjunct of (a, b o ef), so ``transpose`` and
    ``compose`` raise DeltaError when a or b has the wrong endpoints or the
    square does not commute.  It is memoized on ``fr_cod`` by ef, a and b.
    That key fixes Kf, a proper complex fixed by its base (a's domain) and
    body (ef's domain), so an entry serves every ``fr_dom`` with that key.
    """
    key = (fr_dom.ef, a, b)
    m = fr_cod._k_into.get(key)
    if m is None:
        m = fr_cod._k_into[key] = transpose(
            fr_dom.kf, a, compose(b, fr_dom.ef), fr_cod).body_map
    return m


def unit(c, factorizer):
    """The adjunction unit: the comparison of c with K(U(c))."""
    fr = factorizer.k(u_of_complex(c))
    return transpose(c, identity_map(c.boundary), identity_map(c.body), fr)


def coalgebra_structure(c, factorizer):
    """The body component of the unit: body(c) -> body(K(U(c)))."""
    return unit(c, factorizer).body_map


def decode(f, alpha, fr):
    """Rebuild a cell complex from a coalgebra structure map.

    ``f`` must be the identifier inclusion underlying some complex and
    ``alpha: cod(f) -> body(Kf)`` its structure map, a section of ``ef``
    that extends ``lf``: ``ef o alpha == id`` and ``alpha o f == lf``.  So
    every simplex outside the base lands on a glued free cell; the complex
    is then read off the inclusion (``cellcx.complex_of``).
    """
    x, y = f.dom, f.cod
    if any(f.assign[s] != s for s in x._dim_of):
        raise DeltaError("decode expects an identifier inclusion")
    if alpha.dom != y or alpha.cod != fr.kf.body:
        raise DeltaError("decode: structure map endpoints do not match")
    if not (composes_to(fr.ef, alpha, identity_map(y))
            and composes_to(alpha, f, u_of_complex(fr.kf))):
        raise DeltaError("ef o alpha == id or alpha o f == lf fails; "
                         "not a coalgebra structure")
    return complex_of(x, y)


# -- monad and comonad ----------------------------------------------------


def monad_unit(f, factorizer):
    """The unit square f -> Ef of the codomain-preserving monad."""
    fr = factorizer.k(f)
    return ArrowSquare(top=u_of_complex(fr.kf),
                       bottom=identity_map(f.cod),
                       left=f, right=fr.ef)


def monad_mult(f, factorizer):
    """The multiplication component: body(K(Ef)) -> body(Kf).

    Computed as the body part of the adjunct of (1, EEf) on the composite
    of Kf with K(Ef), once per ``FactorResult`` of f.
    """
    fr = factorizer.k(f)
    if fr._mu is None:
        fr2 = factorizer.k(fr.ef)
        comp = compose_complexes(fr.kf, fr2.kf)
        fr._mu = transpose(comp, identity_map(f.dom), fr2.ef, fr).body_map
    return fr._mu


def comonad_comult(f, factorizer):
    """The comultiplication component: body(Kf) -> body(K(U(Kf))),
    computed once per ``FactorResult`` of f."""
    fr = factorizer.k(f)
    if fr._delta is None:
        fr._delta = coalgebra_structure(fr.kf, factorizer)
    return fr._delta


def check_awfs_laws(f, squares, factorizer):
    """Check the factorization-system laws for f by exact map equality.

    Every law is an equation between maps, among them the maps E(a, b) of
    ``k_of_square`` for the monad's and comonad's own squares, built from
    their two maps.  ``squares`` is an iterable of ArrowSquare values
    (a, b): f -> g used for the naturality checks, and ``factorizer`` the
    session that factors every map the laws need.  Returns a report dict
    with one boolean per law and witness descriptions for failures.
    Raises CapExceededError (with the partial report attached) if a
    required factorization does not stabilize.
    """
    report = {}
    witnesses = {}

    def record(name, lhs, after, rhs):
        """The law ``lhs o after == rhs``; the composite is built only as
        the witness of a failure."""
        ok = composes_to(lhs, after, rhs)
        report[name] = ok
        if not ok:
            witnesses[name] = {
                "lhs": sorted(compose(lhs, after).assign.items()),
                "rhs": sorted(rhs.assign.items())}
        return ok

    try:
        fr = factorizer.k(f)
        lf = u_of_complex(fr.kf)
        record("factorization", fr.ef, lf, f)

        fr2 = factorizer.k(fr.ef)
        mu = monad_mult(f, factorizer)
        id_a, id_b = identity_map(f.dom), identity_map(f.cod)
        id_mf = identity_map(fr.kf.body)
        record("monad_unit_free", mu, u_of_complex(fr2.kf), id_mf)
        keta = k_of_square(lf, id_b, fr, fr2)  # E of the unit f -> Ef
        record("monad_unit_functorial", mu, keta, id_mf)

        fr3 = factorizer.k(fr2.ef)
        mu_ef = monad_mult(fr.ef, factorizer)
        kmu = k_of_square(mu, id_b, fr3, fr2)
        record("monad_assoc", mu, mu_ef, compose(mu, kmu))

        fru = factorizer.k(lf)
        delta = comonad_comult(f, factorizer)
        record("comonad_counit_free", fru.ef, delta, id_mf)
        keps = k_of_square(id_a, fr.ef, fru, fr)
        record("comonad_counit_functorial", keps, delta, id_mf)

        fruu = factorizer.k(u_of_complex(fru.kf))
        delta_lf = comonad_comult(lf, factorizer)
        kdelta = k_of_square(id_a, delta, fru, fruu)
        record("comonad_coassoc", delta_lf, delta, compose(kdelta, delta))

        freu = factorizer.k(fru.ef)
        fr_uef = factorizer.k(u_of_complex(fr2.kf))
        mu_ukf = monad_mult(lf, factorizer)
        delta_ef = comonad_comult(fr.ef, factorizer)
        kdm = k_of_square(delta, mu, fr_uef, freu)
        record("distributivity", fru.ef, compose(delta, mu),
               compose(fru.ef, compose(mu_ukf, compose(kdm, delta_ef))))

        nat_ok = True
        for i, sq in enumerate(squares):
            g = sq.right
            frg = factorizer.k(g)
            kab = k_of_square(sq.top, sq.bottom, fr, frg)
            eta_ok = composes_to(kab, lf,
                                 compose(u_of_complex(frg.kf), sq.top))
            mu_g = monad_mult(g, factorizer)
            kab2 = k_of_square(kab, sq.bottom, fr2, factorizer.k(frg.ef))
            mu_ok = composes_to(kab, mu, compose(mu_g, kab2))
            if not (eta_ok and mu_ok):
                nat_ok = False
                witnesses[f"naturality_{i}"] = {
                    "eta": eta_ok, "mu": mu_ok}
        report["naturality"] = nat_ok
    except CapExceededError as err:
        err.partial_report = report
        raise
    return {"laws": report, "witnesses": witnesses,
            "all_pass": all(report.values())}


# -- left-map structures --------------------------------------------------


def composite_left_map(f, alpha, g, beta, factorizer):
    """The structure map on g o f induced by structure maps on f and g."""
    gf = compose(g, f)
    fr_f = factorizer.k(f)
    fr_g = factorizer.k(g)
    fr_gf = factorizer.k(gf)
    pre = compose(k_of_square(identity_map(f.dom), g, fr_f, fr_gf), alpha)
    m2 = k_of_square(pre, identity_map(g.cod), fr_g,
                     factorizer.k(fr_gf.ef))
    return compose(monad_mult(gf, factorizer), compose(m2, beta))


def pushforward_left_map(f, alpha, g, factorizer):
    """The structure map on the pushout of f along g.

    Returns (pushed map, structure map).  On the codomain leg the structure
    is the free inclusion of the pushed map; on the other leg it is the
    functorial image of alpha.
    """
    _, leg_b, pushed = pushout(f, g)
    fr_f = factorizer.k(f)
    fr_p = factorizer.k(pushed)
    m = k_of_square(g, leg_b, fr_f, fr_p)
    structure = mediate(
        [leg_b, pushed], [compose(m, alpha), u_of_complex(fr_p.kf)])
    return pushed, structure
