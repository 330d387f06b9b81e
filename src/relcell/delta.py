"""Finite truncated semisimplicial complexes ("delta complexes") and their maps.

Simplices are identified by strings that are unique across all dimensions of a
complex.  A k-simplex for k >= 1 carries an ordered tuple of k+1 identifiers
of (k-1)-simplices; entry i is its i-th face.  There are no degeneracies, so
every hom-set between finite complexes is finite and enumerable.

Every degreewise colimit (``coproduct``, ``colimit``, ``pushout``,
``coequaliser``) is one quotient: the disjoint union of some complexes by
the equivalence their arrows generate.  Each differs only in its endpoint
check and in how it names a class, and ``mediate`` is the unique map out
of any of them.

All values are immutable after construction and all operations are pure.
This is load-bearing: ``standard_simplex`` and ``boundary_complex`` return
shared cached instances, and complexes and maps keep lazily built indexes on
themselves, so mutating one would corrupt every holder of the same value.
"""

from __future__ import annotations

import functools
import itertools
from operator import itemgetter


class DeltaError(ValueError):
    """Malformed complex, map or square."""


class InvariantError(AssertionError):
    """An internal invariant failed: a fault in relcell, not in its input."""


class DeltaComplex:
    """A finite graded family of simplices with face maps.

    ``simplices`` maps a dimension to the tuple of simplex ids of that
    dimension; ``faces`` maps each simplex id of dimension >= 1 to the ordered
    tuple of its face ids.  The empty complex has ``max_dim == -1``.
    """

    __slots__ = ("simplices", "faces", "_dim_of", "_key", "_hash", "_by_faces")

    def __init__(self, simplices=None, faces=None, validate=True):
        simp = {}
        for k, ids in (simplices or {}).items():
            ids = tuple(sorted(ids))
            if ids:
                simp[int(k)] = ids
        self.simplices = simp
        self.faces = {str(s): tuple(f) for s, f in (faces or {}).items()}
        dim_of = {}
        for k, ids in simp.items():
            for s in ids:
                if s in dim_of:
                    raise DeltaError(f"duplicate simplex id {s!r}")
                dim_of[s] = k
        self._dim_of = dim_of
        self._key = None
        self._hash = None
        self._by_faces = None
        if validate:
            self._validate()

    def _validate(self):
        for k, ids in self.simplices.items():
            if k < 0:
                raise DeltaError("negative dimension")
            for s in ids:
                if k == 0:
                    if s in self.faces:
                        raise DeltaError(f"vertex {s!r} must not have faces")
                    continue
                fs = self.faces.get(s)
                if fs is None or len(fs) != k + 1:
                    raise DeltaError(f"simplex {s!r} needs {k + 1} faces")
                for f in fs:
                    if self._dim_of.get(f) != k - 1:
                        raise DeltaError(
                            f"face {f!r} of {s!r} is not a ({k - 1})-simplex")
        for s in self.faces:
            if self._dim_of.get(s, 0) < 1:
                raise DeltaError(f"face list for unknown simplex {s!r}")
        # simplicial identities: d_i d_j = d_(j-1) d_i for i < j
        for k, ids in self.simplices.items():
            if k < 2:
                continue
            for s in ids:
                for j in range(1, k + 1):
                    for i in range(j):
                        if self.face(self.face(s, j), i) != \
                                self.face(self.face(s, i), j - 1):
                            raise DeltaError(
                                f"simplicial identity fails at {s!r} "
                                f"(i={i}, j={j})")

    # -- basic queries ----------------------------------------------------

    @property
    def max_dim(self):
        return max(self.simplices) if self.simplices else -1

    def ids(self, k):
        return self.simplices.get(k, ())

    def dim(self, s):
        return self._dim_of[s]

    def face(self, s, i):
        return self.faces[s][i]

    def faces_of(self, s):
        return self.faces.get(s, ())

    def all_ids(self):
        for k in sorted(self.simplices):
            for s in self.simplices[k]:
                yield k, s

    @property
    def id_set(self):
        return frozenset(self._dim_of)

    @property
    def n_simplices(self):
        return len(self._dim_of)

    def __contains__(self, s):
        return s in self._dim_of

    def key(self):
        if self._key is None:
            self._key = (
                tuple(sorted(self.simplices.items())),
                tuple(sorted(self.faces.items())),
            )
        return self._key

    def __eq__(self, other):
        return isinstance(other, DeltaComplex) and self.key() == other.key()

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(self.key())
        return self._hash

    def __repr__(self):
        sizes = ",".join(f"{k}:{len(v)}" for k, v in sorted(self.simplices.items()))
        return f"DeltaComplex({{{sizes}}})"

    def by_faces(self, k, face_tuple):
        """All k-simplices whose face tuple is exactly ``face_tuple``."""
        if self._by_faces is None:
            idx = {}
            for s, fs in self.faces.items():
                idx.setdefault((self._dim_of[s], fs), []).append(s)
            self._by_faces = {key: tuple(sorted(v)) for key, v in idx.items()}
        return self._by_faces.get((k, face_tuple), ())

    def subcomplex(self, keep):
        """The subcomplex on the given ids (must be face-closed)."""
        keep = set(keep)
        simp = {k: [s for s in ids if s in keep]
                for k, ids in self.simplices.items()}
        faces = {s: fs for s, fs in self.faces.items() if s in keep}
        for s, fs in faces.items():
            for f in fs:
                if f not in keep:
                    raise DeltaError(f"{keep!r} is not face-closed at {s!r}")
        return DeltaComplex(simp, faces, validate=False)

    def is_subcomplex_of(self, other):
        for s, k in self._dim_of.items():
            if other._dim_of.get(s) != k:
                return False
            if k >= 1 and other.faces[s] != self.faces[s]:
                return False
        return True


EMPTY = DeltaComplex()


class SimplicialMap:
    """A dimension-preserving, face-commuting assignment between complexes."""

    __slots__ = ("dom", "cod", "assign", "_key", "_hash", "_prefixes")

    def __init__(self, dom, cod, assign, validate=True):
        self.dom = dom
        self.cod = cod
        self.assign = dict(assign)
        self._key = None
        self._hash = None
        self._prefixes = None
        if validate:
            self._validate()

    def _validate(self):
        if set(self.assign) != set(self.dom._dim_of):
            raise DeltaError("assignment is not total on the domain")
        for s, t in self.assign.items():
            k = self.dom.dim(s)
            if self.cod._dim_of.get(t) != k:
                raise DeltaError(f"{s!r} ({k}-simplex) maps to bad id {t!r}")
            if k >= 1:
                want = tuple(self.assign[f] for f in self.dom.faces[s])
                if self.cod.faces[t] != want:
                    raise DeltaError(f"face commutation fails at {s!r}")

    def __call__(self, s):
        return self.assign[s]

    def key(self):
        if self._key is None:
            self._key = (self.dom.key(), self.cod.key(),
                         tuple(sorted(self.assign.items())))
        return self._key

    def prefix_index(self, m):
        """The face-prefix index of the m-simplices: ``(t, p)`` -> sorted
        m-simplices mapped to t whose face tuple starts with the tuple p,
        for every prefix length from 0 to m + 1 (vertices: only ``()``)."""
        if self._prefixes is None:
            self._prefixes = {}
        idx = self._prefixes.get(m)
        if idx is None:
            idx = {}
            faces = self.dom.faces
            for s in self.dom.ids(m):
                t = self.assign[s]
                fs = faces.get(s, ())
                for j in range(len(fs) + 1):
                    idx.setdefault((t, fs[:j]), []).append(s)
            self._prefixes[m] = idx
        return idx

    def __eq__(self, other):
        return isinstance(other, SimplicialMap) and self.key() == other.key()

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(self.key())
        return self._hash

    def __repr__(self):
        return f"SimplicialMap({self.dom!r} -> {self.cod!r})"

    def is_injective(self):
        return len(set(self.assign.values())) == len(self.assign)

    def is_bijective(self):
        return self.is_injective() and \
            len(self.assign) == self.cod.n_simplices

    def inverse(self):
        if not self.is_bijective():
            raise DeltaError("map is not bijective")
        return SimplicialMap(self.cod, self.dom,
                             {t: s for s, t in self.assign.items()},
                             validate=False)


def identity_map(x):
    return SimplicialMap(x, x, {s: s for s in x._dim_of}, validate=False)


def inclusion_map(sub, ambient):
    """The identifier-preserving inclusion of a literal subcomplex."""
    if not sub.is_subcomplex_of(ambient):
        raise DeltaError("not a literal subcomplex")
    return SimplicialMap(sub, ambient, {s: s for s in sub._dim_of},
                         validate=False)


def compose(f, g):
    """The composite f after g."""
    if g.cod != f.dom:
        raise DeltaError("composition endpoint mismatch")
    return SimplicialMap(g.dom, f.cod,
                         {s: f.assign[t] for s, t in g.assign.items()},
                         validate=False)


class ArrowSquare:
    """A commuting square: ``right o top == bottom o left``.

    ``top: A -> B``, ``left: A -> C``, ``right: B -> D``, ``bottom: C -> D``.
    """

    __slots__ = ("top", "bottom", "left", "right")

    def __init__(self, top, bottom, left, right):
        self.top = top
        self.bottom = bottom
        self.left = left
        self.right = right
        if left.dom != top.dom or right.dom != top.cod \
                or bottom.dom != left.cod or right.cod != bottom.cod:
            raise DeltaError("square endpoints do not match")
        if compose(right, top) != compose(bottom, left):
            raise DeltaError("square does not commute")

    def __eq__(self, other):
        return isinstance(other, ArrowSquare) and \
            (self.top, self.bottom, self.left, self.right) == \
            (other.top, other.bottom, other.left, other.right)

    def __repr__(self):
        return f"ArrowSquare(top={self.top!r}, bottom={self.bottom!r})"


# -- representable complexes ---------------------------------------------


# Vertex-list ids spell each vertex as one digit, so simplices stop at 9.
MAX_DIM = 9


# Cached and shared.  Typed, so a float or bool dimension never hits an int
# entry and behaves as uncached; calls that raise are not cached.
@functools.lru_cache(maxsize=None, typed=True)
def standard_simplex(k):
    """The complex whose m-simplices are the (m+1)-subsets of {0..k}."""
    if k < 0:
        raise DeltaError("k must be >= 0")
    if k > MAX_DIM:
        raise DeltaError(f"vertex-list ids support k <= {MAX_DIM} only")
    simp = {}
    faces = {}
    for m in range(k + 1):
        ids = []
        for verts in itertools.combinations(range(k + 1), m + 1):
            sid = "".join(str(v) for v in verts)
            ids.append(sid)
            if m >= 1:
                faces[sid] = tuple(sid[:i] + sid[i + 1:] for i in range(m + 1))
        simp[m] = ids
    return DeltaComplex(simp, faces, validate=False)


def top_simplex_id(k):
    return "".join(str(v) for v in range(k + 1))


@functools.lru_cache(maxsize=None)
def facet_ids(k):
    """The ids of the faces d_0..d_k of the top simplex of the standard
    k-simplex (d_i omits vertex i; none for k == 0)."""
    return standard_simplex(k).faces_of(top_simplex_id(k))


@functools.lru_cache(maxsize=None, typed=True)
def boundary_complex(k):
    """The standard k-simplex with its unique top simplex removed."""
    full = standard_simplex(k)
    if k == 0:
        return EMPTY
    return full.subcomplex(full.id_set - {top_simplex_id(k)})


@functools.lru_cache(maxsize=None)
def _face_steps(k):
    """Steps ``(s, parent, i)`` that reach every simplex s of dimension
    < k - 1 of the standard k-simplex as face i of a parent reached before
    it, starting from the facets."""
    delta = standard_simplex(k)
    done = set(facet_ids(k))
    steps = []
    for m in range(k - 1, 0, -1):
        for sid in delta.ids(m):
            for i, s in enumerate(delta.faces_of(sid)):
                if s not in done:
                    done.add(s)
                    steps.append((s, sid, i))
    return tuple(steps)


def _boundary_assign(k, facet_images, faces):
    """The assignment on the boundary of the standard k-simplex whose
    facets go to ``facet_images``, lower simplices following ``faces``."""
    assign = dict(zip(facet_ids(k), facet_images))
    for s, parent, i in _face_steps(k):
        assign[s] = faces[assign[parent]][i]
    return assign


def characteristic_map(x, b):
    """The map from the standard k-simplex sending the top simplex to b."""
    k = x.dim(b)
    assign = _boundary_assign(k, x.faces_of(b), x.faces)
    assign[top_simplex_id(k)] = b
    return SimplicialMap(standard_simplex(k), x, assign, validate=False)


def boundary_restriction(x, b):
    """The restriction of ``characteristic_map(x, b)`` to the boundary."""
    k = x.dim(b)
    return SimplicialMap(boundary_complex(k), x,
                         _boundary_assign(k, x.faces_of(b), x.faces),
                         validate=False)


# -- hom enumeration -----------------------------------------------------


_EXHAUSTED = object()  # what ``next`` gives for a search level tried out


def enumerate_homs(dom, cod, post=None, pre=None, limit=None):
    """All simplicial maps ``dom -> cod``, in deterministic order.

    ``post=(p, t)`` keeps only maps h with ``p o h == t`` (p: cod -> Z,
    t: dom -> Z).  ``pre=(e, u)`` keeps only maps h with ``h o e == u``
    (e: W -> dom, u: W -> cod).  Enumeration backtracks over simplices in
    increasing dimension with face-consistency pruning, on an explicit
    stack of candidate iterators; output order is lexicographic in the
    assignments.
    """
    pinned = {}
    if pre is not None:
        emap, given = pre
        if emap.cod != dom or given.cod != cod or emap.dom != given.dom:
            raise DeltaError("pre-constraint endpoints do not match")
        for w, s in emap.assign.items():
            t = given.assign[w]
            if pinned.setdefault(s, t) != t:
                return []
    pmap = target = None
    if post is not None:
        pmap, target = post
        if target.dom != dom or pmap.dom != cod or target.cod != pmap.cod:
            raise DeltaError("post-constraint endpoints do not match")

    order = [s for _, s in dom.all_ids()]
    if limit is not None and limit <= 0:
        return []
    if not order:
        return [SimplicialMap(dom, cod, {}, validate=False)]
    results = []
    assign = {}

    def candidates(s):
        k = dom.dim(s)
        fkey = tuple(assign[f] for f in dom.faces_of(s))
        if pmap is not None:
            base = pmap.prefix_index(k).get((target.assign[s], fkey), ())
        elif k == 0:
            base = cod.ids(0)
        else:
            base = cod.by_faces(k, fkey)
        if s in pinned:
            p = pinned[s]
            return (p,) if p in base else ()
        return base

    # stack[i] holds the untried candidates for order[i]
    last = len(order) - 1
    stack = [iter(candidates(order[0]))]
    while stack:
        i = len(stack) - 1
        c = next(stack[i], _EXHAUSTED)
        if c is _EXHAUSTED:
            stack.pop()
            continue
        assign[order[i]] = c
        if i < last:
            stack.append(iter(candidates(order[i + 1])))
        else:
            results.append(SimplicialMap(dom, cod, assign, validate=False))
            if len(results) == limit:
                break
    return results


@functools.lru_cache(maxsize=None)
def _leads(k):
    """The getters of the faces that x_0..x_(j-1) fix for facet x_j of a
    boundary lift of shape k: face j - 1 of each; none below shape 2."""
    return tuple(itemgetter(j - 1) for j in range(k + 1)) if k > 1 else None


def boundary_lifts(f, t, new=None):
    """All boundary lifts of t: maps u from the boundary of the standard
    k-simplex (k = dim t) into dom(f) with ``f o u`` the boundary of t.

    A lift is fixed by its facets x_0..x_k, subject to ``f(x_i) = d_i t``
    and ``d_i x_j = d_(j-1) x_i`` for i < j.  So the first j faces of x_j
    are fixed by x_0..x_(j-1), and ``f.prefix_index`` yields the candidates
    for x_j directly; the search recurses k + 1 deep.  With ``new`` (a set
    of domain ids), only lifts with some facet in ``new`` are kept: when no
    earlier facet is new, x_k is drawn from ``new`` alone, so no other lift
    is built.  Output order is lexicographic in the facet tuple.
    """
    a = f.dom
    k = f.cod.dim(t)
    bd = boundary_complex(k)
    if k == 0:
        return [] if new is not None else \
            [SimplicialMap(bd, a, {}, validate=False)]
    index = f.prefix_index(k - 1)
    targets = f.cod.faces[t]
    faces = a.faces
    lead = _leads(k)
    xs = []
    xfaces = []
    results = []

    def rec(j, fresh):
        prefix = tuple(map(lead[j], xfaces)) if lead else ()
        cands = index.get((targets[j], prefix), ())
        if j == k:
            for c in cands:
                if fresh or c in new:
                    xs.append(c)
                    results.append(SimplicialMap(
                        bd, a, _boundary_assign(k, xs, faces),
                        validate=False))
                    xs.pop()
            return
        for c in cands:
            xs.append(c)
            xfaces.append(faces.get(c))
            rec(j + 1, fresh or c in new)
            xs.pop()
            xfaces.pop()

    rec(0, new is None)
    del rec  # rec refers to itself: break the cycle, free the search now
    return results


# -- colimits -------------------------------------------------------------


def _quotient(parts, pairs, name):
    """The quotient of the disjoint union of ``parts`` by the equivalence
    that ``pairs`` of ``(part index, id)`` members generate.  ``name`` maps
    the list of classes, each a list of its members, to their names.

    Returns (quotient complex, one leg per part).  Every member of a class
    must have one dimension and induce one face tuple.
    """
    parent = {}

    def find(x):
        root = x
        while root in parent:
            root = parent[root]
        while x != root:
            parent[x], x = root, parent[x]
        return root

    for a, b in pairs:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
    groups = {}
    for i, x in enumerate(parts):
        for s in x._dim_of:
            groups.setdefault(find((i, s)), []).append((i, s))
    classes = list(groups.values())
    name_of = {m: n for members, n in zip(classes, name(classes))
               for m in members}
    dim_of = {}
    faces = {}
    assigns = []
    for i, x in enumerate(parts):
        assign = {}
        for s, k in x._dim_of.items():
            n = assign[s] = name_of[(i, s)]
            if dim_of.setdefault(n, k) != k:
                raise DeltaError("colimit merges simplices of unequal dims")
            if k:
                induced = tuple([name_of[(i, f)] for f in x.faces[s]])
                if faces.setdefault(n, induced) != induced:
                    raise DeltaError("inconsistent induced faces in quotient")
        assigns.append(assign)
    simp = {}
    for n, k in dim_of.items():
        simp.setdefault(k, []).append(n)
    total = DeltaComplex(simp, faces, validate=False)
    return total, [SimplicialMap(x, total, assign, validate=False)
                   for x, assign in zip(parts, assigns)]


def coproduct(parts):
    """Disjoint union, ids tagged by part index; returns (complex, legs)."""
    return colimit(parts, [])


def colimit(objs, arrows):
    """Colimit of a finite diagram of complexes, computed degreewise.

    ``arrows`` is a list of (src_index, dst_index, SimplicialMap) triples.
    Returns (colimit complex, cocone legs).  Ids are ``"<i>.<id>"`` tags with
    the lexicographically least member naming each merged class.
    """
    for a, b, m in arrows:
        if m.dom != objs[a] or m.cod != objs[b]:
            raise DeltaError("diagram arrow endpoints do not match")
    return _quotient(
        objs, [((a, s), (b, t)) for a, b, m in arrows
               for s, t in m.assign.items()],
        lambda classes: [min([f"{i}.{s}" for i, s in members])
                         for members in classes])


def _pushout_names(classes):
    """Classes with a Y member (part 1) take their least Y id; an X-only
    class takes its least X id, with trailing apostrophes while the name
    is taken, in the order of those ids."""
    names = [min((s for i, s in members if i), default=None)
             for members in classes]
    used = set(names)
    for s, n in sorted((min(s for _, s in members), n)
                       for n, members in enumerate(classes)
                       if names[n] is None):
        while s in used:
            s += "'"
        used.add(s)
        names[n] = s
    return names


def pushout(f, g):
    """Degreewise pushout of ``f: A -> X`` along ``g: A -> Y``.

    Returns (P, leg X -> P, leg Y -> P).  Classes containing Y-simplices are
    named by their least original Y id, so Y's identifiers survive verbatim
    whenever f is degreewise injective; X-only classes keep the X id,
    disambiguated with trailing apostrophes on collision.
    """
    if f.dom != g.dom:
        raise DeltaError("pushout legs must share a domain")
    total, (px, py) = _quotient(
        [f.cod, g.cod],
        [((0, f.assign[a]), (1, g.assign[a])) for a in f.dom._dim_of],
        _pushout_names)
    return total, px, py


def coequaliser(f, g):
    """Degreewise coequaliser of a parallel pair ``f, g: X -> Y``; each
    class is named by its least member.  Returns (complex, projection)."""
    if f.dom != g.dom or f.cod != g.cod:
        raise DeltaError("coequaliser needs a parallel pair")
    total, (q,) = _quotient(
        [f.cod], [((0, f.assign[s]), (0, g.assign[s])) for s in f.dom._dim_of],
        lambda classes: [min(members)[1] for members in classes])
    return total, q


def mediate(legs, maps):
    """The unique map m out of a quotient with ``m o legs[i] == maps[i]``
    for every i: out of a coproduct, colimit, pushout or coequaliser,
    whose legs are jointly surjective.  The maps must share a codomain and
    agree on every class the legs identify."""
    if not legs or len(legs) != len(maps) or any(
            leg.cod != legs[0].cod or u.dom != leg.dom or u.cod != maps[0].cod
            for leg, u in zip(legs, maps)):
        raise DeltaError("cocone endpoints do not match")
    assign = {}
    for leg, u in zip(legs, maps):
        for s, t in leg.assign.items():
            if assign.setdefault(t, u.assign[s]) != u.assign[s]:
                raise DeltaError("cocone does not commute over the quotient")
    return SimplicialMap(legs[0].cod, maps[0].cod, assign)


def equaliser(f, g):
    """The subcomplex of X where the parallel pair f, g agree."""
    if f.dom != g.dom or f.cod != g.cod:
        raise DeltaError("equaliser needs a parallel pair")
    keep = {s for s in f.dom._dim_of if f.assign[s] == g.assign[s]}
    e = f.dom.subcomplex(keep)
    return e, inclusion_map(e, f.dom)


def is_pullback(sq):
    """True iff the square's corner is the degreewise pullback of its cospan."""
    b, c = sq.top.cod, sq.left.cod
    fibers = {}
    for s, t in sq.bottom.assign.items():
        fibers.setdefault(t, []).append(s)
    pairs = set()
    for s in b._dim_of:
        for t in fibers.get(sq.right.assign[s], ()):
            pairs.add((s, t))
    med = {}
    for a in sq.top.dom._dim_of:
        image = (sq.top.assign[a], sq.left.assign[a])
        if image in med.values():
            return False  # mediating map not injective
        med[a] = image
    return set(med.values()) == pairs


# -- filtrations ----------------------------------------------------------


class Filtration:
    """An increasing sequence of literal subcomplexes."""

    __slots__ = ("stages", "_id_sets")

    def __init__(self, stages, validate=True):
        self.stages = tuple(stages)
        if not self.stages:
            raise DeltaError("a filtration needs at least one stage")
        if validate:
            for lo, hi in zip(self.stages, self.stages[1:]):
                if not lo.is_subcomplex_of(hi):
                    raise DeltaError("filtration stages must be nested")
        self._id_sets = [st.id_set for st in self.stages]

    @property
    def top(self):
        return self.stages[-1]

    def __len__(self):
        return len(self.stages)

    def __getitem__(self, n):
        return self.stages[n]


def mec(u, filt):
    """Minimal enclosing stage: least n with image(u) inside stage n."""
    if u.cod != filt.top:
        raise DeltaError("map must land in the top stage of the filtration")
    img = set(u.assign.values())
    for n, ids in enumerate(filt._id_sets):
        if img <= ids:
            return n
    raise InvariantError("image not contained in the top stage")
