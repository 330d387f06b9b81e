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

Equality compares content: a complex's ``simplices`` and ``faces`` dicts, a
map's ``assign`` dict and endpoints.  Hashes come from the same content, with
no sort; only the int is kept, and no value keeps a sorted form.  Each value
is checked once, where it is built: checked by its constructor, or owned,
built unchecked by ``DeltaComplex._extended`` or ``SimplicialMap._owning``
where relcell's own construction makes it valid.

All values are immutable after construction and all operations are pure.
This is load-bearing: ``standard_simplex`` and ``boundary_complex`` return
shared cached instances, and complexes and maps keep lazily built indexes on
themselves, so mutating one would corrupt every holder of the same value.
"""

from __future__ import annotations

import functools
import itertools
import operator


_new = object.__new__


def _first_repeat(ids, seen=()):
    """The first of ``ids`` met twice, or met in ``seen``; else None."""
    seen = set(seen)
    return next((s for s in ids if s in seen or seen.add(s)), None)


def _strings(values):
    """True iff every value is a string, in one C-level pass."""
    try:
        "".join(values)
    except TypeError:  # a value that is not a string, or not iterable
        return False
    return True


class DeltaError(ValueError):
    """Malformed complex, map or square."""


def _checked_faces(simplices, faces):
    """Check a complex's input types, coercing none; return its face tuples."""
    if not (isinstance(simplices, dict) and isinstance(faces, dict)):
        raise DeltaError("a complex's grades and faces must be dicts")
    keys, lists = faces.keys(), faces.values()
    for k, ids in simplices.items():
        if type(k) is not int:  # so no two keys name one dimension
            raise DeltaError(f"dimension key {k!r} is not an integer")
        if not isinstance(ids, (list, tuple)):  # not split, nor ordered
            raise DeltaError(f"the {k}-simplices are not a list or tuple")
    for what, ids in (("simplex id", [*itertools.chain(*simplices.values())]),
                      ("face list key", keys)):
        if not _strings(ids):
            bad = next(s for s in ids if not isinstance(s, str))
            raise DeltaError(f"{what} {bad!r} is not a string")
    if not (all(map(isinstance, lists, itertools.repeat((list, tuple))))
            and _strings(itertools.chain.from_iterable(lists))):
        s = next(s for s, fs in zip(keys, lists)
                 if not (isinstance(fs, (list, tuple)) and _strings(fs)))
        raise DeltaError(f"the faces of {s!r} are not a list or tuple of ids")
    return dict(zip(keys, map(tuple, lists)))


class InvariantError(AssertionError):
    """An internal invariant failed: a fault in relcell, not in its input."""


class DeltaComplex:
    """A finite graded family of simplices with face maps, checked on
    construction; ``_extended`` is the one unchecked path.

    ``simplices`` maps a dimension to the tuple of simplex ids of that
    dimension, sorted: every complex is built by ``_extended``, which sorts
    each grade it adds to, so no reader sorts a grade again.
    ``faces`` maps each simplex id of dimension >= 1 to the ordered tuple
    of its face ids.  The empty complex has ``max_dim == -1``.  The
    constructor takes dicts of ``int`` dimensions (not ``bool``) and of
    lists or tuples of ``str`` ids, coercing none: DeltaError names any
    other input.
    """

    __slots__ = ("simplices", "faces", "_dim_of", "_hash")

    def __init__(self, simplices=None, faces=None):
        simplices, faces = simplices or {}, faces or {}
        x = EMPTY._extended(simplices, _checked_faces(simplices, faces))
        self.simplices, self.faces = x.simplices, x.faces
        self._dim_of, self._hash = x._dim_of, None
        self._validate()

    def _validate(self):
        faces = self.faces
        for k, ids in self.simplices.items():
            if k < 0:
                raise DeltaError("negative dimension")
            for s in ids:
                if k == 0:
                    if s in faces:
                        raise DeltaError(f"vertex {s!r} must not have faces")
                    continue
                fs = faces.get(s)
                if fs is None or len(fs) != k + 1:
                    raise DeltaError(f"simplex {s!r} needs {k + 1} faces")
                for f in fs:
                    if self._dim_of.get(f) != k - 1:
                        raise DeltaError(
                            f"face {f!r} of {s!r} is not a ({k - 1})-simplex")
        for s in faces:
            if self._dim_of.get(s, 0) < 1:
                raise DeltaError(f"face list for unknown simplex {s!r}")
        # simplicial identities: d_i d_j = d_(j-1) d_i for i < j
        for k, ids in self.simplices.items():
            if k < 2:
                continue
            for s in ids:
                for j in range(1, k + 1):
                    for i in range(j):
                        if faces[faces[s][j]][i] != \
                                faces[faces[s][i]][j - 1]:
                            raise DeltaError(
                                f"simplicial identity fails at {s!r} "
                                f"(i={i}, j={j})")

    # -- basic queries ----------------------------------------------------

    @property
    def max_dim(self):
        return max(self.simplices) if self.simplices else -1

    def ids(self, k):
        """The k-simplices, a sorted tuple (empty past ``max_dim``)."""
        return self.simplices.get(k, ())

    def dim(self, s):
        return self._dim_of[s]

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

    def __eq__(self, other):
        # both dicts: an extra isolated vertex leaves ``faces`` unchanged
        return self is other or (
            isinstance(other, DeltaComplex) and self.faces == other.faces
            and self.simplices == other.simplices)

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((frozenset(self.simplices.items()),
                               frozenset(self.faces.items())))
        return self._hash

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
        return EMPTY._extended(simp, faces)

    def _extended(self, added, faces):
        """This complex plus the ``added`` ids (dimension -> list) with
        their ``faces``, unchecked but that every id is new: one copy of
        each dict, one merge per nonempty grade.  ``__init__`` is this on
        ``EMPTY``, then ``_validate``."""
        dim_of = dict(self._dim_of)
        simp = dict(self.simplices)
        for k, ids in added.items():
            if ids:
                dim_of.update(dict.fromkeys(ids, k))
                # two sorted runs: timsort merges them in one linear pass
                simp[k] = tuple(sorted([*simp.get(k, ()), *ids]))
        if len(dim_of) != len(self._dim_of) + sum(map(len, added.values())):
            s = _first_repeat(itertools.chain.from_iterable(
                map(sorted, added.values())), self._dim_of)
            raise DeltaError(f"duplicate simplex id {s!r}")
        x = _new(DeltaComplex)
        x.simplices = simp
        x.faces = {**self.faces, **faces}
        x._dim_of = dim_of
        x._hash = None
        return x

    def is_subcomplex_of(self, other):
        for s, k in self._dim_of.items():
            if other._dim_of.get(s) != k:
                return False
            if k >= 1 and other.faces[s] != self.faces[s]:
                return False
        return True


EMPTY = _new(DeltaComplex)  # by hand: every other complex extends it
EMPTY.simplices, EMPTY.faces, EMPTY._dim_of, EMPTY._hash = {}, {}, {}, None


class SimplicialMap:
    """A dimension-preserving, face-commuting assignment between complexes,
    a dict of ``str`` ids, checked on construction; ``_owning`` is the one
    unchecked path."""

    __slots__ = ("dom", "cod", "assign", "_hash", "_prefixes")

    def __init__(self, dom, cod, assign):
        self.dom = dom
        self.cod = cod
        self.assign = assign
        self._hash = None
        self._prefixes = None
        self._validate()
        self.assign = dict(assign)  # its own copy of the checked dict

    def _validate(self):
        if not (isinstance(self.dom, DeltaComplex) and
                isinstance(self.cod, DeltaComplex)):
            raise DeltaError("map endpoints must be complexes")
        if not isinstance(self.assign, dict):
            raise DeltaError("a map's assignment must be a dict")
        assign, dim_of = self.assign, self.dom._dim_of
        if assign.keys() != dim_of.keys():
            raise DeltaError("assignment is not total on the domain")
        if not _strings(assign.values()):
            s = next(s for s, t in assign.items() if not isinstance(t, str))
            raise DeltaError(f"{s!r} maps to {assign[s]!r}, not an id")
        dom_faces, cod_faces = self.dom.faces, self.cod.faces
        cod_dim, image = self.cod._dim_of.get, assign.__getitem__
        for s, t in assign.items():
            k = dim_of[s]
            if cod_dim(t) != k:
                raise DeltaError(f"{s!r} ({k}-simplex) maps to bad id {t!r}")
            if k and cod_faces[t] != tuple(map(image, dom_faces[s])):
                raise DeltaError(f"face commutation fails at {s!r}")

    @classmethod
    def _owning(cls, dom, cod, assign):
        """A trusted map that takes ownership of the dict ``assign``: no
        copy and no validation, so the caller must never touch it again."""
        m = _new(cls)
        m.dom = dom
        m.cod = cod
        m.assign = assign
        m._hash = m._prefixes = None
        return m

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
        # ``assign`` first: it tells unequal maps apart soonest
        return self is other or (
            isinstance(other, SimplicialMap) and self.assign == other.assign
            and self.dom == other.dom and self.cod == other.cod)

    def __hash__(self):
        # the endpoints' hashes are cached ints on the complexes
        if self._hash is None:
            self._hash = hash((self.dom, self.cod,
                               frozenset(self.assign.items())))
        return self._hash

    def is_injective(self):
        return len(set(self.assign.values())) == len(self.assign)

    def is_bijective(self):
        return self.is_injective() and \
            len(self.assign) == self.cod.n_simplices

    def inverse(self):
        if not self.is_bijective():
            raise DeltaError("map is not bijective")
        return SimplicialMap._owning(
            self.cod, self.dom, {t: s for s, t in self.assign.items()})


def _id_inclusion(sub, ambient):
    """The identifier inclusion of a known literal subcomplex, owned."""
    return SimplicialMap._owning(sub, ambient, {s: s for s in sub._dim_of})


def identity_map(x):
    return _id_inclusion(x, x)


def inclusion_map(sub, ambient):
    """The identifier-preserving inclusion of a literal subcomplex."""
    if not sub.is_subcomplex_of(ambient):
        raise DeltaError("not a literal subcomplex")
    return _id_inclusion(sub, ambient)


def compose(f, g):
    """The composite f after g."""
    if g.cod != f.dom:
        raise DeltaError("composition endpoint mismatch")
    fa = f.assign
    return SimplicialMap._owning(g.dom, f.cod,
                                 {s: fa[t] for s, t in g.assign.items()})


def composes_to(f, g, h):
    """``compose(f, g) == h``, compared entry by entry without building the
    composite; unequal endpoints of f and g raise as in ``compose``."""
    if g.cod != f.dom:
        raise DeltaError("composition endpoint mismatch")
    ga = g.assign
    # an id is a string, so a missing entry (None) never matches
    return len(ga) == len(h.assign) and \
        all(map(operator.eq, map(f.assign.__getitem__, ga.values()),
                map(h.assign.get, ga))) and \
        g.dom == h.dom and f.cod == h.cod


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
        if not composes_to(right, top, compose(bottom, left)):
            raise DeltaError("square does not commute")


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
    return EMPTY._extended(simp, faces)


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
def boundary_keys(k):
    """The ids of the boundary of the standard k-simplex, sorted: the order
    of a cell's ``images`` and of each lift that ``_lift_kernel`` yields."""
    return tuple(sorted(boundary_complex(k).id_set))


@functools.lru_cache(maxsize=None)
def _face_steps(k):
    """Steps ``(s, parent, i)`` that reach every simplex s of dimension
    < k - 1 of the standard k-simplex as face i of a parent, dimension by
    dimension downwards and in id order within one.  The parent is one of
    the facets d_0..d_(k-1), or of the parents of earlier steps, if s is
    a face of one, else s's first parent: ``_lift_kernel`` holds the face
    tuples of exactly these, so it fetches one more per new parent."""
    delta = standard_simplex(k)
    held = set(facet_ids(k)[:-1])
    steps = []
    for m in range(k - 2, -1, -1):
        for s in delta.ids(m):
            parents = [(p, delta.faces[p].index(s)) for p in delta.ids(m + 1)
                       if s in delta.faces[p]]
            p, i = next((pi for pi in parents if pi[0] in held), parents[0])
            held.add(p)
            steps.append((s, p, i))
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
    return SimplicialMap._owning(standard_simplex(k), x, assign)


def boundary_restriction(x, b):
    """The restriction of ``characteristic_map(x, b)`` to the boundary."""
    k = x.dim(b)
    return SimplicialMap._owning(boundary_complex(k), x,
                                 _boundary_assign(k, x.faces_of(b), x.faces))


# -- hom enumeration -----------------------------------------------------


_EXHAUSTED = object()  # what ``next`` gives for a search level tried out


def enumerate_homs(dom, cod, post=None, pre=None, limit=None):
    """All simplicial maps ``dom -> cod``, in deterministic order.

    ``post=(p, t)`` keeps only maps h with ``p o h == t`` (p: cod -> Z,
    t: dom -> Z).  ``pre=(e, u)`` keeps only maps h with ``h o e == u``
    (e: W -> dom, u: W -> cod).  Enumeration backtracks over simplices in
    increasing dimension with face-consistency pruning, on an explicit
    stack of candidate iterators; output order is lexicographic in the
    assignments.  With no ``post``, candidates come from one ``(dim,
    faces) -> ids`` dict of ``cod`` built per call.
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
        return [SimplicialMap._owning(dom, cod, {})]
    results = []
    assign = {}
    by_faces = {}
    if pmap is None:  # ids in order: ``all_ids`` sorts within a dimension
        for k, t in cod.all_ids():
            by_faces.setdefault((k, cod.faces_of(t)), []).append(t)

    def candidates(s):
        k = dom.dim(s)
        fkey = tuple(assign[f] for f in dom.faces_of(s))
        if pmap is not None:
            base = pmap.prefix_index(k).get((target.assign[s], fkey), ())
        else:
            base = by_faces.get((k, fkey), ())
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
            results.append(SimplicialMap._owning(dom, cod, dict(assign)))
            if len(results) == limit:
                break
    return results


@functools.lru_cache(maxsize=None)
def _lift_kernel(k):
    """The boundary-lift search of shape k, compiled on first use.

    Returns ``search(f, targets, new)``, which returns the boundary lifts of
    the k-simplices ``targets`` of ``f.cod``: the maps u from the boundary
    of the standard k-simplex into ``f.dom`` with ``f o u`` the boundary of
    a target t, as two parallel lists, each lift's target and each lift's
    tuple of images in the order of ``boundary_keys(k)``.  A lift is fixed
    by its facets x_0..x_k, subject to ``f(x_i) = d_i t`` and
    ``d_i x_j = d_(j-1) x_i`` for i < j, so the first j faces of x_j are
    fixed by x_0..x_(j-1).  ``search`` runs, for each target in turn, one
    loop per facet over the candidates ``f.prefix_index(k - 1)`` gives for
    its target and those faces, then reads every lower simplex off the
    faces of x_0..x_(k-1) in straight-line code, by the steps of
    ``_face_steps(k)``: a simplex of codimension >= 2 omits some vertex
    i < k, so it lies in facet x_i.  With ``new`` (a
    set of domain ids), only lifts with some facet in ``new`` are kept:
    when no earlier facet is new, x_k is drawn from ``new`` alone, so no
    other lift is built.  Lifts come target by target, in the order given,
    and for each target in lexicographic order of their facet tuples.
    Shape 0 has one empty lift per target, kept only when ``new`` is None:
    it has no facet, so it is never proper.  The source is generated from k
    alone; ids only ever reach it as arguments.
    """
    if k == 0:
        return lambda f, targets, new: (
            (list(targets), [()] * len(targets)) if new is None else ([], []))
    facets = facet_ids(k)
    image = {s: f"x{j}" for j, s in enumerate(facets)}
    # the variables holding fetched face tuples; vertices have none
    tuples = {s: f"f{j}" for j, s in enumerate(facets[:-1])} if k > 1 \
        else {}

    def cands(j):  # by target, and the faces that x_0..x_(j-1) fix
        fixed = "".join(f"f{i}[{j - 1}], " for i in range(j) if k > 1)
        return f"index.get((t{j}, ({fixed})), ())"

    lines = ["def search(f, targets, new):",
             f" index = f.prefix_index({k - 1})",
             " cod_faces = f.cod.faces",
             " faces = f.dom.faces",
             " over = []",
             " out = []",
             " add = out.append",
             " n = new is None",
             " for t in targets:",
             f"  {''.join(f't{j}, ' for j in range(k + 1))}= cod_faces[t]"]
    for j in range(k):
        pad = " " * (j + 2)
        lines.append(f"{pad}for x{j} in {cands(j)}:")
        if k > 1:
            lines.append(f"{pad} f{j} = faces[x{j}]")
        lines.append(f"{pad} n{j} = {f'n{j - 1}' if j else 'n'} "
                     f"or x{j} in new")
    # x_k is drawn from ``new`` alone when no earlier facet is new
    pad = " " * (k + 2)
    lines += [f"{pad}cands = {cands(k)}",
              f"{pad}if not n{k - 1}:",
              f"{pad} cands = [x for x in cands if x in new]",
              f"{pad}if cands:"]
    # each lower simplex is face i of its parent in ``_face_steps``, whose
    # face tuple is fetched the first time it is a parent
    for s, p, i in _face_steps(k):
        if p not in tuples:
            tuples[p] = f"g{len(tuples)}"
            lines.append(f"{pad} {tuples[p]} = faces[{image[p]}]")
        image[s] = f"y{len(image)}"
        lines.append(f"{pad} {image[s]} = {tuples[p]}[{i}]")
    slots = "".join(image[s] + ", " for s in boundary_keys(k))
    lines += [f"{pad} for x{k} in cands:",
              f"{pad}  add(({slots}))",
              f"{pad} over += [t] * len(cands)",  # one lift per candidate
              " return over, out"]
    namespace = {}
    exec(compile("\n".join(lines), f"<boundary lifts of shape {k}>",
                 "exec"), namespace)
    return namespace["search"]


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
    total = EMPTY._extended(simp, faces)
    return total, [SimplicialMap._owning(x, total, assign)
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
    e = f.dom.subcomplex(keep)  # literal: its inclusion is owned
    return e, _id_inclusion(e, f.dom)


def is_pullback(sq):
    """True iff the square's corner is the degreewise pullback of its cospan."""
    fibers = {}
    for s, t in sq.bottom.assign.items():
        fibers.setdefault(t, []).append(s)
    pairs = {(s, t) for s in sq.top.cod._dim_of
             for t in fibers.get(sq.right.assign[s], ())}
    med = [(sq.top.assign[a], sq.left.assign[a]) for a in sq.top.dom._dim_of]
    return len(set(med)) == len(med) and set(med) == pairs  # a bijection


# -- filtrations ----------------------------------------------------------


def mec(u, stages):
    """Minimal enclosing stage: least n with image(u) inside ``stages[n]``,
    where ``stages`` are nested literal subcomplexes, such as a
    ``CellComplex.filtration``."""
    if u.cod != stages[-1]:
        raise DeltaError("map must land in the top stage of the filtration")
    img = set(u.assign.values())
    for n, stage in enumerate(stages):
        if img <= stage.id_set:
            return n
    raise InvariantError("image not contained in the top stage")
