"""Right-map structures as filler tables, and the stagewise lifting solver.

A filler table for a map p: E -> B answers generating lifting problems:
given a k-simplex b of B and a boundary lift u into E commuting with p, it
returns a k-simplex of E with faces u and image b.  Tables are explicit
(finite key -> filler dictionaries), search-based (deterministic
lexicographic first fit), or backed by a chooser function; the free
factorization provides a canonical chooser that looks each free cell up by
its target and faces.

The solver extends a lift over a cell complex one stratum at a time; cells
within a stratum attach only to the stratum boundary, so the extension
order within a stratum is immaterial.
"""

from __future__ import annotations

from .delta import (
    DeltaError,
    InvariantError,
    SimplicialMap,
    boundary_complex,
    boundary_keys,
    boundary_restriction,
    compose,
    composes_to,
    enumerate_homs,
)
from .strata import _facets
from .cellcx import u_of_complex


class LiftError(DeltaError):
    """A lifting problem has no (valid) filler."""

    def __init__(self, message, square=None):
        super().__init__(message)
        self.square = square


def square_key(dim, target, u_assign):
    """Canonical hashable key of a generating lifting square."""
    return (dim, target, tuple(sorted(u_assign.items())))


def _key(dim, target, images):
    """``square_key`` of the boundary lift with ``images``."""
    return (dim, target, tuple(zip(boundary_keys(dim), images)))


class FillerTable:
    """A choice of filler for generating lifting squares into ``p``.

    ``entries`` maps square keys to simplex ids; ``fallback`` is "search"
    (first valid filler in lexicographic order) or "fail".  A ``chooser``
    callable ``chooser(target, faces)``, given the facets that fix the
    boundary lift, takes precedence over the fallback.  Every filler a
    table returns is validated against both equations.
    """

    __slots__ = ("p", "entries", "fallback", "chooser")

    def __init__(self, p, entries=None, fallback="search", chooser=None):
        if fallback not in ("search", "fail"):
            raise DeltaError(f"unknown fallback {fallback!r}")
        self.p = p
        self.entries = dict(entries or {})
        self.fallback = fallback
        self.chooser = chooser

    def _fill(self, dim, target, images):
        """The validated filler over the ``dim``-simplex ``target`` of the
        boundary lift with ``images``; its key is built only to look up
        entries or to report."""
        faces = _facets(dim)(images) if dim else ()
        key = _key(dim, target, images) if self.entries else None
        if key in self.entries:
            e = self.entries[key]
        elif self.chooser is not None:
            e = self.chooser(target, faces)
        elif self.fallback == "search":
            found = self.p.prefix_index(dim).get((target, faces))
            if found:
                return found[0]
            raise LiftError(f"no filler exists for target {target!r}",
                            _key(dim, target, images))
        else:
            raise LiftError(f"no table entry for target {target!r}",
                            _key(dim, target, images))
        dom = self.p.dom
        if e not in dom or dom.dim(e) != dim:
            problem = f"is not a {dim}-simplex of the domain"
        elif self.p.assign[e] != target:
            problem = f"does not map to {target!r}"
        elif dom.faces_of(e) != faces:
            problem = "has wrong faces"
        else:
            return e
        raise LiftError(f"filler {e!r} {problem}", _key(dim, target, images))

    def filler(self, u, target):
        """The chosen filler for the square (u, target); validated.  A
        target outside p's codomain, or a u that is not a map from the
        boundary of its standard simplex into p's domain, is a DeltaError."""
        if target not in self.p.cod:
            raise DeltaError(f"square over {target!r}: the target is not a "
                             f"simplex of the codomain")
        dim = self.p.cod.dim(target)
        images = tuple(map(u.assign.get, boundary_keys(dim)))
        if u.dom != boundary_complex(dim) or u.cod != self.p.dom or \
                None in images:
            raise DeltaError(f"square over {target!r}: u is not a map from "
                             f"the boundary of a {dim}-simplex into the domain")
        return self._fill(dim, target, images)


def free_fillers(fr):
    """The canonical filler table of the free factorization's right leg:
    the free cell glued over the target with the boundary lift's facets
    (``fr.cell_over``) fills each square; total by construction."""
    return FillerTable(fr.ef, chooser=fr.cell_over)


def solve_lifting(c, ft, square):
    """The diagonal lift of a commuting square (u, v): U(c) -> p.

    ``square`` is the pair (u: boundary -> E, v: body -> B).  The lift is
    built stagewise: for each cell the table is queried at the cell's shape,
    the image of its glued simplex and its image tuple under the partial
    lift so far, with no map built per cell.  Both lifting equations are
    asserted on the result; a bad filler raises LiftError with its square.
    """
    u, v = square
    i = u_of_complex(c)
    p = ft.p
    if u.dom != c.boundary or u.cod != p.dom or \
            v.dom != c.body or v.cod != p.cod:
        raise DeltaError("lifting square endpoints do not match")
    if not composes_to(p, u, compose(v, i)):
        raise DeltaError("lifting square does not commute")
    d_assign = dict(u.assign)
    fill, lifted = ft._fill, d_assign.__getitem__
    for _, (cid, k, images) in c.all_cells():
        d_assign[cid] = fill(k, v.assign[cid], tuple(map(lifted, images)))
    d = SimplicialMap(c.body, p.dom, d_assign)
    if not composes_to(d, i, u):
        raise InvariantError("lift does not restrict to the given map")
    if not composes_to(p, d, v):
        raise InvariantError("lift does not project to the given map")
    return d


def verify_fillers(ft, sample_budget=None):
    """Check filler equations on declared entries and enumerated squares.

    Explicit entries are checked first; then generating squares into p are
    enumerated (dimension by dimension, up to ``sample_budget`` squares)
    and the table is queried on each.  Returns a report with the number of
    squares checked and a list of failures (square key and reason).
    """
    p = ft.p
    failures = []
    seen = set()
    checked = 0

    def try_square(key, u=None):
        nonlocal checked
        if key in seen:
            return
        seen.add(key)
        checked += 1
        dim, target, items = key
        try:  # an entry's u is built here, so a malformed entry fails too
            if u is None:
                u = SimplicialMap(boundary_complex(dim), p.dom, dict(items),
                                  validate=False)
            ft.filler(u, target)
        except DeltaError as err:
            failures.append({"square": key, "reason": str(err)})

    for key in sorted(ft.entries):
        try_square(key)

    squares = ((k, b, u) for k in range(p.cod.max_dim + 1)
               for b in sorted(p.cod.ids(k))
               for u in enumerate_homs(boundary_complex(k), p.dom, post=(
                   p, boundary_restriction(p.cod, b))))
    done = False
    for k, b, u in squares:
        if sample_budget is not None and checked >= sample_budget:
            done = True
            break
        try_square(square_key(k, b, u.assign), u)
    return {"checked": checked, "failures": failures,
            "ok": not failures, "truncated": done}
