"""Right-map structures as filler tables, and the stagewise lifting solver.

A filler table for a map p: E -> B answers generating lifting problems:
given a k-simplex b of B and a boundary lift u into E commuting with p, it
returns a k-simplex of E with faces u and image b, from its entries or its
fallback (``FillerTable``).

The solver extends a lift over a cell complex one stratum at a time; cells
within a stratum attach only to the stratum boundary, so the extension
order within a stratum is immaterial.
"""

from __future__ import annotations

from .delta import (
    DeltaError,
    InvariantError,
    SimplicialMap,
    _lift_kernel,
    _strings,
    boundary_complex,
    boundary_keys,
    compose,
    composes_to,
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


def _check_entry(key, filler):
    """Raise DeltaError unless ``key`` is ``square_key`` of an ``int`` dim
    and ``boundary_keys(dim)``, and all its ids and ``filler`` strings."""
    if not (type(key) is tuple and len(key) == 3 and type(key[0]) is int
            and type(key[2]) is tuple):
        raise DeltaError(f"filler table key {key!r} is not a square key")
    dim, target, items = key
    if tuple(p[0] if type(p) is tuple and len(p) == 2 else None
             for p in items) != boundary_keys(dim):
        raise DeltaError(f"entry over {target!r}: boundary is not total on "
                         f"the boundary of the standard {dim}-simplex")
    if not _strings((target, filler, *(t for _, t in items))):
        raise DeltaError(f"entry {key!r} -> {filler!r}: an id is not a string")


class FillerTable:
    """A choice of filler for generating lifting squares into ``p``.

    ``entries`` maps square keys to simplex ids, checked by
    ``_check_entry``.  Any other square goes to ``fallback``: "search"
    (first valid filler in lexicographic order), "fail", or a callable
    ``fallback(target, faces)``, given the facets that fix the boundary
    lift.  Every filler is validated against both equations.
    """

    __slots__ = ("p", "entries", "fallback")

    def __init__(self, p, entries=None, fallback="search"):
        if not callable(fallback) and fallback not in ("search", "fail"):
            raise DeltaError(f"unknown fallback {fallback!r}")
        self.p = p
        self.entries = dict(entries or {})
        for key, filler in self.entries.items():
            _check_entry(key, filler)
        self.fallback = fallback

    def _fill(self, dim, target, images):
        """The validated filler over the ``dim``-simplex ``target`` of the
        boundary lift with ``images``; its key is built only to look up
        entries or to report."""
        faces = _facets(dim)(images) if dim else ()
        key = _key(dim, target, images) if self.entries else None
        if key in self.entries:
            e = self.entries[key]
        elif self.fallback == "search":
            found = self.p.prefix_index(dim).get((target, faces))
            if found:
                return found[0]
            raise LiftError(f"no filler exists for target {target!r}",
                            _key(dim, target, images))
        elif self.fallback == "fail":
            raise LiftError(f"no table entry for target {target!r}",
                            _key(dim, target, images))
        else:
            e = self.fallback(target, faces)
        dom = self.p.dom
        if not isinstance(e, str) or dom._dim_of.get(e) != dim:
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
        if u.dom != boundary_complex(dim) or u.cod != self.p.dom:
            raise DeltaError(f"square over {target!r}: u is not a map from "
                             f"the boundary of a {dim}-simplex into the domain")
        return self._fill(dim, target,
                          tuple(map(u.assign.__getitem__, boundary_keys(dim))))


def free_fillers(fr):
    """The canonical filler table of the free factorization's right leg:
    the free cell glued over the target with the boundary lift's facets
    (``fr.cell_over``) fills each square; total by construction."""
    return FillerTable(fr.ef, fallback=fr.cell_over)


def solve_lifting(c, ft, square):
    """The diagonal lift of a commuting square (u, v): U(c) -> p.

    ``square`` is the pair (u: boundary -> E, v: body -> B).  The lift is
    built stagewise: for each cell the table is queried at the cell's shape,
    the image of its glued simplex and its image tuple under the partial
    lift so far, with no map built per cell.  The lift is owned, not
    checked again: u is a map, and ``_fill`` checks each filler's
    dimension, image and faces.  Both lifting equations are asserted on
    the result; a bad filler raises LiftError with its square.
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
    d = SimplicialMap._owning(c.body, p.dom, d_assign)
    if not composes_to(d, i, u):
        raise InvariantError("lift does not restrict to the given map")
    if not composes_to(p, d, v):
        raise InvariantError("lift does not project to the given map")
    return d


def verify_fillers(ft, sample_budget=None):
    """Check filler equations on declared entries and on generating squares.

    Explicit entries are checked first, in ascending key order: each
    entry's boundary is built as a checked map into p's domain, then goes
    through ``filler``, so a malformed one fails.  Then every other
    generating square into p is checked, up to ``sample_budget`` squares
    in all: target by target, dimension by dimension, the boundary lifts
    that ``_lift_kernel`` finds for the target, in ascending
    ``square_key`` order.  Returns a report with the number of squares
    checked and a list of failures (square key and reason).
    """
    p = ft.p
    failures = []

    def check(key, fill, *args):
        try:
            fill(*args)
        except DeltaError as err:
            failures.append({"square": key, "reason": str(err)})

    def entry(dim, target, items):  # a boundary that is no map fails here
        ft.filler(SimplicialMap(boundary_complex(dim), p.dom, dict(items)),
                  target)

    for key in sorted(ft.entries):
        check(key, entry, *key)
    checked = len(ft.entries)
    squares = ((k, b, images) for k in range(p.cod.max_dim + 1)
               for b in p.cod.ids(k)
               for images in sorted(_lift_kernel(k)(p, (b,), None)[1]))
    done = False
    for k, b, images in squares:
        if sample_budget is not None and checked >= sample_budget:
            done = True
            break
        key = _key(k, b, images)
        if key not in ft.entries:
            checked += 1
            check(key, ft._fill, k, b, images)
    return {"checked": checked, "failures": failures,
            "ok": not failures, "truncated": done}
