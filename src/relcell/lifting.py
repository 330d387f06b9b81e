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
    boundary_restriction,
    compose,
    enumerate_homs,
    facet_ids,
)
from .cellcx import u_of_complex


class LiftError(DeltaError):
    """A lifting problem has no (valid) filler."""

    def __init__(self, message, square=None):
        super().__init__(message)
        self.square = square


def square_key(dim, target, u_assign):
    """Canonical hashable key of a generating lifting square."""
    return (dim, target, tuple(sorted(u_assign.items())))


def _expected_faces(dim, u_assign):
    return tuple(u_assign[s] for s in facet_ids(dim))


class FillerTable:
    """A choice of filler for generating lifting squares into ``p``.

    ``entries`` maps square keys to simplex ids; ``fallback`` is "search"
    (first valid filler in lexicographic order) or "fail".  A ``chooser``
    callable, when given, takes precedence over the fallback.  Every filler
    returned by :meth:`filler` is validated against both equations.
    """

    __slots__ = ("p", "entries", "fallback", "chooser")

    def __init__(self, p, entries=None, fallback="search", chooser=None):
        if fallback not in ("search", "fail"):
            raise DeltaError(f"unknown fallback {fallback!r}")
        self.p = p
        self.entries = dict(entries or {})
        self.fallback = fallback
        self.chooser = chooser

    def _validate_filler(self, e, dim, target, u_assign):
        if e not in self.p.dom or self.p.dom.dim(e) != dim:
            problem = f"is not a {dim}-simplex of the domain"
        elif self.p.assign[e] != target:
            problem = f"does not map to {target!r}"
        elif dim >= 1 and \
                self.p.dom.faces_of(e) != _expected_faces(dim, u_assign):
            problem = "has wrong faces"
        else:
            return e
        raise LiftError(f"filler {e!r} {problem}",
                        square_key(dim, target, u_assign))

    def filler(self, u, target):
        """The chosen filler for the square (u, target); validated.  The
        square's key is built only to look up entries or to report."""
        dim = self.p.cod.dim(target)
        if self.entries:
            key = square_key(dim, target, u.assign)
            if key in self.entries:
                return self._validate_filler(self.entries[key], dim, target,
                                             u.assign)
        if self.chooser is not None:
            return self._validate_filler(self.chooser(u, target), dim,
                                         target, u.assign)
        if self.fallback == "search":
            found = self.p.prefix_index(dim).get(
                (target, _expected_faces(dim, u.assign)))
            if found:
                return found[0]
            raise LiftError(f"no filler exists for target {target!r}",
                            square_key(dim, target, u.assign))
        raise LiftError(f"no table entry for target {target!r}",
                        square_key(dim, target, u.assign))


def free_fillers(fr):
    """The canonical filler table of the free factorization's right leg.

    The filler of a square with boundary lift u is the free cell glued over
    its target with u's facets; total by construction.
    """
    def choose(u, target):
        return fr.cell_over(target,
                            _expected_faces(u.dom.max_dim + 1, u.assign))

    return FillerTable(fr.ef, chooser=choose)


def solve_lifting(c, ft, square):
    """The diagonal lift of a commuting square (u, v): U(c) -> p.

    ``square`` is the pair (u: boundary -> E, v: body -> B).  The lift is
    built stagewise: for each cell the table is queried at the cell's shape,
    the current partial lift restricted along its attaching map, and the
    image of its glued simplex.  Both lifting equations are asserted on the
    result; a chooser failure raises LiftError with the offending square.
    """
    u, v = square
    i = u_of_complex(c)
    p = ft.p
    if u.dom != c.boundary or u.cod != p.dom or \
            v.dom != c.body or v.cod != p.cod:
        raise DeltaError("lifting square endpoints do not match")
    if compose(p, u) != compose(v, i):
        raise DeltaError("lifting square does not commute")
    d_assign = dict(u.assign)
    for _, cell in c.all_cells():
        bd = boundary_complex(cell.dim)
        w = SimplicialMap(
            bd, p.dom,
            {s: d_assign[t] for s, t in cell.attach.assign.items()},
            validate=False)
        d_assign[cell.id] = ft.filler(w, v.assign[cell.id])
    d = SimplicialMap(c.body, p.dom, d_assign)
    if compose(d, i) != u:
        raise InvariantError("lift does not restrict to the given map")
    if compose(p, d) != v:
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

    def try_square(u, target, key):
        nonlocal checked
        if key in seen:
            return
        seen.add(key)
        checked += 1
        try:
            ft.filler(u, target)
        except LiftError as err:
            failures.append({"square": key, "reason": str(err)})

    for key in sorted(ft.entries):
        dim, target, items = key
        u = SimplicialMap(boundary_complex(dim), p.dom, dict(items),
                          validate=False)
        try_square(u, target, key)

    done = False
    for k in range(p.cod.max_dim + 1):
        bd = boundary_complex(k)
        for b in sorted(p.cod.ids(k)):
            tgt = boundary_restriction(p.cod, b)
            for u in enumerate_homs(bd, p.dom, post=(p, tgt)):
                if sample_budget is not None and checked >= sample_budget:
                    done = True
                    break
                try_square(u, b, square_key(k, b, u.assign))
            if done:
                break
        if done:
            break
    return {"checked": checked, "failures": failures,
            "ok": not failures, "truncated": done}
