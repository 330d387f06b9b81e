import faulthandler
import os
import random
import sys

import pytest

from relcell import (
    CellComplex,
    CellComplexError,
    CellComplexMorphism,
    DeltaComplex,
    Factorizer,
    FillerTable,
    InvariantError,
    SimplicialMap,
    Stratum,
    assemble,
    body,
    boundary_complex,
    coalgebra_structure,
    comonad_comult,
    compose,
    composes_to,
    coproduct,
    enumerate_homs,
    free_fillers,
    identity_map,
    inclusion_map,
    k_of_square,
    pushforward_complex,
    solve_lifting,
    standard_simplex,
    u_of_complex,
)
from relcell import jsonio
from relcell.delta import _lift_kernel, boundary_keys
from relcell.gen import rand_complex, rand_map_from


# Each test is bounded in time, so that a hang (a mutant that loops, say)
# fails Tier-1 in a minute with the hung test's traceback, not at CI's job
# timeout.  The slowest test takes about 2.3 s, and about 6 s under
# ``unrun_lines.py``'s tracer.
_TIME_BOUND_S = 60
_STDERR_FD = pytest.StashKey[int]()


def pytest_configure(config):
    # a copy of standard error taken while no test captures it, so that the
    # traceback of a test that runs out of time reaches the terminal
    config.stash[_STDERR_FD] = os.dup(sys.__stderr__.fileno())


def pytest_unconfigure(config):
    os.close(config.stash[_STDERR_FD])


@pytest.fixture(autouse=True)
def _time_bound(request):
    faulthandler.dump_traceback_later(
        _TIME_BOUND_S, exit=True, file=request.config.stash[_STDERR_FD])
    yield
    faulthandler.cancel_dump_traceback_later()


@pytest.fixture(scope="session")
def fz():
    """A factorization cache shared across the whole test session."""
    return Factorizer()


def cx(st):
    """The complex of height <= 1 whose one stratum is ``st``; a stratum
    without cells gives the trivial complex on its boundary."""
    return CellComplex(st.boundary, [st] if st.cells else [])


def stratum_of(c):
    """The stratum of a complex of height <= 1: the inverse of ``cx``."""
    assert c.height <= 1, f"height {c.height} is not a stratum"
    return c.strata[0] if c.height else Stratum(c.boundary, [])


def attach_map(k, images, cod):
    """The map from the boundary of the standard k-simplex into ``cod``
    with ``images`` in ``boundary_keys(k)`` order: a cell's attach, or a
    boundary lift, as a map.  Not validated."""
    return SimplicialMap._owning(boundary_complex(k), cod,
                                 dict(zip(boundary_keys(k), images)))


def images_of(u):
    """The image tuple of a map out of the boundary of a standard
    simplex: its images in ``boundary_keys`` order."""
    return tuple(u.assign[s] for s in boundary_keys(u.dom.max_dim + 1))


def boundary_lifts(f, t, new=None):
    """The boundary lifts of the simplex t along f, as maps: the tuples
    ``_lift_kernel`` yields, in its order."""
    k = f.cod.dim(t)
    return [attach_map(k, images, f.dom)
            for images in _lift_kernel(k)(f, (t,), new)[1]]


def morphism(dom, cod, f0, p):
    """The morphism dom -> cod stated by its base map ``f0`` and its cell
    assignment ``p``: the body map that extends f0 by p, checked as a map
    and then as a morphism."""
    return CellComplexMorphism(dom, cod, SimplicialMap(
        dom.body, cod.body, {**f0.assign, **p}))


def chain_complex(n):
    """One simplex per degree up to n, each face the simplex below: every
    shape k <= n + 1 has exactly one attach into it."""
    return DeltaComplex({k: [f"c{k}"] for k in range(n + 1)},
                        {f"c{k}": (f"c{k - 1}",) * (k + 1)
                         for k in range(1, n + 1)})


def boundary_inclusion(k):
    return inclusion_map(boundary_complex(k), standard_simplex(k))


def canonical(value):
    """The sorted form of a complex, or of a map and its endpoints: an
    oracle of content for ``==``, and the value whose ``repr`` the map
    digest behind cell ids hashes."""
    if isinstance(value, SimplicialMap):
        return (canonical(value.dom), canonical(value.cod),
                tuple(sorted(value.assign.items())))
    return (tuple(sorted(value.simplices.items())),
            tuple(sorted(value.faces.items())))


def rebuilt(x):
    """An equal complex that shares no object with x."""
    return DeltaComplex(x.simplices, x.faces)


def rebuilt_map(f):
    """An equal map that shares no object with f."""
    return SimplicialMap(rebuilt(f.dom), rebuilt(f.cod), f.assign)


def bigon(d0, d1):
    """Two edges e, f from vertex a to vertex b, f with faces (d0, d1)."""
    return DeltaComplex({0: ["a", "b"], 1: ["e", "f"]},
                        {"e": ("b", "a"), "f": (d0, d1)})


def fold_map():
    pt = standard_simplex(0)
    two, _ = coproduct([pt, pt])
    return SimplicialMap(two, pt, {s: "0" for s in two.id_set})


def stratum_to_json(st):
    """A stratum as JSON: its boundary and its cells, as a cell complex
    writes them.  Strata are written, not read."""
    return {"boundary": jsonio.complex_to_json(st.boundary),
            "cells": [jsonio._cell_to_json(c) for c in st.cells]}


# -- seeded generators that only the tests draw from ------------------------


def rand_images(rng, boundary, max_cell_dim=2):
    """A random attaching map into ``boundary`` (shape dim <= max_cell_dim),
    as its shape dimension and image tuple.

    Falls back to dimension 0, which always admits a (unique, empty) map.
    """
    dims = list(range(min(max_cell_dim, boundary.max_dim + 1), -1, -1))
    rng.shuffle(dims)
    for k in dims + [0]:
        homs = enumerate_homs(boundary_complex(k), boundary, limit=24)
        if homs:
            attach = rng.choice(homs).assign
            return k, tuple(map(attach.__getitem__, boundary_keys(k)))
    raise InvariantError("unreachable: dimension 0 always admits a map")


def rand_stratum(rng, prefix="c"):
    """A random stratum of 1 to 3 cells, of shape dimension <= 2, on a
    random complex."""
    boundary = rand_complex(rng, 2)
    cells = []
    for i in range(rng.randint(1, 3)):
        cells.append((f"{prefix}{i}", *rand_images(rng, boundary, 2)))
    return Stratum(boundary, cells)


def normal_form(base, strata):
    """The proper complex over ``base`` with the cells of a connected,
    possibly improper, stratum sequence."""
    return assemble(base, [c for st in strata for c in st.cells])


def checked_complex(c):
    """``c`` rebuilt through the checked ``Stratum`` and ``CellComplex``."""
    return CellComplex(c.boundary, [Stratum(st.boundary, st.cells)
                                    for st in c.strata])


def rand_cell_complex(rng, max_dim=2, max_cells=6, prefix="c"):
    """A random proper connected complex with at most ``max_cells`` cells,
    named ``prefix`` and a number, with trailing ``'`` while that names a
    simplex already there (a prefix such as ``"0."`` can spell a base id)."""
    base = rand_complex(rng, max_dim)
    strata = []
    current = base
    for i in range(rng.randint(0, max_cells)):
        k, images = rand_images(rng, current, max_dim)
        cid = f"{prefix}{i}"
        while cid in current:
            cid += "'"
        st = Stratum(current, [(cid, k, images)])
        strata.append(st)
        current = body(st)
    return normal_form(base, strata)


def rand_complex_morphism(rng):
    """A random complex morphism: pushforward along a random quotient."""
    c = rand_cell_complex(rng, max_cells=4)
    g = rand_map_from(rng, c.boundary)
    _, m = pushforward_complex(c, g)
    return m


def shuffled_strata(rng, c):
    """A connected stratum sequence with the same cells as c but cells
    pushed to random later stages (generally improper)."""
    placed = []
    stage_of = {}
    for _, cell in c.all_cells():
        cid, _, images = cell
        lo = 0
        for t in images:
            if t in stage_of:
                lo = max(lo, stage_of[t] + 1)
        s = lo + rng.randint(0, 2)
        stage_of[cid] = s
        placed.append((s, cell))
    placed.sort(key=lambda t: (t[0], t[1][0]))
    strata = []
    current = c.boundary
    for stage in sorted({s for s, _ in placed}):
        st = Stratum._owning(current,
                             [cl for s, cl in placed if s == stage])
        strata.append(st)
        current = body(st)
    return strata


def rand_transpose_square(rng, c):
    """A commuting square (g0, h): U(c) -> f for a random target map f."""
    h = rand_map_from(rng, c.body)
    if rng.random() < 0.5:
        f = compose(h, u_of_complex(c))
        return f, identity_map(c.boundary), h
    return h, u_of_complex(c), h


def awfs_lifts(fz, draws, swap=False):
    """Criterion 10's pairs: both sides of the AWFS's lift of a coalgebra
    against an algebra, ``solve_lifting(c, T, (u, v))`` and ``s_T ∘ K(u,
    v) ∘ α_c``, for ``draws`` squares at seed 11 and each of two total
    tables T for p.  The square: a random complex c, v a random map from
    its body, g = v∘U(c), p = e_g and u = U(K_g).  s_T is the table's
    algebra ``solve_lifting(Kp, T, (id_E, e_p))``, solved with the other
    table if ``swap``."""
    rng = random.Random(11)
    for _ in range(draws):
        c = rand_cell_complex(rng, max_dim=2, max_cells=4)
        v = rand_map_from(rng, c.body)
        frg = fz.k(compose(v, u_of_complex(c)))
        p, u = frg.ef, u_of_complex(frg.kf)
        frp = fz.k(p)
        k_alpha = compose(k_of_square(u, v, fz.k(u_of_complex(c)), frp),
                          coalgebra_structure(c, fz))
        tables = [free_fillers(frg), FillerTable(p, fallback="search")]
        algebras = [solve_lifting(frp.kf, t, (identity_map(p.dom), frp.ef))
                    for t in tables]
        for t, s in zip(tables, algebras[::-1] if swap else algebras):
            yield solve_lifting(c, t, (u, v)), compose(s, k_alpha)


def is_coalgebra(f, alpha, fz):
    """Whether ``alpha: cod(f) -> body(Kf)`` is a coalgebra structure on
    f for the comonad L: a section of ``ef`` that extends ``lf`` (the
    counit laws), and coassociative: ``delta o alpha == K(1, alpha) o
    alpha``.  A test oracle of Garner's conjecture, criterion 11."""
    fr = fz.k(f)
    lf = u_of_complex(fr.kf)
    if not (composes_to(fr.ef, alpha, identity_map(f.cod))
            and composes_to(alpha, f, lf)):
        return False
    k_alpha = k_of_square(identity_map(f.dom), alpha, fr, fz.k(lf))
    return compose(comonad_comult(f, fz), alpha) == compose(k_alpha, alpha)


def is_coalgebra_morphism(f, alpha, g, beta, a, b, fz):
    """Whether the square ``(a, b): f -> g`` is a morphism of the
    coalgebras ``(f, alpha)`` and ``(g, beta)``: ``K(a, b) o alpha == beta
    o b``."""
    return (compose(k_of_square(a, b, fz.k(f), fz.k(g)), alpha)
            == compose(beta, b))


def mec_partition_composite(a, b):
    """The composite built by direct stagewise insertion of b's cells at
    their minimal enclosing stage of a's filtration, extended as stages
    grow.  Equivalent to ``compose_complexes``; a test oracle for it."""
    if b.boundary != a.body:
        raise CellComplexError("complexes are not composable")
    pending = [c for _, c in b.all_cells()]
    strata = []
    current = a.boundary
    n = 0
    while n < a.height or pending:
        cells = list(a.strata[n].cells) if n < a.height else []
        here = [c for c in pending if set(c[2]) <= current.id_set]
        here_ids = {cid for cid, _, _ in here}
        pending = [c for c in pending if c[0] not in here_ids]
        cells.extend(here)
        if not cells:
            if pending and n < a.height:
                n += 1
                continue
            if pending:
                raise CellComplexError("unplaceable cells in composite")
            break
        st = Stratum._owning(current, cells)
        strata.append(st)
        current = body(st)
        n += 1
    return CellComplex._owning(a.boundary, strata)
