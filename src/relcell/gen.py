"""Seeded random generators for the test and check corpora.

Everything is driven by an explicit ``random.Random`` instance so that
corpora are reproducible from a seed.  Complexes are built from coproducts
of standard simplices glued by coequalisers; maps come from inclusions,
quotient projections, and their composites — all constructions that are
valid by construction rather than by rejection sampling.
"""

from __future__ import annotations

import random

from .delta import (
    ArrowSquare,
    InvariantError,
    boundary_complex,
    boundary_keys,
    characteristic_map,
    coequaliser,
    compose,
    coproduct,
    enumerate_homs,
    identity_map,
    inclusion_map,
    pushout,
    standard_simplex,
)
from .strata import Cell, Stratum, body
from .cellcx import normalize, pushforward_complex, u_of_complex


def rng_from_seed(seed):
    return random.Random(seed)


def rand_complex(rng, max_dim=2):
    """A random finite complex: a coproduct of 1 to 3 standard simplices
    with up to 3 pairs of vertices glued."""
    parts = [standard_simplex(rng.randint(0, max_dim))
             for _ in range(rng.randint(1, 3))]
    x, _ = coproduct(parts)
    for _ in range(rng.randint(0, 3)):
        verts = sorted(x.ids(0))
        if len(verts) < 2:
            break
        a, b = rng.sample(verts, 2)
        x, _ = coequaliser(characteristic_map(x, a),
                           characteristic_map(x, b))
    return x


def rand_subcomplex(rng, x):
    """A random subcomplex: keep each simplex with probability 0.6, then
    close downward under faces."""
    keep = set()
    for k in range(x.max_dim, -1, -1):
        for s in sorted(x.ids(k)):
            if s in keep or rng.random() < 0.6:
                keep.add(s)
                if k >= 1:
                    keep.update(x.faces_of(s))
    stack = list(keep)
    while stack:
        s = stack.pop()
        if x.dim(s) >= 1:
            for f in x.faces_of(s):
                if f not in keep:
                    keep.add(f)
                    stack.append(f)
    return x.subcomplex(keep)


def rand_quotient(rng, x):
    """A random quotient projection out of x (possibly the identity)."""
    choices = [k for k in range(x.max_dim + 1) if len(x.ids(k)) >= 2]
    if not choices or rng.random() < 0.2:
        return identity_map(x)
    k = rng.choice(choices)
    a, b = rng.sample(sorted(x.ids(k)), 2)
    _, q = coequaliser(characteristic_map(x, a), characteristic_map(x, b))
    return q


def rand_map_from(rng, x):
    """A random map out of x: a composite of up to 2 quotient projections."""
    f = identity_map(x)
    for _ in range(rng.randint(0, 2)):
        f = compose(rand_quotient(rng, f.cod), f)
    return f


def rand_map(rng, max_dim=2):
    """A random map: subcomplex inclusion followed by quotients."""
    ambient = rand_complex(rng, max_dim)
    sub = rand_subcomplex(rng, ambient)
    f = inclusion_map(sub, ambient)
    return compose(rand_map_from(rng, ambient), f)


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
        cells.append(Cell(f"{prefix}{i}", *rand_images(rng, boundary, 2)))
    return Stratum(boundary, cells)


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
        st = Stratum(current, [Cell(cid, k, images)])
        strata.append(st)
        current = body(st)
    return normalize(base, strata)


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
        lo = 0
        for t in cell.images:
            if t in stage_of:
                lo = max(lo, stage_of[t] + 1)
        s = lo + rng.randint(0, 2)
        stage_of[cell.id] = s
        placed.append((s, cell))
    placed.sort(key=lambda t: (t[0], t[1].id))
    strata = []
    current = c.boundary
    for stage in sorted({s for s, _ in placed}):
        st = Stratum(current, [cl for s, cl in placed if s == stage],
                     validate=False)
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


def rand_nat_square(rng, f):
    """A commuting square (a, b): f -> g in the arrow category."""
    if rng.random() < 0.5:
        b = rand_map_from(rng, f.cod)
        return ArrowSquare(top=identity_map(f.dom), bottom=b,
                           left=f, right=compose(b, f))
    a = rand_map_from(rng, f.dom)
    _, leg_b, leg_a = pushout(f, a)
    return ArrowSquare(top=a, bottom=leg_b, left=f, right=leg_a)
