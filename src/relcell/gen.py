"""Seeded random generators for the test and check corpora.

Everything is driven by an explicit ``random.Random`` instance so that
corpora are reproducible from a seed.  Complexes are built from coproducts
of standard simplices glued by coequalisers; maps come from inclusions,
quotient projections, and their composites — all constructions that are
valid by construction rather than by rejection sampling.
"""

from __future__ import annotations

from .delta import (
    ArrowSquare,
    characteristic_map,
    coequaliser,
    compose,
    coproduct,
    identity_map,
    inclusion_map,
    pushout,
    standard_simplex,
)


def rand_complex(rng, max_dim=2):
    """A random finite complex: a coproduct of 1 to 3 standard simplices
    with up to 3 pairs of vertices glued."""
    parts = [standard_simplex(rng.randint(0, max_dim))
             for _ in range(rng.randint(1, 3))]
    x, _ = coproduct(parts)
    for _ in range(rng.randint(0, 3)):
        verts = x.ids(0)
        if len(verts) < 2:
            break
        a, b = rng.sample(verts, 2)
        x, _ = coequaliser(characteristic_map(x, a),
                           characteristic_map(x, b))
    return x


def rand_subcomplex(rng, x):
    """A random subcomplex: keep each simplex with probability 0.6, and
    every face of a kept simplex.  Dimensions run top-down, so each face is
    kept before its own dimension comes up."""
    keep = set()
    for k in range(x.max_dim, -1, -1):
        for s in x.ids(k):
            if s in keep or rng.random() < 0.6:
                keep.add(s)
                if k >= 1:
                    keep.update(x.faces_of(s))
    return x.subcomplex(keep)


def rand_quotient(rng, x):
    """A random quotient projection out of x (possibly the identity)."""
    choices = [k for k in range(x.max_dim + 1) if len(x.ids(k)) >= 2]
    if not choices or rng.random() < 0.2:
        return identity_map(x)
    k = rng.choice(choices)
    a, b = rng.sample(x.ids(k), 2)
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


def rand_nat_square(rng, f):
    """A commuting square (a, b): f -> g in the arrow category."""
    if rng.random() < 0.5:
        b = rand_map_from(rng, f.cod)
        return ArrowSquare(top=identity_map(f.dom), bottom=b,
                           left=f, right=compose(b, f))
    a = rand_map_from(rng, f.dom)
    _, leg_b, leg_a = pushout(f, a)
    return ArrowSquare(top=a, bottom=leg_b, left=f, right=leg_a)
