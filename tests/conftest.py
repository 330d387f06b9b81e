import pytest

from relcell import (
    CellComplex,
    CellComplexError,
    CellComplexMorphism,
    DeltaComplex,
    Factorizer,
    SimplicialMap,
    Stratum,
    body,
    boundary_complex,
    coproduct,
    inclusion_map,
    standard_simplex,
)
from relcell.cli import builtin_fixtures
from relcell.delta import _lift_kernel, boundary_keys


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
    return SimplicialMap(boundary_complex(k), cod,
                         zip(boundary_keys(k), images), validate=False)


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
    assignment ``p``: the body map that extends f0 by p, validated."""
    return CellComplexMorphism(dom, cod, SimplicialMap(
        dom.body, cod.body, {**f0.assign, **p}, validate=False))


def chain_complex(n):
    """One simplex per degree up to n, each face the simplex below: every
    shape k <= n + 1 has exactly one attach into it."""
    return DeltaComplex({k: [f"c{k}"] for k in range(n + 1)},
                        {f"c{k}": (f"c{k - 1}",) * (k + 1)
                         for k in range(1, n + 1)})


def boundary_inclusion(k):
    return inclusion_map(boundary_complex(k), standard_simplex(k))


def fold_map():
    pt = standard_simplex(0)
    two, _ = coproduct([pt, pt])
    return SimplicialMap(two, pt, {s: "0" for s in two.id_set})


def law_fixtures():
    """The built-in law-check corpus (named, in a fixed order)."""
    return builtin_fixtures()


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
        here = [c for c in pending if set(c.images) <= current.id_set]
        here_ids = {c.id for c in here}
        pending = [c for c in pending if c.id not in here_ids]
        cells.extend(here)
        if not cells:
            if pending and n < a.height:
                n += 1
                continue
            if pending:
                raise CellComplexError("unplaceable cells in composite")
            break
        st = Stratum(current, cells, validate=False)
        strata.append(st)
        current = body(st)
        n += 1
    return CellComplex(a.boundary, strata, validate=False)
