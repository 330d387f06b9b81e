import pytest

from relcell import (
    Factorizer,
    SimplicialMap,
    boundary_complex,
    coproduct,
    inclusion_map,
    standard_simplex,
)
from relcell.cli import builtin_fixtures


@pytest.fixture(scope="session")
def fz():
    """A factorization cache shared across the whole test session."""
    return Factorizer()


def boundary_inclusion(k):
    return inclusion_map(boundary_complex(k), standard_simplex(k))


def fold_map():
    pt = standard_simplex(0)
    two, _ = coproduct([pt, pt])
    return SimplicialMap(two, pt, {s: "0" for s in two.id_set})


def law_fixtures():
    """The built-in law-check corpus (named, in a fixed order)."""
    return builtin_fixtures()
