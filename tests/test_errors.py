"""Every error a library call raises on bad input, one row each: the
exception type and its message, for the branches no other test reaches."""

import pytest

from relcell import (
    ArrowSquare,
    CellComplex,
    CellComplexError,
    DeltaComplex,
    DeltaError,
    EMPTY,
    SimplicialMap,
    Stratum,
    boundary_complex,
    cellcx_colimit,
    cellcx_equaliser,
    coequaliser,
    colimit,
    compose_morphisms,
    decode,
    enumerate_homs,
    equaliser,
    free_complex,
    generator_complex,
    horizontal_compose,
    identity_map,
    identity_morphism,
    inclusion_map,
    mec,
    pushforward_complex,
    standard_simplex,
)
from relcell import jsonio
from relcell.delta import _quotient
from conftest import boundary_inclusion

PT = standard_simplex(0)
EDGE = standard_simplex(1)
B1 = boundary_complex(1)
G1 = generator_complex(1)
G2 = generator_complex(2)


def _numbered(classes):
    return [str(n) for n in range(len(classes))]


def _edge_with_one_face():
    """The boundary-of-an-edge map as ``relcell factor`` reads it, with
    its codomain's edge listing one face."""
    obj = jsonio.map_to_json(boundary_inclusion(1))
    edge = obj["cod"]["simplices"]["1"][0]
    edge["faces"] = edge["faces"][:1]
    return jsonio.map_from_json(obj)


ERRORS = {
    "negative-dimension": (
        DeltaError, "negative dimension",
        lambda: DeltaComplex({-1: ["a"]})),
    "vertex-with-faces": (
        DeltaError, "vertex 'v' must not have faces",
        lambda: DeltaComplex({0: ["v"]}, {"v": ()})),
    "edge-with-one-face": (
        DeltaError, "simplex 'e' needs 2 faces",
        lambda: DeltaComplex({0: ["a"], 1: ["e"]}, {"e": ["a"]})),
    "factor-input-edge-with-one-face": (
        DeltaError, "simplex '01' needs 2 faces", _edge_with_one_face),
    "faces-of-unknown-simplex": (
        DeltaError, "face list for unknown simplex 'x'",
        lambda: DeltaComplex({0: ["a"]}, {"x": ["a", "a"]})),
    "pre-endpoints": (
        DeltaError, "pre-constraint endpoints do not match",
        lambda: enumerate_homs(PT, PT, pre=(identity_map(B1),
                                            identity_map(B1)))),
    "post-endpoints": (
        DeltaError, "post-constraint endpoints do not match",
        lambda: enumerate_homs(PT, PT, post=(identity_map(B1),
                                             identity_map(B1)))),
    "inclusion-of-a-non-subcomplex": (
        DeltaError, "not a literal subcomplex",
        lambda: inclusion_map(EDGE, PT)),
    "inverse-of-a-fold": (
        DeltaError, "map is not bijective",
        lambda: SimplicialMap(B1, PT, {"0": "0", "1": "0"}).inverse()),
    "square-endpoints": (
        DeltaError, "square endpoints do not match",
        lambda: ArrowSquare(identity_map(PT), identity_map(PT),
                            identity_map(PT), identity_map(B1))),
    "quotient-of-unequal-dims": (
        DeltaError, "colimit merges simplices of unequal dims",
        lambda: _quotient([EDGE], [((0, "0"), (0, "01"))], _numbered)),
    "quotient-with-two-face-tuples": (
        DeltaError, "inconsistent induced faces in quotient",
        lambda: _quotient([EDGE, EDGE], [((0, "01"), (1, "01"))],
                          _numbered)),
    "colimit-arrow-endpoints": (
        DeltaError, "diagram arrow endpoints do not match",
        lambda: colimit([PT, PT], [(0, 1, identity_map(B1))])),
    "coequaliser-of-a-non-parallel-pair": (
        DeltaError, "coequaliser needs a parallel pair",
        lambda: coequaliser(identity_map(PT), identity_map(B1))),
    "equaliser-of-a-non-parallel-pair": (
        DeltaError, "equaliser needs a parallel pair",
        lambda: equaliser(identity_map(PT), identity_map(B1))),
    "mec-outside-the-top-stage": (
        DeltaError, "map must land in the top stage of the filtration",
        lambda: mec(identity_map(PT), [EMPTY, B1])),
    "complex-with-a-cell-twice": (
        CellComplexError, "duplicate cell id 'v'",
        lambda: CellComplex(EMPTY, [Stratum(EMPTY, [("v", 0, ())])] * 2,
                            validate=False)),
    "morphisms-that-do-not-compose": (
        CellComplexError, "morphisms do not compose",
        lambda: compose_morphisms(identity_morphism(G1),
                                  identity_morphism(G2))),
    "horizontal-compose-of-unstacked-morphisms": (
        CellComplexError, "base map of the upper morphism must be the body "
        "map of the lower one",
        lambda: horizontal_compose(identity_morphism(G1),
                                   identity_morphism(G1))),
    "pushforward-off-the-base": (
        CellComplexError, "pushforward map must start at the base",
        lambda: pushforward_complex(G1, identity_map(PT))),
    "cellcx-equaliser-of-a-non-parallel-pair": (
        CellComplexError, "equaliser needs a parallel pair",
        lambda: cellcx_equaliser(identity_morphism(G1),
                                 identity_morphism(G2))),
    "cellcx-colimit-arrow-endpoints": (
        CellComplexError, "diagram arrow endpoints do not match",
        lambda: cellcx_colimit([G1, G2], [(0, 1, identity_morphism(G1))])),
    "free-complex-without-a-stage": (
        ValueError, "safety_cap must be >= 1",
        lambda: free_complex(identity_map(PT), safety_cap=0)),
    "decode-of-a-renaming": (
        DeltaError, "decode expects an identifier inclusion",
        lambda: decode(SimplicialMap(PT, B1, {"0": "1"}), None, None)),
}


@pytest.mark.parametrize("error, message, call", ERRORS.values(),
                         ids=ERRORS.keys())
def test_error_message(error, message, call):
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error
    assert str(info.value) == message


def test_conflicting_pins_give_no_maps():
    # ``pre`` pins one simplex of the domain to two targets: no map obeys it
    two = DeltaComplex({0: ["a", "b"]})
    fold = SimplicialMap(two, PT, {"a": "0", "b": "0"})
    assert enumerate_homs(PT, two, pre=(fold, identity_map(two))) == []
