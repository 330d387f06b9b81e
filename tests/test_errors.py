"""Every error a library call raises on bad input, one row each: the
exception type and its message, for the branches no other test reaches;
and one input contract, each row given to a constructor and to the loader
of its JSON form."""

import pytest

from relcell import (
    ArrowSquare,
    CellComplex,
    CellComplexError,
    CellComplexMorphism,
    DeltaComplex,
    DeltaError,
    EMPTY,
    FillerTable,
    SimplicialMap,
    StrataError,
    Stratum,
    assemble,
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
    square_key,
    standard_simplex,
)
from relcell import jsonio
from relcell.delta import _quotient
from conftest import boundary_inclusion, fold_map

PT = standard_simplex(0)
EDGE = standard_simplex(1)
B1 = boundary_complex(1)
G1 = generator_complex(1)
G2 = generator_complex(2)
FOLD = fold_map()


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
    "complex-with-a-simplex-twice": (
        DeltaError, "duplicate simplex id 'a'",
        lambda: DeltaComplex({0: ["b", "a"], 1: ["a"]}, {"a": ("b", "b")})),
    "loaded-complex-with-a-vertex-twice": (
        DeltaError, "duplicate simplex id 'a'",
        lambda: jsonio.complex_from_json(
            {"simplices": {"0": ["b", "a", "b", "a"]}})),
    "complex-with-int-ids": (
        DeltaError, "simplex id 1 is not a string",
        lambda: DeltaComplex({0: [1, 2]})),
    "complex-with-an-int-id-among-strings": (
        DeltaError, "simplex id 5 is not a string",
        lambda: DeltaComplex({0: ["a", "b"], 1: ["e", 5]},
                             {"e": ("a", "b"), 5: ("b", "a")})),
    "complex-with-a-grade-given-as-a-string": (
        DeltaError, "the 0-simplices are not a list or tuple",
        lambda: DeltaComplex({0: "ab"})),
    # keys are taken as given, never coerced: a key of another type would
    # otherwise merge with, and drop, the grade or faces it spells
    "complex-with-a-float-dimension-key": (
        DeltaError, "dimension key 0.9 is not an integer",
        lambda: DeltaComplex({0.9: ["a", "b"]})),
    "complex-with-a-string-dimension-key": (
        DeltaError, "dimension key '1' is not an integer",
        lambda: DeltaComplex({0: ["a", "b"], "1": ["e"]},
                             {"e": ("a", "b")})),
    "complex-with-a-bool-dimension-key": (
        DeltaError, "dimension key False is not an integer",
        lambda: DeltaComplex({False: ["a"]})),
    "complex-with-an-int-faces-key": (
        DeltaError, "face list key 5 is not a string",
        lambda: DeltaComplex({0: ["a", "b"], 1: ["5"]}, {5: ("a", "b")})),
    "complex-with-a-grade-under-two-keys": (
        DeltaError, "dimension key '0' is not an integer",
        lambda: DeltaComplex({0: ["a"], "0": ["b"]})),
    "complex-with-faces-under-two-keys": (
        DeltaError, "face list key 5 is not a string",
        lambda: DeltaComplex({0: ["a", "b"], 1: ["5"]},
                             {"5": ("a", "b"), 5: ("b", "a")})),
    "complex-with-faces-given-as-a-string": (
        DeltaError, "the faces of 'e' are not a list or tuple of ids",
        lambda: DeltaComplex({0: ["a", "b"], 1: ["e"]}, {"e": "ab"})),
    "complex-with-a-face-given-as-a-list": (
        DeltaError, "the faces of 'e' are not a list or tuple of ids",
        lambda: DeltaComplex({0: ["a", "b"], 1: ["e"]},
                             {"e": (["a"], "b")})),
    "loaded-complex-with-an-entry-without-faces": (
        DeltaError, "1-simplices must be objects with an id and faces",
        lambda: jsonio.complex_from_json(
            {"simplices": {"0": ["a"], "1": [{"id": "e"}]}})),
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
    "inclusion-with-other-faces": (
        DeltaError, "not a literal subcomplex",
        lambda: inclusion_map(
            DeltaComplex({0: ["x", "y"], 1: ["e"]}, {"e": ("x", "y")}),
            DeltaComplex({0: ["x", "y"], 1: ["e"]}, {"e": ("y", "x")}))),
    "map-from-a-dict": (
        DeltaError, "map endpoints must be complexes",
        lambda: SimplicialMap({}, PT, {})),
    "map-to-a-list": (
        DeltaError, "'0' maps to ['0'], not an id",
        lambda: SimplicialMap(PT, PT, {"0": ["0"]})),
    "loaded-map-with-a-grade-given-as-a-list": (
        DeltaError, "each graded assignment must be an object",
        lambda: jsonio.map_from_json(
            {"dom": jsonio.complex_to_json(PT),
             "cod": jsonio.complex_to_json(PT), "assign": {"0": ["0"]}})),
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
    "stratum-with-a-cell-twice": (
        StrataError, "duplicate cell id 'c'",
        lambda: Stratum(PT, [("d", 0, ()), ("c", 0, ()),
                             ("c", 1, ("0", "0"))])),
    "cell-given-as-a-list": (
        StrataError, "['c', 0, ()] is not (id, k, images for boundary ids)",
        lambda: Stratum(PT, [["c", 0, ()]])),
    "cell-with-an-int-id": (
        StrataError, "cell (5, 1, ('0', '1')): its id and images must be "
        "strings",
        lambda: Stratum(B1, [(5, 1, ("0", "1"))])),
    "cell-of-a-string-dimension": (
        StrataError, "cell 'c': dimension '1' is not an integer",
        lambda: Stratum(B1, [("c", "1", ("0", "1"))])),
    "cell-with-a-list-of-images": (
        StrataError, "('c', 1, ['0', '1']) is not (id, k, images for "
        "boundary ids)",
        lambda: Stratum(B1, [("c", 1, ["0", "1"])])),
    "cell-with-an-int-image": (
        StrataError, "cell ('c', 1, ('0', 1)): its id and images must be "
        "strings",
        lambda: Stratum(B1, [("c", 1, ("0", 1))])),
    "loaded-cell-without-a-dim": (
        DeltaError, "cell JSON must carry an id, a dim and an attach object",
        lambda: jsonio.cellcx_from_json(
            {"base": jsonio.complex_to_json(B1),
             "strata": [{"cells": [{"id": "c", "attach": {}}]}]})),
    "complex-of-a-list-of-cells": (
        CellComplexError, "strata must be Stratum values",
        lambda: CellComplex(B1, [[("c", 1, ("0", "1"))]])),
    "complex-with-a-cell-twice": (
        CellComplexError, "duplicate cell id 'v'",
        lambda: CellComplex._owning(
            EMPTY, [Stratum(EMPTY, [("v", 0, ())])] * 2)),
    "assembled-with-a-cell-twice": (
        StrataError, "duplicate cell id 'c'",
        lambda: assemble(PT, [("c", 0, ()), ("d", 0, ()),
                              ("c", 1, ("d", "d"))])),
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
    "filler-table-with-a-junk-key": (
        DeltaError, "filler table key 'junk' is not a square key",
        lambda: FillerTable(FOLD, {"junk": 5})),
    "filler-table-with-an-int-filler": (
        DeltaError, "entry (0, '0', ()) -> 5: an id is not a string",
        lambda: FillerTable(FOLD, {square_key(0, "0", {}): 5})),
    "loaded-filler-table-with-a-boundary-list": (
        DeltaError, "entry must carry dim, a boundary object, target, filler",
        lambda: jsonio.filler_table_from_json(
            {"p": jsonio.map_to_json(FOLD), "fallback": "search",
             "entries": [{"dim": 0, "boundary": [], "target": "0",
                          "filler": "0.0"}]})),
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


# -- one input contract ----------------------------------------------------
#
# Each row is one input: the error its constructor raises (None if it is
# accepted), the constructor call, and the loader of the same input written
# as JSON, or None where JSON cannot write it (a tuple, a set, a key that
# is not a string, a cell or a stratum given as a list).  The constructor
# raises exactly when the loader does, with the same DeltaError subclass,
# and otherwise both build equal values; nothing raises any other
# exception.  A cell complex is loaded by the strict loader, and the cells
# given to ``assemble`` by the lax one, then placed as ``relcell
# normalize`` places them.


def _edge(faces):
    """The edge e on the vertices a and b, with ``faces``."""
    return DeltaComplex({0: ["a", "b"], 1: ["e"]}, {"e": faces})


def _loaded_edge(faces):
    """The same edge, written as JSON and loaded."""
    return jsonio.complex_from_json({"simplices": {
        "0": ["a", "b"], "1": [{"id": "e", "faces": faces}]}})


def _map_doc(dom, cod, assign):
    return {"dom": dom if isinstance(dom, dict)
            else jsonio.complex_to_json(dom),
            "cod": jsonio.complex_to_json(cod), "assign": assign}


def _cells_doc(*cells):
    """A complex over the boundary of an edge with one stratum of
    ``cells``, each ``(id, dim, attach)``."""
    return {"base": jsonio.complex_to_json(B1),
            "strata": [{"cells": [{"id": cid, "dim": k, "attach": attach}
                                  for cid, k, attach in cells]}]}


def _one_stratum(*cells):
    return CellComplex(B1, [Stratum(B1, cells)])


def _assembled_doc(*cells):
    return assemble(*jsonio.cellcx_cells_from_json(_cells_doc(*cells)))


def _table(entries):
    ft = FillerTable(FOLD, entries)
    return ft.p, ft.entries, ft.fallback


def _table_doc(*entries):
    """A search table on the fold with ``entries``, each
    ``(dim, boundary, target, filler)``."""
    ft = jsonio.filler_table_from_json(
        {"p": jsonio.map_to_json(FOLD), "fallback": "search",
         "entries": [{"dim": k, "boundary": b, "target": t, "filler": e}
                     for k, b, t, e in entries]})
    return ft.p, ft.entries, ft.fallback


ATTACH = {"0": "0", "1": "1"}

CONTRACT = {
    "faces-as-a-tuple": (
        None, lambda: _edge(("a", "b")), lambda: _loaded_edge(["a", "b"])),
    "faces-as-a-string": (
        DeltaError, lambda: _edge("ab"), lambda: _loaded_edge("ab")),
    "faces-as-a-set": (
        DeltaError, lambda: _edge({"a", "b"}), None),
    "faces-as-none": (
        DeltaError, lambda: _edge(None), lambda: _loaded_edge(None)),
    "faces-holding-a-list": (
        DeltaError, lambda: _edge((["a"], "b")),
        lambda: _loaded_edge([["a"], "b"])),
    "int-ids": (
        DeltaError, lambda: DeltaComplex({0: [1, 2]}),
        lambda: jsonio.complex_from_json({"simplices": {"0": [1, 2]}})),
    "float-grade-key": (
        DeltaError, lambda: DeltaComplex({0.0: ["a"]}), None),
    "bool-grade-key": (
        DeltaError, lambda: DeltaComplex({True: ["a"], 0: ["b"]}), None),
    "string-grade-key": (
        DeltaError, lambda: DeltaComplex({"0": ["a"]}), None),
    "an-id-in-two-grades": (
        DeltaError, lambda: DeltaComplex({0: ["a", "b"], 1: ["a"]},
                                         {"a": ("b", "b")}),
        lambda: jsonio.complex_from_json({"simplices": {
            "0": ["a", "b"], "1": [{"id": "a", "faces": ["b", "b"]}]}})),
    "faces-given-for-a-vertex": (
        DeltaError, lambda: DeltaComplex({0: ["v"]}, {"v": ()}), None),
    "complex-of-a-list-of-grades": (
        DeltaError, lambda: DeltaComplex([["a"]]), None),
    "complex-of-a-list-of-faces": (
        DeltaError, lambda: DeltaComplex({0: ["a"]}, [("a", "b")]), None),
    "map": (
        None, lambda: SimplicialMap(B1, PT, {"0": "0", "1": "0"}),
        lambda: jsonio.map_from_json(
            _map_doc(B1, PT, {"0": {"0": "0", "1": "0"}}))),
    "map-to-a-list": (
        DeltaError, lambda: SimplicialMap(PT, PT, {"0": ["0"]}),
        lambda: jsonio.map_from_json(_map_doc(PT, PT, {"0": {"0": ["0"]}}))),
    "map-from-a-dict": (
        DeltaError, lambda: SimplicialMap({}, PT, {}),
        lambda: jsonio.map_from_json(_map_doc({}, PT, {}))),
    "map-of-an-int-assignment": (
        DeltaError, lambda: SimplicialMap(EMPTY, EMPTY, 5), None),
    "cell": (
        None, lambda: _one_stratum(("c", 1, ("0", "1"))),
        lambda: jsonio.cellcx_from_json(_cells_doc(("c", 1, ATTACH)))),
    "cell-with-an-int-id": (
        StrataError, lambda: _one_stratum((5, 1, ("0", "1"))),
        lambda: jsonio.cellcx_from_json(_cells_doc((5, 1, ATTACH)))),
    "cell-of-a-string-dim": (
        StrataError, lambda: _one_stratum(("c", "1", ("0", "1"))),
        lambda: jsonio.cellcx_from_json(_cells_doc(("c", "1", ATTACH)))),
    "cell-of-a-bool-dim": (
        StrataError, lambda: _one_stratum(("c", True, ("0", "1"))),
        lambda: jsonio.cellcx_from_json(_cells_doc(("c", True, ATTACH)))),
    "cell-past-the-largest-dim": (
        DeltaError, lambda: _one_stratum(("c", 10, ("0", "1"))),
        lambda: jsonio.cellcx_from_json(_cells_doc(("c", 10, ATTACH)))),
    "cell-with-an-int-image": (
        StrataError, lambda: _one_stratum(("c", 1, ("0", 1))),
        lambda: jsonio.cellcx_from_json(
            _cells_doc(("c", 1, {"0": "0", "1": 1})))),
    "cell-with-a-list-of-images": (
        StrataError, lambda: _one_stratum(("c", 1, ["0", "1"])), None),
    "cell-given-as-a-list": (
        StrataError, lambda: _one_stratum(["c", 1, ("0", "1")]), None),
    "stratum-over-a-dict": (
        StrataError, lambda: Stratum({}, []), None),
    "stratum-of-an-int": (
        StrataError, lambda: Stratum(EMPTY, 5), None),
    "complex-of-a-list-of-cells": (
        CellComplexError,
        lambda: CellComplex(B1, [[("c", 1, ("0", "1"))]]), None),
    "complex-over-a-dict": (
        CellComplexError, lambda: CellComplex({}, []), None),
    "complex-of-an-int": (
        CellComplexError, lambda: CellComplex(EMPTY, 5), None),
    "morphism-of-an-int-body-map": (
        CellComplexError, lambda: CellComplexMorphism(G1, G1, 5), None),
    "assembled-cell": (
        None, lambda: assemble(B1, [("c", 1, ("0", "1"))]),
        lambda: _assembled_doc(("c", 1, ATTACH))),
    "assembled-cell-with-three-images": (
        StrataError, lambda: assemble(B1, [("c", 1, ("0", "1", "0"))]),
        lambda: _assembled_doc(("c", 1, {**ATTACH, "01": "0"}))),
    "assembled-cell-with-an-int-id": (
        StrataError, lambda: assemble(B1, [(5, 1, ("0", "1"))]),
        lambda: _assembled_doc((5, 1, ATTACH))),
    "assembled-2-cell-with-two-images": (
        StrataError, lambda: assemble(B1, [("c", 2, ("0", "1"))]),
        lambda: _assembled_doc(("c", 2, ATTACH))),
    "assembled-cell-whose-attach-is-no-map": (
        DeltaError,
        lambda: assemble(B1, [("c", 1, ("0", "e")), ("e", 1, ("0", "1"))]),
        lambda: _assembled_doc(("c", 1, {"0": "0", "1": "e"}),
                               ("e", 1, ATTACH))),
    "filler-table": (
        None, lambda: _table({square_key(0, "0", {}): "0.0"}),
        lambda: _table_doc((0, {}, "0", "0.0"))),
    "filler-table-without-entries": (
        None, lambda: _table(None), lambda: _table_doc()),
    "filler-table-of-an-int-map": (
        DeltaError, lambda: FillerTable(5), None),
    "filler-table-of-int-entries": (
        DeltaError, lambda: _table(5), None),
    "filler-table-of-a-list-of-entries": (
        DeltaError, lambda: _table([]), None),
    "filler-table-with-a-junk-key": (
        DeltaError, lambda: _table({"junk": 5}), None),
    "filler-entry-missing-an-id": (
        DeltaError, lambda: _table({square_key(1, "0", {"0": "0.0"}): "0.0"}),
        lambda: _table_doc((1, {"0": "0.0"}, "0", "0.0"))),
    "filler-entry-with-an-int-filler": (
        DeltaError, lambda: _table({square_key(0, "0", {}): 5}),
        lambda: _table_doc((0, {}, "0", 5))),
    "filler-entry-of-a-bool-dim": (
        DeltaError, lambda: _table({square_key(False, "0", {}): "0.0"}),
        lambda: _table_doc((False, {}, "0", "0.0"))),
}


def _result(call):
    """What ``call`` builds, or the type of the DeltaError it raises; any
    other exception fails the test."""
    try:
        return call()
    except DeltaError as err:
        return type(err)


@pytest.mark.parametrize("error, build, load", CONTRACT.values(),
                         ids=CONTRACT.keys())
def test_constructor_and_loader_agree(error, build, load):
    built = _result(build)
    if error is None:
        assert not isinstance(built, type)
    else:
        assert built is error
    if load is not None:
        assert _result(load) == built
