"""JSON round trips and input validation."""

import collections
import enum
import json
import random
import tracemalloc

import pytest
from hypothesis import example, given, settings, strategies as st

from relcell import (
    CellComplex,
    DeltaComplex,
    DeltaError,
    EMPTY,
    FactorResult,
    FillerTable,
    SimplicialMap,
    Stratum,
    assemble,
    boundary_complex,
    coproduct,
    free_complex,
    free_fillers,
    identity_map,
    solve_lifting,
    square_key,
    standard_simplex,
    trivial_complex,
    u_of_complex,
)
from relcell import cellcx, delta, gen, jsonio, lifting, soa, strata
from conftest import (boundary_inclusion, chain_complex, fold_map,
                      rand_cell_complex)


class TestComplexRoundTrip:
    def test_examples(self):
        for x in (EMPTY, standard_simplex(0), standard_simplex(2)):
            payload = jsonio.complex_to_json(x)
            assert jsonio.complex_from_json(payload) == x
            # emitted JSON is pure data
            json.dumps(payload)

    def test_random_corpus(self):
        rng = random.Random(179)
        for _ in range(25):
            x = gen.rand_complex(rng)
            assert jsonio.complex_from_json(jsonio.complex_to_json(x)) == x

    def test_rejects_garbage(self):
        with pytest.raises(DeltaError):
            jsonio.complex_from_json({"nope": 1})
        with pytest.raises(DeltaError):
            jsonio.complex_from_json(
                {"simplices": {"1": [{"id": "e", "faces": ["a", "b"]}]}})


class TestMapRoundTrip:
    def test_random_corpus(self):
        rng = random.Random(181)
        for _ in range(25):
            f = gen.rand_map(rng)
            assert jsonio.map_from_json(jsonio.map_to_json(f)) == f

    def test_rejects_non_commuting(self):
        f = boundary_inclusion(1)
        payload = jsonio.map_to_json(f)
        payload["assign"]["0"]["0"] = "1"
        payload["assign"]["0"]["1"] = "1"
        # still a valid map (constant), so this parses; break dimension
        payload["assign"]["0"]["0"] = "01"
        with pytest.raises(DeltaError):
            jsonio.map_from_json(payload)


class TestStratumAndComplex:
    def test_cellcx_roundtrip(self):
        rng = random.Random(193)
        for _ in range(15):
            c = rand_cell_complex(rng, max_cells=5)
            assert jsonio.cellcx_from_json(jsonio.cellcx_to_json(c)) == c

    def test_lax_loader_normalizes_improper_input(self):
        rng = random.Random(197)
        c = rand_cell_complex(rng, max_cells=4)
        payload = jsonio.cellcx_to_json(c)
        # flatten all cells into one pile of strata entries in reverse
        cells = [e for entry in payload["strata"] for e in entry["cells"]]
        payload["strata"] = [{"cells": cells[::-1]}]
        base, loaded = jsonio.cellcx_cells_from_json(payload)
        assert assemble(base, loaded) == c

    @pytest.mark.parametrize("attach", [
        {"0": "0"}, {}, {"0": "0", "1": "1", "01": "0"},
        {"0": "0", "01": "1"}])
    def test_both_loaders_reject_attach_keys_missing_or_extra(self, attach):
        cell = {"id": "e", "dim": 1, "attach": {"0": "0", "1": "1"}}
        payload = {"base": jsonio.complex_to_json(standard_simplex(1)),
                   "strata": [{"cells": [cell]}]}
        jsonio.cellcx_from_json(payload)
        jsonio.cellcx_cells_from_json(payload)
        cell["attach"] = attach
        for load in (jsonio.cellcx_from_json, jsonio.cellcx_cells_from_json):
            with pytest.raises(DeltaError, match="attach is not total"):
                load(payload)

    def test_lax_loader_rejects_dangling_attach(self):
        # the lax loader only parses; ``assemble``, which places what it
        # reads (``relcell normalize``), checks the cells
        payload = {"base": jsonio.complex_to_json(EMPTY),
                   "strata": [{"cells": [
                       {"id": "e", "dim": 1,
                        "attach": {"0": "ghost", "1": "ghost"}}]}]}
        with pytest.raises(DeltaError):
            assemble(*jsonio.cellcx_cells_from_json(payload))


def _collapsed_ends():
    """A map with the ends of ``boundary_inclusion(1)`` that sends both
    vertices to "0"."""
    return SimplicialMap(boundary_inclusion(1).dom, standard_simplex(1),
                         {"0": "0", "1": "0"})


def _ef_dom_extra_vertex(payload):
    # an isolated vertex leaves the faces as they are: only ``simplices``
    # tells the body and ef's domain apart
    payload["ef"]["dom"]["simplices"]["0"].append("zz")
    payload["ef"]["assign"]["0"]["zz"] = "0"


def _ef_dom_identity_broken(payload):
    last = payload["ef"]["dom"]["simplices"]["2"][-1]
    last["faces"] = last["faces"][1:] + last["faces"][:1]


def _base_extra_vertex(payload):
    payload["complex"]["base"]["simplices"]["0"].append("zz")


def _base_face_reversed(payload):
    edge = payload["complex"]["base"]["simplices"]["1"][0]
    edge["faces"] = edge["faces"][::-1]


def _ef_cod_extra_vertex(payload):
    payload["ef"]["cod"]["simplices"]["0"].append("zz")


class TestFactorAndFillers:
    def test_factor_result_roundtrip(self):
        fr = free_complex(boundary_inclusion(1))
        payload = jsonio.factor_result_to_json(fr)
        back = jsonio.factor_result_from_json(payload)
        assert back.input == fr.input
        assert back.kf == fr.kf
        assert back.ef == fr.ef

    def test_factor_result_count_mismatch_rejected(self):
        fr = free_complex(boundary_inclusion(1))
        payload = jsonio.factor_result_to_json(fr)
        payload["stage_counts"] = [1, 1]
        with pytest.raises(DeltaError):
            jsonio.factor_result_from_json(payload)

    @pytest.mark.parametrize("counts", [
        [True], [1.0], 1, [[1]], "1", None])
    def test_factor_result_counts_must_be_integers(self, counts):
        """Counts equal to the right integers, but not integers, are
        rejected."""
        fr = free_complex(SimplicialMap(EMPTY, standard_simplex(0), {}))
        payload = jsonio.factor_result_to_json(fr)
        assert payload["stage_counts"] == [1]
        jsonio.factor_result_from_json(payload)
        payload["stage_counts"] = counts
        with pytest.raises(DeltaError, match="stage_counts"):
            jsonio.factor_result_from_json(payload)

    @pytest.mark.parametrize("field, foreign", [
        ("input", _collapsed_ends()),
        ("input", fold_map()),
        ("ef", free_complex(_collapsed_ends()).ef),
    ])
    def test_factor_result_of_another_map_rejected(self, field, foreign):
        """The loader checks that ef after U(Kf) is the input map."""
        fr = free_complex(boundary_inclusion(1))
        payload = jsonio.factor_result_to_json(fr)
        payload[field] = jsonio.map_to_json(foreign)
        with pytest.raises(DeltaError):
            jsonio.factor_result_from_json(payload)

    def test_loaded_factorization_shares_repeated_complexes(self):
        fr = free_complex(boundary_inclusion(2))
        back = jsonio.factor_result_from_json(
            jsonio.factor_result_to_json(fr))
        assert back.kf.boundary is back.input.dom
        assert back.ef.dom is back.kf.body
        assert back.ef.cod is back.input.cod

    @pytest.mark.parametrize("corrupt, message", [
        (_ef_dom_extra_vertex, "complex and ef do not factor the input map"),
        (_ef_dom_identity_broken, "simplicial identity fails at "
         "'68f0619ba0.2.2.012.fe86548ab4e9' (i=0, j=1)"),
        (_base_extra_vertex, "complex and ef do not factor the input map"),
        (_base_face_reversed, "face commutation fails at '01'"),
        (_ef_cod_extra_vertex, "complex and ef do not factor the input map"),
    ], ids=["ef-dom-vertex", "ef-dom-identity", "base-vertex", "base-face",
            "ef-cod-vertex"])
    def test_unequal_repeated_complex_raises_as_alone(self, corrupt, message):
        """A repeated complex that differs from the one it repeats is
        validated and checked as if it were read alone."""
        payload = jsonio.factor_result_to_json(
            free_complex(boundary_inclusion(2)))
        corrupt(payload)
        with pytest.raises(DeltaError) as exc:
            jsonio.factor_result_from_json(payload)
        assert str(exc.value) == message

    def test_counit_that_is_not_free_rejected(self):
        """Two cells with equal faces over one target cannot both be free:
        the loader rejects such an ef, which is simplicial and factors the
        input, instead of letting the free-filler lift fail on it."""
        two, _ = coproduct([standard_simplex(0)] * 2)
        fr = free_complex(SimplicialMap(EMPTY, two, {}))
        payload = json.loads(_joined(fr))
        grade = payload["ef"]["assign"]["0"]
        first, second = sorted(grade)
        assert grade[first] != grade[second]
        jsonio.factor_result_from_json(json.loads(json.dumps(payload)))
        grade[second] = grade[first]
        with pytest.raises(DeltaError) as exc:
            jsonio.factor_result_from_json(payload)
        assert str(exc.value) == \
            "ef sends two cells with the same faces to one target"

    def test_loaded_factorization_keeps_its_cell_index(self):
        fr = free_complex(boundary_inclusion(2))
        back = jsonio.factor_result_from_json(
            json.loads(_joined(fr)))
        assert back._cells_over is not None
        for _, (cid, _, _) in back.kf.all_cells():
            faces = back.kf.body.faces_of(cid)
            assert back.cell_over(back.ef.assign[cid], faces) == cid
        square = (u_of_complex(back.kf), back.ef)
        assert solve_lifting(back.kf, free_fillers(back), square) == \
            identity_map(back.kf.body)

    def test_loading_builds_no_map_per_cell(self, monkeypatch):
        """The strict loader builds its maps and boundary complexes per
        document, not per cell: the counts are the same for 6 cells and
        for 266."""
        docs = [json.loads(_joined(free_complex(boundary_inclusion(k))))
                for k in (1, 3)]
        for doc in docs:  # shapes seen once, so per-shape caches are warm
            jsonio.factor_result_from_json(doc)
        calls = collections.Counter()
        init = SimplicialMap.__init__

        def counted_init(self, *args, **kwargs):
            calls["SimplicialMap"] += 1
            init(self, *args, **kwargs)

        def counted_boundary(k):
            calls["boundary_complex"] += 1
            return boundary_complex(k)

        monkeypatch.setattr(SimplicialMap, "__init__", counted_init)
        for module in (delta, strata, cellcx, soa, lifting, jsonio):
            if hasattr(module, "boundary_complex"):
                monkeypatch.setattr(module, "boundary_complex",
                                    counted_boundary)
        counts = []
        for doc in docs:
            calls.clear()
            fr = jsonio.factor_result_from_json(doc)
            counts.append((sum(fr.stage_counts), dict(calls)))
        (small, at_small), (big, at_big) = counts
        assert (small, big) == (6, 266)
        assert at_small == at_big == {"SimplicialMap": 2}

    def test_filler_table_roundtrip(self):
        fold = fold_map()
        ft = FillerTable(fold, {square_key(0, "0", {}): "0.0"},
                         fallback="fail")
        back = jsonio.filler_table_from_json(jsonio.filler_table_to_json(ft))
        assert back.p == ft.p
        assert back.entries == ft.entries
        assert back.fallback == ft.fallback

    def test_filler_table_with_one_square_twice_rejected(self):
        """Two entries for one square are an error, whatever their order,
        not a table that keeps the last."""
        obj = jsonio.filler_table_to_json(FillerTable(fold_map()))
        entry = {"dim": 0, "boundary": {}, "target": "0"}
        for fillers in (("0.0", "1.0"), ("1.0", "0.0")):
            obj["entries"] = [dict(entry, filler=e) for e in fillers]
            with pytest.raises(DeltaError,
                               match="two entries for one square over '0'"):
                jsonio.filler_table_from_json(obj)

    @pytest.mark.parametrize("fields, message", [
        ({"dim": 1, "boundary": {"0": "0.0"}},
         "entry over '0': boundary is not total on the boundary of the "
         "standard 1-simplex"),
        ({"boundary": {"zz": "0.0"}},
         "entry over '0': boundary is not total on the boundary of the "
         "standard 0-simplex"),
        ({"dim": -1}, "k must be >= 0"),
        ({"dim": 10}, "k <= 9 only"),
    ], ids=["misses-id", "adds-id", "dim-below-0", "dim-above-9"])
    def test_filler_table_entry_read_as_an_attach(self, fields, message):
        """An entry's boundary holds exactly the ids of the boundary of
        its standard simplex, as a cell's attach does; else no entry
        could ever answer a square."""
        obj = jsonio.filler_table_to_json(FillerTable(
            fold_map(), {square_key(0, "0", {}): "0.0"}, fallback="fail"))
        obj["entries"][0].update(fields)
        with pytest.raises(DeltaError, match=message):
            jsonio.filler_table_from_json(obj)

    def test_chooser_tables_not_serializable(self):
        fr = free_complex(boundary_inclusion(1))
        with pytest.raises(DeltaError):
            jsonio.filler_table_to_json(free_fillers(fr))

    def test_dumps_deterministic(self):
        c = trivial_complex(standard_simplex(2))
        a = jsonio.dumps(jsonio.cellcx_to_json(c))
        b = jsonio.dumps(jsonio.cellcx_to_json(c))
        assert a == b
        json.loads(a)


# -- the canonical writer ----------------------------------------------------

_TEXT = st.text(max_size=6) | st.sampled_from(
    ["", ", ", '", "', '"', "\\", "[", "]", "{", "}", "\n", "\x00", "\x1f",
     "\u2028", "caf\u00e9", "\U0001f600", "\ud800", "\udfff", "%s",
     '{"a": [1, 2]}'])
_LEAF = (st.none() | st.booleans() | st.integers() | st.floats() | _TEXT |
         st.sampled_from([10 ** 30, -0.0]))


def _json_values(keys):
    return st.recursive(
        _LEAF,
        lambda inner: (st.lists(inner, max_size=3) |
                       st.lists(inner, max_size=3).map(tuple) |
                       st.dictionaries(keys, inner, max_size=3)),
        max_leaves=12)


def _nested_empties(depth):
    """Empty containers at every level down to ``depth``, mixed with
    tuples, scalars and a non-empty flat container."""
    v = {"flat": [1, "x"], "empty": [[], {}, ()]}
    for n in range(depth):
        v = [{}, (), v, []] if n % 2 else {"": {}, "a": [], "b": v, "c": ()}
    return v


def _canonical(value):
    return json.dumps(value, sort_keys=True, indent=2) + "\n"


class _Level(enum.IntEnum):
    THREE = 3


class _Id(str):
    pass


# Scalars beside a container, so that ``dumps`` walks their parent and
# writes them one by one: bool and IntEnum are int subclasses and must
# not take the plain-int path.
_SCALAR_ROWS = {"t": True, "f": False, "one": 1, "zero": 0, "neg": -7,
                "enum": _Level.THREE, "sub": _Id("c\u00e9\"ll"),
                "big": 10 ** 30, "nz": -0.0, "none": None, "pad": [[]]}


@settings(max_examples=150, deadline=None)
@given(_json_values(_TEXT))
@example(_nested_empties(6))
@example({"k": [[[[{"deep": [{}]}]]]]})
@example((1, (2, ()), {"t": (None, True, -0.0)}))
@example("caf\u00e9 \"[q]\", \\")
@example(_SCALAR_ROWS)
@example([True, 1, False, 0, [2], _Level.THREE, _Id("x"), 10 ** 30, -0.0])
@example({"attach": {"0": "a", "01": "b\\"}, "dim": 3, "id": "d.0.3.t.ab"})
@example({"faces": ["a", _Id("b\"")], "0": [["x", "\u00e9"], [], ["y"]],
          "mixed": ["a", 1], "tail": ["a", ["b"]]})
@example([{"attach": {}, "dim": 0, "id": "v"}, [True, _Level.THREE]])
# lists and tuples of strings, which ``dumps`` writes in one piece
@example({"tuple": ("\ud800", "\U0001f600", "\x00", '"'), "empty": (),
          "list": ["%s", "\\", "\udfff"], "nested": [("a",), (), ["b"]]})
@example(("\udfff", "%%", "\u2028"))
@example({"all_pass": False,
          "laws": {"factorization": True, "monad_assoc": False},
          "witnesses": {"monad_assoc": {"lhs": [("a", "b"), ("e\"", "f")],
                                        "rhs": [("a", "c")]},
                        "naturality_0": {"eta": True, "mu": False}}})
def test_dumps_is_json_with_sorted_keys_and_indent(value):
    assert jsonio.dumps(value) == _canonical(value)


@settings(max_examples=75, deadline=None)
@given(_json_values(st.none() | st.booleans() | st.integers() |
                    st.floats() | _TEXT))
@example({"a": {1: [2]}})
@example({"a": {1: 2, "b": 3}})
@example([{1: "a"}, {1: "b"}])
def test_dumps_non_string_keys_match_json_or_raise(value):
    """Any key json accepts either gives json's bytes or a TypeError."""
    try:
        got = jsonio.dumps(value)
    except TypeError:
        return
    assert got == _canonical(value)


# Lists of records: plain dicts of one key set, each value a string or a
# list of strings of one length per key.  ``dumps`` writes a grade of
# simplices among them ``_CHUNK`` records per ``%`` fill and walks any
# other item by item.  Keys and strings hold format syntax, escapes, NUL,
# lone surrogates and a non-BMP character.
_RECORD_TEXT = st.text(max_size=3) | st.sampled_from(
    ["", "%s", "%%", "%(x)s", '"', "\\", "\x00", "\ud800", "\udfff",
     "\U0001f600", "id", "faces"])
_RECORD_LENGTHS = [1, 255, 256, 257, 513]


class _Record(dict):
    pass


def _first_value(change):
    """A break that changes the value of a record's first key."""
    def broken(record):
        key = min(record)
        return {**record, key: change(record[key])}
    return broken


# Each turns a record into an item that is not one of the list's records.
_BREAKS = {
    "another key set": lambda r: {**r, "\U0001f600%s\x00key": "x"},
    "one key fewer": lambda r: dict(list(r.items())[1:]),
    "another list length": lambda r: {
        k: v + v[:1] if type(v) is list else [v] for k, v in r.items()},
    "a tuple": _first_value(lambda v: tuple(v) if type(v) is list else (v,)),
    "an int": _first_value(lambda v: 1),
    "a bool": _first_value(lambda v: True),
    "None": _first_value(lambda v: None),
    "a nested dict": _first_value(lambda v: {"a": v}),
    "an empty list": _first_value(lambda v: []),
    "an int in a list": _first_value(lambda v: [1, *v[1:]]
                                     if type(v) is list else [1]),
    "a dict subclass": _Record,
    "a string item": lambda r: "x",
}


def _record_list(seed, shape, pool, n, brk=None):
    """``n`` records of ``shape`` (each key's list length, or None for a
    string), their strings drawn from ``pool`` by ``seed``, some as a
    ``str`` subclass; the record at a drawn position broken by ``brk``."""
    rng = random.Random(seed)

    def text():
        s = rng.choice(pool)
        return _Id(s) if rng.random() < 0.1 else s

    records = [{k: text() if m is None else [text() for _ in range(m)]
                for k, m in shape.items()} for _ in range(n)]
    if brk is not None:
        at = rng.randrange(n)
        records[at] = _BREAKS[brk](records[at])
    return records


def _check_records(records):
    """Both at top level and as a value beside other keys."""
    for value in (records, {"a": 1, "records": records, "z": [records]}):
        assert jsonio.dumps(value) == _canonical(value)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 32),
       st.dictionaries(_RECORD_TEXT, st.none() | st.integers(1, 3),
                       min_size=1, max_size=3),
       st.lists(_RECORD_TEXT, min_size=1, max_size=6),
       st.sampled_from(_RECORD_LENGTHS),
       st.none() | st.sampled_from(sorted(_BREAKS)))
@example(0, {}, ["a"], 2, None)  # a list whose first record is {}
@example(0, {"%s": None, "%%": 2}, ["%s", "\x00"], 513, None)
def test_dumps_of_a_list_of_records(seed, shape, pool, n, brk):
    _check_records(_record_list(seed, shape, pool, n, brk))


@pytest.mark.parametrize("n", _RECORD_LENGTHS)
@pytest.mark.parametrize("brk", [None, *_BREAKS])
def test_dumps_of_simplex_records_across_the_chunk(n, brk):
    """Simplex records, as ``complex_to_json`` writes them, at lengths
    around the chunk bound, whole or broken by each kind of item."""
    _check_records(_record_list(n, {"faces": 3, "id": None},
                                ["a", "%s", '"', "\ud800"], n, brk))


def test_a_str_subclass_takes_the_records_path():
    """A grade of simplices whose ids are a ``str`` subclass is written by
    ``_records``: its items, each led by a comma, as ``json`` writes the
    same grade of plain strings."""
    out = []
    edge = {"id": _Id("a"), "faces": [_Id("%s"), "b"]}
    assert jsonio._records([edge], 1, out)
    text = _canonical([{"id": "a", "faces": ["%s", "b"]}])
    assert "".join(out) == "," + text[1:-len("\n]\n")]


def test_dumps_fills_the_simplex_template_of_each_grade(monkeypatch):
    """``dumps`` of a map writes each grade of simplices from the template
    ``document`` fills: one ``_template(k, n, False)`` per grade, filled
    once per chunk; grade 1 here spans two chunks."""
    edges = [f"e{i:04d}" for i in range(jsonio._CHUNK + 1)]
    x = standard_simplex(2)
    x = DeltaComplex({**x.simplices, 1: x.ids(1) + tuple(edges)},
                     {**x.faces, **dict.fromkeys(edges, ("1", "0"))})
    calls = []

    def counted(*args, template=jsonio._template):
        calls.append(args)
        return template(*args)

    monkeypatch.setattr(jsonio, "_template", counted)
    obj = jsonio.map_to_json(identity_map(x))
    assert jsonio.dumps(obj) == _canonical(obj)
    # cod, then dom; each grade four levels deep
    assert calls == [(1, 4, False), (2, 4, False)] * 2
    out = []
    assert jsonio._records(obj["dom"]["simplices"]["1"], 4, out)
    assert len(out) == 2


_MAX_FACES = ["a"] * (delta.MAX_DIM + 1)
_EDGE = {"faces": ["a", "b"], "id": "e"}

# Lists that are no grade of simplices: ``_records`` leaves each to the
# walk, item by item.
_NOT_SIMPLICES = {
    "another key set": {"faces": ["a", "b"], "id": "e", "dim": "1"},
    "no faces": {"face": ["a", "b"], "id": "e"},
    "faces as a string": {"faces": "ab", "id": "e"},
    "faces as a tuple": {"faces": ("a", "b"), "id": "e"},
    "an empty faces list": {"faces": [], "id": "e"},
    "a single face": {"faces": ["a"], "id": "e"},
    "MAX_DIM + 2 faces": {"faces": _MAX_FACES + ["a"], "id": "e"},
    "an int id": {"faces": ["a", "b"], "id": 1},
    "a dict subclass": _Record(_EDGE),
}


@pytest.mark.parametrize("grade", [lambda r: [r], lambda r: [r, _EDGE],
                                   lambda r: [_EDGE, r]],
                         ids=["alone", "first", "after an edge"])
@pytest.mark.parametrize("record", _NOT_SIMPLICES.values(),
                         ids=_NOT_SIMPLICES.keys())
def test_records_take_only_grades_of_simplices(record, grade):
    """Alone, first or after an edge, such a record makes ``_records``
    append nothing and return False, and ``dumps`` still writes
    ``json``'s bytes."""
    out = []
    assert not jsonio._records(grade(record), 1, out)
    assert out == []
    _check_records(grade(record))


def test_records_take_grades_up_to_max_dim():
    """A grade of ``MAX_DIM``-simplices takes the template path."""
    out = []
    assert jsonio._records([{"faces": _MAX_FACES, "id": "t"}], 1, out)
    _check_records([{"faces": _MAX_FACES, "id": "t"}])


# -- the shape writers -------------------------------------------------------

# Affixes that make every id hold JSON, ``str.format`` or printf syntax,
# escapes, non-ASCII or a control character.
_AFFIX = st.sampled_from(["", "{", "}", "{}", "{0}", '"', "\\", ".", "\u00e9",
                          "\x07", "{!r}", "\u2603", "%", "%s", "%%", "%(x)s",
                          "%d"]) | \
    st.text(alphabet="{}\"\\.\u00e9\x07\u26030%s", max_size=4)

_TO_JSON = {DeltaComplex: jsonio.complex_to_json,
            SimplicialMap: jsonio.map_to_json,
            CellComplex: jsonio.cellcx_to_json,
            FactorResult: jsonio.factor_result_to_json}


def _reference(value):
    """The stdlib's text of the value's ``*_to_json``, encoded: an oracle
    that shares no code with the walk ``document`` and ``dumps`` share."""
    if isinstance(value, dict):
        value = {k: _TO_JSON[type(v)](v) for k, v in value.items()}
    else:
        value = _TO_JSON[type(value)](value)
    return _canonical(value).encode()


def _joined(value):
    """The document of a value, its chunks joined; each must be bytes."""
    chunks = jsonio.document(value)
    assert chunks and all(type(c) is bytes for c in chunks)
    return b"".join(chunks)


def _renamed_complex(x, name):
    return DeltaComplex({k: tuple(map(name, ids))
                         for k, ids in x.simplices.items()},
                        {name(s): tuple(map(name, fs))
                         for s, fs in x.faces.items()})


def _renamed_map(f, name):
    return SimplicialMap(_renamed_complex(f.dom, name),
                         _renamed_complex(f.cod, name),
                         {name(s): name(t) for s, t in f.assign.items()})


def _edge_values(name):
    """Empty containers at every level of each shape: the empty complex,
    empty dimensions below the top, no strata, a stratum without cells,
    shape-0 cells (``attach == {}``), no stages and an empty assignment."""
    # built unchecked: faces that are no simplices of the complex
    sparse = EMPTY._extended({0: [name("a")], 2: [name("t")]},
                             {name("t"): (name("e"),) * 3})
    top_only = EMPTY._extended({3: [name("t")]},
                               {name("t"): tuple(map(name, "fghi"))})
    edge = _renamed_complex(standard_simplex(1), name)
    return [EMPTY, sparse, top_only, trivial_complex(EMPTY),
            trivial_complex(sparse),
            CellComplex._owning(edge, [Stratum(edge, [])]),
            SimplicialMap(EMPTY, sparse, {}),
            free_complex(SimplicialMap(EMPTY, EMPTY, {})),
            free_complex(SimplicialMap(EMPTY, standard_simplex(0), {})),
            free_complex(SimplicialMap(EMPTY, edge, {})),
            {"empty": EMPTY, "none": trivial_complex(EMPTY)}]


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32), _AFFIX, _AFFIX)
@example(0, "{", "}")
@example(1, '{}"', "\\\x07\u00e9")
@example(2, "%(x)s", "%%d%")
@example(0, "0.", "")  # cell ids that spell base ids
@example(3, "\ud800", "\udfff")  # lone surrogates, escaped as \\udXXX
@example(4, "", "\U0001f600")  # a surrogate pair once escaped
def test_text_is_dumps_of_to_json(seed, prefix, suffix):
    """``document`` writes exactly ``dumps(x_to_json(x))``, that is the
    stdlib's sorted, indented text of it, as ASCII bytes chunks, for every
    shape."""
    def name(s):
        return prefix + s + suffix

    rng = random.Random(seed)
    x = _renamed_complex(gen.rand_complex(rng), name)
    f = _renamed_map(gen.rand_map(rng), name)
    fr = free_complex(f)
    values = [x, f, fr, fr.kf, fr.ef,
              rand_cell_complex(rng, max_cells=4, prefix=prefix),
              {"complex": x, "leg_first": f, "leg_second": fr.ef}]
    for value in values + _edge_values(name):
        assert _joined(value) == _reference(value)


# Deterministic values whose leaves cross ``document``'s chunks of records.
_CHUNK = jsonio._CHUNK
_FORMAT_AFFIXES = ["", "%", "%%", "%(x)s"]


def _check_text(value):
    """``document`` is the reference; a mismatch names its first offset,
    since a diff of two multi-megabyte texts would take minutes."""
    got, want = _joined(value), _reference(value)
    if got != want:
        at = next((i for i, pair in enumerate(zip(got, want))
                   if pair[0] != pair[1]), min(len(got), len(want)))
        near = slice(max(at - 60, 0), at + 60)
        pytest.fail(f"document differs from the reference at offset {at}: "
                    f"{got[near]!r} != {want[near]!r}")


@pytest.mark.parametrize("affix", ["", "%(x)s"])
def test_text_of_id4_is_dumps_of_to_json(affix):
    """The factorization of the identity on the dim-4 chain: strata of
    5 / 56 / 1,525 / 5,496 / 686 cells of mixed shapes, and 7,580 body
    simplices in the top grade of ``ef``'s domain and assignment."""
    fr = free_complex(identity_map(_renamed_complex(
        chain_complex(4), lambda s: affix + s + affix)))
    assert fr.stage_counts == [5, 56, 1525, 5496, 686]
    for value in (fr, fr.kf, fr.ef):
        _check_text(value)


def test_dumps_of_a_large_map_peaks_within_its_chunks():
    """``dumps`` writes each list of records a chunk per piece: on ``ef``
    of the dim-4 chain's identity (2.9 MB of text) it peaks within 2.4
    times its output, where a piece per record peaked at 2.6 times."""
    obj = jsonio.map_to_json(free_complex(identity_map(chain_complex(4))).ef)
    tracemalloc.start()
    try:
        text = jsonio.dumps(obj)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(text) > 2 * 10 ** 6
    assert peak <= 2.4 * len(text), f"peak {peak / len(text):.2f}x the output"


@pytest.mark.parametrize("affix", _FORMAT_AFFIXES)
@pytest.mark.parametrize("n", [_CHUNK, _CHUNK + 1, 2 * _CHUNK])
def test_text_of_grades_at_chunk_sizes(n, affix):
    """A grade of n simplices, assignment entries and cells, for n one
    chunk, one chunk and a record, and two chunks."""
    def name(s):
        return affix + s + affix

    edges = [f"e{i:04d}" for i in range(n)]
    x = _renamed_complex(DeltaComplex({0: ["a", "b"], 1: edges},
                                      dict.fromkeys(edges, ("b", "a"))), name)
    points = _renamed_complex(DeltaComplex({0: ["a", "b"]}), name)
    cells = [(name(s), 1, (name("b"), name("a"))) for s in edges]
    c = CellComplex(points, [Stratum(points, cells)])
    assert len(x.ids(1)) == len(c.strata[0].cells) == n
    for value in (x, identity_map(x), c):
        _check_text(value)


@pytest.mark.parametrize("affix", _FORMAT_AFFIXES)
def test_text_of_a_stratum_whose_shape_changes_at_a_chunk(affix):
    """One stratum of 1-cells, then 0-cells from the first record of the
    second chunk, then 2-cells from its last record into the third."""
    def name(s):
        return affix + s + affix

    base = _renamed_complex(DeltaComplex(
        {0: ["a", "b"], 1: ["e", "l"]}, {"e": ("b", "a"), "l": ("a", "a")}),
        name)
    dims = [1] * _CHUNK + [0] * (_CHUNK - 1) + [2] * 2
    cells = [(name(f"c{i:04d}"), k, tuple(
        name("a" if len(key) == 1 else "l") for key in delta.boundary_keys(k)))
        for i, k in enumerate(dims)]
    c = CellComplex(base, [Stratum(base, cells)])
    assert [k for _, k, _ in c.strata[0].cells] == dims
    _check_text(c)
