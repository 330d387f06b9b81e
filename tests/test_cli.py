"""Command-line contract: golden outputs, exit codes, determinism."""

import errno
import json
import os
import subprocess
import sys
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from relcell import (
    EMPTY,
    CellComplex,
    DeltaComplex,
    DeltaError,
    FillerTable,
    SimplicialMap,
    free_complex,
    identity_map,
    square_key,
    standard_simplex,
    trivial_complex,
    u_of_complex,
)
from relcell.cli import main
from relcell import cli, jsonio
from conftest import (boundary_inclusion, chain_complex, fold_map,
                      rand_cell_complex)


@pytest.fixture
def files(tmp_path):
    def write(name, payload):
        p = tmp_path / name
        p.write_text(jsonio.dumps(payload))
        return str(p)
    return tmp_path, write


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestFactor:
    def test_golden_boundary_one(self, files, capsys):
        _, write = files
        path = write("f.json", jsonio.map_to_json(boundary_inclusion(1)))
        code, out, _ = run_cli(capsys, "factor", path)
        assert code == 0
        assert out == "stage 0: 3 cells; stage 1: 3 cells; height 2\n"

    def test_golden_point(self, files, capsys):
        _, write = files
        f = SimplicialMap(EMPTY, standard_simplex(0), {})
        path = write("f.json", jsonio.map_to_json(f))
        code, out, _ = run_cli(capsys, "factor", path)
        assert code == 0
        assert out == "stage 0: 1 cell; height 1\n"

    def test_out_file_roundtrips(self, files, capsys, tmp_path):
        _, write = files
        path = write("f.json", jsonio.map_to_json(boundary_inclusion(1)))
        out_path = tmp_path / "fr.json"
        code, _, _ = run_cli(capsys, "factor", path, "--out", str(out_path))
        assert code == 0
        back = jsonio.factor_result_from_json(
            json.loads(out_path.read_text()))
        assert back.kf == free_complex(boundary_inclusion(1)).kf
        # byte-identical rerun
        first = out_path.read_text()
        run_cli(capsys, "factor", path, "--out", str(out_path))
        assert out_path.read_text() == first

    def test_cell_id_collision_exit_5(self, files, capsys, monkeypatch):
        # two cells glued at one stage can share an id only through a
        # collision of the hashed lift: an internal error, not bad input
        from relcell import soa
        monkeypatch.setattr(soa, "_cell_ids",
                            lambda digest, stage, k, targets, lifts, escape:
                            [f"{stage}.{k}"] * len(lifts))
        _, write = files
        path = write("f.json", jsonio.map_to_json(boundary_inclusion(1)))
        code, _, err = run_cli(capsys, "factor", path)
        assert code == 5
        assert err.startswith("internal error: ") and "'0.0'" in err
        assert "Traceback" not in err

    def test_duplicate_input_ids_exit_2(self, files, capsys):
        _, write = files
        payload = jsonio.cellcx_to_json(free_complex(boundary_inclusion(1)).kf)
        cells = payload["strata"][0]["cells"]
        cells.append(dict(cells[0]))
        code, _, err = run_cli(capsys, "export-dot", write("c.json", payload))
        assert code == 2
        assert "duplicate cell ids" in err

    def test_malformed_json_exit_2(self, files, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{oops")
        code, _, err = run_cli(capsys, "factor", str(bad))
        assert code == 2
        assert "line 1" in err

    def test_missing_file_exit_2(self, capsys):
        code, _, _ = run_cli(capsys, "factor", "/nonexistent.json")
        assert code == 2

    def test_cap_exceeded_exit_3(self, files, capsys):
        _, write = files
        path = write("f.json", jsonio.map_to_json(boundary_inclusion(1)))
        code, _, err = run_cli(capsys, "factor", path, "--cap", "1")
        assert code == 3
        assert "cell counts" in err

    def test_cap_exceeded_writes_no_out_file(self, files, capsys):
        tmp_path, write = files
        path = write("f.json", jsonio.map_to_json(boundary_inclusion(1)))
        out = tmp_path / "x.json"
        code, stdout, _ = run_cli(capsys, "factor", path, "--cap", "1",
                                  "--out", str(out))
        assert code == 3 and stdout == ""
        assert not out.exists()

    def test_bad_cap_exit_2(self, files, capsys):
        _, write = files
        path = write("f.json", jsonio.map_to_json(boundary_inclusion(1)))
        code, _, _ = run_cli(capsys, "factor", path, "--cap", "0")
        assert code == 2

    def test_bad_cap_message(self, files, capsys):
        _, write = files
        path = write("f.json", jsonio.map_to_json(boundary_inclusion(1)))
        assert run_cli(capsys, "factor", path, "--cap", "0") == \
            (2, "", "error: --cap must be >= 1\n")


def _factor_argv(mutate):
    """argv for ``factor`` on the boundary-of-an-edge map, mutated."""
    def argv(write):
        obj = jsonio.map_to_json(boundary_inclusion(1))
        mutate(obj)
        return ["factor", write("f.json", obj)]
    return argv


def _rename_dim_key(obj):
    simplices = obj["cod"]["simplices"]
    simplices["one"] = simplices.pop("1")


def _assign_as_list(obj):
    obj["assign"] = list(obj["assign"].values())


def _simplices_as_list(obj):
    obj["cod"]["simplices"] = list(obj["cod"]["simplices"].values())


def _faces_as_int(obj):
    obj["cod"]["simplices"]["1"][0]["faces"] = 0


def _one_face(obj):
    edge = obj["cod"]["simplices"]["1"][0]
    edge["faces"] = edge["faces"][:1]


def _dim_key_spelled(key):
    """A second dimension key besides "0"; a spelling of 0 would
    overwrite dimension 0, and "None" once crashed the key check."""
    def mutate(obj):
        obj["dom"]["simplices"][key] = ["0"]
        obj["assign"]["0"].pop("1")
    return mutate


def _assign_graded(assign):
    """Replace the "assign" object of the boundary-of-an-edge map."""
    def mutate(obj):
        obj["assign"] = assign
    return mutate


def _normalize_attach_not_commuting(write):
    """A 2-cell whose attach sends the edge "01" to an edge c -> d while
    sending its vertices "0" and "1" to a and b."""
    obj = {"base": {"simplices": {
        "0": ["a", "b", "c", "d"], "1": [{"id": "e", "faces": ["d", "c"]}]}},
        "strata": [{"cells": [{"id": "t", "dim": 2, "attach": {
            "0": "a", "1": "b", "2": "a", "01": "e", "02": "e", "12": "e"}}]}]}
    return ["normalize", write("c.json", obj)]


def _cell_dim_as_string(write):
    obj = jsonio.cellcx_to_json(free_complex(boundary_inclusion(1)).kf)
    cell = obj["strata"][0]["cells"][0]
    cell["dim"] = str(cell["dim"])
    return ["export-dot", write("kf.json", obj)]


def _table_entry(**fields):
    """``lift`` with a table whose one entry, over the fold's point, has
    these fields instead."""
    def argv(write):
        fold, pc, pu, pv = TestLift._fixture(write)
        obj = jsonio.filler_table_to_json(FillerTable(
            fold, {square_key(0, "0", {}): "0.0"}, fallback="fail"))
        obj["entries"][0].update(fields)
        return ["lift", pc, write("t.json", obj), pu, pv]
    return argv


@pytest.mark.parametrize("argv", [
    _factor_argv(_rename_dim_key),
    _factor_argv(_assign_as_list),
    _factor_argv(_simplices_as_list),
    _factor_argv(_faces_as_int),
    _factor_argv(_one_face),
    *[_factor_argv(_dim_key_spelled(key)) for key in ("00", " 0", "+0", "None")],
    _cell_dim_as_string,
    _table_entry(boundary=[]),
    _table_entry(dim=1, boundary={"0": "0.0"}),
    _table_entry(boundary={"zz": "0.0"}),
    _table_entry(dim=10),
    _normalize_attach_not_commuting,
    _factor_argv(_assign_graded({"junk": {"0": "0", "1": "1"}})),
    _factor_argv(_assign_graded({"0": {"0": "0"}, "1": {"1": "1"}})),
    _factor_argv(_assign_graded({"0": {"0": "0", "1": "1"},
                                 "5": {"0": "1"}})),
], ids=["dimension-key-not-numeric", "assign-as-list", "simplices-as-list",
        "faces-as-int", "edge-with-one-face", "dimension-key-twice", "dimension-key-space-0",
        "dimension-key-plus-0", "dimension-key-None", "cell-dim-as-string",
        "table-boundary-as-list", "table-boundary-misses-id",
        "table-boundary-adds-id", "table-dim-without-simplex",
        "normalize-attach-not-commuting",
        "assign-grade-not-numeric", "assign-vertex-under-grade-1",
        "assign-grade-5-overwrites-vertex"])
def test_schema_invalid_json_exit_2(files, capsys, argv):
    _, write = files
    code, _, err = run_cli(capsys, *argv(write))
    assert code == 2
    assert err.startswith("error: ") and "Traceback" not in err


def _simplex_per_degree(top):
    """The map from the empty complex to a complex with one simplex in each
    degree up to ``top``, every face of which is the simplex below."""
    simplices = {"0": ["s0"]}
    for k in range(1, top + 1):
        simplices[str(k)] = [{"id": f"s{k}", "faces": [f"s{k - 1}"] * (k + 1)}]
    return {"dom": {"simplices": {}}, "cod": {"simplices": simplices},
            "assign": {}}


@pytest.mark.parametrize("command", ["factor", "check"])
def test_codomain_above_max_dim_exit_2(files, capsys, command):
    """A codomain above dimension 9 is an input error, not a law failure."""
    _, write = files
    path = write("f.json", _simplex_per_degree(10))
    code, _, err = run_cli(capsys, command, path)
    assert code == 2
    assert "dimension 10" in err and "dimension 9 only" in err


# each subcommand that reads files, with the number of files it reads
_FILE_ARGS = {"factor": 1, "compose": 2, "normalize": 1, "pushout": 2,
              "lift": 4, "check": 1, "export-dot": 1}


# hostile files: each one's content (None: no file there; "directory": a
# directory), and a fragment of its error line where that line is the
# same on every Python; an integer literal past the interpreter's digit
# limit is a load error where the limit holds, and a schema error where not
_HOSTILE_FILES = {
    "nested-too-deeply": (b"[" * 200_000, "JSON nested too deeply"),
    "4301-digit-integer": (b"[" + b"1" * 4301 + b"]", ""),
    "negative-5000-digit-integer": (b"-" + b"7" * 5000, ""),
    "utf-8-bom": (b"\xef\xbb\xbf{}", "invalid JSON"),
    "invalid-utf-8": (b'{"dom": "\xff"}', "cannot decode text"),
    "lone-surrogate-id": (b'{"dom": {"simplices": {"0": ["\\ud800"]}}, '
                          b'"cod": {"simplices": {}}, '
                          b'"assign": {"0": {"\\ud800": "\\ud800"}}}', ""),
    "nan": (b"NaN", ""),
    "empty": (b"", "invalid JSON"),
    "directory": ("directory", os.strerror(errno.EISDIR)),
    "missing": (None, os.strerror(errno.ENOENT)),
}


@pytest.mark.parametrize("command", sorted(_FILE_ARGS))
def test_deeply_nested_json_exit_2(files, capsys, command):
    """Every hostile file in ``_HOSTILE_FILES``, JSON nested past the
    parser's limit first, at every file argument of ``command``, with
    accepted files at the others, is an input error naming its path:
    exit 2 and one error line, with no traceback."""
    tmp_path, write = files
    accepted = _accepted_inputs(write, command)
    assert len(accepted) == _FILE_ARGS[command]
    for name, (content, fragment) in _HOSTILE_FILES.items():
        path = tmp_path / name
        if content == "directory":
            path.mkdir()
        elif content is not None:
            path.write_bytes(content)
        for i in range(len(accepted)):
            argv = [*accepted[:i], str(path), *accepted[i + 1:]]
            code, _, err = run_cli(capsys, command, *argv)
            assert code == 2, (name, i, err)
            assert err.startswith(f"error: {path}: ") and fragment in err
            assert err.count("\n") == 1 and "Traceback" not in err
            assert "Exception ignored" not in err


def _accepted_inputs(write, command):
    """Input files that ``command`` accepts, so that it reaches its
    output."""
    kf = free_complex(boundary_inclusion(1)).kf
    m = write("m.json", jsonio.map_to_json(boundary_inclusion(1)))
    c = write("c.json", jsonio.cellcx_to_json(kf))
    if command == "compose":
        return [c, write("d.json", jsonio.cellcx_to_json(
            trivial_complex(kf.body)))]
    if command == "pushout":
        return [m, m]
    if command == "lift":
        fold, pc, pu, pv = TestLift._fixture(write)
        return [pc, write("t.json", jsonio.filler_table_to_json(
            FillerTable(fold, fallback="search"))), pu, pv]
    return [m] if command in ("factor", "check") else [c]


@pytest.mark.parametrize("command", sorted(_FILE_ARGS))
@pytest.mark.parametrize("where", ["missing-dir", "a-dir", "file-parent"])
def test_unwritable_out_exit_2(files, capsys, monkeypatch, command, where):
    """An output path that cannot be opened for writing is an input
    error, not a traceback, and it is refused before any input is read
    or any work is done."""
    tmp_path, write = files
    argv = [command, *_accepted_inputs(write, command)]
    out = {"missing-dir": tmp_path / "missing" / "x.json",
           "a-dir": tmp_path,
           "file-parent": tmp_path / "m.json" / "x.json"}[where]

    def unreachable(*args, **kwargs):
        pytest.fail("work done before --out was checked")

    # every subcommand loads its inputs first; check also factors fixtures
    for name in ("_load", "free_complex", "check_awfs_laws"):
        monkeypatch.setattr(cli, name, unreachable)
    code, stdout, err = run_cli(capsys, *argv, "--out", str(out))
    assert code == 2 and stdout == ""
    assert err.startswith(f"error: {out}: ") and "Traceback" not in err


class _FullStdout:
    """A standard output on a full disk: ``fails`` ("write" or "flush")
    raises ENOSPC."""

    encoding = "utf-8"

    def __init__(self, fails):
        self.fails = fails

    def write(self, text):
        if self.fails == "write":
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        return len(text)

    def flush(self):
        if self.fails == "flush":
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


@pytest.mark.parametrize("command", sorted(_FILE_ARGS))
@pytest.mark.parametrize("fails", ["write", "flush"])
def test_full_stdout_exit_2(files, capsys, monkeypatch, command, fails):
    """A standard output that cannot be written, or flushed, is an input
    error naming it, with no traceback, for every subcommand."""
    _, write = files
    argv = [command, *_accepted_inputs(write, command)]
    monkeypatch.setattr(sys, "stdout", _FullStdout(fails))
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 2
    assert err == f"error: standard output: {os.strerror(errno.ENOSPC)}\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"),
                    reason="needs the /dev/full device")
@pytest.mark.parametrize("command", ["check", "export-dot", "factor"])
@pytest.mark.parametrize("unbuffered", [False, True])
def test_dev_full_exit_2(files, command, unbuffered):
    """``relcell check > /dev/full``: exit 2, no traceback, and nothing
    left to fail at the interpreter's exit.  In a child process, since the
    error must not be deferred to its exit: buffered, these outputs sit
    whole in standard output's buffer, which the interpreter flushes again
    as it exits."""
    _, write = files
    argv = [] if command == "check" else _accepted_inputs(write, command)
    env = dict(os.environ)
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    with open("/dev/full", "w") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "relcell.cli", command, *argv],
            stdout=full, stderr=subprocess.PIPE, text=True, env=env)
    assert proc.returncode == 2
    assert proc.stderr == \
        f"error: standard output: {os.strerror(errno.ENOSPC)}\n"


def _valid_then(entry):
    """The complex JSON of a valid height-two complex, plus one entry."""
    obj = jsonio.cellcx_to_json(free_complex(boundary_inclusion(1)).kf)
    obj["strata"].append(entry)
    return obj


@pytest.mark.parametrize("obj", [
    [],
    {"base": {"simplices": {}}},
    {"strata": []},
    {"base": {"simplices": {}}, "strata": {}},
    {"base": {"simplices": {}}, "strata": [1]},
    {"base": {"simplices": {}}, "strata": [{}]},
    {"base": {"simplices": {}}, "strata": [{"cells": {}}]},
    _valid_then({}),
    _valid_then({"cells": "c"}),
], ids=["not-an-object", "no-strata", "no-base", "strata-not-a-list",
        "entry-not-an-object", "entry-without-cells", "cells-not-a-list",
        "last-entry-without-cells", "last-cells-not-a-list"])
def test_complex_container_errors_match_in_both_loaders(files, capsys, obj):
    """``compose`` (strict loader) and ``normalize`` (lax loader) reject
    each malformed container with one message."""
    _, write = files
    path = write("c.json", obj)
    strict = run_cli(capsys, "compose", path, path)
    lax = run_cli(capsys, "normalize", path)
    assert strict[0] == lax[0] == 2
    assert strict[2] == lax[2] and strict[2].startswith(f"error: {path}: ")


@pytest.mark.parametrize("command", ["compose", "normalize"])
@pytest.mark.parametrize("attach", [
    {"0": "a"}, {"0": "a", "1": "b", "01": "e"}],
    ids=["missing-key", "extra-key"])
def test_attach_keys_missing_or_extra_exit_2(files, capsys, command, attach):
    _, write = files
    path = write("c.json", {
        "base": {"simplices": {"0": ["a", "b"]}},
        "strata": [{"cells": [{"id": "e", "dim": 1, "attach": attach}]}]})
    code, _, err = run_cli(capsys, command,
                           *[path] * (2 if command == "compose" else 1))
    assert code == 2
    assert err.startswith(f"error: {path}: ") and "Traceback" not in err


# argv of each subcommand, and the flags it never reads
_UNREAD_FLAGS = {
    ("factor", "m.json"): ["--seed"],
    ("compose", "a.json", "b.json"): ["--cap", "--format", "--seed"],
    ("normalize", "c.json"): ["--cap", "--format", "--seed"],
    ("pushout", "f.json", "g.json"): ["--cap", "--format", "--seed"],
    ("lift", "c.json", "t.json", "u.json", "v.json"):
        ["--cap", "--format", "--seed"],
    ("export-dot", "c.json"): ["--cap", "--format", "--seed"],
}


@pytest.mark.parametrize("argv, flag", [
    (argv, flag) for argv, flags in _UNREAD_FLAGS.items() for flag in flags],
    ids=lambda v: v[0] if isinstance(v, tuple) else v)
def test_unread_flag_rejected(capsys, argv, flag):
    """A subcommand takes only the flags it reads; any other is a usage
    error, exit 2, before any file is opened."""
    value = "json" if flag == "--format" else "1"
    with pytest.raises(SystemExit) as exc:
        main(list(argv) + [flag, value])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


_IDS = st.sampled_from(["a", "b", "0", "1"])
_JUNK = st.recursive(
    st.none() | st.booleans() | st.integers(-1, 3) | _IDS,
    lambda inner: st.lists(inner, max_size=2) |
    st.dictionaries(_IDS, inner, max_size=2),
    max_leaves=4)
_ID = _IDS | _JUNK
_ENTRY = st.fixed_dictionaries(
    {"id": _ID, "faces": st.lists(_ID, max_size=3) | _JUNK})
_COMPLEX = st.fixed_dictionaries({"simplices": st.dictionaries(
    st.sampled_from(["0", "1", "2", "x", "None", " 0", "+0"]),
    st.lists(_ID, max_size=3) | st.lists(_ENTRY, max_size=2) | _JUNK,
    max_size=3) | _JUNK}) | _JUNK
_ASSIGN = st.dictionaries(st.sampled_from(["0", "1", "2"]),
                          st.dictionaries(_IDS, _ID, max_size=3) | _JUNK,
                          max_size=3) | _JUNK
_MAP = st.fixed_dictionaries(
    {"dom": _COMPLEX, "cod": _COMPLEX, "assign": _ASSIGN}) | _JUNK


_CELL = st.fixed_dictionaries({
    "id": _ID, "dim": st.integers(-1, 2) | _JUNK,
    "attach": st.dictionaries(st.sampled_from(["0", "1", "2", "01", "02"]),
                              _ID, max_size=4) | _JUNK}) | _JUNK
_CELLCX = st.fixed_dictionaries({
    "base": _COMPLEX,
    "strata": st.lists(st.fixed_dictionaries(
        {"cells": st.lists(_CELL, max_size=2) | _JUNK}) | _JUNK,
        max_size=2) | _JUNK}) | _JUNK
_TABLE = st.fixed_dictionaries({
    "p": _MAP,
    "entries": st.lists(st.fixed_dictionaries({
        "dim": st.integers(-1, 2) | _JUNK,
        "boundary": st.dictionaries(_IDS, _ID, max_size=2) | _JUNK,
        "target": _ID, "filler": _ID}) | _JUNK, max_size=2) | _JUNK,
    "fallback": st.sampled_from(["fail", "search"]) | _JUNK}) | _JUNK

# valid files too, so that some draws get past the loaders
_FR = free_complex(boundary_inclusion(1))
_ANY_MAP = st.sampled_from([jsonio.map_to_json(f) for f in (
    boundary_inclusion(1), fold_map(), u_of_complex(_FR.kf), _FR.ef)]) | _MAP
_ANY_CELLCX = st.sampled_from([jsonio.cellcx_to_json(c) for c in (
    _FR.kf, trivial_complex(_FR.kf.body))]) | _CELLCX
_ANY_TABLE = st.sampled_from([jsonio.filler_table_to_json(
    FillerTable(p, fallback="search")) for p in (_FR.ef, fold_map())]) | _TABLE

# the input files of each subcommand, by their strategies
_INPUTS = {
    "check": [_ANY_MAP],
    "compose": [_ANY_CELLCX, _ANY_CELLCX],
    "normalize": [_ANY_CELLCX],
    "pushout": [_ANY_MAP, _ANY_MAP],
    "lift": [_ANY_CELLCX, _ANY_TABLE, _ANY_MAP, _ANY_MAP],
    "export-dot": [_ANY_CELLCX],
}


def _exit_code(command, objs):
    """``main``'s exit code on ``command`` with each object as a file."""
    paths = []
    try:
        for obj in objs:
            fd, path = tempfile.mkstemp(suffix=".json")
            paths.append(path)
            with os.fdopen(fd, "w") as fh:
                json.dump(obj, fh)
        return main([command] + paths)
    finally:
        for path in paths:
            os.unlink(path)


@settings(max_examples=150, deadline=None)
@given(_MAP)
def test_factor_exit_codes_on_random_json(obj):
    """Whatever JSON a map file holds, ``factor`` ends with a documented
    exit code: 0, 2 (input error), 3 (cap) or 4 (law failure)."""
    assert _exit_code("factor", [obj]) in (0, 2, 3, 4)


@pytest.mark.parametrize("command", sorted(_INPUTS))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_exit_codes_on_random_json(command, data):
    """Whatever JSON its files hold, each subcommand ends with a
    documented exit code."""
    objs = data.draw(st.tuples(*_INPUTS[command]))
    assert _exit_code(command, objs) in (0, 2, 3, 4)


class TestComposeNormalizePushout:
    def test_normalize_idempotent_bytes(self, files, capsys, tmp_path):
        import random
        rng = random.Random(199)
        c = rand_cell_complex(rng, max_cells=4)
        payload = jsonio.cellcx_to_json(c)
        cells = [e for entry in payload["strata"] for e in entry["cells"]]
        payload["strata"] = [{"cells": cells[::-1]}]
        _, write = files
        path = write("c.json", payload)
        out1, out2 = tmp_path / "n1.json", tmp_path / "n2.json"
        assert run_cli(capsys, "normalize", path,
                       "--out", str(out1))[0] == 0
        assert run_cli(capsys, "normalize", str(out1),
                       "--out", str(out2))[0] == 0
        assert out1.read_text() == out2.read_text()
        assert jsonio.cellcx_from_json(json.loads(out1.read_text())) == c

    def test_compose(self, files, capsys, tmp_path):
        from relcell import CellComplex, Stratum
        a = CellComplex(EMPTY, [Stratum(EMPTY, [("v", 0, ())])])
        b = CellComplex(a.body, [Stratum(a.body, [("e", 1, ("v", "v"))])])
        _, write = files
        pa = write("a.json", jsonio.cellcx_to_json(a))
        pb = write("b.json", jsonio.cellcx_to_json(b))
        out = tmp_path / "c.json"
        assert run_cli(capsys, "compose", pa, pb,
                       "--out", str(out))[0] == 0
        c = jsonio.cellcx_from_json(json.loads(out.read_text()))
        assert c.height == 2

    def test_compose_mismatch_exit_2(self, files, capsys):
        _, write = files
        c = trivial_complex(standard_simplex(1))
        p = write("c.json", jsonio.cellcx_to_json(c))
        d = trivial_complex(standard_simplex(0))
        q = write("d.json", jsonio.cellcx_to_json(d))
        assert run_cli(capsys, "compose", p, q)[0] == 2

    def test_pushout_of_legs_from_two_domains_exit_2(self, files, capsys):
        # the inputs do not fit together: an input error with no path
        _, write = files
        pf = write("f.json", jsonio.map_to_json(boundary_inclusion(1)))
        pg = write("g.json", jsonio.map_to_json(
            identity_map(standard_simplex(0))))
        assert run_cli(capsys, "pushout", pf, pg) == \
            (2, "", "error: pushout legs must share a domain\n")

    def test_pushout(self, files, capsys, tmp_path):
        _, write = files
        f = boundary_inclusion(1)
        g = SimplicialMap(f.dom, standard_simplex(0),
                          {"0": "0", "1": "0"})
        pf = write("f.json", jsonio.map_to_json(f))
        pg = write("g.json", jsonio.map_to_json(g))
        out = tmp_path / "p.json"
        assert run_cli(capsys, "pushout", pf, pg,
                       "--out", str(out))[0] == 0
        payload = json.loads(out.read_text())
        p = jsonio.complex_from_json(payload["complex"])
        assert (len(p.ids(0)), len(p.ids(1))) == (1, 1)


class TestLift:
    @staticmethod
    def _fixture(write):
        from relcell import CellComplex, Stratum, coproduct
        two, _ = coproduct([standard_simplex(0), standard_simplex(0)])
        pt = standard_simplex(0)
        fold = SimplicialMap(two, pt, {s: "0" for s in two.id_set})
        c = CellComplex(EMPTY, [Stratum(EMPTY, [("v", 0, ())])])
        pc = write("c.json", jsonio.cellcx_to_json(c))
        pu = write("u.json", jsonio.map_to_json(
            SimplicialMap(EMPTY, two, {})))
        pv = write("v.json", jsonio.map_to_json(
            SimplicialMap(c.body, pt, {"v": "0"})))
        return fold, pc, pu, pv

    def test_lift_ok(self, files, capsys, tmp_path):
        _, write = files
        fold, pc, pu, pv = self._fixture(write)
        ft = FillerTable(fold, fallback="search")
        pt_ = write("t.json", jsonio.filler_table_to_json(ft))
        out = tmp_path / "d.json"
        assert run_cli(capsys, "lift", pc, pt_, pu, pv,
                       "--out", str(out))[0] == 0
        d = jsonio.map_from_json(json.loads(out.read_text()))
        assert d.assign["v"] == "0.0"

    def test_corrupted_table_exit_4(self, files, capsys):
        _, write = files
        fold, pc, pu, pv = self._fixture(write)
        ft = FillerTable(fold, {square_key(0, "0", {}): "ghost"},
                         fallback="fail")
        pt_ = write("t.json", jsonio.filler_table_to_json(ft))
        code, _, err = run_cli(capsys, "lift", pc, pt_, pu, pv)
        assert code == 4
        assert "square" in err

    @pytest.mark.parametrize("fallback", ["guess", 3, None, ["search"]])
    def test_unknown_fallback_exit_2(self, files, capsys, fallback):
        _, write = files
        fold, pc, pu, pv = self._fixture(write)
        with pytest.raises(DeltaError, match="unknown fallback"):
            FillerTable(fold, fallback=fallback)
        obj = jsonio.filler_table_to_json(FillerTable(fold))
        obj["fallback"] = fallback
        with pytest.raises(DeltaError, match="unknown fallback"):
            jsonio.filler_table_from_json(obj)
        code, _, err = run_cli(capsys, "lift", pc, write("t.json", obj),
                               pu, pv)
        assert code == 2 and "unknown fallback" in err

    def test_one_square_twice_exit_2(self, files, capsys):
        """A table that enters one square twice is an input error, not a
        lift that depends on the order of its entries."""
        _, write = files
        fold, pc, pu, pv = self._fixture(write)
        obj = jsonio.filler_table_to_json(FillerTable(fold, fallback="fail"))
        for fillers in (("0.0", "1.0"), ("1.0", "0.0")):
            obj["entries"] = [{"dim": 0, "boundary": {}, "target": "0",
                               "filler": e} for e in fillers]
            pt_ = write("t.json", obj)
            assert run_cli(capsys, "lift", pc, pt_, pu, pv) == (
                2, "", f"error: {pt_}: two entries for one square over "
                       f"'0'\n")

    def test_square_endpoints_mismatch_exit_2(self, files, capsys):
        _, write = files
        fold, pc, pu, _ = self._fixture(write)
        pt_ = write("t.json", jsonio.filler_table_to_json(FillerTable(fold)))
        pv = write("v.json", jsonio.map_to_json(identity_map(fold.cod)))
        code, _, err = run_cli(capsys, "lift", pc, pt_, pu, pv)
        assert code == 2
        assert "endpoints do not match" in err

    def test_square_not_commuting_exit_2(self, files, capsys):
        from relcell import coproduct
        _, write = files
        pt = standard_simplex(0)
        two, _ = coproduct([pt, pt])
        ft = FillerTable(identity_map(two))
        argv = ["lift", write("c.json", jsonio.cellcx_to_json(
                    trivial_complex(pt))),
                write("t.json", jsonio.filler_table_to_json(ft)),
                write("u.json", jsonio.map_to_json(
                    SimplicialMap(pt, two, {"0": "0.0"}))),
                write("v.json", jsonio.map_to_json(
                    SimplicialMap(pt, two, {"0": "1.0"})))]
        code, _, err = run_cli(capsys, *argv)
        assert code == 2
        assert "does not commute" in err


class TestCheck:
    def test_builtin_corpus_exit_0(self, capsys):
        code, out, _ = run_cli(capsys, "check")
        assert code == 0
        assert out.count("pass") == 45  # 5 fixtures x 9 laws

    def test_cap_exceeded_exit_3(self, capsys, tmp_path):
        out = tmp_path / "report.txt"
        code, stdout, err = run_cli(capsys, "check", "--cap", "1",
                                    "--out", str(out))
        assert code == 3 and stdout == ""
        assert err == "error: safety cap exceeded; per-stage cell counts: " \
            "3, 3\n"
        assert not out.exists()

    def test_json_format_deterministic(self, capsys):
        code, out1, _ = run_cli(capsys, "check", "--format", "json")
        assert code == 0
        code, out2, _ = run_cli(capsys, "check", "--format", "json")
        assert out1 == out2
        report = json.loads(out1)
        assert all(r["all_pass"] for r in report.values())

    def test_internal_invariant_failure_exit_5(self, capsys, monkeypatch):
        # a free cell reported at the wrong stage fails transpose's check
        monkeypatch.setattr(CellComplex, "stage_of_cell",
                            lambda self, cid: -1)
        code, _, err = run_cli(capsys, "check")
        assert code == 5
        assert err.startswith("internal error: ") and "not at stage" in err
        assert "Traceback" not in err


class TestExportDot:
    def test_trivial_on_edge(self, files, capsys):
        _, write = files
        path = write("c.json", jsonio.cellcx_to_json(
            trivial_complex(standard_simplex(1))))
        code, out, _ = run_cli(capsys, "export-dot", path)
        assert code == 0
        assert out == ('digraph body {\n'
                       '  "0" [color="black"];\n'
                       '  "1" [color="black"];\n'
                       '  "0" -> "1" [label="01" color="black"];\n'
                       '}\n')

    def test_free_complex_body_two_colors(self, files, capsys):
        _, write = files
        fr = free_complex(boundary_inclusion(1))
        path = write("kf.json", jsonio.cellcx_to_json(fr.kf))
        code, out, _ = run_cli(capsys, "export-dot", path)
        assert code == 0
        nodes = [l for l in out.splitlines() if "->" not in l and "color" in l]
        edges = [l for l in out.splitlines() if "->" in l]
        assert len(nodes) == 4 and len(edges) == 4
        colors = {l.split('color="')[1].split('"')[0]
                  for l in nodes + edges}
        assert len(colors) == 3  # base, stage 0, stage 1

    def test_ids_quoted(self, files, capsys):
        x = DeltaComplex({0: ['a"b', "c\\"], 1: ['e"\\']},
                         {'e"\\': ("c\\", 'a"b')})
        _, write = files
        path = write("c.json", jsonio.cellcx_to_json(trivial_complex(x)))
        code, out, _ = run_cli(capsys, "export-dot", path)
        assert code == 0
        assert out == ('digraph body {\n'
                       '  "a\\"b" [color="black"];\n'
                       '  "c\\\\" [color="black"];\n'
                       '  "a\\"b" -> "c\\\\" [label="e\\"\\\\" '
                       'color="black"];\n'
                       '}\n')

    def test_empty_complex(self, files, capsys):
        _, write = files
        path = write("e.json", jsonio.cellcx_to_json(trivial_complex(EMPTY)))
        code, out, _ = run_cli(capsys, "export-dot", path)
        assert code == 0
        assert out == "digraph body {\n}\n"

    def test_lone_surrogate_id_out_exit_2(self, files, capsys):
        # valid JSON ("\ud800") that the loader accepts, but not UTF-8
        tmp, write = files
        path = write("c.json", jsonio.cellcx_to_json(trivial_complex(
            DeltaComplex({0: ["\ud800", "b"]}))))
        out = tmp / "c.dot"
        code, stdout, err = run_cli(capsys, "export-dot", path,
                                    "--out", str(out))
        assert code == 2 and stdout == ""
        assert err == (f"error: {out}: cannot encode the output as utf-8: "
                       "surrogates not allowed\n")
        assert not out.exists()


@pytest.mark.parametrize("vertex", ["\ud800", "\u00e9"])
def test_export_dot_unencodable_stdout_exit_2(tmp_path, vertex):
    """An id that standard output cannot encode is an input error, with no
    traceback.  In a child process, since ``capsys`` accepts any str."""
    path = tmp_path / "c.json"
    path.write_text(jsonio.dumps(jsonio.cellcx_to_json(trivial_complex(
        DeltaComplex({0: [vertex]})))))
    proc = subprocess.run(
        [sys.executable, "-m", "relcell.cli", "export-dot", str(path)],
        capture_output=True, text=True,
        env=dict(os.environ, PYTHONIOENCODING="ascii"))
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith("error: standard output: cannot encode ")
    assert "Traceback" not in proc.stderr


def test_input_read_as_utf_8_in_any_locale(tmp_path):
    """A file is read as UTF-8 under the C locale too, where ``open``
    would decode by ASCII.  In a child process, for its locale."""
    path = tmp_path / "c.json"
    path.write_bytes('{"base": {"simplices": {"0": ["\u00e9"]}}, '
                     '"strata": []}'.encode("utf-8"))
    out = tmp_path / "n.json"
    proc = subprocess.run(
        [sys.executable, "-m", "relcell.cli", "normalize", str(path),
         "--out", str(out)], capture_output=True, text=True,
        env=dict(os.environ, LC_ALL="C", PYTHONUTF8="0"))
    assert (proc.returncode, proc.stderr) == (0, "")
    assert '"\\u00e9"' in out.read_text()


@pytest.mark.parametrize("command, f", [
    ("factor", identity_map(chain_complex(5))),
    ("check", SimplicialMap(EMPTY, chain_complex(9), {})),
], ids=["factor-dim-5-identity", "check-dim-9-chain"])
def test_out_of_memory_exit_3(tmp_path, command, f):
    """A run that exhausts its memory is exit 3 with one error line, not
    a MemoryError traceback.  In a child process, whose address space
    alone is capped, at 300 MB: both runs reach it within seconds."""
    resource = pytest.importorskip("resource")
    if not hasattr(resource, "RLIMIT_AS"):
        pytest.skip("no address-space limit on this platform")
    limit = 300 * 2 ** 20
    path = tmp_path / "f.json"
    path.write_text(jsonio.dumps(jsonio.map_to_json(f)))
    proc = subprocess.run(
        [sys.executable, "-m", "relcell.cli", command, str(path)],
        capture_output=True, text=True, preexec_fn=lambda: resource.setrlimit(
            resource.RLIMIT_AS, (limit, limit)))
    assert proc.returncode == 3 and proc.stdout == ""
    assert proc.stderr.startswith("error: ") and \
        proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr


def test_console_entry_point(tmp_path):
    f = boundary_inclusion(1)
    path = tmp_path / "f.json"
    path.write_text(jsonio.dumps(jsonio.map_to_json(f)))
    proc = subprocess.run(
        [sys.executable, "-m", "relcell.cli", "factor", str(path)],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout == "stage 0: 3 cells; stage 1: 3 cells; height 2\n"
