"""Static checks on the package sources: no dead exports, no unused imports
(in the tests too), and no imports inside a function or a class.

An exported name counts as used when another module under ``src/relcell``
or a test refers to it by name (a bare name, or an imported name); an
attribute of the same name on some other object does not count.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "relcell"
MODULES = {p.stem: ast.parse(p.read_text(encoding="utf-8"), filename=str(p))
           for p in sorted(PACKAGE.glob("*.py"))}
TESTS = {p.stem: ast.parse(p.read_text(encoding="utf-8"), filename=str(p))
         for p in sorted((ROOT / "tests").glob("*.py"))}


def _names_used(tree):
    """Bare names read or bound, and names imported from a module."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.ImportFrom):
            used.update(alias.name for alias in node.names)
    return used


def test_every_export_is_used():
    used_by = {name: _names_used(tree) for name, tree in MODULES.items()}
    used_by_tests = set().union(*map(_names_used, TESTS.values()))
    used_outside = {
        module: used_by_tests.union(*(used for name, used in used_by.items()
                                      if name not in ("__init__", module)))
        for module in MODULES}
    dead = [f"{node.module}.{alias.name}"
            for node in MODULES["__init__"].body
            if isinstance(node, ast.ImportFrom)
            for alias in node.names
            if alias.name not in used_outside[node.module]]
    assert dead == []


def test_no_unused_import():
    unused = []
    # the package's own ``__init__`` is left out: its imports are the exports
    sources = [(name, tree) for name, tree in MODULES.items()
               if name != "__init__"]
    sources += [(f"tests/{name}", tree) for name, tree in TESTS.items()]
    for name, tree in sources:
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update((a.asname or a.name).split(".")[0]
                                for a in node.names)
            elif isinstance(node, ast.ImportFrom) and \
                    node.module != "__future__":
                imported.update(a.asname or a.name for a in node.names)
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        unused += [f"{name}: {n}" for n in sorted(imported - read)]
    assert unused == []


def test_imports_at_module_level():
    scopes = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    imports = (ast.Import, ast.ImportFrom)
    nested = {f"{name}:{node.lineno}"
              for name, tree in MODULES.items()
              for scope in ast.walk(tree) if isinstance(scope, scopes)
              for node in ast.walk(scope) if isinstance(node, imports)}
    assert sorted(nested) == []


def test_subcommands_catch_nothing():
    # ``cli.main`` is the one place where an exception becomes an exit
    # code; a ``try`` in a subcommand would be a second mapping
    cmds = [fn for fn in MODULES["cli"].body
            if isinstance(fn, ast.FunctionDef) and fn.name.startswith("cmd_")]
    tries = [fn.name for fn in cmds
             if any(isinstance(node, ast.Try) for node in ast.walk(fn))]
    assert cmds and tries == []


def _calls(tree, name):
    return [node for node in ast.walk(tree) if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name) and node.func.id == name]


def test_boundary_ids_sorted_in_one_place():
    # the key order of a cell's images and of each boundary lift is
    # ``delta.boundary_keys``; a ``sorted`` over ``boundary_complex`` ids,
    # or over a name bound to one, anywhere else is a second copy of it
    places = []
    for name, tree in MODULES.items():
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            bound = {target.id for node in ast.walk(fn)
                     if isinstance(node, ast.Assign)
                     and _calls(node.value, "boundary_complex")
                     for t in node.targets
                     for target in ast.walk(t)
                     if isinstance(target, ast.Name)}
            for call in _calls(fn, "sorted"):
                if any(_calls(arg, "boundary_complex") or any(
                        isinstance(n, ast.Name) and n.id in bound
                        for n in ast.walk(arg)) for arg in call.args):
                    places.append(f"{name}.{fn.name}")
    assert places == ["delta.boundary_keys"]


def test_image_tuple_facets_read_in_one_place():
    # a cell's images, and a boundary lift's, are in ``boundary_keys``
    # order; facets d_0..d_k are read off them by position only through
    # ``strata._facets``: no ``facet_ids`` lookup and no subscript of an
    # image tuple anywhere else.  ``delta`` defines ``facet_ids`` for its
    # maps.
    def reads_facets(fn):
        return _calls(fn, "facet_ids") or any(
            isinstance(node, ast.Subscript) and (
                isinstance(node.value, ast.Name) and
                node.value.id == "images" or
                isinstance(node.value, ast.Attribute) and
                node.value.attr == "images")
            for node in ast.walk(fn))

    places = sorted(f"{name}.{fn.name}"
                    for name, tree in MODULES.items() if name != "delta"
                    for fn in ast.walk(tree)
                    if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and reads_facets(fn))
    assert places == ["strata._facets"]


def test_strata_builds_no_map():
    # ``Stratum`` checks a cell's attach position by position against a
    # plan per shape; a ``SimplicialMap`` built there, by its constructor
    # or a class method, would be one map per cell again
    def names_map(node):
        return isinstance(node, ast.Name) and node.id == "SimplicialMap" or \
            isinstance(node, ast.Attribute) and (
                node.attr == "SimplicialMap" or names_map(node.value))

    calls = [node.lineno for node in ast.walk(MODULES["strata"])
             if isinstance(node, ast.Call) and names_map(node.func)]
    assert calls == []


def test_one_boundary_lift_search():
    # ``delta._lift_kernel`` is the one search for the boundary lifts of a
    # shape: the factorization's stage and the filler audit call it, and
    # no module but ``delta`` reaches ``enumerate_homs``
    homs = [f"{name}:{node.lineno}" for name, tree in MODULES.items()
            if name not in ("delta", "__init__")
            for node in ast.walk(tree)
            if isinstance(node, ast.Name) and node.id == "enumerate_homs"
            or isinstance(node, ast.alias) and node.name == "enumerate_homs"]
    kernel = sorted(f"{name}.{fn.name}" for name, tree in MODULES.items()
                    for fn in ast.walk(tree)
                    if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and _calls(fn, "_lift_kernel"))
    assert homs == []
    assert kernel == ["lifting.verify_fillers", "soa.k1_step"]


def test_one_way_per_job_in_delta():
    # a map is checked by its constructor or owned through ``_owning``;
    # faces are read off ``faces`` and images off ``assign``, and
    # ``enumerate_homs`` builds its own faces lookup
    classes = {node.name: {fn.name: fn for fn in node.body
                           if isinstance(fn, ast.FunctionDef)}
               for node in MODULES["delta"].body
               if isinstance(node, ast.ClassDef)}
    init = classes["SimplicialMap"]["__init__"].args
    assert [a.arg for a in init.args] == ["self", "dom", "cod", "assign"]
    assert not init.defaults and not init.kwonlyargs
    assert {"by_faces", "face"}.isdisjoint(classes["DeltaComplex"])
    assert "__call__" not in classes["SimplicialMap"]


def test_one_way_per_job_in_cellcx():
    # ``assemble`` is the one normal form and places each cell at its least
    # stage, so what it returns needs no second check; a derived complex is
    # one ``delta`` construction on bodies, its base read off that
    # construction; a stratum's body has one path; and ``soa`` fills each
    # batch of cell ids at once, so the chunk bound is ``jsonio``'s alone
    functions = {name: {fn.name: fn for fn in tree.body
                        if isinstance(fn, ast.FunctionDef)}
                 for name, tree in MODULES.items()}
    assert not any("normalize" in fns for fns in functions.values())
    assert "normalize" not in _names_used(MODULES["__init__"])

    constructions = {"colimit", "coproduct", "coequaliser", "equaliser",
                     "pushout"}
    cellcx = functions["cellcx"]
    for name in ("cellcx_colimit", "cellcx_equaliser"):
        fn = cellcx[name]
        assert not [node for node in ast.walk(fn)
                    if isinstance(node, ast.Attribute) and node.attr == "f0"]
        assert sum(len(_calls(fn, c)) for c in constructions) == 1
    validating = [name for name, fn in cellcx.items()
                  for node in ast.walk(fn)
                  if isinstance(node, ast.Attribute)
                  and node.attr == "_validate"]
    assert validating == []

    chunk = sorted(name for name, tree in MODULES.items()
                   for node in ast.walk(tree) if isinstance(node, ast.Assign)
                   for target in node.targets
                   if isinstance(target, ast.Name) and target.id == "_CHUNK")
    assert chunk == ["jsonio"]

    branches = [node.lineno for node in ast.walk(functions["strata"]["body"])
                if isinstance(node, (ast.If, ast.IfExp)) and any(
                    isinstance(n, ast.Attribute) and n.attr == "cells"
                    for n in ast.walk(node.test))]
    assert branches == []
