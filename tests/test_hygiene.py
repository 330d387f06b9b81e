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


_STRUCTURE = "the paper's category structure"
_PERFBENCH = "perfbench reads it; it moves with item 19 after item 18"

# the top-level names that no ``src/`` code calls, each kept on purpose
PUBLIC_API = {
    "cellcx.cellcx_coproduct": _STRUCTURE,
    "cellcx.cellcx_equaliser": _STRUCTURE,
    "cellcx.compose_morphisms": _STRUCTURE,
    "cellcx.generator_complex": _STRUCTURE,
    "cellcx.horizontal_compose": _STRUCTURE,
    "cellcx.identity_morphism": _STRUCTURE,
    "cellcx.is_isomorphism": _STRUCTURE,
    "cellcx.pushforward_complex": _STRUCTURE,
    "cellcx.trivial_complex": _STRUCTURE,
    "cellcx.u_of_morphism": _STRUCTURE,
    "delta.is_pullback": _STRUCTURE,
    "soa.composite_left_map": _STRUCTURE,
    "soa.decode": _STRUCTURE,
    "soa.monad_unit": _STRUCTURE,
    "soa.pushforward_left_map": _STRUCTURE,
    "lifting.free_fillers": _STRUCTURE,
    "lifting.verify_fillers": "a public audit of a filler table",
    "jsonio.factor_result_from_json": "a public loader",
    "jsonio.filler_table_to_json": "the only writer of the filler-table "
                                   "format that relcell lift reads",
    "jsonio.factor_result_to_json": "a reference emitter that perfbench "
                                    "reads; it moves to tests/ with item 8 "
                                    "after item 18",
    "delta.enumerate_homs": _PERFBENCH,
    "delta.mec": _PERFBENCH,
    "gen.rand_map": _PERFBENCH,
}


def test_every_name_has_a_caller_or_a_reason():
    # a top-level function or class that no other ``src/`` code names, as
    # a bare name or an attribute of a package module, is public API with
    # its reason, or dead; a listed name that gains a caller leaves the list
    modules = {name: tree for name, tree in MODULES.items()
               if name != "__init__"}

    def names(node):
        return {n.id if isinstance(n, ast.Name) else n.attr
                for n in ast.walk(node) if isinstance(n, ast.Name) or
                isinstance(n, ast.Attribute) and
                isinstance(n.value, ast.Name) and n.value.id in modules}

    tops = [(name, node, names(node)) for name, tree in modules.items()
            for node in tree.body]
    uncalled = [f"{name}.{node.name}" for name, node, _ in tops
                if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and
                not any(node.name in used
                        for _, other, used in tops if other is not node)]
    assert sorted(uncalled) == sorted(PUBLIC_API)


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
    # a complex too: ``DeltaComplex`` checks, ``_extended`` builds unchecked
    init = classes["DeltaComplex"]["__init__"].args
    assert [a.arg for a in init.args] == ["self", "simplices", "faces"]
    assert not init.kwonlyargs


def _functions():
    """Each module-level function and method, by qualified name; a nested
    function counts as part of the one that holds it."""
    functions = [(f"{name}.{fn.name}", fn) for name, tree in MODULES.items()
                 for fn in tree.body if isinstance(fn, ast.FunctionDef)]
    functions += [(f"{name}.{cls.name}.{fn.name}", fn)
                  for name, tree in MODULES.items()
                  for cls in tree.body if isinstance(cls, ast.ClassDef)
                  for fn in cls.body if isinstance(fn, ast.FunctionDef)]
    return functions


def test_each_value_is_checked_once():
    # a value is checked where it is built: ``_validate`` runs from a
    # constructor, and from the loader that builds a complex unchecked to
    # compare it with its twin first; never on a value built already.
    # ``Stratum`` and ``CellComplexMorphism`` check in the constructor itself
    callers = sorted(qualname for qualname, fn in _functions()
                     for node in ast.walk(fn) if isinstance(node, ast.Call)
                     and isinstance(node.func, ast.Attribute)
                     and node.func.attr == "_validate")
    assert callers == ["cellcx.CellComplex.__init__",
                       "delta.DeltaComplex.__init__",
                       "delta.SimplicialMap.__init__",
                       "jsonio.complex_from_json"]


def _builds_unchecked(node):
    """A call that makes an instance without running its ``__init__``."""
    return isinstance(node, ast.Call) and (
        isinstance(node.func, ast.Name) and node.func.id == "_new" or
        isinstance(node.func, ast.Attribute) and node.func.attr == "__new__")


def test_checked_or_owned():
    # no value has a ``validate`` flag: each constructor always checks, and
    # the unchecked builders are ``DeltaComplex._extended`` and one
    # ``_owning`` class method per class, for values valid by construction
    flagged = sorted(f"{name}:{fn.lineno}" for name, tree in MODULES.items()
                     for fn in ast.walk(tree)
                     if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef,
                                        ast.Lambda))
                     and "validate" in {a.arg for a in (
                         fn.args.posonlyargs + fn.args.args +
                         fn.args.kwonlyargs)})
    assert flagged == []
    classes = {f"{name}.{node.name}": {fn.name: fn for fn in node.body
                                       if isinstance(fn, ast.FunctionDef)}
               for name, tree in MODULES.items() for node in tree.body
               if isinstance(node, ast.ClassDef)}
    for cls, params in (("strata.Stratum", ["boundary", "cells"]),
                        ("cellcx.CellComplex", ["boundary", "strata"]),
                        ("cellcx.CellComplexMorphism",
                         ["dom", "cod", "body_map"])):
        init = classes[cls]["__init__"].args
        assert [a.arg for a in init.args] == ["self", *params]
        assert not init.defaults and not init.kwonlyargs
        owning = classes[cls]["_owning"]
        assert [a.arg for a in owning.args.args] == ["cls", *params]
        assert [d.id for d in owning.decorator_list] == ["classmethod"]
    builders = sorted(qualname for qualname, fn in _functions()
                      if any(map(_builds_unchecked, ast.walk(fn))))
    assert builders == ["cellcx.CellComplex._owning",
                        "cellcx.CellComplexMorphism._owning",
                        "delta.DeltaComplex._extended",
                        "delta.SimplicialMap._owning",
                        "strata.Stratum._owning"]
    owners = sorted(qualname for qualname, _ in _functions()
                    if qualname.endswith("._owning"))
    assert owners == [b for b in builders if b.endswith("._owning")]
    # at module level, only ``EMPTY``, which every other complex extends
    by_hand = [f"{name}: {ast.unparse(stmt)}"
               for name, tree in MODULES.items() for stmt in tree.body
               if not isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
               and any(map(_builds_unchecked, ast.walk(stmt)))]
    assert by_hand == ["delta: EMPTY = _new(DeltaComplex)"]


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


def test_no_value_keeps_a_key():
    # ``==`` and the hash read content, so no ``delta`` class has a slot
    # for a canonical key or a ``key`` method; the map digest builds the
    # sorted form it hashes itself
    classes = [node for node in MODULES["delta"].body
               if isinstance(node, ast.ClassDef)]
    slots = {node.name: ast.literal_eval(stmt.value) for node in classes
             for stmt in node.body if isinstance(stmt, ast.Assign)
             and [t.id for t in stmt.targets] == ["__slots__"]}
    assert {"DeltaComplex", "SimplicialMap"} <= slots.keys()
    assert not [name for name, names in slots.items() if "_key" in names]
    assert not [node.name for node in classes for fn in node.body
                if isinstance(fn, ast.FunctionDef) and fn.name == "key"]
    callers = [f"{name}:{node.lineno}" for name, tree in MODULES.items()
               for node in ast.walk(tree) if isinstance(node, ast.Call)
               and isinstance(node.func, ast.Attribute)
               and node.func.attr == "key"]
    assert callers == []


def test_each_fact_has_one_owner():
    functions = dict(_functions())
    # the identifier inclusion is built by ``delta._id_inclusion`` alone
    identity = sorted(
        qualname for qualname, fn in functions.items()
        for node in ast.walk(fn) if isinstance(node, ast.DictComp)
        and len(node.generators) == 1
        and isinstance(node.generators[0].target, ast.Name)
        and {ast.dump(node.key), ast.dump(node.value)} ==
        {ast.dump(ast.Name(node.generators[0].target.id, ast.Load()))})
    assert identity == ["delta._id_inclusion"]
    # every grade is a sorted tuple already; only the reference emitter,
    # the oracle ``jsonio.document`` is tested against, sorts one
    sorts = sorted(qualname for qualname, fn in functions.items()
                   for call in _calls(fn, "sorted")
                   for node in ast.walk(call)
                   if isinstance(node, ast.Call)
                   and isinstance(node.func, ast.Attribute)
                   and node.func.attr == "ids")
    assert sorts == ["jsonio.complex_to_json"]
    # ``_emit`` writes one document; a second output is a second call
    emit = functions["cli._emit"].args
    assert [a.arg for a in emit.args] == ["text", "out_path"]
    assert [ast.literal_eval(d) for d in emit.defaults] == [None]
    assert not (emit.posonlyargs or emit.kwonlyargs or emit.vararg or
                emit.kwarg)
    # one default height cap, ``soa.DEFAULT_CAP``, read by all three
    caps = [f"{name}: {ast.unparse(stmt)}" for name, tree in MODULES.items()
            for stmt in tree.body if isinstance(stmt, ast.Assign)
            and "DEFAULT_CAP" in map(ast.unparse, stmt.targets)]
    assert caps == ["soa: DEFAULT_CAP = 32"]
    defaults = [ast.unparse(functions[name].args.defaults[-1])
                for name in ("soa.free_complex", "soa.Factorizer.__init__")]
    defaults += [ast.unparse(kw.value) for node in ast.walk(MODULES["cli"])
                 if isinstance(node, ast.Call)
                 and isinstance(node.func, ast.Attribute)
                 and node.func.attr == "add_argument"
                 and ast.literal_eval(node.args[0]) == "--cap"
                 for kw in node.keywords if kw.arg == "default"]
    assert defaults == ["DEFAULT_CAP"] * 3


# the types a value's input is checked against: ids, dimensions, a map's
# endpoints and a cell complex's strata
_INPUT_TYPES = {"str", "int", "DeltaComplex", "Stratum"}
# and the containers a constructor takes them in
_CONTAINERS = {"dict", "list", "tuple"}


def _types_tested(fn, types=_INPUT_TYPES):
    """The input types ``fn`` tests a value against: by ``isinstance``
    (also mapped), by ``type(x) is`` or ``is not``, or, for ``str``, by
    ``_strings``."""
    names = set()
    for node in ast.walk(fn):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            args = node.args
            if node.func.id == "map" and args and isinstance(
                    args[0], ast.Name) and args[0].id == "isinstance":
                args = args[1:]
            elif node.func.id == "_strings":
                names.add("str")
                continue
            elif node.func.id != "isinstance":
                continue
            names.update(n.id for arg in args[1:] for n in ast.walk(arg)
                         if isinstance(n, ast.Name))
        elif isinstance(node, ast.Compare) and \
                isinstance(node.ops[0], (ast.Is, ast.IsNot)) and \
                _calls(node.left, "type"):
            names.update(n.id for n in node.comparators
                         if isinstance(n, ast.Name))
    return sorted(names & types)


def test_one_owner_of_each_input_type_check():
    # each value kind's input contract is one private check in the module
    # that owns the kind, which its constructor runs and the JSON loaders
    # reach; the loaders hold no type check of their own.  ``__eq__``
    # tests the other operand, not an input.
    owners = {qualname: types for qualname, fn in _functions()
              if not qualname.endswith(".__eq__")
              for types in [_types_tested(fn)] if types}
    assert owners == {
        # complexes, maps, cells, cell complexes and filler tables
        "delta._checked_faces": ["int", "str"],
        "delta.SimplicialMap._validate": ["DeltaComplex", "str"],
        "strata._boundary_ids": ["int"],
        "strata._cells": ["DeltaComplex", "str"],
        "cellcx.CellComplex.__init__": ["DeltaComplex", "Stratum"],
        "lifting._check_entry": ["int", "str"],
        # a callable fallback's answer, which must be an id
        "lifting.FillerTable._fill": ["str"],
        # writers, which pick how to write a value by its type
        "jsonio._walk": ["int", "str"],
        "jsonio._records": ["str"],
        "cli._emit": ["str"],
        # a factorization's stage counts, which no constructor takes: JSON
        # integers, not ``true`` or ``1.0``
        "jsonio.factor_result_from_json": ["int"],
    }
    # the argument containers are checked by the same owners; ``jsonio``,
    # left out, checks JSON shape and writes a value by its container
    containers = {qualname: types for qualname, fn in _functions()
                  if not qualname.startswith("jsonio.")
                  for types in [_types_tested(fn, _CONTAINERS)] if types}
    assert containers == {
        "delta._checked_faces": ["dict", "list", "tuple"],
        "delta.SimplicialMap._validate": ["dict"],
        "strata._cells": ["list", "tuple"],
        "cellcx.CellComplex.__init__": ["list", "tuple"],
        "lifting._check_entry": ["tuple"],
    }
