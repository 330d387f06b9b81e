"""Static checks on the package sources: no dead exports, no unused imports,
and no imports inside a function or a class.

An exported name counts as used when another module under ``src/relcell``
or a test refers to it by name (a bare name, or an imported name); an
attribute of the same name on some other object does not count.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "relcell"
MODULES = {p.stem: ast.parse(p.read_text(), filename=str(p))
           for p in sorted(PACKAGE.glob("*.py"))}
TESTS = [ast.parse(p.read_text(), filename=str(p))
         for p in sorted((ROOT / "tests").glob("*.py"))]


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
    used_by_tests = set().union(*map(_names_used, TESTS))
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
    for name, tree in MODULES.items():
        if name == "__init__":  # its imports are the exports
            continue
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
