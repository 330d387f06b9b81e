"""Fail on any line of ``src/relcell`` that Tier-1 does not run.

Usage, from the root of the repository::

    PYTHONPATH=src python tests/unrun_lines.py

One ``sys.settrace`` tracer is installed before anything imports
``relcell``; then the Tier-1 suite runs in this process, about four times as
slowly, and must pass there too.  The tracer makes no function per call (one
local trace function serves every call), so the tests that count reference
cycles with ``gc.collect()`` count only relcell's.  Hypothesis
runs at a fixed seed, so that the lines run do not depend on its draws.

Every executable line of every function and class body (``co_lines()`` of
each code object but the module's own) must have run, or be named in
``ALLOWED`` with the reason it cannot run in process.  An entry is keyed by
module, qualified name and stripped line text, so that it survives edits
elsewhere in the file.  An entry that matches no unrun line is stale and
fails too, so the list only shrinks.  Exit status 0 means Tier-1 passed, no
unrun line is missing from the list and no entry is stale.
"""

import importlib.util
import os
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# (module, qualname, stripped line) -> why Tier-1 never runs it in process
ALLOWED = {
    ("relcell.lifting", "solve_lifting",
     'raise InvariantError("lift does not restrict to the given map")'):
        "the lift starts as a copy of u and only cell ids are added to it, "
        "which a CellComplex keeps apart from its base ids; no mutant of a "
        "callee makes it differ from u on the base",
}


def _package_files():
    """The source files of ``relcell`` as the import system will name them,
    found without importing it."""
    spec = importlib.util.find_spec("relcell")
    if spec is None:
        sys.exit("relcell is not importable; run with PYTHONPATH=src")
    pkg = spec.submodule_search_locations[0]
    if os.path.realpath(pkg) != os.path.realpath(
            os.path.join(REPO, "src", "relcell")):
        sys.exit(f"relcell resolves to {pkg}, not this checkout's src/; "
                 f"run with PYTHONPATH=src")
    return {os.path.join(pkg, name): "relcell" if name == "__init__.py"
            else "relcell." + name[:-3]
            for name in sorted(os.listdir(pkg)) if name.endswith(".py")}


def _code_objects(code):
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            yield const
            yield from _code_objects(const)


def _executable(files):
    """(file, qualname, first line) -> {line: stripped text} of its
    executable lines, for every function and class body."""
    lines = {}
    for path in files:
        with open(path, encoding="utf-8") as fh:
            source = fh.read()
        text = source.splitlines()
        for code in _code_objects(compile(source, path, "exec")):
            lines[code.co_filename, code.co_qualname, code.co_firstlineno] = {
                line: text[line - 1].strip()
                for _, _, line in code.co_lines() if line is not None}
    return lines


def _run_traced(files):
    """Run Tier-1 under the tracer; return its exit status and (file,
    qualname, first line) -> the lines run.  A call counts its first line,
    whose setup instruction has no line event."""
    run = {}

    # one local trace function for every call: a closure made per call
    # would refer to itself, and leave a cycle behind each traced call
    def local(frame, event, arg):
        if event == "line":
            run[frame.f_code].add(frame.f_lineno)
        return local

    def trace(frame, event, arg):
        code = frame.f_code
        if code.co_filename not in files:
            return None
        run.setdefault(code, set()).add(frame.f_lineno)
        return local

    sys.settrace(trace)
    try:
        import pytest
        status = pytest.main(["-q", "-p", "no:cacheprovider",
                              "--hypothesis-seed=0",
                              "--continue-on-collection-errors",
                              os.path.join(REPO, "tests")])
    finally:
        sys.settrace(None)
    keyed = {}
    for code, lines in run.items():
        keyed.setdefault((code.co_filename, code.co_qualname,
                          code.co_firstlineno), set()).update(lines)
    return status, keyed


def main():
    files = _package_files()
    status, run = _run_traced(files)
    executable = _executable(files)
    ran, unrun, missing = set(), set(), []
    for (path, qualname, first), lines in executable.items():
        done = run.get((path, qualname, first), ())
        for line, text in lines.items():
            key = (files[path], qualname, text)
            if line in done:
                ran.add(key)
                continue
            unrun.add(key)
            if key not in ALLOWED:
                missing.append((os.path.relpath(path, REPO), line,
                                qualname, text))
    print(f"\n{sum(map(len, executable.values()))} executable lines in "
          f"src/relcell; {len(ALLOWED)} allowlist entries")
    for path, line, qualname, text in sorted(missing):
        print(f"unrun, not allowlisted: {path}:{line}: {qualname}: {text}")
    stale = [key for key in ALLOWED if key not in unrun]
    for key in stale:
        print(f"stale allowlist entry: {key}: "
              f"{'now runs' if key in ran else 'matches no line'}")
    if status != 0:
        print(f"Tier-1 failed under the tracer: pytest exit status {status}")
    return 1 if missing or stale or status != 0 else 0


if __name__ == "__main__":
    sys.exit(main())
