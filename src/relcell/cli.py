"""Command-line interface.

Subcommands: factor, compose, normalize, pushout, lift, check, export-dot.
Exit codes: 0 success, 2 input error, 3 safety cap exceeded or memory run
out, 4 law or lifting failure, 5 internal error (a failed internal
invariant).  All output is deterministic for fixed inputs and seed.
"""

from __future__ import annotations

import argparse
import errno
import functools
import json
import os
import random
import stat
import sys

from .delta import (
    MAX_DIM,
    DeltaError,
    EMPTY,
    InvariantError,
    SimplicialMap,
    boundary_complex,
    coproduct,
    identity_map,
    inclusion_map,
    pushout,
    standard_simplex,
)
from .cellcx import assemble, compose_complexes
from .soa import (DEFAULT_CAP, CapExceededError, Factorizer, _Escapes,
                  check_awfs_laws, free_complex)
from .lifting import LiftError, solve_lifting
from .gen import rand_nat_square
from . import jsonio

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_BUDGET = 3
EXIT_LAW = 4
EXIT_INTERNAL = 5

_PALETTE = ("black", "firebrick", "royalblue", "forestgreen", "darkorange",
            "purple", "saddlebrown", "deeppink")


def _load(path, loader):
    try:
        with open(path, encoding="utf-8") as fh:
            return loader(json.load(fh))
    except OSError as err:
        raise _InputError(f"{path}: {err.strerror or err}") from err
    except json.JSONDecodeError as err:
        raise _InputError(
            f"{path}: invalid JSON at line {err.lineno} column "
            f"{err.colno}: {err.msg}") from err
    except UnicodeDecodeError as err:
        raise _InputError(f"{path}: cannot decode text: {err.reason}") from err
    except RecursionError as err:
        raise _InputError(f"{path}: JSON nested too deeply") from err
    except ValueError as err:  # a DeltaError, or an int past the digit limit
        raise _InputError(f"{path}: {err}") from err


class _InputError(Exception):
    pass


def _factorable_map(obj):
    """A map loaded for factoring: its codomain, which fixes the largest
    cell dimension, must stay within the supported dimensions."""
    f = jsonio.map_from_json(obj)
    if f.cod.max_dim > MAX_DIM:
        raise DeltaError(f"the codomain has dimension {f.cod.max_dim}; "
                         f"maps are factored up to dimension {MAX_DIM} only")
    return f


def _check_out(out_path):
    """Reject, before any input is read, an ``--out`` path whose parent is
    missing or not a directory, or which is a directory.  The file is still
    written only once the output is ready, so a run that fails before its
    output leaves none."""
    parent = os.path.dirname(out_path) or "."
    try:
        if not stat.S_ISDIR(os.stat(parent).st_mode):
            raise OSError(errno.ENOTDIR, os.strerror(errno.ENOTDIR))
        if os.path.isdir(out_path):
            raise OSError(errno.EISDIR, os.strerror(errno.EISDIR))
    except OSError as err:
        raise _InputError(f"{out_path}: {err.strerror}") from err


def _emit(text, out_path=None):
    """Write one document, a ``str`` or the ASCII bytes chunks of
    ``jsonio.document``, to ``out_path`` or to standard output.  A file
    gets the chunks by ``writelines``, never joined or encoded again, or
    the ``str`` as UTF-8.  A ``str`` is encoded first, so one that cannot
    be (an id holding a lone surrogate) is an input error that opens and
    writes nothing.  Standard output is flushed here, so a failed write (a
    full disk, a closed pipe) is an input error too, not one deferred to
    the interpreter's exit."""
    if type(text) is str:
        encoding = "utf-8" if out_path else sys.stdout.encoding or "utf-8"
        try:
            chunks = [text.encode(encoding)]
        except UnicodeEncodeError as err:
            raise _InputError(f"{out_path or 'standard output'}: cannot "
                              f"encode the output as {encoding}: "
                              f"{err.reason}") from err
        texts = [text]
    else:
        chunks, texts = text, map(bytes.decode, text)
    try:
        if out_path:
            with open(out_path, "wb") as fh:
                fh.writelines(chunks)
        else:
            for part in texts:
                sys.stdout.write(part)
            sys.stdout.flush()
    except OSError as err:
        if not out_path:
            _discard_stdout()
        raise _InputError(f"{out_path or 'standard output'}: "
                          f"{err.strerror or err}") from err


def _discard_stdout():
    """Point standard output's descriptor at the null device.  A failed
    write leaves its bytes in the stream's buffer, and the interpreter
    flushes that buffer again at exit; this lets that flush succeed, so
    the failure is reported once, by ``_emit``.  A stream with no
    descriptor is left as it is."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError, ValueError):
        return
    null = os.open(os.devnull, os.O_WRONLY)
    try:
        os.dup2(null, fd)
    finally:
        os.close(null)


def builtin_fixtures():
    """The built-in law-check corpus of maps, in a fixed order."""
    pt = standard_simplex(0)
    two, _ = coproduct([pt, pt])
    d1 = standard_simplex(1)
    return [
        ("empty-to-point", SimplicialMap(EMPTY, pt, {})),
        ("boundary-1", inclusion_map(boundary_complex(1), d1)),
        ("fold", SimplicialMap(two, pt, {s: "0" for s in two.id_set})),
        ("boundary-2", inclusion_map(boundary_complex(2),
                                     standard_simplex(2))),
        ("identity-1", identity_map(d1)),
    ]


# -- subcommands ------------------------------------------------------------


def cmd_factor(args):
    f = _load(args.map, _factorable_map)
    escape = _Escapes().__getitem__  # one memo for the ids and the file
    fr = free_complex(f, safety_cap=args.cap, escape=escape)
    summary = "; ".join([*(f"stage {n}: {c} cell" + ("s" if c != 1 else "")
                           for n, c in enumerate(fr.stage_counts)),
                         f"height {fr.kf.height}"]) + "\n"
    if args.format == "json":
        summary = jsonio.dumps({"stage_counts": fr.stage_counts,
                                "height": fr.kf.height})
    if args.out:  # the file first: a failed write prints no counts
        _emit(jsonio.document(fr, escape), args.out)
    _emit(summary)
    return EXIT_OK


def cmd_compose(args):
    a = _load(args.first, jsonio.cellcx_from_json)
    b = _load(args.second, jsonio.cellcx_from_json)
    _emit(jsonio.document(compose_complexes(a, b)), args.out)
    return EXIT_OK


def cmd_normalize(args):
    c = _load(args.complex,
              lambda obj: assemble(*jsonio.cellcx_cells_from_json(obj)))
    _emit(jsonio.document(c), args.out)
    return EXIT_OK


def cmd_pushout(args):
    f = _load(args.first, jsonio.map_from_json)
    g = _load(args.second, jsonio.map_from_json)
    total, px, py = pushout(f, g)
    _emit(jsonio.document({"complex": total, "leg_first": px,
                           "leg_second": py}), args.out)
    return EXIT_OK


def cmd_lift(args):
    c = _load(args.complex, jsonio.cellcx_from_json)
    ft = _load(args.table, jsonio.filler_table_from_json)
    u = _load(args.top, jsonio.map_from_json)
    v = _load(args.bottom, jsonio.map_from_json)
    _emit(jsonio.document(solve_lifting(c, ft, (u, v))), args.out)
    return EXIT_OK


def cmd_check(args):
    fixtures = builtin_fixtures()
    for i, path in enumerate(args.maps):
        fixtures.append((f"input-{i}", _load(path, _factorable_map)))
    rng = random.Random(args.seed)
    fz = Factorizer(args.cap)
    results = {}
    ok = True
    for name, f in fixtures:
        squares = [rand_nat_square(rng, f) for _ in range(5)]
        rep = check_awfs_laws(f, squares, factorizer=fz)
        results[name] = rep
        ok = ok and rep["all_pass"]
    if args.format == "json":
        out = jsonio.dumps(results)
    else:
        lines = []
        for name, rep in results.items():
            for law, passed in rep["laws"].items():
                lines.append(f"{name}: {law}: "
                             f"{'pass' if passed else 'FAIL'}")
        out = "\n".join(lines) + "\n"
    _emit(out, args.out)
    return EXIT_OK if ok else EXIT_LAW


def cmd_export_dot(args):
    c = _load(args.complex, jsonio.cellcx_from_json)
    body = c.body

    def stage_of(s):
        return 0 if s in c.boundary else c.stage_of_cell(s) + 1

    def color(n):
        return _PALETTE[n % len(_PALETTE)]

    def quote(s):
        return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'

    lines = ["digraph body {"]
    for v in body.ids(0):
        lines.append(f'  {quote(v)} [color="{color(stage_of(v))}"];')
    for e in body.ids(1):
        d0, d1 = body.faces_of(e)
        lines.append(f'  {quote(d1)} -> {quote(d0)} [label={quote(e)} '
                     f'color="{color(stage_of(e))}"];')
    lines.append("}")
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


# -- entry point -------------------------------------------------------------


# Built once per process: parsing never changes the parser.
@functools.lru_cache(maxsize=None)
def build_parser():
    parser = argparse.ArgumentParser(
        prog="relcell",
        description="Relative cell complexes: factor, compose, lift, check.")
    sub = parser.add_subparsers(dest="command", required=True)

    def factoring(p):
        p.add_argument("--cap", type=int, default=DEFAULT_CAP,
                       help="safety cap on factorization height (>= 1)")
        p.add_argument("--format", choices=("json", "text"), default="text")

    def out(p):
        p.add_argument("--out", default=None, help="output file path")

    p = sub.add_parser("factor", help="free factorization of a map")
    p.add_argument("map")
    factoring(p)
    out(p)
    p.set_defaults(func=cmd_factor)

    p = sub.add_parser("compose", help="compose two cell complexes")
    p.add_argument("first")
    p.add_argument("second")
    out(p)
    p.set_defaults(func=cmd_compose)

    p = sub.add_parser("normalize",
                       help="renormalize a stratum sequence to proper form")
    p.add_argument("complex")
    out(p)
    p.set_defaults(func=cmd_normalize)

    p = sub.add_parser("pushout", help="pushout of two maps with one domain")
    p.add_argument("first")
    p.add_argument("second")
    out(p)
    p.set_defaults(func=cmd_pushout)

    p = sub.add_parser("lift",
                       help="solve a lifting square against a filler table")
    p.add_argument("complex")
    p.add_argument("table")
    p.add_argument("top")
    p.add_argument("bottom")
    out(p)
    p.set_defaults(func=cmd_lift)

    p = sub.add_parser("check", help="run the factorization law suite")
    p.add_argument("maps", nargs="*")
    factoring(p)
    p.add_argument("--seed", type=int, default=0)
    out(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("export-dot",
                       help="emit the body's vertex/edge graph as DOT")
    p.add_argument("complex")
    out(p)
    p.set_defaults(func=cmd_export_dot)
    return parser


def main(argv=None):
    """Run one subcommand: the one place where an exception becomes an
    exit code.  A DeltaError other than a LiftError is an input error; a
    run out of memory, like one past its safety cap, is exit 3."""
    args = build_parser().parse_args(argv)
    try:
        if "cap" in args and args.cap < 1:
            raise _InputError("--cap must be >= 1")
        if getattr(args, "out", None):
            _check_out(args.out)
        return args.func(args)
    except LiftError as err:
        payload = {"error": str(err), "square": list(err.square or ())}
        print(json.dumps(payload, sort_keys=True, default=list),
              file=sys.stderr)
        return EXIT_LAW
    except (_InputError, DeltaError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INPUT
    except (CapExceededError, MemoryError) as err:
        print(f"error: {str(err) or 'out of memory'}", file=sys.stderr)
        return EXIT_BUDGET
    except InvariantError as err:
        print(f"internal error: {err}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
