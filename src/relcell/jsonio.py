"""JSON serialization for every value the command-line interface handles.

All emitters produce deterministic structures (sorted keys, sorted id
lists); ``dumps`` fixes the byte-level format, which is exactly
``json.dumps(obj, sort_keys=True, indent=2) + "\\n"``.  With ``indent`` set,
``json`` encodes in pure Python, so one Python walk of this module's own
(``_walk``) writes every document, and writes strings, ints, bools and
lists of records itself (see ``dumps``).  ``dumps`` of an emitter's value
(``complex_to_json``, ``map_to_json``, ``cellcx_to_json``,
``factor_result_to_json``) stays the reference format, and writes reports.
The complexes, maps, cell complexes and factorizations that the CLI writes
go through ``document``, the same walk over a skeleton of the value whose
simplices, cells and assignments are written from their shape without
building the JSON value: one ``%`` fill per chunk of records, each id
escaped once per document, or once per ``factor`` run with the memo its
factorization filled.  The fills are ASCII bytes, half the cost of a
``str`` fill per slot, since an escaped id is ASCII, and the document is
the list of them, never decoded on its way to a file.  Loaders validate
through the ordinary constructors and raise DeltaError subclasses on bad
input; a complex that a factorization repeats is the object it repeats,
or validated if unequal.
"""

from __future__ import annotations

import functools
import itertools
import json
import operator

from .delta import (
    EMPTY,
    DeltaComplex,
    DeltaError,
    SimplicialMap,
    boundary_keys,
    composes_to,
)
from .strata import Stratum, body
from .cellcx import CellComplex, u_of_complex
from .lifting import FillerTable, square_key
from .soa import FactorResult, _Escapes, cell_index


_encode = json.JSONEncoder().encode
_quote = json.encoder.encode_basestring_ascii


@functools.lru_cache(maxsize=None)
def _level(n):
    """The line break and indent of items ``n`` levels deep."""
    return "\n" + "  " * n


class _Leaf(tuple):
    """A shaped leaf ``(brackets, items)`` of a ``document`` skeleton,
    whose ``items(n)`` yields the ASCII bytes of its items ``n`` levels
    deep, a chunk of items per ``bytes``, each item led by a comma but the
    first, led by the opening bracket.  A type of its own, since a plain
    tuple is a JSON array."""


def _walk(node, n, out):
    """Append the text of a dict, list, tuple or leaf whose items are ``n``
    levels deep: its items, each led by a comma that then becomes the
    opening bracket, or the empty container; a list of records as
    ``_records`` writes it.  Every piece is a ``str`` but a leaf's chunks:
    ASCII bytes, the first opened by the leaf."""
    start = len(out)
    if type(node) is _Leaf:
        brackets, items = node
        out.extend(items(n))
        out.append(_level(n - 1) + brackets[1] if len(out) > start
                   else brackets)
        return
    lead, inner = "," + _level(n), _level(n + 1)
    is_dict = isinstance(node, dict)
    brackets = "{}" if is_dict else "[]"
    items = (sorted(node.items()) if is_dict else
             () if _records(node, n, out) else enumerate(node))
    for k, v in items:
        head = lead + _quote(k) + ": " if is_dict else lead
        if type(v) is str:
            out.append(head + _quote(v))
        elif type(v) is int:
            out.append(head + int.__repr__(v))
        elif type(v) is bool:
            out.append(head + ("true" if v else "false"))
        # two ``is`` tests: ``in (list, tuple)`` builds a tuple per value
        elif (type(v) is list or type(v) is tuple) and v and _strings(v):
            out.append(head + "[" + inner + ("," + inner).join(
                map(_quote, v)) + _level(n) + "]")
        elif isinstance(v, (dict, list, tuple)):
            out.append(head)
            _walk(v, n + 1, out)
        else:
            out.append(head + _encode(v))
    if len(out) == start:
        out.append(brackets)
    else:
        out[start] = brackets[0] + out[start][1:]
        out.append(_level(n - 1) + brackets[1])


def dumps(obj):
    """The canonical byte format: exactly
    ``json.dumps(obj, sort_keys=True, indent=2) + "\\n"``.

    ``json`` falls back to its pure-Python encoder whenever ``indent`` is
    set, which made writing a factorization cost more than computing it.
    Here one Python walk writes dicts, lists and tuples, a non-empty list
    or tuple of strings (a simplex's faces, a vertex grade) in one piece,
    and writes a ``str`` by ``json``'s ASCII string escaper, an ``int`` by
    ``int.__repr__`` and a ``bool`` as ``true`` or ``false``, as ``json``
    writes them, and a list of records (a grade of simplices) by
    ``_records``, one ``%`` fill per chunk.  Floats, ``None`` and
    subclasses (``IntEnum``, a ``str`` subclass) outside those lists go
    through one module-level ``json`` encoder.  Dict keys must be strings,
    as every emitter here makes them; any other key raises TypeError
    rather than change the bytes.
    """
    if not isinstance(obj, (dict, list, tuple)):
        return _encode(obj) + "\n"
    out = []
    _walk(obj, 1, out)
    out.append("\n")
    return "".join(out)


# -- shape writers -----------------------------------------------------------
#
# ``document`` writes ``dumps`` of a skeleton of a value's ``*_to_json``:
# its dicts and lists, except that each container of simplices, cells or
# assignment entries is a ``_Leaf``.  A leaf is written ``_CHUNK`` records
# at a time, each chunk by one ``%`` fill of its records' templates joined:
# a template cached per (shape, depth) for simplices and cells, repeated
# once per run of same-shape cells, and one per depth for assignment
# entries.  ``dumps`` writes a list of records so too, filled with its
# strings, escaped, from one ``_record`` template.  The chunk bounds the
# transient text of a large leaf or list: one fill per leaf raised the
# ``factor`` workload's peak memory by 11%.  A leaf's fill arguments are
# its records' ids as JSON text, read from one memo, so each id is escaped
# once.  Its templates and arguments are ASCII bytes, since an escaped id
# is ASCII: a bytes ``%`` costs about half a ``str`` one per slot, and a
# chunk is never decoded on its way to a file.  Ids and strings are ``%``
# arguments, never template text, and template text writes a literal ``%``
# as ``%%``, so no id is parsed as a format.

_CHUNK = 256  # records per fill


def _record(shape, n):
    """The ``%`` template of a record as a list item ``n`` levels deep: a
    slot per string of a dict whose ``shape`` lists its keys in order, each
    with the length of its list of strings, or None for a string."""
    i, j, lead = _level(n + 1), _level(n + 2), _level(n)
    fields = [_quote(key).replace("%", "%%") + ": " +
              ("%s" if m is None else "[" + ",".join([j + "%s"] * m) + i + "]")
              for key, m in shape]
    return "," + lead + "{" + i + ("," + i).join(fields) + lead + "}"


def _records(node, n, out):
    """Append a list of records ``n`` levels deep a ``_CHUNK`` per piece,
    and return True; for any other list or tuple, append nothing and
    return False.  Records are plain dicts of one set of string keys, each
    value a string, or a non-empty list of strings of one length per key."""
    first = node[0] if node else None
    if type(first) is not dict or not first or not _strings(first):
        return False
    # 0 marks a value that is neither a string nor a non-empty list, so a
    # list of cells, whose attach is a dict, is given up at its first
    shape = [(key, len(v) if type(v) is list else
              None if isinstance(v, str) else 0)
             for key, v in sorted(first.items())]
    if any(m == 0 for _, m in shape):
        return False
    keys, args = first.keys(), []
    for d in node:
        if type(d) is not dict or d.keys() != keys:
            return False
        for key, m in shape:
            v = d[key]
            if m is None:
                args.append(v)
            elif type(v) is list and len(v) == m:
                args.extend(v)
            else:
                return False
    if not all(map(isinstance, args, itertools.repeat(str))):
        return False
    item, slots = _record(shape, n), len(args) // len(node)
    for i in range(0, len(args), slots * _CHUNK):
        chunk = tuple(map(_quote, args[i:i + slots * _CHUNK]))
        out.append(item * (len(chunk) // slots) % chunk)
    return True


@functools.lru_cache(maxsize=None)
def _template(k, n, cell):
    """A k-simplex, or a k-cell, as a list item ``n`` levels deep: the
    ``%`` template of its faces, or of its attach images in the order of
    ``boundary_keys(k)`` (digits, so no ``%``), then its id, as ASCII
    bytes.  A simplex is the record ``{"faces": [k + 1 slots], "id":
    slot}``."""
    if not cell:
        return _record((("faces", k + 1), ("id", None)), n).encode()
    i, j, lead = _level(n + 1), _level(n + 2), _level(n)
    attach = ",".join(j + _quote(s) + ": %s" for s in boundary_keys(k))
    head = f'"attach": {{{attach + i if attach else ""}}},{i}"dim": {k},'
    return f',{lead}{{{i}{head}{i}"id": %s{lead}}}'.encode()


def _leaf(brackets, records, template, ids, quote):
    """A leaf of ``records`` (a sequence), written a chunk at a time: the
    chunk's ``template(chunk, n)`` filled with the texts, by ``quote``, of
    the ids ``ids(chunk)`` lists in the template's slot order, all ASCII
    bytes.  The first chunk's leading comma becomes the opening
    bracket."""
    opening = brackets[0].encode()

    def items(n):
        for i in range(0, len(records), _CHUNK):
            chunk = records[i:i + _CHUNK]
            text = template(chunk, n) % tuple(map(quote, ids(chunk)))
            yield text if i else opening + text[1:]

    return _Leaf((brackets, items))


def _complex(x, quote):
    faces = x.faces

    def ids(chunk):
        out = []
        for s in chunk:
            out.extend(faces[s])
            out.append(s)
        return out

    def simplices(k):
        return _leaf("[]", x.ids(k),
                     lambda chunk, n: _template(k, n, False) * len(chunk),
                     ids, quote)

    return {"simplices": {str(k): simplices(k) if k else x.ids(0)
                          for k in range(x.max_dim + 1)}}


def _map(f, quote):
    assign = f.assign.__getitem__

    def grade(ids):
        return _leaf("{}", ids,
                     lambda chunk, n: (b"," + _level(n).encode() +
                                       b"%s: %s") * len(chunk),
                     lambda chunk: itertools.chain.from_iterable(
                         zip(chunk, map(assign, chunk))),
                     quote)

    return {"assign": {str(k): grade(ids)
                       for k, ids in f.dom.simplices.items()},
            "cod": _complex(f.cod, quote), "dom": _complex(f.dom, quote)}


def _cell_template(chunk, n):
    return b"".join([_template(k, n, True) * len(list(run)) for k, run in
                     itertools.groupby(chunk, operator.itemgetter(1))])


def _cell_ids(chunk):
    out = []
    for cid, _, images in chunk:
        out.extend(images)
        out.append(cid)
    return out


def _cellcx(c, quote):
    return {"base": _complex(c.boundary, quote),
            "strata": [{"cells": _leaf("[]", st.cells, _cell_template,
                                       _cell_ids, quote)}
                       for st in c.strata]}


def _factor_result(fr, quote):
    return {"complex": _cellcx(fr.kf, quote), "ef": _map(fr.ef, quote),
            "input": _map(fr.input, quote), "stage_counts": fr.stage_counts}


_SKELETONS = {DeltaComplex: _complex, SimplicialMap: _map,
              CellComplex: _cellcx, FactorResult: _factor_result}


def document(value, escape=None):
    """The document of a complex, map, cell complex or factorization, or
    of a dict of them, written from its shape: a list of ASCII bytes
    chunks whose join is exactly ``dumps`` of its ``*_to_json`` (of each
    value's, for a dict), encoded.  ``escape``, an ``soa._Escapes``
    lookup, gives the ids' JSON texts: the one of the factorization that
    built the value, so that an id is escaped once across both, or else
    one made here."""
    quote = _Escapes().__getitem__ if escape is None else escape
    if isinstance(value, dict):
        skeleton = {k: _SKELETONS[type(v)](v, quote)
                    for k, v in value.items()}
    else:
        skeleton = _SKELETONS[type(value)](value, quote)
    out = []
    _walk(skeleton, 1, out)
    out.append("\n")
    return [p if type(p) is bytes else p.encode() for p in out]


def _expect(cond, msg):
    if not cond:
        raise DeltaError(msg)


# Type checks for well-formed JSON of the wrong shape: containers are
# checked where they are read, and ids (the leaves) in one pass per list
# or object, so that every bad input raises DeltaError.


def _strings(values):
    """True iff every value is a string, as every simplex id is; ``join``
    makes the check in one C-level pass."""
    try:
        "".join(values)
    except TypeError:
        return False
    return True


def _expect_list(value, what):
    _expect(isinstance(value, list), f"{what} must be given as a list")


def _dim_key(key):
    """The dimension a key names; only its canonical spelling is accepted,
    so that no two keys name one dimension."""
    try:
        k = int(key)
    except ValueError:
        raise DeltaError(f"dimension key {key!r} is not an integer") from None
    _expect(key == str(k), f"dimension key {key!r} is not an integer")
    _expect(k >= 0, "negative dimension")
    return k


# -- delta complexes and maps ----------------------------------------------


def complex_to_json(x):
    simplices = {}
    for k in range(x.max_dim + 1):
        ids = sorted(x.ids(k))
        if k == 0:
            simplices["0"] = ids
        else:
            simplices[str(k)] = [
                {"id": s, "faces": list(x.faces[s])} for s in ids]
    return {"simplices": simplices}


def complex_from_json(obj, twin=None):
    """The complex ``obj`` holds, built unchecked: ``twin``, a checked
    complex, if equal; else checked here, once."""
    _expect(isinstance(obj, dict) and
            isinstance(obj.get("simplices"), dict),
            "complex JSON must be an object with a 'simplices' object")
    simplices = {}
    faces = {}
    for key, entries in obj["simplices"].items():
        k = _dim_key(key)
        _expect_list(entries, f"the {key}-simplices")
        if k == 0:
            _expect(_strings(entries), "0-simplices must be strings")
            ids = entries
        else:
            ids = []
            for e in entries:
                _expect(isinstance(e, dict) and
                        isinstance(e.get("id"), str) and
                        isinstance(e.get("faces"), list),
                        f"{k}-simplices must be objects with a string id "
                        f"and a list of faces")
                ids.append(e["id"])
                faces[e["id"]] = tuple(e["faces"])
        simplices[k] = ids
    _expect(_strings(itertools.chain.from_iterable(faces.values())),
            "faces must be simplex ids")
    x = EMPTY._extended(simplices, faces)
    if x == twin:
        return twin
    x._validate()
    return x


def map_to_json(f):
    assign = {str(k): {s: f.assign[s] for s in ids}
              for k, ids in f.dom.simplices.items()}
    return {"dom": complex_to_json(f.dom), "cod": complex_to_json(f.cod),
            "assign": assign}


def map_from_json(obj, dom=None, cod=None):
    """The map ``obj`` holds; its endpoints are ``dom`` and ``cod`` where
    equal to them (see ``complex_from_json``)."""
    _expect(isinstance(obj, dict) and
            {"dom", "cod", "assign"} <= set(obj),
            "map JSON must carry dom, cod, and assign")
    dom = complex_from_json(obj["dom"], dom)
    cod = complex_from_json(obj["cod"], cod)
    _expect(isinstance(obj["assign"], dict),
            "map JSON 'assign' must be an object")
    assign = {}
    for key, graded in obj["assign"].items():
        k = _dim_key(key)
        _expect(isinstance(graded, dict) and _strings(graded.values()),
                "each graded assignment must map ids to ids")
        _expect(graded.keys() <= set(dom.ids(k)),
                f"the grade-{k} assignment maps ids that are not "
                f"{k}-simplices of the domain")
        assign.update(graded)
    return SimplicialMap(dom, cod, assign)


# -- strata and cell complexes ---------------------------------------------


def _cell_to_json(c):
    cid, k, images = c
    return {"id": cid, "dim": k, "attach": dict(zip(boundary_keys(k), images))}


def _cell_from_json(obj):
    """The cell an object holds, its attach read off as an image tuple;
    the stratum it joins checks the attach as a map."""
    _expect(isinstance(obj, dict) and isinstance(obj.get("id"), str) and
            type(obj.get("dim")) is int and
            isinstance(obj.get("attach"), dict) and
            _strings(obj["attach"].values()),
            "cell JSON must carry a string id, an integer dim and an "
            "attach object from ids to ids")
    cid, k, attach = obj["id"], obj["dim"], obj["attach"]
    keys = boundary_keys(k)
    _expect(attach.keys() == set(keys),
            f"cell {cid!r}: attach is not total on the boundary of the "
            f"standard {k}-simplex")
    return cid, k, tuple(map(attach.__getitem__, keys))


def cellcx_to_json(c):
    return {"base": complex_to_json(c.boundary),
            "strata": [{"cells": [_cell_to_json(x) for x in st.cells]}
                       for st in c.strata]}


def _complex_parts(obj, twin=None):
    """The base complex (``twin`` if equal) and each stratum's cell objects,
    from complex JSON whose containers, not cells, are checked here."""
    _expect(isinstance(obj, dict) and {"base", "strata"} <= set(obj),
            "complex JSON must carry base and strata")
    base = complex_from_json(obj["base"], twin)
    _expect_list(obj["strata"], "strata")
    for entry in obj["strata"]:
        _expect(isinstance(entry, dict) and "cells" in entry,
                "each stratum entry must carry cells")
        _expect_list(entry["cells"], "cells")
    return base, [entry["cells"] for entry in obj["strata"]]


def cellcx_cells_from_json(obj):
    """Lax loader: the base complex and a flat cell list (stage ignored).

    Suitable for renormalization, where only the base and the cells matter.
    Each attach is checked as a map into the identifier pool, not a
    particular stage: the body of all the cells glued onto the base at
    once, each glued simplex with the cell's attach on the facets as its
    faces.
    """
    base, entries = _complex_parts(obj)
    cells = [_cell_from_json(c) for c in itertools.chain(*entries)]
    Stratum(body(Stratum._owning(base, cells)), cells)
    return base, cells


def cellcx_from_json(obj, twin=None):
    """Strict loader: rebuilds the complex stage by stage and revalidates;
    the base is ``twin`` where equal to it."""
    base, entries = _complex_parts(obj, twin)
    strata = []
    current = base
    for cells in entries:
        st = Stratum(current, map(_cell_from_json, cells))
        strata.append(st)
        current = body(st)
    return CellComplex(base, strata)


# -- factorization results --------------------------------------------------


def factor_result_to_json(fr):
    return {"input": map_to_json(fr.input),
            "complex": cellcx_to_json(fr.kf),
            "ef": map_to_json(fr.ef),
            "stage_counts": fr.stage_counts}


def factor_result_from_json(obj):
    _expect(isinstance(obj, dict) and
            {"input", "complex", "ef", "stage_counts"} <= set(obj),
            "factorization JSON must carry input, complex, ef, stage_counts")
    f = map_from_json(obj["input"])
    # the base, ef.dom and ef.cod repeat f.dom, kf.body and f.cod
    kf = cellcx_from_json(obj["complex"], f.dom)
    ef = map_from_json(obj["ef"], kf.body, f.cod)
    counts = obj["stage_counts"]
    _expect(isinstance(counts, list) and
            all(type(n) is int for n in counts),
            "stage_counts must be a list of integers")
    _expect(counts == [len(st.cells) for st in kf.strata],
            "stage_counts do not match the complex")
    _expect(kf.boundary == f.dom and ef.dom == kf.body and ef.cod == f.cod,
            "complex and ef do not factor the input map")
    _expect(composes_to(ef, u_of_complex(kf), f),
            "ef after the underlying map of the complex is not the input map")
    # a free counit sends no two cells with equal faces to one target
    index = cell_index(kf, ef)
    _expect(index is not None,
            "ef sends two cells with the same faces to one target")
    return FactorResult(f, kf, ef, index)


# -- filler tables -----------------------------------------------------------


def filler_table_to_json(ft):
    if callable(ft.fallback):
        raise DeltaError("a filler table with a callable fallback is not "
                         "serializable")
    entries = []
    for (dim, target, items) in sorted(ft.entries):
        entries.append({"dim": dim, "boundary": dict(items),
                        "target": target,
                        "filler": ft.entries[(dim, target, items)]})
    return {"p": map_to_json(ft.p), "entries": entries,
            "fallback": ft.fallback}


def filler_table_from_json(obj):
    _expect(isinstance(obj, dict) and {"p", "entries", "fallback"} <=
            set(obj), "filler table JSON must carry p, entries, fallback")
    p = map_from_json(obj["p"])
    _expect_list(obj["entries"], "filler table entries")
    entries = {}
    for e in obj["entries"]:
        _expect(isinstance(e, dict) and
                {"dim", "boundary", "target", "filler"} <= set(e),
                "entry must carry dim, boundary, target, filler")
        _expect(type(e["dim"]) is int and isinstance(e["boundary"], dict) and
                _strings(e["boundary"].values()) and
                _strings((e["target"], e["filler"])),
                "an entry needs an integer dim, a boundary object from ids "
                "to ids, and string target and filler")
        # read as a cell's attach is: no other boundary can answer a square
        _expect(e["boundary"].keys() == set(boundary_keys(e["dim"])),
                f"entry over {e['target']!r}: boundary is not total on the "
                f"boundary of the standard {e['dim']}-simplex")
        key = square_key(e["dim"], e["target"], e["boundary"])
        _expect(key not in entries,
                f"two entries for one square over {e['target']!r}")
        entries[key] = e["filler"]
    return FillerTable(p, entries, obj["fallback"])
