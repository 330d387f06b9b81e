"""Spans and counts around the public functions of each relcell module.

``Tracer.install`` replaces each traced function by a wrapper wherever a
``relcell`` module binds it (modules import names from each other), and
patches the traced methods on their classes; ``uninstall`` puts the originals
back.  Nothing under ``src/`` is edited.  A span is (name, start, end,
parent), kept in flat arrays until ``write`` saves them; spans of the
functions in ``MEASURES`` also keep one number taken from their result.  A
span's self time is its duration minus the durations of its direct children:
calls run on one thread, so children never overlap.
"""

from __future__ import annotations

import sys
from array import array
from collections import Counter
from time import perf_counter

# span name -> (module, attribute); "Class.method" patches the class
FUNCTIONS = {
    "delta.enumerate_homs": ("delta", "enumerate_homs"),
    "delta.standard_simplex": ("delta", "standard_simplex"),
    "delta.boundary_complex": ("delta", "boundary_complex"),
    "delta.compose": ("delta", "compose"),
    "lifting.mec": ("delta", "mec"),  # only lifting.free_fillers calls it
    "strata.body": ("strata", "body"),
    "cellcx.CellComplex": ("cellcx", "CellComplex.__init__"),
    "cellcx.assemble": ("cellcx", "assemble"),
    "cellcx.compose_complexes": ("cellcx", "compose_complexes"),
    "soa.k1_step": ("soa", "k1_step"),
    "soa.free_complex": ("soa", "free_complex"),
    "soa.transpose": ("soa", "transpose"),
    "soa.factorizer": ("soa", "Factorizer.k"),
    "lifting.solve_lifting": ("lifting", "solve_lifting"),
    "lifting.filler": ("lifting", "FillerTable.filler"),
    "cli.main": ("cli", "main"),
}

# the number a span keeps from its function's result
MEASURES = {
    "delta.enumerate_homs": len,                        # lifts found
    "soa.k1_step": lambda result: len(result[0].cells),  # cells glued
    "jsonio.write:dumps": lambda text: len(text.encode()),  # bytes
}

SELF_TIMES = ("delta.enumerate_homs", "delta.standard_simplex",
              "delta.boundary_complex", "delta.compose", "strata.body",
              "cellcx.CellComplex", "cellcx.assemble",
              "cellcx.compose_complexes", "soa.k1_step", "soa.transpose",
              "lifting.solve_lifting", "lifting.filler", "lifting.mec",
              "jsonio.write", "jsonio.read", "cli.main")
CALLS = ("delta.enumerate_homs", "delta.standard_simplex",
         "delta.boundary_complex", "delta.compose", "strata.body",
         "cellcx.CellComplex", "soa.k1_step", "soa.transpose",
         "lifting.solve_lifting", "lifting.filler", "cli.main")


def _jsonio_functions(jsonio):
    """jsonio's writers (``dumps``, ``*_to_json``) as ``jsonio.write:NAME``
    and its readers (``*_from_json``) as ``jsonio.read:NAME``."""
    out = {}
    for attr, fn in vars(jsonio).items():
        if attr.startswith("_") or \
                getattr(fn, "__module__", None) != jsonio.__name__:
            continue
        if attr == "dumps" or attr.endswith("_to_json"):
            out[f"jsonio.write:{attr}"] = ("jsonio", attr)
        elif attr.endswith("_from_json"):
            out[f"jsonio.read:{attr}"] = ("jsonio", attr)
    return out


def _ratio(num, den):
    """num / den, or 0 where the layer did no work (den == 0)."""
    return num / den if den else 0.0


class Tracer:
    def __init__(self):
        self.names = []  # span name per name id; "layer:function" for jsonio
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.measured = {}  # span id -> number from MEASURES
        self._stack = [-1]
        self._undo = []

    def _wrap(self, fn, name):
        nid = len(self.names)
        self.names.append(name)
        measure = MEASURES.get(name)
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        stack, measured = self._stack, self.measured

        def traced(*args, **kwargs):
            sid = len(names)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(sid)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[sid] = perf_counter()
                stack.pop()
            if measure is not None:
                measured[sid] = measure(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, rc):
        """Wrap every traced function of the relcell modules in ``rc``."""
        modules = [m for n, m in sys.modules.items()
                   if n == "relcell" or n.startswith("relcell.")]
        targets = dict(FUNCTIONS)
        targets.update(_jsonio_functions(rc.jsonio))
        for name, (mod, attr) in targets.items():
            owner = getattr(rc, mod)
            cls_name, _, method = attr.rpartition(".")
            if cls_name:
                cls = getattr(owner, cls_name)
                fn = vars(cls)[method]
                places = [(cls, method)]
            else:
                fn = getattr(owner, attr)
                places = [(m, key) for m in modules
                          for key, value in vars(m).items() if value is fn]
            traced = self._wrap(fn, name)
            for where, key in places:
                setattr(where, key, traced)
                self._undo.append((where, key, fn))

    def uninstall(self):
        for where, key, fn in reversed(self._undo):
            setattr(where, key, fn)
        self._undo.clear()

    # -- results -------------------------------------------------------------

    def _spans_of(self, name):
        nid = self.names.index(name)
        return [i for i in range(len(self.span_name))
                if self.span_name[i] == nid]

    def _under(self, sid, name):
        """Whether span ``sid`` has an ancestor span called ``name``."""
        nid = self.names.index(name)
        p = self.span_parent[sid]
        while p >= 0:
            if self.span_name[p] == nid:
                return True
            p = self.span_parent[p]
        return False

    def metrics(self):
        """Every per-layer metric, as name -> (value, unit)."""
        n = len(self.span_name)
        dur = [self.span_end[i] - self.span_start[i] for i in range(n)]
        own = list(dur)
        for i in range(n):
            p = self.span_parent[i]
            if p >= 0:
                own[p] -= dur[i]
        labels = [name.split(":")[0] for name in self.names]
        self_s, calls = Counter(), Counter()
        for i in range(n):
            label = labels[self.span_name[i]]
            self_s[label] += own[i]
            calls[label] += 1

        homs = self._spans_of("delta.enumerate_homs")
        lifts = sum(self.measured[i] for i in homs
                    if self._under(i, "soa.k1_step"))
        cells = sum(self.measured[i] for i in self._spans_of("soa.k1_step"))
        lookups = set(self._spans_of("soa.factorizer"))
        misses = sum(1 for i in self._spans_of("soa.free_complex")
                     if self.span_parent[i] in lookups)

        out = {f"{name}.calls": (calls[name], "count") for name in CALLS}
        out.update({f"{name}.self_s": (self_s[name], "s")
                    for name in SELF_TIMES})
        out.update({
            "delta.enumerate_homs.results": (
                sum(self.measured[i] for i in homs), "count"),
            "strata.body_per_stratum": (
                _ratio(calls["strata.body"], calls["soa.k1_step"]), "ratio"),
            "soa.lifts_enumerated": (lifts, "count"),
            "soa.cells_glued": (cells, "count"),
            "soa.lift_yield": (_ratio(cells, lifts), "ratio"),
            "soa.factorizer.lookups": (len(lookups), "count"),
            "soa.factorizer.hit_ratio": (
                _ratio(len(lookups) - misses, len(lookups)), "ratio"),
            "jsonio.write.bytes": (
                sum(self.measured[i]
                    for i in self._spans_of("jsonio.write:dumps")), "bytes"),
        })
        return out

    def write(self, path):
        """Save every span as tab-separated id, parent, name, start, end."""
        with open(path, "w") as fh:
            fh.write("span\tparent\tname\tstart_s\tend_s\n")
            for i in range(len(self.span_name)):
                fh.write(f"{i}\t{self.span_parent[i]}\t"
                         f"{self.names[self.span_name[i]]}\t"
                         f"{self.span_start[i]:.9f}\t"
                         f"{self.span_end[i]:.9f}\n")
