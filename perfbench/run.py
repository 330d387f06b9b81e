"""Seeded end-to-end and per-layer benchmark of relcell.

    python3 perfbench/run.py --workload factor|law-check|lift|all
        [--seed N] [--seconds S] [--trace 0|1] [--smoke]

One closed loop: a single client in this process runs the workload's items
back to back, and each run is a fresh process, so library caches start cold.
The timed phase repeats whole passes over the corpus until ``--seconds`` of
item time have run; outputs are checked after it.  Every timing is
calibrated to the host's current speed with a fixed reference kernel timed
around it (``calibrated``); the report also prints the raw figures.
``--trace 0`` prints the end-to-end metrics; ``--trace 1`` then runs one more
pass with every public relcell function wrapped (see ``tracing.py``) and
prints the per-layer metrics instead.  ``--smoke`` runs a tiny corpus.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``all`` runs every workload, each
in its own process.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
import types
from time import perf_counter

from tracing import Tracer
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKDIR = os.path.join(ROOT, ".bench_work")
FINGERPRINTS = os.path.join(HERE, "fingerprints.json")
MODULES = ("delta", "strata", "cellcx", "soa", "lifting", "jsonio", "gen",
           "cli")
DEFAULT_SEED = 2032
SETUP_REPEATS = 5
REF_SECONDS = 0.0004  # nominal time of reference_seconds' kernel
MIN_ITEMS = 100  # p90 needs at least ten samples beyond it


def import_relcell():
    """A fresh import of every relcell module, as a namespace."""
    for name in [n for n in sys.modules
                 if n == "relcell" or n.startswith("relcell.")]:
        del sys.modules[name]
    rc = types.SimpleNamespace(**{m: importlib.import_module(f"relcell.{m}")
                                  for m in MODULES})
    origin = os.path.abspath(rc.cli.__file__)
    if not origin.startswith(os.path.join(SRC, "relcell") + os.sep):
        raise ImportError(f"relcell imported from {origin}, not from {SRC}")
    return rc


def environment(args, wl, n):
    return (f"env python={platform.python_version()} "
            f"implementation={platform.python_implementation()} "
            f"nproc={len(os.sched_getaffinity(0))} "
            f"platform={platform.platform()} workload={args.workload} "
            f"seed={args.seed} corpus_seed={wl.corpus_seed} "
            f"items_per_pass={n} smoke={int(args.smoke)}")


def reference_seconds():
    """Time one run of a fixed pure-Python kernel that never calls relcell.

    The kernel does the kind of dict, str, tuple and set work relcell does,
    so its time tracks the host's current speed (README.md, Host noise).
    """
    t0 = perf_counter()
    d = {}
    for i in range(300):
        k = f"s{i % 97}.{i}"
        d[k] = tuple(sorted((k, str(i), k[::-1])))
    len(set(d) & {f"s{j}.{j}" for j in range(50)})
    return perf_counter() - t0


def calibrated(seconds, ref_before, ref_after):
    """``seconds`` rescaled to a host on which the kernel takes REF_SECONDS,
    using the kernel's mean time just before and just after the timing."""
    return seconds * REF_SECONDS * 2 / (ref_before + ref_after)


class Executions:
    """Latencies, output digests and failures of the item executions."""

    def __init__(self, n):
        self.raw = []  # seconds per execution that returned
        self.calibrated = []  # the same, calibrated to the host's speed
        self.pass_seconds = []
        self.runs = [0] * n
        self.failed = [0] * n
        self.digest = [None] * n
        self.first = [None] * n  # result of the first execution, for check

    def run_pass(self, wl):
        wl.start_pass()
        gc.collect()
        spent = 0.0
        ref = reference_seconds()
        for i in range(len(self.runs)):
            self.runs[i] += 1
            t0 = perf_counter()
            try:
                result = wl.run(i)
            except Exception:
                spent += perf_counter() - t0
                ref = reference_seconds()
                self.failed[i] += 1
                traceback.print_exc()
                continue
            dt = perf_counter() - t0
            ref_after = reference_seconds()
            spent += dt
            self.raw.append(dt)
            self.calibrated.append(calibrated(dt, ref, ref_after))
            ref = ref_after
            d = hashlib.sha256(wl.emitted(i, result)).hexdigest()
            if self.digest[i] is None:
                self.digest[i], self.first[i] = d, result
            elif d != self.digest[i]:
                self.failed[i] += 1
                print(f"item {i}: output differs from its first execution",
                      file=sys.stderr)
        self.pass_seconds.append(spent)

    def check(self, wl):
        """Check each item's output; a wrong one fails every execution."""
        for i, result in enumerate(self.first):
            if result is None:
                continue
            try:
                err = wl.check(i, result)
            except Exception:
                err = traceback.format_exc()
            if err:
                self.failed[i] = self.runs[i]
                print(f"item {i}: {err}", file=sys.stderr)

    def fingerprint(self):
        joined = "".join(d or "-" for d in self.digest)
        return hashlib.sha256(joined.encode()).hexdigest()


def recorded_fingerprint(workload, seed):
    with open(FINGERPRINTS) as fh:
        entry = json.load(fh).get(workload)
    if entry is None or entry["seed"] != seed:
        return None
    return entry["sha256"]


def run_workload(args):
    setup, setup_raw = [], []
    for _ in range(SETUP_REPEATS):
        ref = reference_seconds()
        t0 = perf_counter()
        rc = import_relcell()
        wl = WORKLOADS[args.workload](rc, args.seed, args.smoke, WORKDIR)
        setup_raw.append(perf_counter() - t0)
        setup.append(calibrated(setup_raw[-1], ref, reference_seconds()))
    n = len(wl)
    print(environment(args, wl, n))

    ex = Executions(n)
    while not ex.pass_seconds or sum(ex.pass_seconds) < args.seconds:
        ex.run_pass(wl)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    ex.check(wl)

    attempted = sum(ex.runs)
    failed = sum(ex.failed)
    fingerprint = ex.fingerprint()
    want = None if args.smoke else recorded_fingerprint(args.workload,
                                                        args.seed)
    if want is None:
        print(f"fingerprint {fingerprint} (none recorded for this seed)")
    elif want == fingerprint:
        print(f"fingerprint {fingerprint} matches the recorded one")
    else:
        failed += 1
        print(f"fingerprint {fingerprint} MISMATCH, recorded {want}")

    metrics, raw = {}, {}
    for out, lat, setups in ((metrics, ex.calibrated, setup),
                             (raw, ex.raw, setup_raw)):
        out["items_per_s"] = (len(lat) / sum(lat), "1/s")
        out["item_p50_ms"] = (1000 * statistics.median(lat), "ms")
        if len(lat) >= MIN_ITEMS:
            out["item_p90_ms"] = (
                1000 * statistics.quantiles(lat, n=10)[8], "ms")
        out["setup_s"] = (statistics.median(setups), "s")
    metrics["peak_rss_mb"] = (peak_rss_mb, "MB")
    print(f"{len(lat)} items timed over {len(ex.pass_seconds)} passes of "
          f"{n}, taking {', '.join(f'{t:.3f}' for t in ex.pass_seconds)} s")
    print("uncalibrated: " + ", ".join(
        f"{k} {v:.6g} {u}" for k, (v, u) in raw.items()))

    if args.trace:
        tracer = Tracer()
        tracer.install(rc)
        traced = Executions(n)
        try:
            traced.run_pass(wl)
        finally:
            tracer.uninstall()
        for i, d in enumerate(traced.digest):
            if d != ex.digest[i]:
                traced.failed[i] = max(traced.failed[i], 1)
        attempted += sum(traced.runs)
        failed += sum(traced.failed)
        metrics = tracer.metrics()
        untraced = sum(ex.calibrated) / len(ex.pass_seconds)
        metrics["trace.overhead_ratio"] = (
            sum(traced.calibrated) / untraced - 1, "ratio")
        os.makedirs(WORKDIR, exist_ok=True)
        path = os.path.join(WORKDIR, f"{args.workload}-spans.tsv")
        tracer.write(path)
        print(f"calibrated pass time {sum(traced.calibrated):.3f} s traced, "
              f"{untraced:.3f} s untraced (mean); "
              f"{len(tracer.span_name)} spans written to {path}")

    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} {value} {unit}")
    print(f"{args.workload} fail_ratio {failed / attempted} ratio "
          f"({failed} of {attempted} executions)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


def run_all(args):
    """Run every workload in a fresh process; print each report, then one
    JSON line that merges them with metric names prefixed by workload."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--smoke"] if args.smoke
                                              else [])
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"workload {name} exited with {proc.returncode}",
                  file=sys.stderr)
            return proc.returncode or 1
        report = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and report["correct"]
        merged["attempted"] += report["attempted"]
        merged["failed"] += report["failed"]
        merged["metrics"][f"{name}.fail_ratio"] = {
            "value": report["failed"] / report["attempted"], "unit": "ratio"}
        for key, metric in report["metrics"].items():
            merged["metrics"][f"{name}.{key}"] = metric
    print(json.dumps(merged))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny corpus, for the benchmark's own tests")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "relcell", "__init__.py")):
        print(f"error: no relcell sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.workload == "all":
        return run_all(args)
    os.makedirs(WORKDIR, exist_ok=True)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
