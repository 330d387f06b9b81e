"""Tests of the benchmark itself, on the tiny ``--smoke`` corpora.

    python3 -m pytest perfbench

Each case runs ``run.py`` in a fresh process, as the benchmark is run.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
WORKLOADS = ("factor", "law-check", "lift")

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


def bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, RUN, *args], cwd=cwd,
                          capture_output=True, text=True, timeout=180)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines(), json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_has_no_failures(workload, trace):
    lines, report = bench("--workload", workload, "--smoke", "--seconds",
                          "0", "--trace", trace)
    assert report["attempted"] >= 1
    assert report["failed"] / report["attempted"] == 0
    assert report["correct"] is True
    assert lines[0].startswith("env python=")
    if trace == "1":
        want = {m["name"] for m in SPEC["per_layer"]}
    else:
        # p90 needs 100 items; smoke corpora are smaller
        want = {m["name"] for m in SPEC["end_to_end"]} - {"item_p90_ms"}
    assert set(report["metrics"]) == want


def test_relabelling_keeps_every_count():
    counts = []
    for seed in ("1", "2"):
        _, report = bench("--workload", "law-check", "--smoke", "--seconds",
                          "0", "--trace", "1", "--seed", seed)
        counts.append({k: m["value"] for k, m in report["metrics"].items()
                       if m["unit"] in ("count", "ratio")
                       and k != "trace.overhead_ratio"})
    assert counts[0] == counts[1]
    assert counts[0]["soa.factorizer.lookups"] > 0


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "factor",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
