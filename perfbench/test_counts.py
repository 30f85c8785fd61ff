"""Tests of the benchmark itself.

    python3 -m pytest perfbench/test_counts.py -q    # from the repository root, ~3 minutes

The traced run's exact counts (fixed-point iterations, scan evaluations,
bisection solves, quadrature nodes, Monte Carlo draws, spans) must repeat
exactly for one seed, and it must report every per-layer metric that
BENCHMARK.json declares.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracing import Tracer  # noqa: E402

EXACT_UNITS = ("count", "B")


def traced_metrics(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    return result["metrics"]


@pytest.mark.parametrize("workload", ["sweep-rates", "plan-matched", "validate-mc"])
def test_exact_counts_repeat_for_one_seed(workload):
    first = traced_metrics(workload, seed=3)
    second = traced_metrics(workload, seed=3)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert sorted(first) == sorted(m["name"] for m in declared)
    counts = {k: v["value"] for k, v in first.items() if v["unit"] in EXACT_UNITS}
    again = {k: v["value"] for k, v in second.items() if v["unit"] in EXACT_UNITS}
    assert counts == again
    assert counts["cli.point.calls"] > 0


def test_self_time_subtracts_union_of_overlapping_children():
    tracer = Tracer()
    st = tracer._state()
    parent, child = tracer.name_index("parent"), tracer.name_index("child")
    tracer._record(st, 1, 0, parent, 0.0, 10.0)
    # two children overlap on [3, 4]; their union covers 2 + 4 - 1 = 5 s
    tracer._record(st, 2, 1, child, 2.0, 4.0)
    tracer._record(st, 3, 1, child, 3.0, 7.0)
    summary = tracer.summary()
    assert summary["parent"] == (1, 10.0, 5.0)
    assert summary["child"] == (2, 6.0, 6.0)
