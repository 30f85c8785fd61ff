"""Regenerate references.json: the seed commit's answers for every menu point.

Runs each menu through the ``binoisy`` CLI with one worker, then records
every converged row's rate (or maximum EVM) and its single-worker wall time.
Rows that did not converge are left out of the menu and listed under
"excluded". For the validate menu it also records the replica-vs-ensemble
gap, its standard error, the channel count and the wall seconds of a large
Monte Carlo run ("mc_gap"). Replica rates depend on M and N only through M/N, so the
validate menu's replica references come from rate-sweep at the same M and N.

    python3 perfbench/freeze_references.py     # from the repository root

CLI outputs are cached in perfbench/out/refs/; delete them to recompute.
Takes about 35 minutes on two cores.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads as W  # noqa: E402


def _grid(values) -> str:
    return ",".join(W._fmt(v) for v in values)


SWEEP_GRID = ["--snr", _grid(W.SWEEP_SNRS), "--evm=" + _grid(W.SWEEP_EVMS), "--M", "4", "--N", "4"]
VALIDATE_GRID = ["--snr", _grid(W.VALIDATE_SNRS), "--evm=" + _grid(W.VALIDATE_EVMS)]

# (output name, key prefix, argv)
RUNS = [
    ("sweep_qpsk", "rate-sweep", ["rate-sweep", "--mode", "both", "--constellation", "qpsk"] + SWEEP_GRID),
    ("sweep_qam16", "rate-sweep", ["rate-sweep", "--mode", "both", "--constellation", "qam16"] + SWEEP_GRID),
    ("sweep_psk8", "rate-sweep", ["rate-sweep", "--mode", "matched", "--constellation", "psk8"] + SWEEP_GRID),
    ("plan", "evm-plan", ["evm-plan", "--decoder", "matched", "--constellation", ",".join(W.PLAN_KINDS),
                          "--snr", _grid(W.PLAN_SNRS), "--loss", W._fmt(W.PLAN_LOSS),
                          "--M", "4", "--N", "4"]),
    ("validate_gaussian", "validate", ["rate-sweep", "--mode", "both", "--constellation", "gaussian",
                                       "--M", "4", "--N", "4"] + VALIDATE_GRID),
    ("validate_discrete", "validate", ["rate-sweep", "--mode", "matched", "--constellation", "qpsk,qam16",
                                       "--M", "2", "--N", "2"] + VALIDATE_GRID),
]

# Replica-vs-ensemble gap at each validate menu point, from many more channels
# than a benchmark run draws: (output name, argv, worker threads)
GAP_RUNS = [
    ("gap_gaussian", ["validate", "--decoder", "both", "--constellation", "gaussian", "--M", "4", "--N", "4",
                      "--n-channels", "10000", "--seed", "1"] + VALIDATE_GRID, 2),
    ("gap_discrete", ["validate", "--decoder", "matched", "--constellation", "qpsk,qam16", "--M", "2",
                      "--N", "2", "--n-channels", str(W.GAP_CHANNELS), "--seed", "1"] + VALIDATE_GRID, 2),
]


def _run(argv: list[str], out: Path, threads: int = 1) -> None:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), BINOISY_THREADS=str(threads),
               OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    cmd = [sys.executable, "-m", "binoisy.cli", *argv, "--timing", "--format", "json",
           "--allow-partial", "-o", str(out)]
    print("running", " ".join(cmd[1:]), flush=True)
    subprocess.run(cmd, env=env, cwd=ROOT, check=True)


def _argv_value(argv: list[str], flag: str) -> str:
    return argv[argv.index(flag) + 1]


def main() -> int:
    cache = HERE / "out" / "refs"
    cache.mkdir(parents=True, exist_ok=True)
    values, cost, excluded = {}, {}, []
    for name, prefix, argv in RUNS:
        out = cache / f"{name}.json"
        if not out.exists():
            _run(argv, out)
        with open(out, encoding="utf-8") as fh:
            rows = json.load(fh)["rows"]
        M, N = int(_argv_value(argv, "--M")), int(_argv_value(argv, "--N"))
        for row in rows:
            if prefix == "evm-plan":
                key = W.ref_key(prefix, row["decoder"], row["constellation"], row["snr_db"],
                             row["loss_budget"], M, N)
                value = row["max_evm_db"]
                value = value if isinstance(value, str) or math.isfinite(value) else W._fmt(value)
            else:
                key = W.ref_key(prefix, row["mode"], row["constellation"], row["snr_db"],
                             row["evm_db"], M, N)
                value = row["rate_bits_per_stream"]
            if row["converged"] is not True:
                excluded.append(key)
                continue
            values[key] = value
            cost[key] = round(row["wall_ms"] / 1e3, 4)
    gaps = {}
    for name, argv, threads in GAP_RUNS:
        out = cache / f"{name}.json"
        if not out.exists():
            _run(argv, out, threads)
        with open(out, encoding="utf-8") as fh:
            rows = json.load(fh)["rows"]
        M, N = int(_argv_value(argv, "--M")), int(_argv_value(argv, "--N"))
        for row in rows:
            key = W.ref_key("validate", row["decoder"], row["constellation"], row["snr_db"],
                            row["evm_db"], M, N)
            gaps[key] = [row["rate_replica_bits"] - row["rate_mc_bits"], row["mc_stderr_bits"],
                         row["n_channels"], round(row["wall_ms"] / 1e3, 4)]
    payload = {
        "about": "seed-commit answers and single-worker wall seconds for every menu point; "
                 "written by perfbench/freeze_references.py",
        "excluded": {"reason": "converged=false at the seed commit", "keys": sorted(excluded)},
        "values": values,
        "cost_s": cost,
        "mc_gap": gaps,
    }
    with open(HERE / "references.json", "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"{len(values)} references, {len(excluded)} excluded")
    return 0


if __name__ == "__main__":
    sys.exit(main())
