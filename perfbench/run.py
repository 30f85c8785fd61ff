"""binoisy benchmark: replay CLI workloads in-process, check every output row,
and print end-to-end metrics (untraced) or per-layer metrics (traced).

    python3 perfbench/run.py --workload sweep-rates --seed 1 --seconds 30 --trace 0

Run from the repository root; the package is imported from ./src. The last
line of standard output is one JSON object with the keys correct, attempted,
failed and metrics. Lines before it name every metric with its unit, the
environment, and the points behind each latency percentile. Exit code 0 when
every row passed its check, 1 when some did not, 2 when the program or the
benchmark's reference table cannot be found.

--trace 0 measures set-up time in fresh interpreters, warms up in-process,
then times the workload's calls. --trace 1 runs the same calls three ways:
untraced at the workload's worker count, traced (spans around every wrapped
function, see tracing.py), and untraced with one worker; it reports per-layer
counts and times, the tracing overhead and the pool's speed-up.
"""

from __future__ import annotations

import os

# BLAS threads would compete with the CLI's own worker pool; pin them before
# numpy is imported anywhere in this process.
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_REPEATS = 9
SETUP_ARGV = ["rate-sweep", "--mode", "matched", "--constellation", "gaussian",
              "--snr", "10", "--evm=-10"]
WARMUP_ARGV = ["rate-sweep", "--mode", "matched", "--constellation", "qpsk",
               "--snr", "10", "--evm=-20", "--format", "json"]
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 80.0, 75.0, 70.0, 60.0, 50.0)
# Share of --seconds each of the traced run's three passes gets.
TRACE_SHARE = 1.0 / 3.0

END_TO_END = [("setup_s", "s"), ("points_per_s", "1/s"), ("point_s.p50", "s"),
              ("point_s.tail", "s"), ("peak_rss_mb", "MB")]


def tail_percentile(n_points: int) -> float:
    """Highest ladder percentile with at least ten points beyond it; p50 when
    the run has fewer than twenty points."""
    for q in TAIL_LADDER:
        if n_points * (1.0 - q / 100.0) >= 10.0:
            return q
    return 50.0


def percentile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    if not ordered:
        return math.nan
    pos = (len(ordered) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def subprocess_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC))


def measure_setup() -> float:
    """Median wall time for a fresh interpreter to import binoisy and
    binoisy.cli and answer one Gaussian point."""
    code = ("import sys, binoisy, binoisy.cli; "
            f"sys.exit(binoisy.cli.main({SETUP_ARGV!r}))")
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=subprocess_env(),
                              capture_output=True, text=True, timeout=120)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0 or len(proc.stdout.splitlines()) != 2:
            raise RuntimeError(f"set-up run failed ({proc.returncode}): {proc.stderr.strip()}")
    return statistics.median(times)


class Runner:
    """Runs CLI calls in-process and checks their output."""

    def __init__(self, cli, refs: dict):
        self.cli = cli
        self.refs = refs
        self.results = []   # check.PointResult per expected point, every pass

    def invoke(self, argv: list[str], workers: int) -> dict | None:
        """The CLI's JSON output, or None when it wrote none. A non-zero exit
        needs no separate handling: its rows fail their checks."""
        os.environ["BINOISY_THREADS"] = str(workers)
        buf = io.StringIO()
        try:
            with contextlib.redirect_stdout(buf):
                self.cli.main(argv)
        except SystemExit:  # argparse rejected the request
            return None
        except Exception:
            traceback.print_exc()
            return None
        try:
            return json.loads(buf.getvalue())
        except ValueError:
            return None

    def run(self, calls, tracer=None) -> tuple[float, list]:
        """Run calls in order; return (wall seconds in the CLI, point results)."""
        from check import check_call

        wall = 0.0
        results = []
        for call in calls:
            argv = call.argv()
            t0 = time.perf_counter()
            if tracer is None:
                payload = self.invoke(argv, call.workers)
            else:
                with tracer.span("cli.main"):
                    payload = self.invoke(argv, call.workers)
            wall += time.perf_counter() - t0
            checked = check_call(call, payload, self.refs)
            for r in checked:
                if not r.ok:
                    print(f"check failed: {r.reason}", file=sys.stderr)
            results.extend(checked)
        self.results.extend(results)
        return wall, results


def _getconf(name: str):
    """A sysconf value through getconf(1), which reads it from the CPU, or None."""
    try:
        out = subprocess.run(["getconf", name], capture_output=True, text=True, timeout=10)
        return int(out.stdout.strip())
    except (OSError, ValueError, subprocess.SubprocessError):
        return None


def environment(workload) -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "l2_bytes": _getconf("LEVEL2_CACHE_SIZE"),
        "l3_bytes": _getconf("LEVEL3_CACHE_SIZE"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "BINOISY_THREADS": workload.workers,
        **{var: os.environ[var] for var in BLAS_THREAD_VARS},
    }


def end_to_end(runner: Runner, workload, seed: int, seconds: float) -> dict:
    setup_s = measure_setup()
    runner.invoke(WARMUP_ARGV, 1)
    calls = workload.calls(seed, workload.units(seconds))
    wall, results = runner.run(calls)
    ok = [r for r in results if r.ok]
    # A failed point still has the latency the CLI measured for it; a point
    # with no row at all counts as taking the whole run.
    lat = [r.wall_s for r in results if r.wall_s > 0] or [wall]
    q = tail_percentile(len(results))
    metrics = {
        "setup_s": setup_s,
        "points_per_s": len(ok) / wall,
        "point_s.p50": percentile(lat, 50.0),
        "point_s.tail": percentile(lat, q),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    beyond = sum(1 for x in lat if x > metrics["point_s.tail"])
    print(f"info point_s.tail is p{q:g} of {len(lat)} points, {beyond} beyond it")
    print(f"info {len(calls)} CLI calls, {len(results)} points, {wall:.3f} s in the CLI")
    report = dict(metrics)
    report["failed_frac"] = (len(results) - len(ok)) / max(1, len(results))
    report["max_rate_err_bits"] = max((r.rate_err_bits for r in results), default=0.0)
    report["max_evm_err_db"] = max((r.evm_err_db for r in results), default=0.0)
    units = dict(END_TO_END, failed_frac="ratio", max_rate_err_bits="bits", max_evm_err_db="dB")
    for name, value in report.items():
        print(f"metric {name} {value!r} {units[name]}")
    return {name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END}


def per_layer(runner: Runner, workload, seed: int, seconds: float) -> dict:
    import layers

    runner.invoke(WARMUP_ARGV, 1)
    n_units = max(1, int(round(seconds * TRACE_SHARE / workload.unit_s)))
    calls = workload.calls(seed, n_units)
    wall_u, _ = runner.run(calls)
    traced = layers.traced_pass(runner, calls)
    if any(c.workers > 1 for c in calls):
        wall_1, _ = runner.run([c.with_workers(1) for c in calls])
    else:
        wall_1 = wall_u
    OUT.mkdir(exist_ok=True)
    n_spans = traced.tracer.write(OUT / f"spans-{workload.name}-seed{seed}.npz")
    metrics = layers.metrics(traced, wall_u=wall_u, wall_1=wall_1, n_spans=n_spans,
                             results=runner.results)
    print(f"info {n_units} units, {len(calls)} CLI calls per pass; untraced {wall_u:.3f} s, "
          f"traced {traced.wall:.3f} s, one worker {wall_1:.3f} s")
    if traced.tracer.missing:
        print("info not traced (absent from the program): " + ", ".join(traced.tracer.missing))
    for name, (value, unit) in metrics.items():
        print(f"metric {name} {value!r} {unit}")
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "binoisy" / "cli.py").is_file():
        print(f"binoisy sources not found under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("--seconds must be positive", file=sys.stderr)
        return 2
    if not workloads.REFERENCE_FILE.is_file():
        print(f"reference table {workloads.REFERENCE_FILE} not found", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    import binoisy.cli

    runner = Runner(binoisy.cli, workloads.load_menu()["values"])
    print("env " + json.dumps(environment(workload), sort_keys=True))
    if args.trace:
        metrics = per_layer(runner, workload, args.seed, args.seconds)
    else:
        metrics = end_to_end(runner, workload, args.seed, args.seconds)
    attempted = len(runner.results)
    failed = sum(1 for r in runner.results if not r.ok)
    correct = attempted > 0 and failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
