"""Output checks for the benchmark's CLI calls.

Every row a call returns is checked against the row the call should have
produced: the grid point it names, ``converged=true``, a physically possible
rate, agreement with the reference frozen from the seed commit, and, for
Monte Carlo rows, the replica-vs-ensemble allowance the acceptance tests use.
A row that fails any check counts as a failed point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from workloads import MC_ALLOWANCE_BITS, ref_key

# Replica rates are deterministic; this only leaves room for reordered
# floating-point sums in a faster implementation.
RATE_TOL_BITS = 1e-6
# gmi may exceed the matched rate by the solver's own ceiling slack (1e-7 nats).
ORDER_TOL_BITS = 1e-6
# The planner bisects to 0.002 dB; a last-digit rate change may move one step.
EVM_TOL_DB = 0.005

ALPHABET_BITS = {"bpsk": 1.0, "qpsk": 2.0, "psk8": 3.0, "qam16": 4.0, "qam64": 6.0}


@dataclass
class PointResult:
    wall_s: float
    ok: bool
    rate_err_bits: float  # |replica rate - reference|, 0 where the row has none
    evm_err_db: float     # |max_evm_db - reference|, evm-plan rows only
    reason: str = ""


def _num(value) -> float:
    return float(value) if value not in (None, "") else math.nan


def _rate_bounds_ok(kind: str, rate: float) -> bool:
    top = ALPHABET_BITS.get(kind, math.inf)
    return 0.0 <= rate <= top + RATE_TOL_BITS


def check_call(call, payload: dict | None, refs: dict) -> list[PointResult]:
    """Check one CLI call's JSON payload against the points the call asked for.

    payload is None when the call produced no parsable output; every expected
    point then fails.
    """
    expected = call.expected_points()
    rows = payload["rows"] if payload else []
    results = []
    for i, point in enumerate(expected):
        row = rows[i] if i < len(rows) else None
        results.append(_check_row(call, point, row, refs))
    if len(rows) > len(expected):
        results.extend(PointResult(0.0, False, 0.0, 0.0, "unexpected extra row")
                       for _ in rows[len(expected):])
    if call.command == "rate-sweep":
        _check_gmi_below_matched(call, expected, rows, results)
    return results


def _check_row(call, point: dict, row: dict | None, refs: dict) -> PointResult:
    if row is None:
        return PointResult(0.0, False, 0.0, 0.0, f"missing row for {point}")
    wall_s = _num(row.get("wall_ms")) / 1e3
    for key, want in point.items():
        got = row.get(key)
        if isinstance(want, float):
            if _num(got) != want:
                return PointResult(wall_s, False, 0.0, 0.0, f"row {key}={got!r}, expected {want!r}")
        elif got != want:
            return PointResult(wall_s, False, 0.0, 0.0, f"row {key}={got!r}, expected {want!r}")
    if row.get("converged") is not True:
        return PointResult(wall_s, False, 0.0, 0.0, f"not converged at {point}")
    kind = point["constellation"]
    if call.command == "evm-plan":
        got = _num(row.get("max_evm_db"))
        want = refs.get(ref_key("evm-plan", point["decoder"], kind, point["snr_db"],
                                call.loss, call.M, call.N))
        if want is None:
            return PointResult(wall_s, False, 0.0, 0.0, f"no reference for {point}")
        want = float(want)
        if math.isinf(want) or math.isinf(got):
            err = 0.0 if got == want else math.inf
        else:
            err = abs(got - want)
        ok = err <= EVM_TOL_DB
        return PointResult(wall_s, ok, 0.0, err, "" if ok else f"max_evm_db {got} vs {want} at {point}")
    if call.command == "rate-sweep":
        rate = _num(row.get("rate_bits_per_stream"))
        key = ref_key("rate-sweep", point["mode"], kind, point["snr_db"], point["evm_db"], call.M, call.N)
    else:
        rate = _num(row.get("rate_replica_bits"))
        key = ref_key("validate", point["decoder"], kind, point["snr_db"], point["evm_db"], call.M, call.N)
    want = refs.get(key)
    if want is None:
        return PointResult(wall_s, False, 0.0, 0.0, f"no reference for {key}")
    err = abs(rate - float(want))
    if not err <= RATE_TOL_BITS:
        return PointResult(wall_s, False, err, 0.0, f"rate {rate} vs reference {want} at {key}")
    if not _rate_bounds_ok(kind, rate):
        return PointResult(wall_s, False, err, 0.0, f"rate {rate} outside [0, log2 K] at {key}")
    if call.command == "validate":
        allowance = MC_ALLOWANCE_BITS["gaussian" if kind == "gaussian" else "discrete"]
        diff = _num(row.get("abs_diff_bits"))
        mc = _num(row.get("rate_mc_bits"))
        if not (diff <= allowance and abs(abs(rate - mc) - diff) <= 1e-9):
            return PointResult(wall_s, False, err, 0.0,
                               f"|replica - MC| = {diff} bits above {allowance} at {key}")
    return PointResult(wall_s, True, err, 0.0)


def _check_gmi_below_matched(call, expected, rows, results) -> None:
    """Mark mismatched rows whose rate beats the matched rate at the same point."""
    matched = {}
    for point, row in zip(expected, rows):
        if point["mode"] == "matched":
            matched[(point["constellation"], point["snr_db"], point["evm_db"])] = _num(
                row.get("rate_bits_per_stream"))
    for i, (point, row) in enumerate(zip(expected, rows)):
        if point["mode"] != "mismatched":
            continue
        top = matched.get((point["constellation"], point["snr_db"], point["evm_db"]))
        if top is None:
            continue
        rate = _num(row.get("rate_bits_per_stream"))
        if not rate <= top + ORDER_TOL_BITS and results[i].ok:
            results[i].ok = False
            results[i].reason = f"gmi {rate} above matched {top} at {point}"
