"""The benchmark's three workloads, replayed as ``binoisy`` CLI calls.

A workload turns (seed, seconds) into a fixed list of CLI calls. The amount
of work is set by --seconds through a nominal unit time measured at the seed
commit, so one seed always gives the same calls and the same exact counts,
and a faster program measures the same work in less time.

Grid points come from fixed menus: the keys of ``references.json``, which
holds every menu point that converged at the seed commit. Point costs differ
tenfold across a menu, and a run holds only a handful of the expensive
points, so plain random draws would make the run's cost depend on the seed
more than on the program. Draws are therefore stratified by single-worker
cost at the seed commit: draw k of n comes from a narrow band around cost
quantile (k + 1/2)/n or from the k-th of n equal slices of the cost-sorted
menu, and the seed picks which menu point in it. Every seed then runs the
same cost mix on different points.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

REFERENCE_FILE = Path(__file__).with_name("references.json")

SWEEP_SNRS = [float(s) for s in range(0, 31, 2)]
SWEEP_EVMS = [-30.0, -25.0, -20.0, -15.0, -10.0, -5.0]
PLAN_SNRS = [float(s) for s in range(0, 31)]
PLAN_KINDS = ("gaussian", "qpsk", "qam16", "qam64")
VALIDATE_SNRS = [0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0]
VALIDATE_EVMS = [-30.0, -20.0, -10.0, -5.0]
# Channel draws per point. The exhaustive discrete reference at M=N=2
# enumerates 16 (QPSK) or 256 (16-QAM) lattice points per channel.
VALIDATE_CHANNELS = {"gaussian": 10000, "discrete": 100}
# Channels behind the replica-vs-ensemble gaps in references.json.
GAP_CHANNELS = 400
# A validate menu point needs |gap| + GAP_SIGMAS standard errors (at the run's
# channel count) within the allowance, so a correct program fails a check
# with probability below 1e-4 per point.
GAP_SIGMAS = 4.0
PLAN_LOSS = 0.05
# Share of the cost-sorted evm-plan menu, around its middle, that plan-matched
# draws half of its points from.
PLAN_CENTRE = (0.35, 0.75)
# Replica-vs-Monte-Carlo allowances of tests/test_acceptance.py criteria 01, 02.
MC_ALLOWANCE_BITS = {"gaussian": 0.10, "discrete": 0.15}

# Half-width of a cost band, as a share of the menu, for one draw per run.
_BAND = 0.2
# psk8 calls per sweep-rates unit, each a pair of SNRs 2 dB apart whose
# seed-commit costs differ by at most PSK8_PAIR_RATIO.
PSK8_PAIRS = 4
PSK8_PAIR_RATIO = 1.25
# validate-mc: Gaussian calls per unit, and the most a discrete point may
# cost, as a multiple of the discrete menu's median exhaustive-reference cost.
GAUSS_PER_UNIT = 6
DISCRETE_COST_CAP = 1.25


def _fmt(x: float) -> str:
    return format(float(x), "g")


@dataclass(frozen=True)
class Call:
    """One ``binoisy`` invocation and the grid points it must answer."""

    command: str
    mode: str              # rate-sweep --mode, or --decoder for the others
    kinds: tuple[str, ...]
    snrs: tuple[float, ...]
    evms: tuple[float, ...] = ()
    M: int = 4
    N: int = 4
    workers: int = 1
    seed: int = 0
    n_channels: int = 0
    loss: float = PLAN_LOSS

    def argv(self) -> list[str]:
        flag = "--mode" if self.command == "rate-sweep" else "--decoder"
        argv = [self.command, flag, self.mode,
                "--constellation", ",".join(self.kinds),
                "--snr", ",".join(_fmt(s) for s in self.snrs),
                "--M", str(self.M), "--N", str(self.N),
                "--timing", "--format", "json"]
        if self.evms:
            # argparse reads "--evm -20,-10" as a flag; the = form is required
            argv.append("--evm=" + ",".join(_fmt(e) for e in self.evms))
        if self.command == "validate":
            argv += ["--seed", str(self.seed), "--n-channels", str(self.n_channels)]
        if self.command == "evm-plan":
            argv += ["--loss", _fmt(self.loss)]
        return argv

    def expected_points(self) -> list[dict]:
        """Grid points in the order the CLI writes its rows."""
        if self.command == "rate-sweep":
            modes = ["matched", "mismatched"] if self.mode == "both" else [self.mode]
            return [{"mode": m, "constellation": k, "snr_db": s, "evm_db": e}
                    for k in self.kinds for s in self.snrs for e in self.evms for m in modes]
        decoders = ["matched", "mismatched"] if self.mode == "both" else [self.mode]
        if self.command == "validate":
            return [{"decoder": d, "constellation": k, "snr_db": s, "evm_db": e}
                    for k in self.kinds for s in self.snrs for e in self.evms for d in decoders]
        return [{"decoder": d, "constellation": k, "snr_db": s}
                for k in self.kinds for s in self.snrs for d in decoders]

    def with_workers(self, workers: int) -> "Call":
        return Call(**{**self.__dict__, "workers": workers})


def ref_key(*parts) -> str:
    """Reference-table key of one grid point, e.g. rate-sweep/mismatched/qpsk/10/-20/4/4."""
    return "/".join(p if isinstance(p, str) else _fmt(p) for p in parts)


def load_menu() -> dict:
    """references.json: reference values, seed-commit costs in seconds and
    Monte Carlo gaps, each keyed by ref_key."""
    with open(REFERENCE_FILE, encoding="utf-8") as fh:
        return json.load(fh)


def _band(items: list, cost: dict, q: float, half_width: float) -> list:
    """Items whose rank by cost lies within half_width (a share of the menu)
    of quantile q."""
    ranked = sorted(items, key=lambda it: (cost[it], it))
    lo = int(round((q - half_width) * len(ranked)))
    hi = int(round((q + half_width) * len(ranked)))
    return ranked[max(0, lo):min(len(ranked), max(hi, lo + 1))]


def _banded_draws(rng: random.Random, items: list, cost: dict, n: int) -> list:
    """n draws, the k-th from the band of items around cost quantile (k+1/2)/n."""
    return [rng.choice(_band(items, cost, (k + 0.5) / n, _BAND / n)) for k in range(n)]


def _sliced_draws(rng: random.Random, items: list, cost: dict, n: int) -> list:
    """n draws, the k-th from the k-th of n equal slices of items sorted by
    cost (stratified sampling); distinct items while n <= len(items)."""
    ranked = sorted(items, key=lambda it: (cost[it], it))
    m = len(ranked)
    return [rng.choice(ranked[k * m // n:max((k + 1) * m // n, k * m // n + 1)]) for k in range(n)]


@dataclass(frozen=True)
class Workload:
    name: str
    workers: int
    unit_s: float          # nominal wall time of one unit at the seed commit
    build: object = field(repr=False)  # (rng, n_units, menu data) -> list[Call]

    def units(self, seconds: float) -> int:
        return max(1, int(round(seconds / self.unit_s)))

    def calls(self, seed: int, n_units: int) -> list[Call]:
        rng = random.Random(f"{self.name}/{seed}")
        return self.build(rng, n_units, load_menu())


def _build_sweep(rng, n_units, data):
    """Per unit: --mode both over qpsk,qam16 at one (SNR, EVM), then
    PSK8_PAIRS --mode matched calls over psk8, each at two SNRs 2 dB apart
    of one EVM.

    psk8 points are two thirds of a run's points, so the run's median
    latency is a psk8 point. The two points of a pair cost within
    PSK8_PAIR_RATIO of each other, so the two workers finish them together;
    the pairs are sliced by cost (like plan-matched's points) from the
    middle half of the cost-sorted pairs, so every seed runs nearly the same
    psk8 costs and the median sits among many of them.
    """
    values, cost = data["values"], data["cost_s"]

    def k(mode, kind, s, e):
        return ref_key("rate-sweep", mode, kind, s, e, 4, 4)

    both, c_both, c_pair = [], {}, {}
    for s in SWEEP_SNRS:
        for e in SWEEP_EVMS:
            keys = [k(m, kind, s, e) for kind in ("qpsk", "qam16") for m in ("matched", "mismatched")]
            if all(key in values for key in keys):
                both.append((s, e))
                c_both[(s, e)] = sum(cost[key] for key in keys)
            keys = [k("matched", "psk8", s + d, e) for d in (0, 2)]
            if all(key in values for key in keys):
                lo, hi = sorted(cost[key] for key in keys)
                if hi <= PSK8_PAIR_RATIO * lo:
                    c_pair[(s, e)] = lo + hi
    pairs = sorted(c_pair, key=lambda p: (c_pair[p], p))
    middle = pairs[len(pairs) // 4:3 * len(pairs) // 4]
    picks_both = _banded_draws(rng, both, c_both, n_units)
    rng.shuffle(picks_both)
    picks_psk8 = _sliced_draws(rng, middle, c_pair, PSK8_PAIRS * n_units)
    rng.shuffle(picks_psk8)
    calls = []
    for i, (s, e) in enumerate(picks_both):
        calls.append(Call("rate-sweep", "both", ("qpsk", "qam16"), (s,), (e,), workers=2))
        for s8, e8 in picks_psk8[i * PSK8_PAIRS:(i + 1) * PSK8_PAIRS]:
            calls.append(Call("rate-sweep", "matched", ("psk8",), (s8, s8 + 2), (e8,), workers=2))
    return calls


def _build_plan(rng, n_units, data):
    """Per unit: two evm-plan calls, each for one alphabet at one SNR.

    Gaussian points take milliseconds and 64-QAM points seconds, and the
    menu's costs spread over three decades. Point k of a unit's first n
    draws comes from the k-th of n equal slices of the menu sorted by cost,
    so every seed runs nearly the same sorted list of costs. The second n
    draws are sliced the same way from the middle of the sorted menu
    (PLAN_CENTRE), so that p50 and the tail percentile each sit among half a
    dozen points of similar cost rather than two or three: a percentile
    read off a few points carries the machine's speed at the moments those
    few ran. One point per call keeps each draw independent of the others'
    SNR.
    """
    values, cost = data["values"], data["cost_s"]

    def key(kind, s):
        return ref_key("evm-plan", "matched", kind, s, PLAN_LOSS, 4, 4)

    menu = [(kind, s) for kind in PLAN_KINDS for s in PLAN_SNRS if key(kind, s) in values]
    menu_cost = {p: cost[key(*p)] for p in menu}
    ranked = sorted(menu, key=lambda p: (menu_cost[p], p))
    lo, hi = (int(q * len(ranked)) for q in PLAN_CENTRE)
    spread = _sliced_draws(rng, menu, menu_cost, n_units)
    centre = [p for p in ranked[lo:hi] if p not in spread]
    picks = spread + _sliced_draws(rng, centre, menu_cost, n_units)
    rng.shuffle(picks)
    return [Call("evm-plan", "matched", (kind,), (s,), workers=1) for kind, s in picks]


def _validate_menu(data, decoder, kind, M):
    """(SNR, EVM) points whose replica-vs-ensemble gap leaves room for the
    run's own sampling error inside the allowance."""
    family = "gaussian" if kind == "gaussian" else "discrete"
    n = VALIDATE_CHANNELS[family]
    allowance = MC_ALLOWANCE_BITS[family]
    out = []
    for s in VALIDATE_SNRS:
        for e in VALIDATE_EVMS:
            key = ref_key("validate", decoder, kind, s, e, M, M)
            if key not in data["values"] or key not in data["mc_gap"]:
                continue
            gap, stderr, n_gap, _ = data["mc_gap"][key]
            # the run's sampling error plus the error of the gap estimate itself
            sigma = stderr * math.sqrt(n_gap / n + 1.0)
            if abs(gap) + GAP_SIGMAS * sigma <= allowance:
                out.append((s, e))
    return out


def _build_validate(rng, n_units, data):
    """Per unit: GAUSS_PER_UNIT calls of Gaussian signaling with both
    decoders at M=N=4, each at one (SNR, EVM), then matched QPSK and 16-QAM
    at M=N=2 at one (SNR, EVM).

    Gaussian points are six sevenths of a run's points, so p50 and the tail
    percentile are Gaussian points; their (SNR, EVM) are sliced by
    Monte Carlo cost like plan-matched's points. The exhaustive 16-QAM
    reference costs about the same at every menu point except the high-SNR,
    -20/-30 dB EVM corner, where it is 1.3-3x slower; points above
    DISCRETE_COST_CAP times the median are left out, so that one draw
    cannot set a run's length.
    """
    def mc_cost(decoders, kinds, s, e, M):
        return sum(data["mc_gap"][ref_key("validate", d, kind, s, e, M, M)][3]
                   for d in decoders for kind in kinds)

    gauss = set(_validate_menu(data, "matched", "gaussian", 4))
    gauss = sorted(p for p in _validate_menu(data, "mismatched", "gaussian", 4) if p in gauss)
    c_gauss = {p: mc_cost(("matched", "mismatched"), ("gaussian",), *p, 4) for p in gauss}
    qam16 = set(_validate_menu(data, "matched", "qam16", 2))
    discrete = [p for p in _validate_menu(data, "matched", "qpsk", 2) if p in qam16]
    c_discrete = {p: mc_cost(("matched",), ("qpsk", "qam16"), *p, 2) for p in discrete}
    cap = DISCRETE_COST_CAP * sorted(c_discrete.values())[len(c_discrete) // 2]
    discrete = [p for p in discrete if c_discrete[p] <= cap]
    picks_gauss = _sliced_draws(rng, gauss, c_gauss, GAUSS_PER_UNIT * n_units)
    rng.shuffle(picks_gauss)
    picks_discrete = _sliced_draws(rng, discrete, c_discrete, n_units)
    rng.shuffle(picks_discrete)
    calls = []
    for i, (s, e) in enumerate(picks_discrete):
        for s_g, e_g in picks_gauss[i * GAUSS_PER_UNIT:(i + 1) * GAUSS_PER_UNIT]:
            calls.append(Call("validate", "both", ("gaussian",), (s_g,), (e_g,), M=4, N=4,
                              workers=2, seed=rng.randrange(2**31),
                              n_channels=VALIDATE_CHANNELS["gaussian"]))
        calls.append(Call("validate", "matched", ("qpsk", "qam16"), (s,), (e,), M=2, N=2, workers=2,
                          seed=rng.randrange(2**31), n_channels=VALIDATE_CHANNELS["discrete"]))
    return calls


# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    w.name: w for w in (
        Workload("sweep-rates", 2, 16.0, _build_sweep),
        Workload("plan-matched", 1, 1.75, _build_plan),
        Workload("validate-mc", 2, 10.5, _build_validate),
    )
}
