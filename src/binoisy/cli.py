"""Batch front end: rate sweeps, Monte Carlo validation runs, and EVM
planning curves as CSV or JSON.

The three subcommands run one point pipeline and differ only in a row of
_COMMANDS: a point builder that checks the request and returns each point's
key columns in grid order, a solver that fills one row, and the column list.
The pipeline opens the output, then solves the points one after another in
grid order in the calling thread and writes one row per point. A point whose
solver raises keeps only its key columns, is marked converged=false, and
names itself in one stderr line. Floats are formatted with %.10g so
identical invocations produce byte-identical files; wall-clock timing is
therefore opt-in (--timing).

Exit codes: 0 success, 1 at least one point failed to converge (suppressed
by --allow-partial), 2 malformed request, found before any point is solved:
a bad grid or flag value, or an output path that cannot be written. The
point builders check a request by building what the library would build
(every configuration, the Monte Carlo settings, the evm-plan search), so
the library's ValueError is the usage error; only rules of the front end
itself, such as the highsnr mode's Gaussian-only inputs, are written here.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import math
import sys
import time
from dataclasses import dataclass
from itertools import product
from typing import Callable, Optional

import numpy as np

from .evm_planner import LossQuery, check_search, max_evm_for_loss, rule_of_thumb_evm
from .model import CONSTELLATION_KINDS, RateResult, _unit_points, make_config, make_constellation
from .montecarlo import (
    McSettings,
    check_lattice,
    mc_gmi_gaussian,
    mc_mi_matched_discrete,
    mc_mi_matched_gaussian,
)
from .numerics import DEFAULT_ORDER, check_order
from .replica_matched import matched_mi, matched_mi_highsnr
from .replica_mismatched import gmi, gmi_highsnr_gaussian

__all__ = ["main"]

_LN2 = math.log(2.0)
_MAX_GRID = 100_000  # values one START:STOP:STEP range may expand to
_KINDS = tuple(k for k in CONSTELLATION_KINDS if k != "custom")


class UsageError(ValueError):
    """Malformed request detected after flag parsing that only the front end
    rejects; it and every other ValueError before solving map to exit code 2."""


# ---------------------------------------------------------------------------
# flag value parsing
# ---------------------------------------------------------------------------

def _parse_snr(text: str) -> list[float]:
    """START:STOP:STEP (inclusive), a comma list, or a single value, in dB."""
    text = text.strip()
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise argparse.ArgumentTypeError(f"expected START:STOP:STEP, got {text!r}")
        try:
            start, stop, step = (float(p) for p in parts)
        except ValueError:
            raise argparse.ArgumentTypeError(f"non-numeric range {text!r}") from None
        if not all(math.isfinite(v) for v in (start, stop, step)):
            raise argparse.ArgumentTypeError(f"range start, stop and step must be finite, got {text!r}")
        if step <= 0:
            raise argparse.ArgumentTypeError(f"range step must be positive, got {step:g}")
        if stop < start:
            raise argparse.ArgumentTypeError(f"range stop {stop:g} is below start {start:g}")
        span = (stop - start) / step + 1e-9  # inf when the quotient overflows
        if not span < _MAX_GRID:
            raise argparse.ArgumentTypeError(f"range {text!r} has more than {_MAX_GRID} values")
        return [round(start + i * step, 12) for i in range(int(span) + 1)]
    return _parse_float_list(text)


def _parse_float_list(text: str) -> list[float]:
    out = []
    for piece in text.split(","):
        piece = piece.strip()
        if not piece:
            continue
        try:
            out.append(float(piece))
        except ValueError:
            raise argparse.ArgumentTypeError(f"non-numeric value {piece!r}") from None
    if not out:
        raise argparse.ArgumentTypeError(f"empty list {text!r}")
    return out


def _parse_kinds(text: str) -> list[str]:
    out = []
    for piece in text.split(","):
        piece = piece.strip().lower()
        if not piece:
            continue
        if piece not in _KINDS:
            raise argparse.ArgumentTypeError(
                f"unknown constellation {piece!r}, expected one of {', '.join(_KINDS)}"
            )
        out.append(piece)
    if not out:
        raise argparse.ArgumentTypeError("at least one constellation is required")
    return out


def _parse_bool(text: str) -> bool:
    low = text.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise argparse.ArgumentTypeError(f"expected a boolean, got {text!r}")


# ---------------------------------------------------------------------------
# flag tables (drive both argparse and the config-file loader)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Flag:
    name: str
    conv: Optional[Callable[[str], object]]  # None means store_true
    default: object
    help: str
    choices: Optional[tuple] = None
    short: Optional[str] = None
    metavar: Optional[str] = None

    @property
    def dest(self) -> str:
        return self.name.lstrip("-").replace("-", "_")


_COMMON = [
    _Flag("--output", str, "-", "output path, - for stdout", short="-o", metavar="PATH"),
    _Flag("--format", str, "csv", "output format", choices=("csv", "json")),
    _Flag("--order", int, DEFAULT_ORDER, "quadrature order per real axis", metavar="K"),
    _Flag("--timing", None, False, "append a wall_ms column (breaks byte-identical reruns)"),
    _Flag("--allow-partial", None, False, "exit 0 even if some points did not converge"),
    _Flag("--config", str, None, "key=value file supplying defaults for this subcommand", metavar="FILE"),
]

# the link grid every subcommand sweeps
_LINK = [
    _Flag("--constellation", _parse_kinds, ["gaussian"], "comma list of constellations", metavar="LIST"),
    _Flag("--snr", _parse_snr, _parse_snr("0:30:5"), "SNR grid in dB (START:STOP:STEP or comma list)", metavar="GRID"),
    _Flag("--M", int, 4, "transmit streams", metavar="M"),
    _Flag("--N", int, 4, "receive antennas", metavar="N"),
]

# replica solves at given EVMs (rate-sweep and validate)
_SOLVE = [
    _Flag("--evm", _parse_float_list, [-math.inf], "comma list of EVM values in dB (-inf for ideal)", metavar="LIST"),
    _Flag("--nats", None, False, "report rates in nats instead of bits"),
]

_DECODER = _Flag("--decoder", str, "matched", "decoder(s) to run", choices=("matched", "mismatched", "both"))

_RATE_FLAGS = [
    _Flag("--mode", str, "both", "which decoder analysis to run",
          choices=("matched", "mismatched", "both", "highsnr")),
] + _LINK + _SOLVE + _COMMON

_VALIDATE_FLAGS = [
    _DECODER,
    _Flag("--seed", int, 0, "root seed for the Monte Carlo draws", metavar="S"),
    _Flag("--n-channels", int, 0, "channel draws per point (0 = 10000 Gaussian, 1000 discrete)", metavar="K"),
    _Flag("--n-noise", int, 100, "noise draws per channel (discrete oracle only)", metavar="K"),
] + _LINK + _SOLVE + _COMMON

_PLAN_FLAGS = [
    _Flag("--loss", float, 0.05, "acceptable fractional rate loss", metavar="FRAC"),
    _DECODER,
    _Flag("--evm-lo", float, -60.0, "lower end of the EVM search bracket in dB", metavar="DB"),
    _Flag("--evm-hi", float, 0.0, "upper end of the EVM search bracket in dB", metavar="DB"),
    _Flag("--tol-db", float, 0.002, "width of the final EVM bracket in dB", metavar="DB"),
] + _LINK + _COMMON


def _attach_dash_values(argv: list[str]) -> list[str]:
    """Write `--flag VALUE` as `--flag=VALUE` when VALUE starts with '-':
    argparse takes -40 as a value but reads -20,-10 or -inf as a flag."""
    takes_value = {name for cmd in _COMMANDS.values() for f in cmd.flags
                   if f.conv is not None for name in (f.name, f.short) if name}
    out: list[str] = []
    for tok in argv:
        if out and out[-1] in takes_value and tok[:1] == "-" and tok not in takes_value:
            out[-1] += "=" + tok
        else:
            out.append(tok)
    return out


def _build_parser(suppress_defaults: bool) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="binoisy",
        description="Achievable rates of MIMO links with transmit-side distortion.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    for command, cmd in _COMMANDS.items():
        sub = subparsers.add_parser(command, help=cmd.blurb)
        for f in cmd.flags:
            names = [f.short, f.name] if f.short else [f.name]
            default = argparse.SUPPRESS if suppress_defaults else f.default
            if f.conv is None:
                sub.add_argument(*names, dest=f.dest, action="store_true",
                                 default=default, help=f.help)
            else:
                sub.add_argument(*names, dest=f.dest, type=f.conv, default=default,
                                 choices=f.choices, help=f.help,
                                 metavar=f.metavar)
    return parser


# ---------------------------------------------------------------------------
# config file
# ---------------------------------------------------------------------------

def _apply_config(args: argparse.Namespace, explicit: argparse.Namespace) -> None:
    """Overlay key=value pairs from --config; explicit flags win."""
    # keys match in any case: the dests of --M and --N are upper-case
    flags = {f.dest.lower(): f for f in _COMMANDS[args.command].flags}
    path = args.config
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise UsageError(f"cannot read config {path}: {exc}") from None
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, text = (part.strip() for part in line.split("=", 1))
        flag = flags.get(key.lower().replace("-", "_"))
        if flag is None:
            raise UsageError(f"{path}:{lineno}: unknown key {key!r} for {args.command}")
        if flag.dest == "config":
            raise UsageError(f"{path}:{lineno}: config files cannot nest")
        if hasattr(explicit, flag.dest):
            continue
        try:
            value = _parse_bool(text) if flag.conv is None else flag.conv(text)
        except (argparse.ArgumentTypeError, ValueError) as exc:
            raise UsageError(f"{path}:{lineno}: {exc}") from None
        if flag.choices is not None and value not in flag.choices:
            raise UsageError(
                f"{path}:{lineno}: {key} must be one of {', '.join(map(str, flag.choices))}"
            )
        setattr(args, flag.dest, value)


# ---------------------------------------------------------------------------
# shared plumbing
# ---------------------------------------------------------------------------

def _dispatch(points: list, worker: Callable) -> tuple[list[dict], bool]:
    """Run worker on each point in grid order, in the calling thread. This is
    the one place a point runs, so a tracer can wrap each point here."""
    results = [worker(p) for p in points]
    rows = [row for row, _ in results]
    return rows, all(ok for _, ok in results)


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return "%.10g" % value
    return str(value)


def _json_value(value):
    if isinstance(value, float) and not math.isfinite(value):
        return _fmt(value)
    return value


def _open_output(path: str):
    """The output stream, opened before any point is solved so that an
    unwritable path costs no solve."""
    if path == "-":
        return contextlib.nullcontext(sys.stdout)
    try:
        return open(path, "w", encoding="utf-8", newline="")
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc}") from None


def _write(fh, args: argparse.Namespace, columns: list[str], rows: list[dict]) -> None:
    """Write rows in column order; a {unit} placeholder in a column name
    becomes bits or nats in the header."""
    unit = "nats" if getattr(args, "nats", False) else "bits"
    header = [c.format(unit=unit) for c in columns]
    if args.format == "json":
        payload = {
            "command": args.command,
            "columns": header,
            "rows": [{h: _json_value(row.get(c)) for h, c in zip(header, columns)} for row in rows],
        }
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    else:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(row.get(c)) for c in columns])


def _to_unit(rate_nats: float, args) -> float:
    return rate_nats if args.nats else rate_nats / _LN2


# ---------------------------------------------------------------------------
# point builders: check the request, return each point's key columns in grid
# order
# ---------------------------------------------------------------------------

def _check_shared(args, evms: list[float]) -> None:
    """Check the flag groups that subcommands share: the quadrature order
    and the configuration of every (SNR, EVM) of the request."""
    check_order(args.order)
    for snr, evm in product(args.snr, evms):
        make_config(args.M, args.N, snr, evm)


def _decoders(choice: str) -> list[str]:
    return [choice] if choice in ("matched", "mismatched") else ["matched", "mismatched"]


def _rate_points(args) -> list[dict]:
    modes, snrs = _decoders(args.mode), args.snr
    _check_shared(args, args.evm)
    if args.mode == "highsnr":
        if any(k != "gaussian" for k in args.constellation):
            raise UsageError("highsnr mode is a Gaussian-signaling limit; use --constellation gaussian")
        if any(math.isinf(e) for e in args.evm):
            raise UsageError("highsnr mode needs a finite EVM (the ideal-hardware limit diverges)")
        # the infinite-SNR limit does not depend on the SNR grid; emit one row
        modes, snrs = ["highsnr-" + m for m in modes], [math.inf]
    return [{"mode": mode, "constellation": kind, "snr_db": snr, "evm_db": evm}
            for kind, snr, evm, mode in product(args.constellation, snrs, args.evm, modes)]


def _point_seed(root: int, index: int) -> int:
    return int(np.random.SeedSequence([root, index]).generate_state(1)[0])


def _mc_settings(args, gaussian: bool, seed: int) -> McSettings:
    """Monte Carlo settings of a validate point; --n-channels 0 means 10000
    channels for Gaussian inputs and 1000 for discrete ones."""
    return McSettings(n_channels=args.n_channels or (10000 if gaussian else 1000),
                      n_noise=args.n_noise, seed=seed)


def _validate_points(args) -> list[dict]:
    decoders = _decoders(args.decoder)
    _check_shared(args, args.evm)
    discrete = [k for k in args.constellation if k != "gaussian"]
    if discrete and "mismatched" in decoders:
        raise UsageError(
            "no Monte Carlo reference exists for mismatched decoding of discrete "
            f"constellations ({', '.join(discrete)}); use --decoder matched"
        )
    for kind in args.constellation:
        _mc_settings(args, kind == "gaussian", args.seed)
    for kind in discrete:
        check_lattice(len(_unit_points(kind)), args.M)
    # each point draws from a child seed of its grid index, so its draws do
    # not depend on how many the points before it made
    grid = product(args.constellation, args.snr, args.evm, decoders)
    return [{"decoder": dec, "constellation": kind, "snr_db": snr, "evm_db": evm,
             "seed": _point_seed(args.seed, i), "n_noise": args.n_noise}
            for i, (kind, snr, evm, dec) in enumerate(grid)]


def _plan_points(args) -> list[dict]:
    decoders = _decoders(args.decoder)
    _check_shared(args, [-math.inf])
    check_search(args.loss, args.evm_lo, args.evm_hi, args.tol_db)
    return [{"decoder": dec, "constellation": kind, "snr_db": snr,
             "loss_budget": args.loss, "rule_of_thumb_db": rule_of_thumb_evm(snr)}
            for kind, snr, dec in product(args.constellation, args.snr, decoders)]


# ---------------------------------------------------------------------------
# solvers: fill one row from its key columns, return whether it converged.
# Rate columns are named with a {unit} placeholder that _write fills in.
# ---------------------------------------------------------------------------

def _replica(args, row: dict, matched: bool):
    """(cfg, constellation, RateResult) of the replica solve at a row's point."""
    cfg = make_config(args.M, args.N, row["snr_db"], row["evm_db"])
    con = make_constellation(row["constellation"], cfg.gamma_bar)
    res = (matched_mi if matched else gmi)(cfg, con, order=args.order)
    return cfg, con, res


def _solve_rate(args, row: dict) -> bool:
    mode = row["mode"]
    kappa = 10.0 ** (row["evm_db"] / 20.0)
    if mode == "highsnr-matched":
        res = RateResult(matched_mi_highsnr(args.M / args.N, kappa), {})
    elif mode == "highsnr-mismatched":
        res = gmi_highsnr_gaussian(args.M / args.N, kappa)
    else:
        res = _replica(args, row, mode == "matched")[2]
    row.update(res.params)
    row.update({"rate_{unit}_per_stream": _to_unit(res.rate_nats, args), "s_tilde_star": res.s_tilde,
                "converged": res.converged, "iterations": res.iterations})
    return res.converged


def _solve_validate(args, row: dict) -> bool:
    matched = row["decoder"] == "matched"
    cfg, con, res = _replica(args, row, matched)
    gaussian = row["constellation"] == "gaussian"
    settings = _mc_settings(args, gaussian, row["seed"])
    if not gaussian:
        mc = mc_mi_matched_discrete(cfg, con, settings)
    else:
        mc = mc_mi_matched_gaussian(cfg, settings) if matched else mc_gmi_gaussian(cfg, settings)
    replica = _to_unit(res.rate_nats, args)
    reference = _to_unit(mc.rate_nats, args)
    row.update({
        "rate_replica_{unit}": replica,
        "rate_mc_{unit}": reference,
        "mc_stderr_{unit}": _to_unit(mc.stderr_nats, args),
        "abs_diff_{unit}": abs(replica - reference),
        "n_channels": settings.n_channels,
        "converged": res.converged,
        "iterations": res.iterations,
    })
    return res.converged


def _solve_plan(args, row: dict) -> bool:
    query = LossQuery(M=args.M, N=args.N, constellation=row["constellation"],
                      decoder=row["decoder"], order=args.order)
    row["max_evm_db"] = max_evm_for_loss(query, row["snr_db"], args.loss,
                                         lo_db=args.evm_lo, hi_db=args.evm_hi, tol_db=args.tol_db)
    row["converged"] = True
    return True


# ---------------------------------------------------------------------------
# the point pipeline
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Command:
    blurb: str
    flags: list[_Flag]
    points: Callable[[argparse.Namespace], list[dict]]
    solve: Callable[[argparse.Namespace, dict], bool]
    columns: list[str]


_COMMANDS = {
    "rate-sweep": _Command(
        "replica rate curves over an SNR/EVM grid", _RATE_FLAGS, _rate_points, _solve_rate,
        ["mode", "constellation", "snr_db", "evm_db", "rate_{unit}_per_stream",
         "s_tilde_star", "eta", "xi", "eps", "eps_tilde",
         "eta_prime", "eps_prime", "converged", "iterations"]),
    "validate": _Command(
        "replica rates against Monte Carlo references", _VALIDATE_FLAGS, _validate_points, _solve_validate,
        ["decoder", "constellation", "snr_db", "evm_db",
         "rate_replica_{unit}", "rate_mc_{unit}", "mc_stderr_{unit}",
         "abs_diff_{unit}", "n_channels", "n_noise", "seed",
         "converged", "iterations"]),
    "evm-plan": _Command(
        "maximum EVM meeting a rate-loss budget vs SNR", _PLAN_FLAGS, _plan_points, _solve_plan,
        ["decoder", "constellation", "snr_db", "loss_budget",
         "max_evm_db", "rule_of_thumb_db", "converged"]),
}


def _run(args, cmd: _Command, points: list[dict]) -> tuple[list[dict], bool]:
    """Solve every point of the request; a point that raises becomes a
    converged=false row holding only its key columns."""

    def work(keys: dict) -> tuple[dict, bool]:
        t0 = time.perf_counter()
        row = dict(keys)
        try:
            ok = cmd.solve(args, row)
        except Exception as exc:
            where = " ".join(f"{k}={_fmt(v)}" for k, v in keys.items())
            print(f"binoisy: {args.command} {where}: {exc}", file=sys.stderr)
            row, ok = dict(keys, converged=False), False
        if args.timing:
            row["wall_ms"] = (time.perf_counter() - t0) * 1e3
        return row, ok

    return _dispatch(points, work)


def main(argv: Optional[list[str]] = None) -> int:
    argv = _attach_dash_values(sys.argv[1:] if argv is None else argv)
    args = _build_parser(suppress_defaults=False).parse_args(argv)
    cmd = _COMMANDS[args.command]
    try:
        if args.config:
            explicit = _build_parser(suppress_defaults=True).parse_args(argv)
            _apply_config(args, explicit)
        points = cmd.points(args)
        out = _open_output(args.output)
    except ValueError as exc:
        print(f"binoisy: error: {exc}", file=sys.stderr)
        return 2
    with out as fh:
        rows, ok = _run(args, cmd, points)
        _write(fh, args, cmd.columns + (["wall_ms"] if args.timing else []), rows)
    if ok or args.allow_partial:
        return 0
    return 1


if __name__ == "__main__":
    sys.exit(main())
