"""Batch front end: rate sweeps, Monte Carlo validation runs, and EVM
planning curves as CSV or JSON.

Three subcommands share one plumbing path: build the point list in spec
order, dispatch points to a worker pool (capped by BINOISY_THREADS), and
write rows back in spec order regardless of completion order. Floats are
formatted with %.10g so identical invocations produce byte-identical files;
wall-clock timing is therefore opt-in (--timing).

Exit codes: 0 success, 1 at least one point failed to converge (suppressed
by --allow-partial), 2 malformed request.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .evm_planner import LossQuery, max_evm_for_loss, rule_of_thumb_evm
from .model import CONSTELLATION_KINDS, make_config, make_constellation
from .montecarlo import (
    McSettings,
    mc_gmi_gaussian,
    mc_mi_matched_discrete,
    mc_mi_matched_gaussian,
)
from .numerics import DEFAULT_ORDER
from .replica_matched import matched_mi, matched_mi_highsnr
from .replica_mismatched import gmi, gmi_highsnr_gaussian

__all__ = ["main"]

_LN2 = math.log(2.0)
_KINDS = tuple(k for k in CONSTELLATION_KINDS if k != "custom")


class UsageError(Exception):
    """Malformed request detected after flag parsing; maps to exit code 2."""


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
        if step <= 0:
            raise argparse.ArgumentTypeError(f"range step must be positive, got {step:g}")
        if stop < start:
            raise argparse.ArgumentTypeError(f"range stop {stop:g} is below start {start:g}")
        count = int(math.floor((stop - start) / step + 1e-9)) + 1
        return [round(start + i * step, 12) for i in range(count)]
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

_RATE_FLAGS = [
    _Flag("--mode", str, "both", "which decoder analysis to run",
          choices=("matched", "mismatched", "both", "highsnr")),
    _Flag("--constellation", _parse_kinds, ["gaussian"], "comma list of constellations", metavar="LIST"),
    _Flag("--snr", _parse_snr, _parse_snr("0:30:5"), "SNR grid in dB (START:STOP:STEP or comma list)", metavar="GRID"),
    _Flag("--evm", _parse_float_list, [-math.inf], "comma list of EVM values in dB (-inf for ideal)", metavar="LIST"),
    _Flag("--M", int, 4, "transmit streams", metavar="M"),
    _Flag("--N", int, 4, "receive antennas", metavar="N"),
    _Flag("--max-iter", int, 500, "fixed-point iteration budget per start", metavar="K"),
    _Flag("--nats", None, False, "report rates in nats instead of bits"),
] + _COMMON

_VALIDATE_FLAGS = [
    _Flag("--decoder", str, "matched", "which decoder to validate",
          choices=("matched", "mismatched", "both")),
    _Flag("--constellation", _parse_kinds, ["gaussian"], "comma list of constellations", metavar="LIST"),
    _Flag("--snr", _parse_snr, _parse_snr("0:30:5"), "SNR grid in dB", metavar="GRID"),
    _Flag("--evm", _parse_float_list, [-math.inf], "comma list of EVM values in dB", metavar="LIST"),
    _Flag("--M", int, 4, "transmit streams", metavar="M"),
    _Flag("--N", int, 4, "receive antennas", metavar="N"),
    _Flag("--seed", int, 0, "root seed for the Monte Carlo draws", metavar="S"),
    _Flag("--n-channels", int, 0, "channel draws per point (0 = 10000 Gaussian, 1000 discrete)", metavar="K"),
    _Flag("--n-noise", int, 100, "noise draws per channel (discrete oracle only)", metavar="K"),
    _Flag("--max-iter", int, 500, "fixed-point iteration budget per start", metavar="K"),
    _Flag("--nats", None, False, "report rates in nats instead of bits"),
] + _COMMON

_PLAN_FLAGS = [
    _Flag("--loss", float, 0.05, "acceptable fractional rate loss", metavar="FRAC"),
    _Flag("--decoder", str, "matched", "decoding assumed by the planner",
          choices=("matched", "mismatched", "both")),
    _Flag("--constellation", _parse_kinds, ["gaussian"], "comma list of constellations", metavar="LIST"),
    _Flag("--snr", _parse_snr, _parse_snr("0:30:5"), "SNR grid in dB", metavar="GRID"),
    _Flag("--M", int, 4, "transmit streams", metavar="M"),
    _Flag("--N", int, 4, "receive antennas", metavar="N"),
    _Flag("--evm-lo", float, -60.0, "lower end of the EVM search bracket in dB", metavar="DB"),
    _Flag("--evm-hi", float, 0.0, "upper end of the EVM search bracket in dB", metavar="DB"),
    _Flag("--tol-db", float, 0.002, "bisection tolerance in dB", metavar="DB"),
] + _COMMON

_SUBCOMMANDS = {
    "rate-sweep": (_RATE_FLAGS, "replica rate curves over an SNR/EVM grid"),
    "validate": (_VALIDATE_FLAGS, "replica rates against Monte Carlo references"),
    "evm-plan": (_PLAN_FLAGS, "maximum EVM meeting a rate-loss budget vs SNR"),
}


def _attach_dash_values(argv: list[str]) -> list[str]:
    """Write `--flag VALUE` as `--flag=VALUE` when VALUE starts with '-':
    argparse takes -40 as a value but reads -20,-10 or -inf as a flag."""
    takes_value = {name for flags, _ in _SUBCOMMANDS.values() for f in flags
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
    for command, (flags, blurb) in _SUBCOMMANDS.items():
        sub = subparsers.add_parser(command, help=blurb)
        for f in flags:
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
    flags = {f.dest: f for f in _SUBCOMMANDS[args.command][0]}
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
        dest = key.lower().replace("-", "_")
        flag = flags.get(dest)
        if flag is None:
            raise UsageError(f"{path}:{lineno}: unknown key {key!r} for {args.command}")
        if dest == "config":
            raise UsageError(f"{path}:{lineno}: config files cannot nest")
        if hasattr(explicit, dest):
            continue
        try:
            value = _parse_bool(text) if flag.conv is None else flag.conv(text)
        except (argparse.ArgumentTypeError, ValueError) as exc:
            raise UsageError(f"{path}:{lineno}: {exc}") from None
        if flag.choices is not None and value not in flag.choices:
            raise UsageError(
                f"{path}:{lineno}: {key} must be one of {', '.join(map(str, flag.choices))}"
            )
        setattr(args, dest, value)


# ---------------------------------------------------------------------------
# shared plumbing
# ---------------------------------------------------------------------------

def _thread_count(n_points: int) -> int:
    raw = os.environ.get("BINOISY_THREADS", "")
    if raw:
        try:
            cap = int(raw)
        except ValueError:
            raise UsageError(f"BINOISY_THREADS must be an integer, got {raw!r}") from None
        if cap < 1:
            raise UsageError(f"BINOISY_THREADS must be positive, got {cap}")
    else:
        cap = os.cpu_count() or 1
    return max(1, min(cap, n_points))


def _dispatch(points: list, worker: Callable) -> tuple[list[dict], bool]:
    workers = _thread_count(len(points))
    if workers == 1:
        results = [worker(p) for p in points]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(worker, points))
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


def _write(args: argparse.Namespace, columns: list[str], rows: list[dict]) -> None:
    own = args.output != "-"
    fh = open(args.output, "w", encoding="utf-8", newline="") if own else sys.stdout
    try:
        if args.format == "json":
            payload = {
                "command": args.command,
                "columns": columns,
                "rows": [{c: _json_value(row.get(c)) for c in columns} for row in rows],
            }
            json.dump(payload, fh, indent=2)
            fh.write("\n")
        else:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(columns)
            for row in rows:
                writer.writerow([_fmt(row.get(c)) for c in columns])
    finally:
        if own:
            fh.close()


def _rate_unit(args) -> str:
    return "nats" if getattr(args, "nats", False) else "bits"


def _to_unit(rate_nats: float, args) -> float:
    return rate_nats if getattr(args, "nats", False) else rate_nats / _LN2


def _clocked(row: dict, t0: float, args) -> dict:
    if args.timing:
        row["wall_ms"] = (time.perf_counter() - t0) * 1e3
    return row


def _failure(row: dict, point_desc: str, exc: Exception) -> tuple[dict, bool]:
    print(f"binoisy: {point_desc}: {exc}", file=sys.stderr)
    row.update(converged=False)
    return row, False


# ---------------------------------------------------------------------------
# rate-sweep
# ---------------------------------------------------------------------------

def _run_rate_sweep(args) -> tuple[list[str], list[dict], bool]:
    modes = {
        "matched": ["matched"],
        "mismatched": ["mismatched"],
        "both": ["matched", "mismatched"],
        "highsnr": ["highsnr-matched", "highsnr-mismatched"],
    }[args.mode]
    _check_grid(args)
    if args.mode == "highsnr":
        if any(k != "gaussian" for k in args.constellation):
            raise UsageError("highsnr mode is a Gaussian-signaling limit; use --constellation gaussian")
        if any(math.isinf(e) for e in args.evm):
            raise UsageError("highsnr mode needs a finite EVM (the ideal-hardware limit diverges)")

    unit = _rate_unit(args)
    rate_col = f"rate_{unit}_per_stream"
    columns = ["mode", "constellation", "snr_db", "evm_db", rate_col,
               "s_tilde_star", "eta", "xi", "eps", "eps_tilde",
               "eta_prime", "eps_prime", "converged", "iterations"]
    if args.timing:
        columns.append("wall_ms")

    # the infinite-SNR limit does not depend on the SNR grid; emit one row
    snrs = [math.inf] if args.mode == "highsnr" else args.snr
    points = [(kind, snr, evm, mode)
              for kind in args.constellation
              for snr in snrs
              for evm in args.evm
              for mode in modes]

    def work(point):
        kind, snr, evm, mode = point
        t0 = time.perf_counter()
        row = {"mode": mode, "constellation": kind, "snr_db": snr, "evm_db": evm}
        try:
            if mode == "highsnr-matched":
                row[rate_col] = _to_unit(matched_mi_highsnr(args.M / args.N, 10.0 ** (evm / 20.0)), args)
                row.update(converged=True, iterations=0)
            elif mode == "highsnr-mismatched":
                res = gmi_highsnr_gaussian(args.M / args.N, 10.0 ** (evm / 20.0))
                row.update({rate_col: _to_unit(res.rate_nats, args), "s_tilde_star": res.s_tilde,
                            "xi": res.params["xi"], "converged": res.converged,
                            "iterations": res.iterations})
            else:
                cfg = make_config(args.M, args.N, snr, evm)
                con = make_constellation(kind, cfg.gamma_bar)
                if mode == "matched":
                    res = matched_mi(cfg, con, order=args.order, max_iter=args.max_iter)
                else:
                    res = gmi(cfg, con, order=args.order, max_iter=args.max_iter)
                row.update({rate_col: _to_unit(res.rate_nats, args), "s_tilde_star": res.s_tilde,
                            "converged": res.converged, "iterations": res.iterations})
                row.update(res.params)
            return _clocked(row, t0, args), bool(row["converged"])
        except Exception as exc:
            return _failure(_clocked(row, t0, args), f"rate-sweep {point}", exc)

    rows, ok = _dispatch(points, work)
    return columns, rows, ok


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------

def _point_seed(root: int, index: int) -> int:
    return int(np.random.SeedSequence([root, index]).generate_state(1)[0])


def _run_validate(args) -> tuple[list[str], list[dict], bool]:
    decoders = ["matched", "mismatched"] if args.decoder == "both" else [args.decoder]
    _check_grid(args)
    discrete = [k for k in args.constellation if k != "gaussian"]
    if discrete and "mismatched" in decoders:
        raise UsageError(
            "no Monte Carlo reference exists for mismatched decoding of discrete "
            f"constellations ({', '.join(discrete)}); use --decoder matched"
        )
    if args.n_channels < 0 or (0 < args.n_channels < 2):
        raise UsageError(f"--n-channels must be 0 (auto) or at least 2, got {args.n_channels}")
    if args.n_noise < 1:
        raise UsageError(f"--n-noise must be positive, got {args.n_noise}")

    unit = _rate_unit(args)
    columns = ["decoder", "constellation", "snr_db", "evm_db",
               f"rate_replica_{unit}", f"rate_mc_{unit}", f"mc_stderr_{unit}",
               f"abs_diff_{unit}", "n_channels", "n_noise", "seed",
               "converged", "iterations"]
    if args.timing:
        columns.append("wall_ms")

    points = [(i, kind, snr, evm, dec)
              for i, (kind, snr, evm, dec) in enumerate(
                  (kind, snr, evm, dec)
                  for kind in args.constellation
                  for snr in args.snr
                  for evm in args.evm
                  for dec in decoders)]

    def work(point):
        index, kind, snr, evm, dec = point
        t0 = time.perf_counter()
        seed = _point_seed(args.seed, index)
        row = {"decoder": dec, "constellation": kind, "snr_db": snr, "evm_db": evm,
               "seed": seed, "n_noise": args.n_noise}
        try:
            cfg = make_config(args.M, args.N, snr, evm)
            con = make_constellation(kind, cfg.gamma_bar)
            if dec == "matched":
                res = matched_mi(cfg, con, order=args.order, max_iter=args.max_iter)
            else:
                res = gmi(cfg, con, order=args.order, max_iter=args.max_iter)
            if kind == "gaussian":
                n_ch = args.n_channels or 10000
                settings = McSettings(n_channels=n_ch, n_noise=args.n_noise, seed=seed)
                mc = (mc_mi_matched_gaussian(cfg, settings) if dec == "matched"
                      else mc_gmi_gaussian(cfg, settings))
            else:
                n_ch = args.n_channels or 1000
                settings = McSettings(n_channels=n_ch, n_noise=args.n_noise, seed=seed)
                mc = mc_mi_matched_discrete(cfg, con, settings)
            replica = _to_unit(res.rate_nats, args)
            reference = _to_unit(mc.rate_nats, args)
            row.update({
                f"rate_replica_{unit}": replica,
                f"rate_mc_{unit}": reference,
                f"mc_stderr_{unit}": _to_unit(mc.stderr_nats, args),
                f"abs_diff_{unit}": abs(replica - reference),
                "n_channels": n_ch,
                "converged": res.converged,
                "iterations": res.iterations,
            })
            return _clocked(row, t0, args), res.converged
        except Exception as exc:
            return _failure(_clocked(row, t0, args), f"validate point {index}", exc)

    rows, ok = _dispatch(points, work)
    return columns, rows, ok


# ---------------------------------------------------------------------------
# evm-plan
# ---------------------------------------------------------------------------

def _run_evm_plan(args) -> tuple[list[str], list[dict], bool]:
    decoders = ["matched", "mismatched"] if args.decoder == "both" else [args.decoder]
    _check_grid(args, require_evm=False)
    if not 0.0 < args.loss < 1.0:
        raise UsageError(f"--loss must be a fraction in (0, 1), got {args.loss:g}")
    if not args.evm_lo < args.evm_hi:
        raise UsageError(f"need --evm-lo < --evm-hi, got [{args.evm_lo:g}, {args.evm_hi:g}]")
    if args.evm_hi > 0:
        raise UsageError(f"--evm-hi cannot exceed 0 dB, got {args.evm_hi:g}")

    columns = ["decoder", "constellation", "snr_db", "loss_budget",
               "max_evm_db", "rule_of_thumb_db", "converged"]
    if args.timing:
        columns.append("wall_ms")

    points = [(kind, snr, dec)
              for kind in args.constellation
              for snr in args.snr
              for dec in decoders]

    def work(point):
        kind, snr, dec = point
        t0 = time.perf_counter()
        row = {"decoder": dec, "constellation": kind, "snr_db": snr,
               "loss_budget": args.loss, "rule_of_thumb_db": rule_of_thumb_evm(snr)}
        try:
            query = LossQuery(M=args.M, N=args.N, constellation=kind,
                              decoder="gmi" if dec == "mismatched" else "matched",
                              order=args.order)
            row["max_evm_db"] = max_evm_for_loss(
                query, snr, args.loss,
                lo_db=args.evm_lo, hi_db=args.evm_hi, tol_db=args.tol_db,
            )
            row["converged"] = True
            return _clocked(row, t0, args), True
        except Exception as exc:
            return _failure(_clocked(row, t0, args), f"evm-plan {point}", exc)

    rows, ok = _dispatch(points, work)
    return columns, rows, ok


def _check_grid(args, require_evm: bool = True) -> None:
    if args.M < 1 or args.N < 1:
        raise UsageError(f"M and N must be positive, got M={args.M}, N={args.N}")
    if not args.snr:
        raise UsageError("empty SNR grid")
    if any(not math.isfinite(s) for s in args.snr):
        raise UsageError("SNR grid must be finite")
    if require_evm:
        if not args.evm:
            raise UsageError("empty EVM list")
        for e in args.evm:
            if e > 0:
                raise UsageError(f"EVM must be <= 0 dB, got {e:g}")


_RUNNERS = {
    "rate-sweep": _run_rate_sweep,
    "validate": _run_validate,
    "evm-plan": _run_evm_plan,
}


def main(argv: Optional[list[str]] = None) -> int:
    argv = _attach_dash_values(sys.argv[1:] if argv is None else argv)
    args = _build_parser(suppress_defaults=False).parse_args(argv)
    try:
        if args.config:
            explicit = _build_parser(suppress_defaults=True).parse_args(argv)
            _apply_config(args, explicit)
        columns, rows, ok = _RUNNERS[args.command](args)
    except UsageError as exc:
        print(f"binoisy: error: {exc}", file=sys.stderr)
        return 2
    _write(args, columns, rows)
    if ok or args.allow_partial:
        return 0
    return 1


if __name__ == "__main__":
    sys.exit(main())
