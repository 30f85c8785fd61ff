"""Hardware budget planning: how much transmit-side distortion a link can
absorb before the achievable rate drops by more than a given fraction.

The planner answers the inverse question of the rate solvers. Rate loss is
monotone in the error vector magnitude, so the largest admissible EVM is the
root of loss minus budget on the dB axis, found by Brent's method; the
returned value is the certified-feasible lower endpoint of the final bracket.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .model import make_config, make_constellation
from .numerics import DEFAULT_ORDER, _brent, _Counted
from .replica_matched import matched_mi
from .replica_mismatched import gmi

__all__ = ["LossQuery", "rate_loss", "check_search", "max_evm_for_loss", "rule_of_thumb_evm", "DECODERS"]

DECODERS = ("matched", "mismatched")
_MAX_SEARCH_SOLVES = 200  # rate solves one EVM search may take after its end points


@dataclass(frozen=True)
class LossQuery:
    """What is being transmitted and how it is decoded, everything except the
    SNR and EVM operating point."""

    M: int
    N: int
    constellation: str = "gaussian"
    decoder: str = "matched"
    order: int = DEFAULT_ORDER

    def __post_init__(self):
        if self.decoder not in DECODERS:
            raise ValueError(f"decoder must be one of {DECODERS}, got {self.decoder!r}")


def _rate_nats(query: LossQuery, snr_db: float, evm_db: float) -> float:
    """The rate behind one loss evaluation; raises RuntimeError when its
    solve did not converge, so no plan rests on an unconverged rate."""
    cfg = make_config(query.M, query.N, snr_db, evm_db)
    con = make_constellation(query.constellation, cfg.gamma_bar)
    solve = matched_mi if query.decoder == "matched" else gmi
    res = solve(cfg, con, order=query.order)
    if not res.converged:
        raise RuntimeError(f"{query.decoder} rate solve did not converge at snr {snr_db:g} dB, evm {evm_db:g} dB")
    return res.rate_nats


def rate_loss(
    query: LossQuery,
    snr_db: float,
    evm_db: float,
    ideal_rate_nats: Optional[float] = None,
) -> float:
    """Fractional rate loss at (snr_db, evm_db) relative to distortion-free
    hardware at the same SNR. Pass ideal_rate_nats to reuse a reference that
    is already solved."""
    ref = _rate_nats(query, snr_db, -math.inf) if ideal_rate_nats is None else ideal_rate_nats
    if ref <= 0:
        raise ValueError(f"reference rate is {ref:g} nats, loss fraction undefined")
    return 1.0 - _rate_nats(query, snr_db, evm_db) / ref


def check_search(loss_budget: float, lo_db: float, hi_db: float, tol_db: float) -> None:
    """Raise ValueError unless max_evm_for_loss can run this search: a loss
    budget in (0, 1), a finite EVM bracket lo_db < hi_db <= 0 dB and a finite
    positive tolerance."""
    if not 0.0 < loss_budget < 1.0:
        raise ValueError(f"loss budget must be a fraction in (0, 1), got {loss_budget:g}")
    if not all(math.isfinite(v) for v in (lo_db, hi_db, tol_db)):
        raise ValueError(f"EVM bracket and tolerance must be finite, got [{lo_db:g}, {hi_db:g}] dB "
                         f"and tolerance {tol_db:g} dB")
    if not lo_db < hi_db:
        raise ValueError(f"EVM bracket needs lo < hi, got [{lo_db:g}, {hi_db:g}] dB")
    if hi_db > 0:
        raise ValueError(f"EVM bracket cannot reach above 0 dB, got hi {hi_db:g} dB")
    if tol_db <= 0:
        raise ValueError(f"EVM tolerance must be positive, got {tol_db:g} dB")


def max_evm_for_loss(
    query: LossQuery,
    snr_db: float,
    loss_budget: float,
    lo_db: float = -60.0,
    hi_db: float = 0.0,
    tol_db: float = 0.002,
) -> float:
    """Largest EVM (dB) whose rate loss stays within loss_budget.

    Returns hi_db when even the loosest hardware meets the budget and -inf
    when the budget is infeasible everywhere in [lo_db, hi_db]; -inf is an
    answer, not an error. Otherwise root loss minus budget by Brent's method
    until the bracket is narrower than tol_db (plus 4 ulp of the EVM, which
    ends a search whose tol_db lies below the float spacing), and return the
    largest EVM evaluated as feasible. The loss is monotone, so that is the
    feasible end of the final bracket, and the reported EVM is guaranteed
    within budget up to the rate solver's own accuracy. Raises ValueError
    for a search that check_search rejects and RuntimeError when a rate
    solve behind the search does not converge or the search does not end
    within 200 solves.
    """
    check_search(loss_budget, lo_db, hi_db, tol_db)
    ideal = _rate_nats(query, snr_db, -math.inf)
    if ideal <= 0:
        raise ValueError(f"ideal rate is {ideal:g} nats at snr {snr_db:g} dB, planning undefined")

    def loss(evm_db: float) -> float:
        return rate_loss(query, snr_db, evm_db, ideal_rate_nats=ideal)

    loss_lo, loss_hi = loss(lo_db), loss(hi_db)
    if loss_lo > loss_hi + 1e-12:
        raise RuntimeError(
            f"rate loss is not monotone on [{lo_db:g}, {hi_db:g}] dB "
            f"({loss_lo:g} > {loss_hi:g}); cannot search it"
        )
    if loss_hi <= loss_budget:
        return hi_db
    if loss_lo > loss_budget:
        return -math.inf
    feasible = lo_db

    def excess(evm_db: float) -> float:
        nonlocal feasible
        over = loss(evm_db) - loss_budget
        if over <= 0.0:
            feasible = max(feasible, evm_db)
        return over

    res = _brent(_Counted(excess), hi_db, lo_db, loss_hi - loss_budget, loss_lo - loss_budget,
                 _MAX_SEARCH_SOLVES, tol_db)
    if not res.converged:
        raise RuntimeError(f"EVM search did not narrow to {tol_db:g} dB within {_MAX_SEARCH_SOLVES} rate solves")
    return feasible


def rule_of_thumb_evm(snr_db: float) -> float:
    """Linear worst-case approximation of the 5 percent loss boundary for
    Gaussian signaling with matched decoding, in dB."""
    return -0.7 * snr_db - 13.0
