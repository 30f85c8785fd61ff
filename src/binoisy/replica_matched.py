"""Large-system mutual information of the doubly-noisy link under matched
decoding, i.e. a receiver that knows the full channel law including the
transmit distortion.

Two scalar fixed-point pairs drive the result. The primary pair (eta, eps)
describes estimation of the distorted signal chi = x + v from the channel
output; the prime pair (eta_prime, eps_prime) describes estimation of the
distortion alone and prices the information carried by v itself. _two_stage
solves them in that order; it is the branch loop and rule of both decoders.
"""

from __future__ import annotations

import math
from dataclasses import replace
from typing import Callable, Optional

import numpy as np

from .decoupled import DecoupledTrue, matched_scalar_mi, matched_second_moment
from .model import Constellation, RateResult, SystemConfig, at_power
from .numerics import DEFAULT_ORDER, multi_start, nearest_root

__all__ = [
    "solve_matched_primary",
    "solve_matched_prime",
    "matched_mi",
    "matched_mi_highsnr",
]

_EPS_SEED_FLOOR = 1e-6  # low start of the error unknown; the high start is the prior power
_RATE_SLACK = 1e-6  # nats a rate may stray outside [0, ln K] and still count as converged


def _in_rate_range(res: RateResult, constellation: Constellation) -> RateResult:
    """res, marked unconverged when its rate lies outside [0, ln K] for a
    K-point alphabet ([0, inf) for Gaussian inputs) by more than _RATE_SLACK
    nats. No decoder can carry more than the input entropy, so such a rate
    comes from a bad fixed point; the rate itself is kept, not clipped."""
    top = math.inf if constellation.is_gaussian else math.log(constellation.size)
    if -_RATE_SLACK <= res.rate_nats <= top + _RATE_SLACK:
        return res
    return replace(res, converged=False)


def _solve_gaussian_pair(cfg: SystemConfig, P: float) -> tuple[float, float, int, bool]:
    """Branch (eta, e, evaluations, converged) of eta = tr((R_w + e I)^-1)/M
    and e = P/(1 + eta P), the pair of a Gaussian input of power P. From
    1/e = 1/P + eta, g(e) = e/P - (1/M) sum_i lam_i/(lam_i + e) - (1 - N/M)
    over the eigenvalues lam_i of R_w: increasing, -1 at 0 and positive at
    P, with no difference of terms that a large P can round to zero. It is
    rooted by the walk down from P."""
    M, N = cfg.M, cfg.N
    if P == 0.0:
        return cfg.trinv_rw_plus(0.0) / M, 0.0, 0, True
    lam = cfg.rw_eigvals

    def g(e):
        return e / P - float(np.sum(lam / (lam + e))) / M - (1.0 - N / M)

    r = nearest_root(g, P)
    e = float(r.solution[0])
    return cfg.trinv_rw_plus(e) / M, e, r.iterations, r.converged


def solve_matched_prime(cfg: SystemConfig) -> tuple[float, float]:
    """Solve eta' = tr((R_w + eps' I)^-1)/M, eps' = r_v/(1 + eta' r_v).

    The pair measures how well the receiver could estimate the transmit
    distortion if the data symbols were known; it does not involve the
    constellation. r_v = 0 collapses it to eps' = 0 exactly.
    """
    return _solve_gaussian_pair(cfg, cfg.r_v)[:2]


def solve_matched_primary(
    cfg: SystemConfig,
    constellation: Constellation,
    order: int = DEFAULT_ORDER,
) -> list[tuple[float, float, int, bool]]:
    """Solve eta = tr((R_w + eps I)^-1)/M jointly with
    eps = gamma_bar + r_v - E|<chi>|^2.

    Returns candidate branches as (eta, eps, iterations, converged). Gaussian
    inputs admit a single solution and are rooted directly. For discrete
    alphabets the right-hand side is increasing in eps, so from each
    multi-start seed the root of eps - rhs(eps) nearest in the direction the
    damped iteration would move is bracketed and rooted (numerics.nearest_root,
    at most 500 evaluations per seed); bistable regions give two branches.
    iterations counts evaluations of the map.
    """
    M, P = cfg.M, cfg.gamma_bar + cfg.r_v
    if constellation.is_gaussian:
        return [_solve_gaussian_pair(cfg, P)]

    def g(eps):
        eta = cfg.trinv_rw_plus(eps) / M
        ctx = DecoupledTrue(eta=eta, r_v=cfg.r_v, constellation=constellation)
        return eps - (P - matched_second_moment(ctx, order))

    found = multi_start(lambda x0: nearest_root(g, x0), (_EPS_SEED_FLOOR, P))
    return [(cfg.trinv_rw_plus(float(r.solution[0])) / M, float(r.solution[0]), r.iterations, r.converged)
            for r in found]


def _mi_from_branch(cfg: SystemConfig, constellation: Constellation, order: int,
                    eta_p: float, eps_p: float, eta: float, eps: float) -> float:
    true_ctx = DecoupledTrue(eta=eta, r_v=cfg.r_v, constellation=constellation)
    return (
        (cfg.logdet_rw_plus(eps) - cfg.logdet_rw_plus(eps_p)) / cfg.M
        - (eta * eps - eta_p * eps_p)
        + matched_scalar_mi(true_ctx, order)
        - math.log1p(eta_p * cfg.r_v)
    )


class _NoUsableFixedPoint(ValueError):
    """No branch combination of a two-stage solve has a finite energy."""


def _two_stage(keys: tuple[str, str, str, str], stage1: list, stage2: Callable[[float, float], list],
               energy: Callable[..., float], penalty: float = 0.0, s: Optional[float] = None) -> RateResult:
    """Pick the operating point among every branch (a1, b1, iterations,
    converged) of stage1 combined with every branch (a2, b2, ...) of
    stage2(a1, b1), and report energy(a1, b1, a2, b2) - penalty there, with
    params named by keys and s_tilde = s. A combination is converged when
    both of its stages are. The pick is the first converged combination of
    smallest finite energy, else the first unconverged one of smallest
    finite energy; iterations are summed over every branch of both stages.
    """
    best = None
    total_iters = 0
    for a1, b1, it1, conv1 in stage1:
        total_iters += it1
        for a2, b2, it2, conv2 in stage2(a1, b1):
            total_iters += it2
            f = energy(a1, b1, a2, b2)
            if not math.isfinite(f):
                continue
            conv = conv1 and conv2
            if best is None or (conv, -f) > (best.converged, -best.free_energy):
                best = RateResult(f - penalty, dict(zip(keys, (a1, b1, a2, b2))),
                                  s_tilde=s, free_energy=f, converged=conv)
    if best is None:
        raise _NoUsableFixedPoint(f"no usable fixed point at s={s}")
    best.iterations = total_iters
    return best


def matched_mi(
    cfg: SystemConfig,
    constellation: Constellation,
    order: int = DEFAULT_ORDER,
) -> RateResult:
    """Per-stream mutual information in nats under matched decoding, with
    the constellation carried to the configuration's power (model.at_power).

    When the primary pair is multivalued the branch with the smaller rate is
    reported; the rate differs from the matched free energy by a
    solution-independent constant, so that choice is the free-energy
    minimizer. The result is converged when the prime pair and the chosen
    branch are and the rate lies in [0, ln K] (_in_rate_range); iterations
    counts both pairs' evaluations.
    """
    constellation = at_power(constellation, cfg)
    return _in_rate_range(replace(_two_stage(
        ("eta_prime", "eps_prime", "eta", "eps"), [_solve_gaussian_pair(cfg, cfg.r_v)],
        lambda eta_p, eps_p: solve_matched_primary(cfg, constellation, order),
        lambda *aux: _mi_from_branch(cfg, constellation, order, *aux),
    ), free_energy=None), constellation)


def matched_mi_highsnr(alpha: float, kappa: float) -> float:
    """gamma_bar -> inf limit of the matched per-stream rate for Gaussian
    signaling, in nats: ln((1+kappa^2)/kappa^2), divided by alpha when the
    link has more streams than receive antennas."""
    if kappa <= 0:
        raise ValueError("high-SNR matched rate diverges without transmit distortion (kappa must be > 0)")
    if alpha <= 0:
        raise ValueError(f"alpha must be positive, got {alpha:g}")
    base = math.log((1.0 + kappa * kappa) / (kappa * kappa))
    return base if alpha <= 1.0 else base / alpha
