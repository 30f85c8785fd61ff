"""Generalized mutual information of the doubly-noisy link when the receiver
decodes with a postulated white-noise law instead of the true channel.

The large-system analysis decouples the link into the scalar channels of
decoupled.py, governed by four unknowns: the postulated and true inverse
noise variances (xi, eta) and the corresponding mean-square errors
(eps_tilde, eps). This module solves the white postulate only, which enters
through the single scale s_tilde = s / r_tilde, so rates are reported as a
supremum over that scalar. The matrix form for an
arbitrary postulated covariance lives in the tests (tests/postulate_oracle.py)
as a check that a scaled identity lands on the white-path value.

gmi_at_s runs the matched rate's two-stage solve (replica_matched._two_stage):
the postulated stage (xi, eps_tilde), then the true stage (eta, eps) for each
of its branches, with the white free energy as the energy. Gaussian inputs
solve both stages in closed form.
"""

from __future__ import annotations

import math
from dataclasses import replace
from typing import Callable

import numpy as np

from .decoupled import (
    DecoupledPostulated,
    DecoupledTrue,
    cross_entropy,
    postulated_mmse,
    true_mse,
)
from .model import Constellation, RateResult, SystemConfig, at_power
from .numerics import DEFAULT_ORDER, damped_fixed_point, maximize_scalar, multi_start
from .replica_matched import _EPS_SEED_FLOOR, _in_rate_range, _NoUsableFixedPoint, _two_stage, matched_mi

__all__ = [
    "xi_gaussian_closed_form",
    "solve_xi_discrete",
    "solve_eta_eps",
    "free_energy",
    "gmi_at_s",
    "gmi",
    "gmi_highsnr_gaussian",
]

# Slack allowed above the matched rate before a scan point is declared
# unphysical. Wide enough for quadrature noise at the degenerate point where
# the two rates coincide exactly, far below any real crossing.
_CEILING_TOL = 1e-7


def _rate_ceiling(
    cfg: SystemConfig,
    constellation: Constellation,
    order: int,
) -> float:
    """Matched-decoder rate used to screen the postulated-scale sweep.

    No decoding metric can beat the decoder built on the true posterior, yet
    with discrete inputs the two-stage solve gives GMI(s) above that bound
    at some intermediate scales. The cause of that violation is open; the
    strict xfails in tests/test_replica_mismatched.py record it. Points above
    the ceiling are dropped from the supremum, which hides the violation
    rather than mending it. Gaussian inputs never cross the matched rate at
    any scale, so they skip the extra solve.
    """
    if constellation.is_gaussian:
        return math.inf
    ceiling = matched_mi(cfg, constellation, order)
    if not ceiling.converged:
        return math.inf
    return ceiling.rate_nats + _CEILING_TOL


def xi_gaussian_closed_form(alpha: float, gamma_bar: float, s_tilde: float) -> float:
    """Positive root of alpha*xi*(1 + s_tilde*gamma_bar/(1+xi*gamma_bar)) = s_tilde
    for Gaussian signaling."""
    if alpha <= 0 or gamma_bar <= 0 or s_tilde <= 0:
        raise ValueError("alpha, gamma_bar, s_tilde must all be positive")
    # positive root of a*xi^2 - t*xi - s_tilde with a = alpha*gamma_bar and
    # t = gamma_bar*s_tilde*(1-alpha) - alpha; pick the quadratic branch that
    # avoids subtracting nearly equal numbers
    a = alpha * gamma_bar
    t = gamma_bar * s_tilde * (1.0 - alpha) - alpha
    root = math.sqrt(4.0 * a * s_tilde + t * t)
    if t >= 0.0:
        return (t + root) / (2.0 * a)
    return 2.0 * s_tilde / (root - t)


def solve_xi_discrete(
    xi_of: Callable[[float], float],
    constellation: Constellation,
    order: int = DEFAULT_ORDER,
) -> list[tuple[float, float, int, bool]]:
    """Jointly solve xi = xi_of(eps_tilde) with eps_tilde the postulated MMSE
    at xi; xi_of is the postulate's trace formula, s_tilde/(alpha (1 +
    s_tilde eps_tilde)) for a white one.

    Self-contained: neither equation involves the true channel. Returns
    candidate branches (xi, eps_tilde, iterations, converged) from the two
    extreme starts (zero error and prior-only error). Gaussian inputs are
    accepted and use the closed-form MMSE inside the loop, which lets the
    iterative route be checked against xi_gaussian_closed_form.
    """

    def F(x):
        xi, et = float(x[0]), float(x[1])
        post = DecoupledPostulated(xi=max(xi, 1e-300), constellation=constellation)
        return np.array([xi_of(et), postulated_mmse(post, order)])

    starts = [[xi_of(et0), et0] for et0 in (0.0, constellation.gamma_bar)]
    found = multi_start(lambda x0: damped_fixed_point(F, x0), starts)
    return [(float(r.solution[0]), float(r.solution[1]), r.iterations, r.converged) for r in found]


def solve_eta_eps(
    xi: float,
    eta_of: Callable[[float], float],
    r_v: float,
    constellation: Constellation,
    order: int = DEFAULT_ORDER,
) -> list[tuple[float, float, int, bool]]:
    """Solve eta = eta_of(eps) with eps the true mean-square error of the
    xi-denoiser under transmit distortion r_v, for the already-solved
    postulated scale xi; eta_of is the postulate's trace formula,
    1/(alpha (tr(R_w)/N + eps)) for a white one.

    Returns candidate branches (eta, eps, iterations, converged).
    """
    post = DecoupledPostulated(xi=xi, constellation=constellation)

    def F(x):
        true = DecoupledTrue(eta=eta_of(float(x[0])), r_v=r_v, constellation=constellation)
        return np.array([true_mse(true, post, order)])

    found = multi_start(lambda x0: damped_fixed_point(F, x0),
                        ([_EPS_SEED_FLOOR], [constellation.gamma_bar + r_v]))
    return [(eta_of(float(r.solution[0])), float(r.solution[0]), r.iterations, r.converged) for r in found]


def free_energy(s_tilde: float, xi: float, eta: float, eps: float, eps_tilde: float,
                cfg: SystemConfig, constellation: Constellation, order: int = DEFAULT_ORDER) -> float:
    """Replica-symmetric free energy of the white-postulate system at the
    operating point (xi, eta, eps, eps_tilde), in nats per stream. Among
    multiple fixed points the physical one minimizes this."""
    alpha, r_v = cfg.alpha, cfg.r_v
    common = (xi / eta + math.log(s_tilde) - math.log(alpha * xi)) / alpha - xi * eps
    if constellation.is_gaussian:
        g = xi * constellation.gamma_bar
        return common + math.log1p(g) + xi * r_v / (1.0 + g)
    post = DecoupledPostulated(xi=xi, constellation=constellation)
    true = DecoupledTrue(eta=eta, r_v=r_v, constellation=constellation)
    ce = cross_entropy(true, post, order)
    return common + xi * (xi - eta) * eps_tilde / eta - (xi / eta + math.log(math.pi / xi) + ce)


def gmi_at_s(
    s_tilde: float,
    cfg: SystemConfig,
    constellation: Constellation,
    order: int = DEFAULT_ORDER,
) -> tuple[float, RateResult]:
    """Per-stream GMI in nats at a fixed postulated noise scale s_tilde, with
    its RateResult, for the constellation carried to cfg's power.

    Runs the two-stage solve (xi, eps_tilde) then (eta, eps) and reports the
    free-energy-minimizing branch combination. Gaussian inputs solve both
    stages in closed form: xi from its quadratic, and eps affine in 1/eta,
    which collapses stage two to one linear equation.
    """
    if s_tilde <= 0:
        raise ValueError(f"s_tilde must be positive, got {s_tilde:g}")
    constellation = at_power(constellation, cfg)
    alpha, cw, r_v = cfg.alpha, cfg.cw, cfg.r_v
    gbar = constellation.gamma_bar

    def eta_of(eps):
        return 1.0 / (alpha * (cw + eps))

    if constellation.is_gaussian:
        xi = xi_gaussian_closed_form(alpha, gbar, s_tilde)
        stage1 = [(xi, gbar / (1.0 + xi * gbar), 0, True)]

        def stage2(xi, eps_t):
            g = xi * gbar
            A = (gbar + r_v) / (1.0 + g) ** 2
            B = (g / (1.0 + g)) ** 2
            # eps = A + B/eta and 1/eta = alpha(cw + eps); alpha*B < 1 always
            eps = (A + B * alpha * cw) / (1.0 - alpha * B)
            return [(eta_of(eps), eps, 0, True)]
    else:
        stage1 = solve_xi_discrete(lambda et: s_tilde / (alpha * (1.0 + s_tilde * et)),
                                   constellation, order)

        def stage2(xi, eps_t):
            return solve_eta_eps(xi, eta_of, r_v, constellation, order)

    res = _two_stage(
        ("xi", "eps_tilde", "eta", "eps"), stage1, stage2,
        lambda xi, eps_t, eta, eps: free_energy(s_tilde, xi, eta, eps, eps_t, cfg, constellation, order),
        s_tilde * (cw + r_v) / alpha, float(s_tilde),
    )
    return res.rate_nats, res


def _scale_search(
    at_s: Callable[[float], tuple[float, RateResult]],
    scale: float,
    cfg: SystemConfig,
    constellation: Constellation,
    order: int,
) -> RateResult:
    """Supremum of at_s(s) -> (value, record) over the postulated scale s,
    seeded around scale.

    Scan points without a usable fixed point, that fail to converge or that
    cross the matched-rate ceiling are dropped; any other error propagates.
    iterations are summed over every scan point.
    """
    cache: dict[float, RateResult] = {}
    iterations = 0
    ceiling = _rate_ceiling(cfg, constellation, order)

    def objective(s):
        nonlocal iterations
        try:
            val, res = at_s(s)
        except _NoUsableFixedPoint:
            return -math.inf
        cache[s] = res
        iterations += res.iterations
        if not res.converged or val > ceiling:
            return -math.inf
        return val

    # maximize_scalar only returns a point it evaluated to a finite value,
    # and every such point is cached
    s_star, _ = maximize_scalar(objective, scale)
    return replace(cache[s_star], iterations=iterations)


def gmi(
    cfg: SystemConfig,
    constellation: Constellation,
    order: int = DEFAULT_ORDER,
) -> RateResult:
    """Per-stream GMI in nats, supremum over the postulated noise scale.
    Unconverged when the solve at the supremum is, or when its rate lies
    outside [0, ln K] (replica_matched._in_rate_range)."""
    return _in_rate_range(_scale_search(lambda s: gmi_at_s(s, cfg, constellation, order),
                                        1.0 / (cfg.cw + cfg.r_v), cfg, constellation, order),
                          constellation)


def gmi_highsnr_gaussian(alpha: float, kappa: float) -> RateResult:
    """Infinite-SNR limit of the Gaussian-signaling GMI, in nats per stream.

    The limit keeps its own scalar optimization over the rescaled noise
    postulate s_gamma; the distortion floor kappa^2 is what keeps it finite.
    """
    if kappa <= 0:
        raise ValueError("high-SNR GMI diverges without transmit distortion (kappa must be > 0)")
    if alpha <= 0:
        raise ValueError(f"alpha must be positive, got {alpha:g}")
    k2 = kappa * kappa

    def h(sg):
        x = xi_gaussian_closed_form(alpha, 1.0, sg)
        return math.log(sg / (alpha * x)) / alpha + math.log1p(x) + k2 * x / (1.0 + x) - sg * k2 / alpha

    sg_star, val = maximize_scalar(h, 1.0 / k2)
    return RateResult(rate_nats=val, params={"xi": xi_gaussian_closed_form(alpha, 1.0, sg_star)},
                      s_tilde=sg_star)
