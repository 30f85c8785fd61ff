"""Test oracle: the GMI for an arbitrary postulated covariance, and the
residual checks of both decoders' fixed points.

The package solves the white postulate only (replica_mismatched.gmi). This
module restates that solve in matrix form, with the trace formulas, free
energy and penalty of a general Hermitian postulated covariance R_tilde; a
scaled identity R_tilde must land on the white-path value, which the
invariance tests check. It reuses the package's stage solvers, branch loop
and scale search, so those tests compare trace formulas and free energies,
not two copies of the solver. The residual checks measure how far a
reported solution is from each fixed-point equation it solved.

The test modules import this file as a sibling module; the package never
imports it.
"""

from __future__ import annotations

import math

import numpy as np

from binoisy.decoupled import (
    DecoupledPostulated,
    DecoupledTrue,
    cross_entropy,
    matched_second_moment,
    postulated_mmse,
    true_mse,
)
from binoisy.model import Constellation, RateResult, SystemConfig, at_power, hermitian_pd_eigvals
from binoisy.numerics import DEFAULT_ORDER
from binoisy.replica_matched import _two_stage
from binoisy.replica_mismatched import _scale_search, solve_eta_eps, solve_xi_discrete


def matched_residuals(res: RateResult, cfg: SystemConfig, constellation: Constellation,
                      order: int = DEFAULT_ORDER) -> dict:
    """Absolute violation of each matched fixed-point equation at the
    solution matched_mi reported in res.params."""
    p, M, constellation = res.params, cfg.M, at_power(constellation, cfg)
    out = {
        "eta": abs(p["eta"] - cfg.trinv_rw_plus(p["eps"]) / M),
        "eta_prime": abs(p["eta_prime"] - cfg.trinv_rw_plus(p["eps_prime"]) / M),
        "eps_prime": abs(p["eps_prime"] - cfg.r_v / (1.0 + p["eta_prime"] * cfg.r_v)),
    }
    true_ctx = DecoupledTrue(eta=p["eta"], r_v=cfg.r_v, constellation=constellation)
    target = cfg.gamma_bar + cfg.r_v - matched_second_moment(true_ctx, order)
    out["eps"] = abs(p["eps"] - target)
    return out


def mismatched_residuals(res: RateResult, cfg: SystemConfig, constellation: Constellation,
                         order: int = DEFAULT_ORDER) -> dict:
    """Absolute violation of each white-postulate fixed-point equation at the
    solution gmi or gmi_at_s reported in res."""
    p, s_tilde, alpha, constellation = res.params, res.s_tilde, cfg.alpha, at_power(constellation, cfg)
    post = DecoupledPostulated(xi=p["xi"], constellation=constellation)
    true = DecoupledTrue(eta=p["eta"], r_v=cfg.r_v, constellation=constellation)
    return {
        "xi": abs(p["xi"] - s_tilde / (alpha * (1.0 + s_tilde * p["eps_tilde"]))),
        "eps_tilde": abs(p["eps_tilde"] - postulated_mmse(post, order)),
        "eta": abs(p["eta"] - 1.0 / (alpha * (cfg.cw + p["eps"]))),
        "eps": abs(p["eps"] - true_mse(true, post, order)),
    }


# ---------------------------------------------------------------------------
# general postulated-covariance path
# ---------------------------------------------------------------------------

def general_aux_traces(
    R_w: np.ndarray,
    R_tilde: np.ndarray,
    s: float,
    eps: float,
    eps_tilde: float,
    alpha: float,
) -> tuple[float, float]:
    """(eta, xi) from the matrix trace formulas with
    Omega = R_w + eps I and Omega_tilde = R_tilde/s + eps_tilde I."""
    if s <= 0:
        raise ValueError(f"s must be positive, got {s:g}")
    N = R_w.shape[0]
    omega_t = R_tilde / s + eps_tilde * np.eye(N)
    omega = R_w + eps * np.eye(N)
    oti = np.linalg.inv(omega_t)
    tr_oti = float(np.trace(oti).real)
    xi = tr_oti / (alpha * N)
    num = (tr_oti / N) ** 2
    den = float(np.trace(oti @ omega @ oti).real) / N
    eta = num / (alpha * den)
    return eta, xi


def free_energy_general(
    s: float,
    xi: float,
    eta: float,
    eps: float,
    eps_tilde: float,
    cfg: SystemConfig,
    constellation: Constellation,
    R_tilde: np.ndarray,
    order: int = DEFAULT_ORDER,
) -> float:
    """Free energy evaluated through the full matrix form; specializing
    R_tilde to a scaled identity must reproduce free_energy to roundoff."""
    N, alpha = cfg.N, cfg.alpha
    omega_t = R_tilde / s + eps_tilde * np.eye(N)
    omega = cfg.R_w + eps * np.eye(N)
    sign, logdet_ot = np.linalg.slogdet(omega_t)
    if sign.real <= 0:
        raise ValueError("postulated covariance produced a non-positive-definite Omega_tilde")
    _, logdet_rts = np.linalg.slogdet(R_tilde / s)
    matrix_part = (logdet_ot + float(np.trace(np.linalg.solve(omega_t, omega)).real) - logdet_rts) / (alpha * N)
    post = DecoupledPostulated(xi=xi, constellation=constellation)
    true = DecoupledTrue(eta=eta, r_v=cfg.r_v, constellation=constellation)
    ce = cross_entropy(true, post, order)
    return (
        matrix_part
        - (math.log(math.pi / xi) + xi / eta + ce)
        - xi * eps
        + xi * (xi - eta) * eps_tilde / eta
    )


def gmi_at_s_general(
    s: float,
    cfg: SystemConfig,
    constellation: Constellation,
    R_tilde: np.ndarray,
    order: int = DEFAULT_ORDER,
) -> tuple[float, RateResult]:
    """GMI at fixed s for an arbitrary Hermitian postulated covariance: the
    two-stage solve of gmi_at_s with the matrix trace formulas, free energy
    and penalty. Gaussian inputs run the iterative stages."""
    constellation = at_power(constellation, cfg)

    def traces(eps, eps_t):
        return general_aux_traces(cfg.R_w, R_tilde, s, eps, eps_t, cfg.alpha)

    stage1 = solve_xi_discrete(lambda et: traces(0.0, et)[1], constellation, order)
    rti = np.linalg.inv(R_tilde)
    penalty = s * (float(np.trace(rti @ cfg.R_w).real) + cfg.r_v * float(np.trace(rti).real)) / cfg.M
    res = _two_stage(
        ("xi", "eps_tilde", "eta", "eps"), stage1,
        lambda xi, eps_t: solve_eta_eps(xi, lambda eps: traces(eps, eps_t)[0], cfg.r_v,
                                        constellation, order),
        lambda xi, eps_t, eta, eps: free_energy_general(s, xi, eta, eps, eps_t, cfg, constellation,
                                                        R_tilde, order),
        penalty, float(s),
    )
    return res.rate_nats, res


def gmi_general(
    cfg: SystemConfig,
    constellation: Constellation,
    R_tilde: np.ndarray,
    order: int = DEFAULT_ORDER,
) -> RateResult:
    """Supremum of gmi_at_s_general over s. For R_tilde = r I this must agree
    with gmi to the optimizer tolerance regardless of r."""
    R_tilde = np.asarray(R_tilde, dtype=complex)
    eig = hermitian_pd_eigvals(R_tilde, cfg.N, "R_tilde")
    scale = float(np.mean(eig).real) / (cfg.cw + cfg.r_v)
    return _scale_search(lambda s: gmi_at_s_general(s, cfg, constellation, R_tilde, order),
                         scale, cfg, constellation, order)
