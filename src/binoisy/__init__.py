"""Achievable rates of MIMO links whose transmitter adds its own noise.

The model is y = H(x + v) + w: the data vector x is corrupted by residual
transmit-side distortion v before it ever reaches the channel, and by
receiver noise w after. This package computes per-stream achievable rates of
that link in the large-antenna limit, for Gaussian and standard discrete
constellations, under two receivers:

* matched decoding, where the receiver knows the full channel law
  (``matched_mi``), and
* mismatched decoding, where it postulates a plain white-noise law and the
  achievable rate is the generalized mutual information (``gmi``).

Finite-size Monte Carlo counterparts (``montecarlo``) validate the asymptotic
formulas, and ``evm_planner`` inverts them into hardware requirements: the
largest error vector magnitude that keeps the rate loss within budget.
"""

from .decoupled import (
    DecoupledPostulated,
    DecoupledTrue,
    cross_entropy,
    matched_scalar_mi,
    matched_second_moment,
    output_entropy,
    postulated_mmse,
    true_mse,
)
from .evm_planner import LossQuery, max_evm_for_loss, rate_loss, rule_of_thumb_evm
from .model import (
    CONSTELLATION_KINDS,
    Constellation,
    RateResult,
    SystemConfig,
    make_config,
    make_constellation,
)
from .montecarlo import (
    McResult,
    McSettings,
    mc_gmi_gaussian,
    mc_mi_matched_discrete,
    mc_mi_matched_gaussian,
    sample_channel,
)
from .numerics import (
    DEFAULT_ORDER,
    FixedPointError,
    damped_fixed_point,
    hermgauss_nodes,
    maximize_scalar,
)
from .replica_matched import (
    matched_mi,
    matched_mi_highsnr,
    solve_matched_primary,
    solve_matched_prime,
)
from .replica_mismatched import (
    free_energy,
    gmi,
    gmi_at_s,
    gmi_highsnr_gaussian,
    solve_eta_eps,
    solve_xi_discrete,
    xi_gaussian_closed_form,
)

__version__ = "0.1.0"

__all__ = [
    "CONSTELLATION_KINDS",
    "Constellation",
    "DEFAULT_ORDER",
    "DecoupledPostulated",
    "DecoupledTrue",
    "FixedPointError",
    "LossQuery",
    "McResult",
    "McSettings",
    "RateResult",
    "SystemConfig",
    "cross_entropy",
    "damped_fixed_point",
    "free_energy",
    "gmi",
    "gmi_at_s",
    "gmi_highsnr_gaussian",
    "hermgauss_nodes",
    "make_config",
    "make_constellation",
    "matched_mi",
    "matched_mi_highsnr",
    "matched_scalar_mi",
    "matched_second_moment",
    "max_evm_for_loss",
    "maximize_scalar",
    "mc_gmi_gaussian",
    "mc_mi_matched_discrete",
    "mc_mi_matched_gaussian",
    "output_entropy",
    "postulated_mmse",
    "rate_loss",
    "rule_of_thumb_evm",
    "sample_channel",
    "solve_eta_eps",
    "solve_matched_primary",
    "solve_matched_prime",
    "solve_xi_discrete",
    "true_mse",
    "xi_gaussian_closed_form",
    "__version__",
]
