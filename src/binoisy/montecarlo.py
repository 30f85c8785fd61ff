"""Finite-size Monte Carlo references for the asymptotic rate formulas.

Everything here averages over explicit channel draws, so the answers carry
sampling error but no large-system assumption. The replica results are
validated against these estimates.

Determinism: channels are drawn in fixed-size blocks, each block from its own
child of one root SeedSequence, and scalar reductions go through math.fsum in
block order. Reruns with the same settings are bit-identical.

Batching: the Gaussian references draw a whole block as one
(count, 2, N, M) array, real parts then imaginary parts per channel, which is
the stream order of count single draws, and hand the stacked H H^H to
LAPACK's slogdet or eigh, which factor each matrix of the stack exactly as
they factor one. The exhaustive discrete reference draws a channel's noise
in chunks of the same stream and reuses one score buffer for every draw. Its
log-sum-exp clamps exponents at -700 before exp. That moves no bit: every row
holds exp(0) = 1, so its sum is at least 1, and a clamped term turns from
something below 1e-304 (or zero) into exp(-700) < 1e-304, far too small to
change such a sum. The clamp keeps exp off its slow path for arguments below
about -708, where most lattice pairs of a high-SNR, small-EVM point fall.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .model import Constellation, SystemConfig, at_power
from .numerics import maximize_scalar

__all__ = [
    "McSettings",
    "McResult",
    "sample_channel",
    "mc_gmi_gaussian",
    "mc_mi_matched_gaussian",
    "mc_mi_matched_discrete",
    "check_lattice",
    "LATTICE_LIMIT",
]

_BLOCK = 100
# Noise draws fetched from the stream at once in the exhaustive reference;
# a chunk and its complex copy take 32 KiB per receive antenna.
_NOISE_CHUNK = 1024
# exp(-700) ~ 1e-304; exp is much slower below about -708.
_EXP_FLOOR = -700.0

# Exhaustive enumeration of |A|^M candidate vectors; above this it is not a
# sampling problem anymore, it is a memory problem.
LATTICE_LIMIT = 4096


def check_lattice(K: int, M: int) -> None:
    """Raise ValueError when mc_mi_matched_discrete cannot enumerate the K^M
    symbol vectors of a K-point alphabet on M streams."""
    if K**M > LATTICE_LIMIT:
        raise ValueError(
            f"candidate lattice has {K}^{M} = {K**M} points, above the limit {LATTICE_LIMIT}"
        )


@dataclass(frozen=True)
class McSettings:
    n_channels: int = 10000
    n_noise: int = 100
    seed: int = 0

    def __post_init__(self):
        for name in ("n_channels", "n_noise", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if self.n_channels < 2:
            raise ValueError("n_channels must be at least 2 to report a standard error")
        if self.n_noise < 1:
            raise ValueError(f"n_noise must be positive, got {self.n_noise}")


@dataclass(frozen=True)
class McResult:
    rate_nats: float
    stderr_nats: float
    n_channels: int

    @property
    def rate_bits(self) -> float:
        return self.rate_nats / math.log(2.0)

    @property
    def stderr_bits(self) -> float:
        return self.stderr_nats / math.log(2.0)


def sample_channel(M: int, N: int, rng: np.random.Generator) -> np.ndarray:
    """One N-by-M channel with IID circularly-symmetric complex Gaussian
    entries of variance 1/M."""
    return _draw_channels(1, M, N, rng)[0]


def _draw_channels(count: int, M: int, N: int, rng: np.random.Generator) -> np.ndarray:
    """count channels as a (count, N, M) stack, drawn from the stream in the
    order of count calls to sample_channel."""
    z = rng.standard_normal((count, 2, N, M))
    return math.sqrt(0.5 / M) * (z[:, 0] + 1j * z[:, 1])


def _blocks(n: int, seed: int) -> Iterator[tuple[np.random.Generator, int]]:
    n_blocks = (n + _BLOCK - 1) // _BLOCK
    children = np.random.SeedSequence(seed).spawn(n_blocks)
    for i, child in enumerate(children):
        yield np.random.default_rng(child), min(_BLOCK, n - i * _BLOCK)


def _mean_stderr(values: np.ndarray) -> tuple[float, float]:
    n = values.size
    mean = math.fsum(values.tolist()) / n
    var = math.fsum(((values - mean) ** 2).tolist()) / (n - 1)
    return mean, math.sqrt(var / n)


def mc_gmi_gaussian(
    cfg: SystemConfig,
    settings: McSettings = McSettings(),
) -> McResult:
    """Ensemble GMI in nats per stream for Gaussian inputs and a white
    postulated covariance, by direct channel averaging.

    For Gaussian inputs the noise expectations integrate out in closed form,
    leaving log-det and trace functionals of each channel draw. Per draw we
    keep the eigenvalues d of H H^H and the diagonal quadratic forms
    c = diag(U^H R_w U), after which every candidate s costs O(N). The
    supremum over s is taken on the ensemble average.
    """
    M, N = cfg.M, cfg.N
    gbar, r_v = cfg.gamma_bar, cfg.r_v
    d_all = np.empty((settings.n_channels, N))
    c_all = np.empty((settings.n_channels, N))
    row = 0
    for rng, count in _blocks(settings.n_channels, settings.seed):
        H = _draw_channels(count, M, N, rng)
        d, U = np.linalg.eigh(H @ H.conj().transpose(0, 2, 1))
        d_all[row:row + count] = np.maximum(d, 0.0)
        c_all[row:row + count] = np.einsum("kij,kij->kj", U.conj(), cfg.R_w @ U).real
        row += count

    const = N * (cfg.cw + r_v)

    def per_channel(s: float) -> np.ndarray:
        g = 1.0 + s * gbar * d_all
        logdet = np.sum(np.log(g), axis=1)
        trace = np.sum((c_all + (r_v + gbar) * d_all) / g, axis=1)
        return (logdet + s * (trace - const)) / M

    def objective(s: float) -> float:
        return math.fsum(per_channel(s).tolist()) / settings.n_channels

    s_star, _ = maximize_scalar(objective, 1.0 / (cfg.cw + r_v))
    mean, stderr = _mean_stderr(per_channel(s_star))
    return McResult(rate_nats=mean, stderr_nats=stderr, n_channels=settings.n_channels)


def mc_mi_matched_gaussian(cfg: SystemConfig, settings: McSettings = McSettings()) -> McResult:
    """Ergodic matched-decoding rate in nats per stream for Gaussian inputs:
    the difference of two log-dets per channel draw, paired on the same draw
    so their fluctuations mostly cancel."""
    vals = np.empty(settings.n_channels)
    row = 0
    for rng, count in _blocks(settings.n_channels, settings.seed):
        H = _draw_channels(count, cfg.M, cfg.N, rng)
        G = H @ H.conj().transpose(0, 2, 1)
        _, top = np.linalg.slogdet(cfg.R_w + (cfg.gamma_bar + cfg.r_v) * G)
        _, bottom = np.linalg.slogdet(cfg.R_w + cfg.r_v * G)
        vals[row:row + count] = (top - bottom) / cfg.M
        row += count
    mean, stderr = _mean_stderr(vals)
    return McResult(rate_nats=mean, stderr_nats=stderr, n_channels=settings.n_channels)


def mc_mi_matched_discrete(
    cfg: SystemConfig,
    constellation: Constellation,
    settings: McSettings = McSettings(),
) -> McResult:
    """Ergodic matched-decoding rate in nats per stream for IID discrete
    inputs, by exhaustive enumeration of the |A|^M symbol vectors.

    Conditioned on H and the sent vector, the decoder statistic depends on
    the noise only through u = Hv + w, whose covariance is the matched
    metric's own matrix Omega = R_w + r_v H H^H. Whitening by the Cholesky
    factor of Omega turns the enumeration into distances between lattice
    points T_a = L^{-1} H x_a with an additive standard-normal offset, and
    rank-one structure reduces each noise draw to an outer difference of a
    single matrix-vector product.
    """
    if constellation.is_gaussian:
        raise ValueError("exhaustive enumeration needs a finite constellation")
    M, N = cfg.M, cfg.N
    K = constellation.size
    check_lattice(K, M)
    points = at_power(constellation, cfg).points
    grids = np.meshgrid(*([points] * M), indexing="ij")
    X = np.stack([g.ravel() for g in grids], axis=1)  # (K^M, M)

    vals = np.empty(settings.n_channels)
    scores = np.empty((K**M, K**M))
    row = 0
    for rng, count in _blocks(settings.n_channels, settings.seed):
        for _ in range(count):
            H = sample_channel(M, N, rng)
            omega = cfg.R_w + cfg.r_v * (H @ H.conj().T)
            L = np.linalg.cholesky(omega)
            T = np.linalg.solve(L, (H @ X.T)).T  # (K^M, N), whitened lattice
            power = np.sum(np.abs(T) ** 2, axis=1)
            gram = (T @ T.conj().T).real
            neg_d2 = -(power[:, None] + power[None, :] - 2.0 * gram)  # -|T_a - T_b|^2

            acc = 0.0
            for start in range(0, settings.n_noise, _NOISE_CHUNK):
                z = rng.standard_normal((min(_NOISE_CHUNK, settings.n_noise - start), 2, N))
                for u in math.sqrt(0.5) * (z[:, 0] + 1j * z[:, 1]):
                    t = (T @ u.conj()).real  # Re <T_a, u>
                    # -|T_a - T_b + u|^2 = -d2[a,b] - 2 t_a + 2 t_b - |u|^2
                    np.subtract(neg_d2, 2.0 * t[:, None], out=scores)
                    scores += 2.0 * t[None, :]
                    m = scores.max(axis=1, keepdims=True)
                    scores -= m
                    np.maximum(scores, _EXP_FLOOR, out=scores)
                    np.exp(scores, out=scores)
                    lse = np.log(np.sum(scores, axis=1)) + m[:, 0]
                    acc += float(np.mean(lse)) - float(np.sum(np.abs(u) ** 2))
            mean_log = acc / settings.n_noise
            vals[row] = (M * math.log(K) - N - mean_log) / M
            row += 1
    mean, stderr = _mean_stderr(vals)
    return McResult(rate_nats=mean, stderr_nats=stderr, n_channels=settings.n_channels)
