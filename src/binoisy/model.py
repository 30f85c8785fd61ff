"""System configuration and signaling alphabets for the doubly-noisy MIMO link.

The physical model is y = H(x + v) + w with M transmit streams, N receive
antennas, IID channel entries of variance 1/M, white transmit distortion v of
per-stream variance r_v, and receive noise w with covariance R_w. Everything
downstream consumes the quantities bundled here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

__all__ = [
    "SystemConfig",
    "Constellation",
    "RateResult",
    "make_config",
    "make_constellation",
    "at_power",
    "hermitian_pd_eigvals",
    "CONSTELLATION_KINDS",
]

CONSTELLATION_KINDS = ("gaussian", "bpsk", "qpsk", "psk8", "qam16", "qam64", "custom")


@dataclass(frozen=True, eq=False)
class SystemConfig:
    """Immutable physical configuration.

    gamma_bar is the per-stream transmit power 10^(snr_db/10) * tr(R_w)/N,
    kappa = 10^(evm_db/20) the distortion-to-signal amplitude ratio, and
    r_v = kappa^2 * gamma_bar the per-stream distortion power.
    """

    M: int
    N: int
    snr_db: float
    evm_db: float
    gamma_bar: float
    kappa: float
    r_v: float
    R_w: np.ndarray
    rw_eigvals: np.ndarray = field(repr=False)

    @property
    def alpha(self) -> float:
        return self.M / self.N

    @property
    def cw(self) -> float:
        """tr(R_w)/N, the mean receive-noise power per antenna."""
        return float(np.mean(self.rw_eigvals))

    def logdet_rw_plus(self, shift: float) -> float:
        """ln det(R_w + shift*I) from the cached eigenvalues."""
        return float(np.sum(np.log(self.rw_eigvals + shift)))

    def trinv_rw_plus(self, shift: float) -> float:
        """tr((R_w + shift*I)^-1) from the cached eigenvalues."""
        return float(np.sum(1.0 / (self.rw_eigvals + shift)))


def hermitian_pd_eigvals(matrix: np.ndarray, n: int, name: str) -> np.ndarray:
    """Ascending eigenvalues of matrix, after checking that it is an n x n
    Hermitian positive-definite matrix; ValueError naming it otherwise."""
    if matrix.shape != (n, n):
        raise ValueError(f"{name} must be {n}x{n}, got {matrix.shape}")
    if not np.allclose(matrix, matrix.conj().T, atol=1e-12):
        raise ValueError(f"{name} must be Hermitian")
    eig = np.linalg.eigvalsh(matrix)
    if eig[0] <= 0:
        raise ValueError(f"{name} must be positive definite (min eigenvalue {eig[0]:g})")
    return eig


def make_config(
    M: int,
    N: int,
    snr_db: float,
    evm_db: float = -math.inf,
    R_w: Optional[np.ndarray] = None,
) -> SystemConfig:
    """Build a SystemConfig from dB-domain knobs.

    snr_db must be finite, 10^(snr_db/10) must not overflow, and the
    transmit power must not underflow to 0. evm_db = -inf means
    distortion-free transmit hardware (r_v = 0). R_w defaults to the
    identity; a supplied matrix must be Hermitian positive definite.
    """
    if M < 1 or N < 1:
        raise ValueError(f"M and N must be positive, got M={M}, N={N}")
    if R_w is None:
        R_w = np.eye(N)
        eig = np.ones(N)
    else:
        R_w = np.asarray(R_w)
        eig = hermitian_pd_eigvals(R_w, N, "R_w")
    if not math.isfinite(snr_db):
        raise ValueError(f"snr_db must be finite, got {snr_db:g}")
    if math.isnan(evm_db) or evm_db > 0:
        raise ValueError(f"evm_db must be <= 0 dB, got {evm_db:g}")
    try:
        gamma_bar = 10.0 ** (snr_db / 10.0) * float(np.mean(eig))
    except OverflowError:
        raise ValueError(f"snr_db {snr_db:g} overflows the transmit power") from None
    if gamma_bar == 0.0:
        raise ValueError(f"snr_db {snr_db:g} underflows the transmit power to 0")
    kappa = 10.0 ** (evm_db / 20.0) if evm_db != -math.inf else 0.0
    return SystemConfig(
        M=M,
        N=N,
        snr_db=float(snr_db),
        evm_db=float(evm_db),
        gamma_bar=gamma_bar,
        kappa=kappa,
        r_v=kappa * kappa * gamma_bar,
        R_w=R_w,
        rw_eigvals=eig,
    )


def _product_axes(points: np.ndarray) -> Optional[tuple[np.ndarray, np.ndarray]]:
    """Detect a separable I/Q grid: points == {a + jb : a in A, b in B} with
    uniform usage. Returns (A, B) sorted, or None if the set does not factor."""
    re = np.unique(np.round(points.real, 12))
    im = np.unique(np.round(points.imag, 12))
    if re.size * im.size != points.size:
        return None
    grid = np.sort_complex((re[:, None] + 1j * im[None, :]).ravel())
    if np.allclose(grid, np.sort_complex(points), atol=1e-9):
        return re.astype(float), im.astype(float)
    return None


@dataclass(frozen=True, eq=False)
class Constellation:
    """A transmit alphabet with per-stream power gamma_bar.

    kind "gaussian" has no points and stands for CSCG inputs of variance
    gamma_bar. Discrete kinds carry zero-mean points with mean square power
    exactly gamma_bar, uniform prior. axes holds the I/Q product split
    (square QAM, BPSK) when the alphabet factors, else None.
    """

    kind: str
    gamma_bar: float
    points: np.ndarray
    axes: Optional[tuple[np.ndarray, np.ndarray]]

    @property
    def is_gaussian(self) -> bool:
        return self.kind == "gaussian"

    @property
    def size(self) -> int:
        return 0 if self.is_gaussian else len(self.points)

    @property
    def bits(self) -> float:
        return 0.0 if self.is_gaussian else math.log2(self.size)


def _unit_points(kind: str) -> np.ndarray:
    if kind == "bpsk":
        return np.array([-1.0 + 0j, 1.0 + 0j])
    if kind == "qpsk":
        return (np.array([1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j])) / math.sqrt(2.0)
    if kind == "psk8":
        return np.exp(2j * np.pi * np.arange(8) / 8.0)
    if kind in ("qam16", "qam64"):
        k = 4 if kind == "qam16" else 8
        ax = np.arange(-(k - 1), k, 2, dtype=float)
        pts = (ax[:, None] + 1j * ax[None, :]).ravel()
        return pts / math.sqrt(float(np.mean(np.abs(pts) ** 2)))
    raise ValueError(f"unknown constellation kind {kind!r}")


def make_constellation(
    kind: str,
    gamma_bar: float,
    points: Optional[np.ndarray] = None,
) -> Constellation:
    """Build a constellation scaled to per-stream power gamma_bar.

    kind "custom" takes raw complex points, centers them, and normalizes the
    power; every other kind ignores the points argument.
    """
    kind = kind.lower()
    if kind not in CONSTELLATION_KINDS:
        raise ValueError(f"unknown constellation kind {kind!r}, expected one of {CONSTELLATION_KINDS}")
    if gamma_bar < 0:
        raise ValueError(f"gamma_bar must be nonnegative, got {gamma_bar:g}")
    if kind == "gaussian":
        return Constellation(kind=kind, gamma_bar=float(gamma_bar), points=np.empty(0, complex), axes=None)
    if kind == "custom":
        if points is None or len(points) == 0:
            raise ValueError("custom constellation requires at least one point")
        pts = np.asarray(points, dtype=complex).ravel()
        pts = pts - pts.mean()
        pw = float(np.mean(np.abs(pts) ** 2))
        if pw <= 0:
            raise ValueError("custom constellation collapses to a single point after centering")
        pts = pts / math.sqrt(pw)
    else:
        pts = _unit_points(kind)
    pts = pts * math.sqrt(gamma_bar)
    return Constellation(kind=kind, gamma_bar=float(gamma_bar), points=pts, axes=_product_axes(pts))


def at_power(constellation: Constellation, cfg: SystemConfig) -> Constellation:
    """constellation carried to the configuration's per-stream power: itself
    when its gamma_bar already is cfg.gamma_bar, else a copy at cfg.gamma_bar
    whose points are scaled by sqrt(cfg.gamma_bar / constellation.gamma_bar).
    The configuration owns the signal power in every solver."""
    if constellation.gamma_bar == cfg.gamma_bar:
        return constellation
    if constellation.gamma_bar == 0.0:
        raise ValueError("a zero-power constellation cannot be carried to the configuration's power")
    pts = constellation.points * math.sqrt(cfg.gamma_bar / constellation.gamma_bar)
    return replace(constellation, gamma_bar=cfg.gamma_bar, points=pts,
                   axes=None if constellation.axes is None else _product_axes(pts))


@dataclass
class RateResult:
    """A solved per-stream rate with its replica-solution diagnostics.

    rate_nats is the per-stream rate; params carries the fixed-point solution
    (eta/xi/eps/eps_tilde for mismatched decoding, eta/eps/eta_prime/eps_prime
    for matched decoding); s_tilde is the postulated-noise-scale argmax where
    one exists; free_energy is set on the mismatched path.
    """

    rate_nats: float
    params: dict
    s_tilde: Optional[float] = None
    free_energy: Optional[float] = None
    converged: bool = True
    iterations: int = 0

    @property
    def rate_bits(self) -> float:
        return self.rate_nats / math.log(2.0)
