"""Shared numerical machinery: complex-plane Gauss-Hermite quadrature, damped
fixed-point iteration with divergence guards, the multi-start policy that
turns several fixed-point runs into distinct solution branches, and seeded
scalar maximization.

The replica solvers and the Monte Carlo GMI reference run both primitives at
their defaults: damping 0.5 and step tolerance 1e-10 per fixed-point start,
golden-section tolerance 1e-6 on the log axis. Only the per-start iteration
budget max_iter (the CLI's --max-iter) reaches them from outside."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Callable, Iterable, Sequence

import numpy as np

__all__ = [
    "FixedPointError",
    "FixedPointResult",
    "mixture_expectation",
    "damped_fixed_point",
    "maximize_scalar",
    "multi_start",
    "hermgauss_nodes",
]

DEFAULT_ORDER = 48
_MAX_ORDER = 192  # hermgauss overflows near order 360; stay well clear


class FixedPointError(RuntimeError):
    """Raised when a fixed-point map produces NaN/inf."""


@lru_cache(maxsize=32)
def hermgauss_nodes(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Hermite nodes t and probabilist-normalized weights w such that
    E[f(X)] = sum w_i f(sqrt(2) sigma t_i + mu) for X ~ N(mu, sigma^2)."""
    if not 1 <= order <= _MAX_ORDER:
        raise ValueError(f"quadrature order must be in [1, {_MAX_ORDER}], got {order}")
    t, w = np.polynomial.hermite.hermgauss(order)
    return t, w / math.sqrt(math.pi)


def mixture_expectation(
    components: Iterable[tuple[complex, float]],
    f: Callable[[np.ndarray], np.ndarray],
    order: int = DEFAULT_ORDER,
) -> float:
    """Equal-weight average of E[f(z)] over Gaussian components (mean, var).

    Tensorized Gauss-Hermite on the I/Q plane; all component grids are handed
    to f in a single vectorized call of shape (n_components, order**2).
    """
    comps = list(components)
    if not comps:
        raise ValueError("mixture needs at least one component")
    t, w = hermgauss_nodes(order)
    # complex offsets with unit total variance, then scaled per component
    u = (t[:, None] + 1j * t[None, :]).ravel()
    wz = (w[:, None] * w[None, :]).ravel()
    means = np.array([c[0] for c in comps], dtype=complex)
    variances = np.array([c[1] for c in comps], dtype=float)
    if np.any(variances < 0) or not np.all(np.isfinite(variances)):
        raise ValueError("component variances must be finite and nonnegative")
    sigs = np.sqrt(variances)
    z = means[:, None] + sigs[:, None] * u[None, :]
    vals = np.asarray(f(z))
    per_comp = vals @ wz
    return float(np.mean(per_comp.real) if np.iscomplexobj(per_comp) else np.mean(per_comp))


def real_mixture_expectation(
    means: np.ndarray,
    variance: float,
    f: Callable[[np.ndarray], np.ndarray],
    order: int = DEFAULT_ORDER,
) -> float:
    """Equal-weight average of E[f(y)] over real Gaussians N(mean_k, variance).

    One-dimensional counterpart of mixture_expectation for alphabets that
    factor into independent I/Q axes.
    """
    t, w = hermgauss_nodes(order)
    y = np.asarray(means, float)[:, None] + math.sqrt(2.0 * variance) * t[None, :]
    vals = np.asarray(f(y), float)
    return float(np.mean(vals @ w))


@dataclass
class FixedPointResult:
    """Outcome of damped_fixed_point. free_energy is filled in by callers
    that rank multiple solution branches."""

    solution: np.ndarray
    iterations: int
    residual: float
    converged: bool
    free_energy: float | None = None


def damped_fixed_point(
    F: Callable[[np.ndarray], np.ndarray],
    x0: Sequence[float],
    damping: float = 0.5,
    tol: float = 1e-10,
    max_iter: int = 500,
    nonneg: bool = True,
) -> FixedPointResult:
    """Iterate x <- (1-damping) x + damping F(x) until the step is below tol.

    Components are clamped nonnegative by default (every replica unknown is a
    variance-like quantity). NaN/inf from the map aborts with FixedPointError
    carrying the offending iterate.
    """
    if not 0.0 < damping <= 1.0:
        raise ValueError(f"damping must be in (0, 1], got {damping:g}")
    x = np.atleast_1d(np.asarray(x0, dtype=float)).copy()
    if nonneg:
        np.maximum(x, 0.0, out=x)
    step = math.inf
    for it in range(1, max_iter + 1):
        fx = np.atleast_1d(np.asarray(F(x), dtype=float))
        if not np.all(np.isfinite(fx)):
            raise FixedPointError(f"fixed-point map returned non-finite value {fx} at x={x} (iteration {it})")
        x_new = (1.0 - damping) * x + damping * fx
        if nonneg:
            np.maximum(x_new, 0.0, out=x_new)
        step = float(np.max(np.abs(x_new - x)))
        x = x_new
        if step <= tol:
            return FixedPointResult(solution=x, iterations=it, residual=step, converged=True)
    return FixedPointResult(solution=x, iterations=max_iter, residual=step, converged=False)


def multi_start(
    run: Callable[[Sequence[float]], FixedPointResult],
    starts: Iterable[Sequence[float]],
) -> list[FixedPointResult]:
    """run(x0) from every start, keeping one result per distinct solution, in
    start order. A start whose solution lies within 1e-8 (1 + |x|) of an
    earlier result in every component found that branch again: its
    iterations are added to that result, so counts cover every start."""
    found: list[FixedPointResult] = []
    for x0 in starts:
        out = run(x0)
        x = out.solution
        for i, b in enumerate(found):
            if np.all(np.abs(x - b.solution) <= 1e-8 * (1.0 + np.abs(x))):
                found[i] = replace(b, iterations=b.iterations + out.iterations)
                break
        else:
            found.append(out)
    return found


def maximize_scalar(
    f: Callable[[float], float],
    seeds: Sequence[float],
    refine_tol: float = 1e-6,
) -> tuple[float, float]:
    """Maximize f over positive scalars: evaluate every seed, then refine the
    bracket around the best seed by golden-section search on the log axis.

    Returns (argmax, max). The returned max is never below the best seed
    value. Raises if every seed evaluates to -inf or NaN.
    """
    seeds = np.sort(np.asarray(list(seeds), dtype=float))
    if seeds.size < 1 or np.any(seeds <= 0):
        raise ValueError("seeds must be positive scalars")
    vals = np.array([f(s) for s in seeds], dtype=float)
    finite = np.isfinite(vals)
    if not finite.any():
        raise ValueError("objective is non-finite at every seed")
    i = int(np.nanargmax(np.where(finite, vals, -np.inf)))
    best_x, best_v = float(seeds[i]), float(vals[i])
    lo = seeds[i - 1] if i > 0 else seeds[i]
    hi = seeds[i + 1] if i + 1 < seeds.size else seeds[i]
    if hi <= lo:
        return best_x, best_v
    la, lb = math.log(lo), math.log(hi)
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    c = lb - inv_phi * (lb - la)
    d = la + inv_phi * (lb - la)
    fc, fd = f(math.exp(c)), f(math.exp(d))
    while lb - la > refine_tol:
        if fc > fd:
            lb, d, fd = d, c, fc
            c = lb - inv_phi * (lb - la)
            fc = f(math.exp(c))
        else:
            la, c, fc = c, d, fd
            d = la + inv_phi * (lb - la)
            fd = f(math.exp(d))
        for lx, vx in ((c, fc), (d, fd)):
            if np.isfinite(vx) and vx > best_v:
                best_x, best_v = math.exp(lx), float(vx)
    return best_x, best_v
