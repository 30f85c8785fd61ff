"""Shared numerical machinery: complex-plane Gauss-Hermite quadrature, damped
fixed-point iteration with divergence guards, a scalar root solver that walks
geometrically to a sign change and roots inside it by Brent's method, the
multi-start policy that turns several solver runs into distinct solution
branches, and seeded scalar maximization.

The matched primary fixed point and the Gaussian pairs are rooted by
nearest_root (tolerance 1e-14 + 4 ulp on the unknown), and the EVM planner
roots its loss boundary by the same Brent's method to its caller's tol_db
(the CLI's --tol-db) + 4 ulp; the mismatched stages still run damped
iteration under a fixed policy: damping 0.5, step tolerance 1e-10 and every
component clamped nonnegative. The scale searches (maximize_scalar)
evaluate 31 log-spaced seeds from 1e-3 to 1e3 times a scale the caller
derives from the noise level, 1/(tr(R_w)/N + r_v) for the white GMI, then
refine by golden section to a width of 1e-6 on the log axis. Every solver
start, whether a root solve or a damped iteration and from whichever entry
point, has one fixed budget of 500 map evaluations: a root-solver step and a
damped iteration each evaluate the map once. None of these is a parameter;
only the planner's tol_db reaches the solvers from outside."""

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
    "nearest_root",
    "maximize_scalar",
    "multi_start",
    "check_order",
    "hermgauss_nodes",
]

DEFAULT_ORDER = 48
_MAX_ORDER = 192  # hermgauss overflows near order 360; stay well clear
_ROOT_XTOL = 1e-14  # root tolerance: absolute part ...
_ROOT_RTOL = 4.0 * np.finfo(float).eps  # ... plus 4 ulp of the root
_WALK_FACTOR = 10.0  # geometric step of the bracket search
_DAMPING = 0.5  # damped iteration: weight of the new map value ...
_STEP_TOL = 1e-10  # ... and the step at which it has converged
_REFINE_TOL = 1e-6  # golden-section bracket width on the log axis
_MAX_EVAL = 500  # map evaluations per solver start


class FixedPointError(RuntimeError):
    """Raised when a fixed-point map produces NaN/inf."""


def check_order(order: int) -> None:
    """Raise ValueError unless hermgauss_nodes supports the quadrature order;
    computes no nodes."""
    if not 1 <= order <= _MAX_ORDER:
        raise ValueError(f"quadrature order must be in [1, {_MAX_ORDER}], got {order}")


@lru_cache(maxsize=32)
def hermgauss_nodes(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Hermite nodes t and probabilist-normalized weights w such that
    E[f(X)] = sum w_i f(sqrt(2) sigma t_i + mu) for X ~ N(mu, sigma^2)."""
    check_order(order)
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
    """Outcome of damped_fixed_point or of a root solve (then iterations
    counts evaluations of the root function and residual is |g| at the
    solution)."""

    solution: np.ndarray
    iterations: int
    residual: float
    converged: bool


def damped_fixed_point(
    F: Callable[[np.ndarray], np.ndarray],
    x0: Sequence[float],
) -> FixedPointResult:
    """Iterate x <- 0.5 x + 0.5 F(x) until the step is at most 1e-10, for
    at most 500 iterations.

    Components are clamped nonnegative (every replica unknown is a
    variance-like quantity). NaN/inf from the map aborts with FixedPointError
    carrying the offending iterate.
    """
    x = np.maximum(np.atleast_1d(np.asarray(x0, dtype=float)), 0.0)
    step = math.inf
    for it in range(1, _MAX_EVAL + 1):
        fx = np.atleast_1d(np.asarray(F(x), dtype=float))
        if not np.all(np.isfinite(fx)):
            raise FixedPointError(f"fixed-point map returned non-finite value {fx} at x={x} (iteration {it})")
        x_new = (1.0 - _DAMPING) * x + _DAMPING * fx
        np.maximum(x_new, 0.0, out=x_new)
        step = float(np.max(np.abs(x_new - x)))
        x = x_new
        if step <= _STEP_TOL:
            return FixedPointResult(solution=x, iterations=it, residual=step, converged=True)
    return FixedPointResult(solution=x, iterations=_MAX_EVAL, residual=step, converged=False)


class _Counted:
    """g as a float-valued function that counts its calls and rejects
    non-finite values."""

    def __init__(self, g: Callable[[float], float]):
        self.g, self.calls = g, 0

    def __call__(self, x: float) -> float:
        self.calls += 1
        gx = float(self.g(x))
        if not math.isfinite(gx):
            raise FixedPointError(f"root function returned non-finite value {gx} at x={x} (evaluation {self.calls})")
        return gx


def _brent(g: _Counted, a: float, b: float, ga: float, gb: float, max_eval: int, xtol: float) -> FixedPointResult:
    """Brent's method on [a, b] given g(a) != 0 and g(b) of the opposite sign
    or zero: inverse quadratic or secant steps when they stay well inside the
    bracket (and their denominator has not underflowed to 0), bisection
    otherwise. Stops when the bracket is below xtol + 4 ulp or g is exactly
    zero, or after max_eval more calls of g."""
    if gb == 0.0:
        return FixedPointResult(np.array([b]), g.calls, 0.0, True)
    budget = g.calls + max_eval
    # cur is the best estimate, pre the previous one, blk the point that
    # keeps the sign change with cur; step/prev_step are the last two steps
    pre, gpre, cur, gcur = a, ga, b, gb
    blk = gblk = step = prev_step = 0.0
    while True:
        if (gpre < 0.0) != (gcur < 0.0):
            blk, gblk = pre, gpre
            step = prev_step = cur - pre
        if abs(gblk) < abs(gcur):
            pre, cur, blk = cur, blk, cur
            gpre, gcur, gblk = gcur, gblk, gcur
        delta = 0.5 * (xtol + _ROOT_RTOL * abs(cur))
        half = 0.5 * (blk - cur)
        if gcur == 0.0 or abs(half) < delta:
            return FixedPointResult(np.array([cur]), g.calls, abs(gcur), True)
        if g.calls >= budget:
            return FixedPointResult(np.array([cur]), g.calls, abs(gcur), False)
        if abs(prev_step) > delta and abs(gcur) < abs(gpre):
            if pre == blk:  # secant
                num, den = -gcur * (cur - pre), gcur - gpre
            else:  # inverse quadratic interpolation
                d_pre = (gpre - gcur) / (pre - cur)
                d_blk = (gblk - gcur) / (blk - cur)
                num, den = -gcur * (gblk * d_blk - gpre * d_pre), d_blk * d_pre * (gblk - gpre)
            trial = num / den if den != 0.0 else math.inf
            if 2.0 * abs(trial) < min(abs(prev_step), 3.0 * abs(half) - delta):
                prev_step, step = step, trial
            else:
                prev_step = step = half
        else:
            prev_step = step = half
        pre, gpre = cur, gcur
        cur += step if abs(step) > delta else math.copysign(delta, half)
        gcur = g(cur)


def nearest_root(
    g: Callable[[float], float],
    x0: float,
) -> FixedPointResult:
    """Root of g(x) = x - F(x) that damped iteration of an increasing map F
    reaches from x0 > 0: the nearest root in the direction of -g(x0), as
    long as no single step of the walk below crosses more than one root.

    Steps geometrically (x10 up, /10 down) from x0 until g changes sign,
    then roots inside that bracket by Brent's method. x is a nonnegative
    unknown: a downward walk ends at 0, and g(0) > 0 clamps the root to 0.
    iterations counts every call of g over the walk and the root, at most
    500; running out returns the best point so far with converged=False.
    NaN/inf from g raises FixedPointError."""
    if not x0 > 0.0:
        raise ValueError(f"start must be positive, got {x0:g}")
    f = _Counted(g)
    x, gx = x0, f(x0)
    up = gx < 0.0
    while gx != 0.0:
        if f.calls >= _MAX_EVAL:
            return FixedPointResult(np.array([x]), f.calls, abs(gx), False)
        nxt = x * _WALK_FACTOR if up else x / _WALK_FACTOR
        if not up and nxt < _ROOT_XTOL:
            nxt = 0.0
        gn = f(nxt)
        if (gn >= 0.0) if up else (gn <= 0.0):
            return _brent(f, x, nxt, gx, gn, _MAX_EVAL - f.calls, _ROOT_XTOL)
        if nxt == 0.0:
            return FixedPointResult(np.array([0.0]), f.calls, 0.0, True)
        x, gx = nxt, gn
    return FixedPointResult(np.array([x]), f.calls, 0.0, True)


def multi_start(
    run: Callable[..., FixedPointResult],
    starts: Iterable,
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
    scale: float,
) -> tuple[float, float]:
    """Maximize f over positive scalars: evaluate f at the 31 seeds
    np.logspace(-3, 3, 31) * scale, then refine the bracket around the best
    seed by golden-section search on the log axis.

    Returns (argmax, max). The returned max is never below the best seed
    value. Raises ValueError for a scale that is not positive and finite,
    and when every seed evaluates to -inf or NaN.
    """
    seeds = np.logspace(-3.0, 3.0, 31) * scale
    if not (seeds[0] > 0 and math.isfinite(seeds[-1])):
        raise ValueError(f"scale must be positive and finite, got {scale:g}")
    vals = np.array([f(s) for s in seeds], dtype=float)
    finite = np.isfinite(vals)
    if not finite.any():
        raise ValueError("objective is non-finite at every seed")
    i = int(np.nanargmax(np.where(finite, vals, -np.inf)))
    best_x, best_v = float(seeds[i]), float(vals[i])
    lo = seeds[i - 1] if i > 0 else seeds[i]
    hi = seeds[i + 1] if i + 1 < seeds.size else seeds[i]
    la, lb = math.log(lo), math.log(hi)
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    c = lb - inv_phi * (lb - la)
    d = la + inv_phi * (lb - la)
    fc, fd = f(math.exp(c)), f(math.exp(d))
    while lb - la > _REFINE_TOL:
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
