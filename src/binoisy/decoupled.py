"""Statistics of the decoupled scalar channels that the large-system analysis
reduces the MIMO link to.

Two channels appear. The postulated one is z = x + n with n ~ CN(0, 1/xi) and
x drawn from the alphabet; it defines the denoiser (posterior mean) and the
postulated marginal q. The true one is z = x + v + n with transmit distortion
v ~ CN(0, r_v) and n ~ CN(0, 1/eta); it defines the marginal p and everything
the receiver actually experiences.

Gaussian inputs have closed forms. For a discrete alphabet each quantity is
one kernel summed over the alphabet's independent factors: the real I and Q
PAM axes of a product grid (square QAM, BPSK), or else the complex point set
as a single factor. The factored path is algebraically exact, not an
approximation: the weights, marginals, and posterior means all separate when
the point set is a product. Equal I and Q axes (square QAM) are integrated
once and the kernel doubled, which equals the sum over both axes bit for
bit. A factor of real dimension d (1 for an axis, 2 for complex points)
enters a kernel only through d: quadrature runs on the line at variance
var/2 or on the plane at var, the log-density normalizer is
-(d/2) ln(pi var) - ln K, and the conditional distortion variance is
(d/2) r_v / (1 + eta r_v).

A complex factor integrates one mixture component per orbit of the largest
rotation group that maps its point set onto itself, the quarter turns
{1, j, -1, -j} (8-PSK) or else the half turns {1, -1}, and averages them.
Each kernel's integrand is unchanged when z and the alphabet turn together,
and the tensor Gauss-Hermite grid maps onto itself exactly under these turns
(its nodes and weights are symmetric), so the components of one orbit have
the same integral up to roundoff. A pi/4 turn is not a grid symmetry (3e-7
relative), so 8-PSK keeps two orbits. Sets with neither symmetry, or with a
point at the origin, integrate every component.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .model import Constellation
from .numerics import DEFAULT_ORDER, mixture_expectation, real_mixture_expectation

_ORBIT_RTOL = 1e-12  # rotation matching tolerance, relative to the set's largest |a|

__all__ = [
    "DecoupledPostulated",
    "DecoupledTrue",
    "postulated_mmse",
    "true_mse",
    "cross_entropy",
    "matched_second_moment",
    "matched_scalar_mi",
    "output_entropy",
]


@dataclass(frozen=True)
class DecoupledPostulated:
    """Postulated scalar channel: inverse noise variance xi, given alphabet."""

    xi: float
    constellation: Constellation

    def __post_init__(self):
        if not (self.xi > 0 and math.isfinite(self.xi)):
            raise ValueError(f"xi must be positive and finite, got {self.xi:g}")


@dataclass(frozen=True)
class DecoupledTrue:
    """True scalar channel: inverse noise variance eta, distortion power r_v."""

    eta: float
    r_v: float
    constellation: Constellation

    def __post_init__(self):
        if not (self.eta > 0 and math.isfinite(self.eta)):
            raise ValueError(f"eta must be positive and finite, got {self.eta:g}")
        if self.r_v < 0:
            raise ValueError(f"r_v must be nonnegative, got {self.r_v:g}")


# ---------------------------------------------------------------------------
# per-factor kernels
# ---------------------------------------------------------------------------

def _factors(c: Constellation) -> tuple[tuple[np.ndarray, int], ...]:
    """Distinct independent factors of a discrete alphabet, each with its
    multiplicity: a square grid's one PAM axis twice, both axes of a grid
    whose I and Q axes differ, else the complex point set once."""
    if c.axes is None:
        return ((np.asarray(c.points, dtype=complex), 1),)
    i_axis, q_axis = c.axes
    if np.array_equal(i_axis, q_axis):
        return ((i_axis, 2),)
    return ((i_axis, 1), (q_axis, 1))


def _sq_dist(z: np.ndarray, alph: np.ndarray) -> np.ndarray:
    """|z - a|^2 for every observation and point, points on the last axis."""
    return np.abs(z[..., None] - alph) ** 2


def _weights(z: np.ndarray, alph: np.ndarray, var: float, d2: np.ndarray | None = None):
    """Posterior weights over the factor's points for observations z, and the
    logsumexp of their exponents -|z - a|^2 / var. var is the complex-plane
    noise variance (var/2 per PAM axis); max-shifting keeps the weights on
    the nearest point deep in the tails. d2, when given, is _sq_dist(z, alph)
    already computed."""
    ex = (_sq_dist(z, alph) if d2 is None else d2) * (-1.0 / var)
    m = np.max(ex, axis=-1, keepdims=True)
    w = np.exp(ex - m)
    den = np.sum(w, axis=-1, keepdims=True)
    return w / den, m[..., 0] + np.log(den[..., 0])


def _log_mixture(z: np.ndarray, alph: np.ndarray, var: float) -> np.ndarray:
    """Log-density of the factor's equal-weight mixture at noise variance var."""
    d = 2 if np.iscomplexobj(alph) else 1
    return _weights(z, alph, var)[1] - 0.5 * d * math.log(math.pi * var) - math.log(len(alph))


def _centers(z: np.ndarray, alph: np.ndarray, eta: float, r_v: float) -> np.ndarray:
    """E[a + v | z, a] on the true channel: each point's distortion shrunk
    toward the observation."""
    mu_w = eta * r_v / (1.0 + eta * r_v)
    return alph * (1.0 - mu_w) + mu_w * z[..., None]


def _matched_mean(z: np.ndarray, alph: np.ndarray, eta: float, r_v: float) -> np.ndarray:
    """<chi> on one factor: the shrunk centers mixed with the true posterior
    weights."""
    w, _ = _weights(z, alph, 1.0 / eta + r_v)
    return np.sum(w * _centers(z, alph, eta, r_v), axis=-1)


def _orbit_starts(pts: np.ndarray, turns: tuple[complex, ...], tol: float) -> tuple[int, ...] | None:
    """Index of the first point of each orbit under the rotations turns (the
    group without 1), or None when some rotated point has no match within
    tol among the points not yet assigned to an orbit."""
    free, starts = list(range(len(pts))), []
    while free:
        i = free.pop(0)
        starts.append(i)
        for r in turns:
            d = np.abs(pts[free] - r * pts[i])
            if d.size == 0 or d.min() > tol:
                return None
            del free[int(np.argmin(d))]
    return tuple(starts)


@lru_cache(maxsize=64)
def _orbit_representatives(key: bytes) -> tuple[int, ...] | None:
    """One point per orbit of the largest rotation group, {1, j, -1, -j} or
    else {1, -1}, that maps the complex point set (given as its bytes) onto
    itself, as indices; None when neither does or a point sits at the
    origin, whose orbit is that point alone. Points match within
    _ORBIT_RTOL of the set's largest magnitude."""
    pts = np.frombuffer(key, dtype=complex)
    tol = _ORBIT_RTOL * float(np.max(np.abs(pts)))
    if np.min(np.abs(pts)) <= tol:
        return None
    return _orbit_starts(pts, (1j, -1.0, -1j), tol) or _orbit_starts(pts, (-1.0,), tol)


def _expect(alph: np.ndarray, var: float, f, order: int) -> float:
    """E f(z) for z drawn from the factor's mixture at noise variance var.
    A complex factor integrates one component per rotation orbit (module
    docstring); the orbits are equal-sized, so their mean is the mixture's."""
    if np.iscomplexobj(alph):
        reps = _orbit_representatives(alph.tobytes())
        means = alph if reps is None else alph[list(reps)]
        return mixture_expectation([(a, var) for a in means], f, order)
    return real_mixture_expectation(alph, var / 2.0, f, order)


def _mmse(alph: np.ndarray, var: float, order: int) -> float:
    """E|a|^2 - E|<a>|^2; channel and denoiser share noise variance var."""
    def sq_mean(z):
        return np.abs(_weights(z, alph, var)[0] @ alph) ** 2

    return float(np.mean(np.abs(alph) ** 2)) - _expect(alph, var, sq_mean, order)


def _true_mse(alph: np.ndarray, eta: float, r_v: float, xi: float, order: int) -> float:
    """E|chi - <a>_q|^2 with chi = a + distortion on the true channel.

    Conditioning on z makes the inner expectation exact: within candidate
    point a the distorted signal is Gaussian around its shrunk center with
    variance s summed over the factor's real dimensions, so the v integral
    never has to be sampled.
    """
    var = 1.0 / eta + r_v
    s = (1.0 if np.iscomplexobj(alph) else 0.5) * r_v / (1.0 + eta * r_v)

    def cond_sq_err(z):
        d2 = _sq_dist(z, alph)
        w, _ = _weights(z, alph, var, d2)
        wq, _ = _weights(z, alph, 1.0 / xi, d2)
        m = wq @ alph
        return s + np.sum(w * np.abs(_centers(z, alph, eta, r_v) - m[..., None]) ** 2, axis=-1)

    return _expect(alph, var, cond_sq_err, order)


def _matched_sq(alph: np.ndarray, eta: float, r_v: float, order: int) -> float:
    """E|<chi>|^2 under the true channel."""
    def sq(z):
        return np.abs(_matched_mean(z, alph, eta, r_v)) ** 2

    return _expect(alph, 1.0 / eta + r_v, sq, order)


def _cross_entropy(alph: np.ndarray, var_p: float, var_q: float, order: int) -> float:
    """int p ln q; p and q are the factor's mixtures at var_p and var_q."""
    return _expect(alph, var_p, lambda z: _log_mixture(z, alph, var_q), order)


# ---------------------------------------------------------------------------
# public integral quantities
# ---------------------------------------------------------------------------

def postulated_mmse(ctx: DecoupledPostulated, order: int = DEFAULT_ORDER) -> float:
    """eps_tilde: minimum mean-square error of the postulated channel,
    gamma_bar - E|<x>_q|^2."""
    c = ctx.constellation
    if c.is_gaussian:
        return c.gamma_bar / (1.0 + ctx.xi * c.gamma_bar)
    return sum(m * _mmse(a, 1.0 / ctx.xi, order) for a, m in _factors(c))


def true_mse(true_ctx: DecoupledTrue, post_ctx: DecoupledPostulated, order: int = DEFAULT_ORDER) -> float:
    """eps: mean-square error E|x + v - <x>_q|^2 of the postulated denoiser
    run on the true channel output."""
    c = true_ctx.constellation
    if post_ctx.constellation is not c and not np.array_equal(post_ctx.constellation.points, c.points):
        raise ValueError("true and postulated contexts must share the alphabet")
    eta, r_v, xi = true_ctx.eta, true_ctx.r_v, post_ctx.xi
    if c.is_gaussian:
        g = xi * c.gamma_bar
        return (c.gamma_bar + r_v) / (1.0 + g) ** 2 + (g / (1.0 + g)) ** 2 / eta
    return sum(m * _true_mse(a, eta, r_v, xi, order) for a, m in _factors(c))


def cross_entropy(true_ctx: DecoupledTrue, post_ctx: DecoupledPostulated, order: int = DEFAULT_ORDER) -> float:
    """int p ln q: expectation of the postulated log-marginal under the true
    channel output distribution."""
    c = true_ctx.constellation
    if c.is_gaussian:
        var_p = c.gamma_bar + 1.0 / true_ctx.eta + true_ctx.r_v
        var_q = c.gamma_bar + 1.0 / post_ctx.xi
        return -math.log(math.pi * var_q) - var_p / var_q
    var_p = 1.0 / true_ctx.eta + true_ctx.r_v
    var_q = 1.0 / post_ctx.xi
    return sum(m * _cross_entropy(a, var_p, var_q, order) for a, m in _factors(c))


def matched_second_moment(ctx: DecoupledTrue, order: int = DEFAULT_ORDER) -> float:
    """E|<chi>|^2 under the true channel; gamma_bar + r_v minus this is the
    matched estimation error."""
    c = ctx.constellation
    if c.is_gaussian:
        P = c.gamma_bar + ctx.r_v
        return ctx.eta * P * P / (1.0 + ctx.eta * P)
    return sum(m * _matched_sq(a, ctx.eta, ctx.r_v, order) for a, m in _factors(c))


def output_entropy(ctx: DecoupledTrue, order: int = DEFAULT_ORDER) -> float:
    """Differential entropy of the true channel output, -int p ln p."""
    c = ctx.constellation
    var = 1.0 / ctx.eta + ctx.r_v
    if c.is_gaussian:
        return math.log(math.pi * math.e * (c.gamma_bar + var))
    return -sum(m * _cross_entropy(a, var, var, order) for a, m in _factors(c))


def matched_scalar_mi(ctx: DecoupledTrue, order: int = DEFAULT_ORDER) -> float:
    """I(z; chi) of the true scalar channel in nats: output entropy minus the
    CN(0, 1/eta) noise entropy."""
    if ctx.constellation.is_gaussian:
        return math.log1p(ctx.eta * (ctx.constellation.gamma_bar + ctx.r_v))
    return output_entropy(ctx, order) - math.log(math.e * math.pi / ctx.eta)
