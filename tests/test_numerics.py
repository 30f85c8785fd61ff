"""Quadrature, fixed-point iteration, and scalar maximization."""

import math

import numpy as np
import pytest

import binoisy.numerics
from binoisy.numerics import (
    FixedPointError,
    damped_fixed_point,
    hermgauss_nodes,
    maximize_scalar,
    mixture_expectation,
    multi_start,
    nearest_root,
    real_mixture_expectation,
)


def test_hermgauss_integrates_moments_exactly():
    # order-n rules are exact for polynomials up to degree 2n-1
    t, w = hermgauss_nodes(8)
    x = math.sqrt(2.0) * t  # standard normal samples
    assert float(w.sum()) == pytest.approx(1.0, rel=1e-14)
    assert float(w @ x**2) == pytest.approx(1.0, rel=1e-13)
    assert float(w @ x**4) == pytest.approx(3.0, rel=1e-13)
    assert float(w @ x**6) == pytest.approx(15.0, rel=1e-12)


def test_hermgauss_order_limits():
    with pytest.raises(ValueError):
        hermgauss_nodes(0)
    with pytest.raises(ValueError):
        hermgauss_nodes(193)


def test_complex_gaussian_expectation_second_moment():
    # E|z|^2 = |mean|^2 + variance for circular complex z
    val = mixture_expectation([(1.0 - 2.0j, 3.0)], lambda z: np.abs(z) ** 2, order=24)
    assert val == pytest.approx(5.0 + 3.0, rel=1e-12)


def test_mixture_expectation_averages_components():
    comps = [(0.0 + 0j, 1.0), (2.0 + 0j, 0.5)]
    val = mixture_expectation(comps, lambda z: np.abs(z) ** 2, order=24)
    assert val == pytest.approx((1.0 + 4.5) / 2.0, rel=1e-12)
    with pytest.raises(ValueError):
        mixture_expectation([], lambda z: z)
    with pytest.raises(ValueError):
        mixture_expectation([(0.0, -1.0)], lambda z: np.abs(z))


def test_real_mixture_expectation_matches_complex_marginal():
    # a real N(m, v) axis is the I marginal of a circular complex Gaussian
    # with total variance 2v
    means = np.array([-1.0, 1.0])
    direct = real_mixture_expectation(means, 0.5, lambda y: y**2, order=32)
    assert direct == pytest.approx(1.0 + 0.5, rel=1e-12)


def test_damped_fixed_point_converges_on_contraction():
    res = damped_fixed_point(lambda x: np.cos(x), [0.3])
    assert res.converged
    assert res.solution[0] == pytest.approx(0.7390851332151607, abs=1e-9)


def test_damped_fixed_point_branch_depends_on_seed():
    # x -> x^2 has fixed points {0, 1}; seeds on either side of 1 must land
    # on their own basin, which is how multi-start branch hunting works
    low = damped_fixed_point(lambda x: x**2, [0.5])
    assert low.converged and low.solution[0] == pytest.approx(0.0, abs=1e-8)
    high = damped_fixed_point(lambda x: np.sqrt(x), [9.0])
    assert high.converged and high.solution[0] == pytest.approx(1.0, abs=1e-6)


def test_damped_fixed_point_guards(monkeypatch):
    with pytest.raises(FixedPointError):
        damped_fixed_point(lambda x: x * np.inf, [1.0])
    monkeypatch.setattr(binoisy.numerics, "_MAX_EVAL", 5)
    res = damped_fixed_point(lambda x: 1.0 + x, [0.0])
    assert not res.converged
    assert res.iterations == 5
    # the nonnegative clamp keeps variance-like unknowns in range
    res = damped_fixed_point(lambda x: -np.ones_like(x), [1.0])
    assert res.converged and res.solution[0] == 0.0


def test_multi_start_merges_starts_that_find_one_solution():
    run = lambda x0: damped_fixed_point(lambda x: np.cos(x), x0)
    single = [run(x0).iterations for x0 in ([0.2], [1.2])]
    found = multi_start(run, ([0.2], [1.2]))
    assert len(found) == 1
    assert found[0].solution[0] == pytest.approx(0.7390851332151607, abs=1e-9)
    assert found[0].iterations == sum(single)


def test_multi_start_keeps_branches_in_start_order():
    # x - 0.1 sin(2 pi x) is stable at 0 and 1, unstable at 1/2
    F = lambda x: x - 0.1 * np.sin(2.0 * np.pi * x)
    found = multi_start(lambda x0: damped_fixed_point(F, x0), ([0.3], [0.8]))
    assert [round(float(r.solution[0]), 6) for r in found] == [0.0, 1.0]
    assert all(r.converged for r in found)


def test_multi_start_compares_every_component():
    # fixed points (1, 0) and (1, 1) share their first component; they are
    # two branches, not one
    F = lambda x: np.array([1.0, math.sqrt(x[1])])
    found = multi_start(lambda x0: damped_fixed_point(F, x0), ([1.0, 0.0], [1.0, 0.5]))
    assert len(found) == 2
    assert found[0].solution.tolist() == [1.0, 0.0]
    assert found[1].solution == pytest.approx([1.0, 1.0], abs=1e-9)


def counted(g):
    calls = []

    def wrapped(x):
        calls.append(x)
        return g(x)
    return wrapped, calls


def test_nearest_root_finds_known_roots_in_few_evaluations():
    # the walk brackets x^3 = 2 from 2.0 (down to 0.2) before rooting
    g, calls = counted(lambda x: x**3 - 2.0)
    res = nearest_root(g, 2.0)
    assert res.converged
    assert res.solution[0] == pytest.approx(2.0 ** (1.0 / 3.0), abs=1e-14)
    assert calls[:2] == [2.0, 0.2]
    assert res.iterations == len(calls) <= 12
    assert res.residual == abs(g(res.solution[0]))
    # the walk brackets x = cos(x) from 0.2 (up to 2.0) before rooting
    g, calls = counted(lambda x: x - math.cos(x))
    res = nearest_root(g, 0.2)
    assert res.converged
    assert res.solution[0] == pytest.approx(0.7390851332151607, abs=1e-14)
    assert calls[:2] == [0.2, 2.0]
    assert res.iterations == len(calls) <= 12


def test_root_solvers_honour_the_evaluation_budget(monkeypatch):
    # two calls walk to the bracket [0.2, 2.0]; the budget runs out in Brent
    monkeypatch.setattr(binoisy.numerics, "_MAX_EVAL", 4)
    g, calls = counted(lambda x: x**3 - 2.0)
    res = nearest_root(g, 2.0)
    assert not res.converged
    assert res.iterations == len(calls) == 4
    assert calls[:2] == [2.0, 0.2]
    assert 0.2 < res.solution[0] < 2.0
    # no root above the start: the upward walk runs out of budget
    monkeypatch.setattr(binoisy.numerics, "_MAX_EVAL", 5)
    g, calls = counted(lambda x: -1.0)
    res = nearest_root(g, 1.0)
    assert not res.converged
    assert res.iterations == len(calls) == 5
    assert res.solution[0] == 1e4


def test_root_solver_guards():
    with pytest.raises(ValueError):
        nearest_root(lambda x: x, 0.0)
    with pytest.raises(FixedPointError):
        nearest_root(lambda x: math.nan, 1.0)


def test_nearest_root_survives_an_underflowing_interpolation():
    # g and x differ in scale by 1e300, so the inverse-quadratic denominator
    # underflows to 0; Brent must bisect instead of dividing by it
    res = nearest_root(lambda x: x / 1e300 - 0.7 / (1.0 + x), 1e300)
    assert res.converged
    assert res.solution[0] == pytest.approx(math.sqrt(0.7e300), rel=1e-12)


def test_nearest_root_clamps_at_zero():
    # g > 0 everywhere: F(x) = x - g(x) = -1 lies below zero, so the
    # nonnegative unknown settles at 0, as the clamped damped iteration does
    res = nearest_root(lambda x: x + 1.0, 0.5)
    assert res.converged and res.solution[0] == 0.0
    damped = damped_fixed_point(lambda x: -np.ones_like(x), [0.5])
    assert damped.solution[0] == 0.0


def test_nearest_root_finds_the_damped_branches():
    # an increasing map with stable fixed points near 1e-3 and 10 and an
    # unstable one between them; starts below and above, as in the matched
    # solve, reach the same two branches in start order
    F = lambda x: 1e-3 + 10.0 * x**4 / (1.0 + x**4)
    starts = (1e-6, 100.0)
    damped = multi_start(lambda x0: damped_fixed_point(F, [x0]), starts)
    rooted = multi_start(lambda x0: nearest_root(lambda x: x - F(x), x0), starts)
    assert len(damped) == len(rooted) == 2
    for d, r in zip(damped, rooted):
        assert d.converged and r.converged
        assert r.solution[0] == pytest.approx(d.solution[0], abs=1e-9)  # damped step tolerance 1e-10
        assert r.iterations < d.iterations


def test_maximize_scalar_seed_grid_shape_and_scaling():
    scale = 2.0
    evaluated = []

    def f(s):
        evaluated.append(s)
        return -(math.log(s) - 0.7) ** 2

    maximize_scalar(f, scale)
    seeds = np.array(evaluated[:31])
    assert np.array_equal(seeds, np.logspace(-3, 3, 31) * scale)
    assert seeds[0] == pytest.approx(scale * 1e-3)
    assert seeds[-1] == pytest.approx(scale * 1e3)
    ratios = seeds[1:] / seeds[:-1]
    assert np.allclose(ratios, ratios[0])


def test_maximize_scalar_refines_past_the_seed_grid():
    f = lambda s: -(math.log(s) - 0.7) ** 2
    x, v = maximize_scalar(f, 1.0)
    assert x == pytest.approx(math.exp(0.7), rel=1e-4)
    assert v == pytest.approx(0.0, abs=1e-9)


def test_maximize_scalar_never_returns_below_best_seed():
    peak = np.logspace(-3, 3, 31)[15]  # the seed nearest 1 at scale 1
    f = lambda s: 1.0 if s == peak else 0.0  # flat except at one seed
    x, v = maximize_scalar(f, 1.0)
    assert v >= 1.0
    assert x == pytest.approx(1.0)


def test_maximize_scalar_tolerates_minus_inf_regions():
    f = lambda s: -math.inf if s > 1.5 else s
    x, v = maximize_scalar(f, 1.0)
    assert v == pytest.approx(x)
    assert x <= 1.5


def test_maximize_scalar_input_validation():
    for scale in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            maximize_scalar(lambda s: s, scale)
    with pytest.raises(ValueError):
        maximize_scalar(lambda s: -math.inf, 1.0)
