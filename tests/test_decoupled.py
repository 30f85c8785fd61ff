"""Scalar-channel statistics: denoisers, errors, and entropies."""

import math

import numpy as np
import pytest

from binoisy.decoupled import (
    DecoupledPostulated,
    DecoupledTrue,
    _log_mixture,
    _matched_mean,
    _weights,
    cross_entropy,
    matched_scalar_mi,
    matched_second_moment,
    output_entropy,
    postulated_mmse,
    true_mse,
)
from binoisy.model import Constellation, make_constellation

# Frozen oracles for QPSK with gamma_bar = 2, xi = 0.7, eta = 0.9, r_v = 0.3.
# Each agrees with a 2e6-sample simulation of the corresponding scalar channel
# to the simulation's own noise floor (~4e-4): 0.684011 / 0.687807 / -3.325543.
QPSK_POSTULATED_MMSE = 0.6834304211088926
QPSK_TRUE_MSE = 0.6884850722964242
QPSK_CROSS_ENTROPY = -3.3257920865744137

# Frozen values for the same channel parameters on psk8, which integrates over
# the complex plane, and qam16, which integrates over its two PAM axes.
FROZEN = {
    "psk8": {
        "postulated_mmse": 0.7407563949012959,
        "true_mse": 0.7223931151304792,
        "cross_entropy": -3.341766842784466,
        "matched_second_moment": 1.6088110662269965,
        "matched_scalar_mi": 1.091646131203888,
        "output_entropy": 3.3417365327111144,
    },
    "qam16": {
        "postulated_mmse": 0.7901131618462092,
        "true_mse": 0.7516257700513724,
        "cross_entropy": -3.356564401875829,
        "matched_second_moment": 1.5778044319074742,
        "matched_scalar_mi": 1.1064512479643787,
        "output_entropy": 3.356541649471605,
    },
}


def qpsk_contexts():
    con = make_constellation("qpsk", 2.0)
    return DecoupledTrue(eta=0.9, r_v=0.3, constellation=con), DecoupledPostulated(xi=0.7, constellation=con)


def test_frozen_scalar_oracles():
    true_ctx, post_ctx = qpsk_contexts()
    assert postulated_mmse(post_ctx) == pytest.approx(QPSK_POSTULATED_MMSE, abs=1e-12)
    assert true_mse(true_ctx, post_ctx) == pytest.approx(QPSK_TRUE_MSE, abs=1e-12)
    assert cross_entropy(true_ctx, post_ctx) == pytest.approx(QPSK_CROSS_ENTROPY, abs=1e-12)
    for kind, want in FROZEN.items():
        con = make_constellation(kind, 2.0)
        true_ctx = DecoupledTrue(eta=0.9, r_v=0.3, constellation=con)
        post_ctx = DecoupledPostulated(xi=0.7, constellation=con)
        got = {
            "postulated_mmse": postulated_mmse(post_ctx),
            "true_mse": true_mse(true_ctx, post_ctx),
            "cross_entropy": cross_entropy(true_ctx, post_ctx),
            "matched_second_moment": matched_second_moment(true_ctx),
            "matched_scalar_mi": matched_scalar_mi(true_ctx),
            "output_entropy": output_entropy(true_ctx),
        }
        for name, value in want.items():
            assert got[name] == pytest.approx(value, rel=1e-12), (kind, name)


def test_bpsk_posterior_mean_is_tanh():
    # the denoiser <x>_q = weights @ alphabet, on bpsk's complex points and on
    # the I axis the factored kernels run
    a = math.sqrt(3.0)
    con = make_constellation("bpsk", 3.0)
    xi = 0.8
    z = np.array([0.3 + 0.5j, -1.2 - 0.1j, 2.0 + 0j])
    expect = a * np.tanh(2.0 * xi * a * z.real)
    flat = _weights(z, con.points, 1.0 / xi)[0] @ con.points
    assert np.allclose(flat, expect, atol=1e-12)
    i_axis = con.axes[0]
    assert np.allclose(_weights(z.real, i_axis, 1.0 / xi)[0] @ i_axis, expect, atol=1e-12)


def test_gaussian_closed_forms():
    con = make_constellation("gaussian", 2.0)
    post = DecoupledPostulated(xi=0.7, constellation=con)
    true = DecoupledTrue(eta=0.9, r_v=0.3, constellation=con)
    assert postulated_mmse(post) == pytest.approx(2.0 / (1.0 + 1.4))
    assert matched_scalar_mi(true) == pytest.approx(math.log1p(0.9 * 2.3))
    assert output_entropy(true) == pytest.approx(
        math.log(math.pi * math.e * (2.0 + 1.0 / 0.9 + 0.3))
    )
    # linear-MMSE identity: the Gaussian true_mse decomposes into bias and
    # noise-passthrough terms of the scalar Wiener filter
    g = 0.7 * 2.0
    expect = 2.3 / (1.0 + g) ** 2 + (g / (1.0 + g)) ** 2 / 0.9
    assert true_mse(true, post) == pytest.approx(expect, rel=1e-14)


def test_postulated_mmse_limits():
    con = make_constellation("qpsk", 2.0)
    assert postulated_mmse(DecoupledPostulated(xi=1e-9, constellation=con)) == pytest.approx(2.0, rel=1e-6)
    assert postulated_mmse(DecoupledPostulated(xi=1e4, constellation=con)) == pytest.approx(0.0, abs=1e-8)


def test_true_mse_requires_shared_alphabet():
    qpsk = make_constellation("qpsk", 2.0)
    qam = make_constellation("qam16", 2.0)
    with pytest.raises(ValueError):
        true_mse(DecoupledTrue(eta=1.0, r_v=0.0, constellation=qpsk),
                 DecoupledPostulated(xi=1.0, constellation=qam))


def test_gibbs_inequality_and_equality_case():
    true_ctx, post_ctx = qpsk_contexts()
    assert cross_entropy(true_ctx, post_ctx) <= -output_entropy(true_ctx) + 1e-12
    # posterior variance match makes the postulated marginal exactly the true one
    matched_xi = 1.0 / (1.0 / true_ctx.eta + true_ctx.r_v)
    matched_post = DecoupledPostulated(xi=matched_xi, constellation=true_ctx.constellation)
    assert cross_entropy(true_ctx, matched_post) == pytest.approx(
        -output_entropy(true_ctx), abs=1e-12
    )


def test_product_axes_path_equals_generic_quadrature():
    for kind in ("bpsk", "qpsk", "qam16"):
        con = make_constellation(kind, 1.7)
        assert con.axes is not None
        flat = Constellation(kind="custom", gamma_bar=con.gamma_bar,
                             points=con.points, axes=None)
        pairs = [
            (DecoupledTrue(eta=1.1, r_v=0.2, constellation=con),
             DecoupledPostulated(xi=0.6, constellation=con)),
            (DecoupledTrue(eta=1.1, r_v=0.2, constellation=flat),
             DecoupledPostulated(xi=0.6, constellation=flat)),
        ]
        (t_ax, p_ax), (t_fl, p_fl) = pairs
        assert postulated_mmse(p_ax) == pytest.approx(postulated_mmse(p_fl), abs=5e-12)
        assert true_mse(t_ax, p_ax) == pytest.approx(true_mse(t_fl, p_fl), abs=5e-12)
        assert cross_entropy(t_ax, p_ax) == pytest.approx(cross_entropy(t_fl, p_fl), abs=5e-12)
        assert matched_second_moment(t_ax) == pytest.approx(matched_second_moment(t_fl), abs=5e-12)
        assert output_entropy(t_ax) == pytest.approx(output_entropy(t_fl), abs=5e-12)
        assert matched_scalar_mi(t_ax) == pytest.approx(matched_scalar_mi(t_fl), abs=5e-12)


def test_matched_second_moment_bounds_and_monotonicity():
    con = make_constellation("qam16", 2.0)
    vals = [matched_second_moment(DecoupledTrue(eta=e, r_v=0.4, constellation=con))
            for e in (0.1, 1.0, 10.0, 100.0)]
    assert all(v <= 2.4 + 1e-12 for v in vals)
    assert vals == sorted(vals)


def test_matched_scalar_mi_saturates_at_alphabet_entropy():
    con = make_constellation("qpsk", 1.0)
    hi = matched_scalar_mi(DecoupledTrue(eta=1e5, r_v=0.0, constellation=con))
    assert hi == pytest.approx(math.log(4.0), abs=1e-6)
    lo = matched_scalar_mi(DecoupledTrue(eta=1e-6, r_v=0.0, constellation=con))
    assert lo == pytest.approx(0.0, abs=1e-5)


def test_matched_posterior_mean_uses_inflated_variance():
    # the matched denoiser sees chi = x + v, so its effective observation
    # noise is 1/eta + r_v around each point
    con = make_constellation("qpsk", 2.0)
    ctx = DecoupledTrue(eta=2.0, r_v=0.5, constellation=con)
    z = np.array([0.4 - 0.2j])
    var = 1.0 / 2.0 + 0.5
    w = np.exp(-np.abs(z[0] - con.points) ** 2 / var)
    w = w / w.sum()
    shrink = ctx.r_v / var
    expect = (w @ con.points) * (1.0 - shrink) + z[0] * shrink
    got = _matched_mean(z, con.points, ctx.eta, ctx.r_v)[0]
    # chi-estimate blends the point posterior with the raw observation
    assert got == pytest.approx(expect, abs=1e-12)


def test_quadrature_order_doubling_is_stable():
    true_ctx, post_ctx = qpsk_contexts()
    gb = post_ctx.constellation.gamma_bar
    a = postulated_mmse(post_ctx, order=48)
    b = postulated_mmse(post_ctx, order=96)
    assert abs(a - b) < 5e-5 * gb
    ha = output_entropy(true_ctx, order=48)
    hb = output_entropy(true_ctx, order=96)
    assert abs(ha - hb) < 5e-6


def test_log_postulated_marginal_normalizes():
    # integrating exp(log q) over the plane must give 1
    _, post_ctx = qpsk_contexts()
    from binoisy.numerics import hermgauss_nodes
    t, w = hermgauss_nodes(96)
    sig = math.sqrt((2.0 + 1.0 / 0.7) / 2.0)  # envelope covering the mixture
    z = sig * math.sqrt(2.0) * (t[:, None] + 1j * t[None, :])
    wz = (w[:, None] * w[None, :])
    dens = np.exp(_log_mixture(z, post_ctx.constellation.points, 1.0 / post_ctx.xi))
    envelope = np.exp(-(z.real**2 + z.imag**2) / (2.0 * sig * sig)) / (2.0 * math.pi * sig * sig)
    mass = float(np.sum(wz * dens / envelope))
    assert mass == pytest.approx(1.0, rel=1e-6)
