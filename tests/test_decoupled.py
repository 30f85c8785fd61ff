"""Scalar-channel statistics: denoisers, errors, and entropies."""

import math

import numpy as np
import pytest

import binoisy.decoupled as decoupled
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
from binoisy.numerics import mixture_expectation

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


# Square grids integrate their one PAM axis once and double it. float.hex of
# every quantity, frozen from the sum over both equal axes, so the saving is
# bit for bit. Contexts are (gamma_bar, eta, r_v, xi); values are in the order
# of SQUARE_QUANTITIES.
SQUARE_CONTEXTS = ((2.0, 0.9, 0.3, 0.7), (1.3, 12.0, 0.02, 20.0))
SQUARE_QUANTITIES = ("postulated_mmse", "true_mse", "cross_entropy",
                     "matched_second_moment", "output_entropy", "matched_scalar_mi")
SQUARE_HEX = {
    "qpsk": (
        ("0x1.5dea97978226cp-1", "0x1.60811d8a983c9p-1", "-0x1.a9b38e1a90fc9p+1",
         "0x1.a51aa561b0b20p+0", "0x1.a9b2524612c72p+1", "0x1.135eb7dca1312p+0"),
        ("0x1.42cb930400000p-21", "0x1.5236c0b4405efp-6", "-0x1.99b4ed40a52b6p+0",
         "0x1.4da7ae46393eap+0", "0x1.4295b56131f9ep+0", "0x1.99ab886d2badbp+0"),
    ),
    "qam16": (
        ("0x1.9489b65c89890p-1", "0x1.80d517ca6725fp-1", "-0x1.ada3e6fe7cbbep+1",
         "0x1.93eafdc286c62p+0", "0x1.ada32822123b7p+1", "0x1.1b406394a019cp+0"),
        ("0x1.b5fed7a878900p-7", "0x1.11b240f0b2774p-4", "-0x1.36c4335d0b69ap+1",
         "0x1.42eed9e0c5b92p+0", "0x1.1c471d7e11cecp+1", "0x1.47d207040ea8ap+1"),
    ),
    "qam64": (
        ("0x1.9960e8051d5f4p-1", "0x1.83b3e485b5986p-1", "-0x1.ae0add5478872p+1",
         "0x1.92674efd6b3e6p+0", "0x1.ae0a2d0086564p+1", "0x1.1c0e6d51884f6p+0"),
        ("0x1.61d536effafc0p-5", "0x1.2c9119c848514p-4", "-0x1.2fb953c53f378p+1",
         "0x1.3f630434ddfccp+0", "0x1.2a5f006d8c078p+1", "0x1.55e9e9f388e16p+1"),
    ),
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


def six_quantities(con, eta, r_v, xi):
    """The public quantities, in the order of SQUARE_QUANTITIES."""
    true_ctx = DecoupledTrue(eta=eta, r_v=r_v, constellation=con)
    post_ctx = DecoupledPostulated(xi=xi, constellation=con)
    return (postulated_mmse(post_ctx), true_mse(true_ctx, post_ctx), cross_entropy(true_ctx, post_ctx),
            matched_second_moment(true_ctx), output_entropy(true_ctx), matched_scalar_mi(true_ctx))


@pytest.mark.parametrize("kind", sorted(SQUARE_HEX))
def test_square_grids_are_bit_frozen(kind):
    for (gb, eta, r_v, xi), want in zip(SQUARE_CONTEXTS, SQUARE_HEX[kind]):
        con = make_constellation(kind, gb)
        assert np.array_equal(*con.axes)
        for name, value, hex_value in zip(SQUARE_QUANTITIES, six_quantities(con, eta, r_v, xi), want):
            assert value.hex() == hex_value, (kind, gb, name)


# Complex point sets, none a product grid. psk8 and its turn by pi/8 map onto
# themselves under the quarter turn, HALF_TURN only under the half turn,
# ASYMMETRIC under neither, and ORIGIN would under the quarter turn but for
# its point at 0, whose orbit is itself.
PSK8_TURNED = np.exp(1j * (np.pi / 8 + np.pi / 4 * np.arange(8)))
HALF_TURN = np.array([1 + 0.5j, -1 - 0.5j, 0.3 + 1j, -0.3 - 1j])
ASYMMETRIC = np.array([0, 1, 1j, 2 + 1j, -0.5 - 2j])
ORIGIN = np.array([0, 1, 1j, -1, -1j])
# (gamma_bar, eta, r_v, xi): the square-grid contexts and one at 30 dB
ORBIT_CONTEXTS = SQUARE_CONTEXTS + ((1000.0, 1.0, 0.01, 0.1),)


def complex_set(points, gamma_bar):
    con = make_constellation("psk8", gamma_bar) if points is None else make_constellation("custom", gamma_bar, points)
    assert con.axes is None
    return con


def full_sum_expect(alph, var, f, order):
    """Reference for decoupled._expect on a complex factor: every point's
    component integrated."""
    return mixture_expectation([(a, var) for a in alph], f, order)


@pytest.mark.parametrize("points", [None, PSK8_TURNED, HALF_TURN], ids=["psk8", "psk8_turned", "half_turn"])
def test_rotation_orbits_match_the_full_sum(points, monkeypatch):
    # postulated_mmse is gamma_bar minus an integral of size gamma_bar, so its
    # roundoff is relative to gamma_bar; at 30 dB the value itself is ~0
    for gb, eta, r_v, xi in ORBIT_CONTEXTS:
        con = complex_set(points, gb)
        got = six_quantities(con, eta, r_v, xi)
        with monkeypatch.context() as m:
            m.setattr(decoupled, "_expect", full_sum_expect)
            want = six_quantities(con, eta, r_v, xi)
        scales = (gb,) + tuple(abs(v) for v in want[1:])
        for name, g, w, scale in zip(SQUARE_QUANTITIES, got, want, scales):
            assert abs(g - w) <= 1e-13 * scale, (gb, name, g, w)


# float.hex of every quantity at each ORBIT_CONTEXTS entry, in the order of
# SQUARE_QUANTITIES, frozen from the sum over every point before rotation
# orbits were integrated once: sets without a usable symmetry keep that sum
# bit for bit.
FULL_PATH_HEX = {
    "asymmetric": (
        ("0x1.2e7fa5a0de1d4p-1", "0x1.46073611acdd0p-1", "-0x1.9de6d52242ea2p+1",
         "0x1.b37e0e7c10d82p+0", "0x1.9de5928d339bdp+1", "0x1.f78a70d5c5b50p-1"),
        ("0x1.261c98b8d6200p-9", "0x1.14d76be82d502p-5", "-0x1.b4d9362a0523dp+0",
         "0x1.4ab97bf38b5c2p+0", "0x1.65490bef05edep+0", "0x1.bc5edefaffa1bp+0"),
        ("0x1.9f50f5e800000p-14", "0x1.47ae147ae1486p-7", "-0x1.4a189f9538bccp+2",
         "0x1.f400033e8e24ap+9", "0x1.e1ce9f73761adp+1", "0x1.9e903a587219ep+0"),
    ),
    "origin": (
        ("0x1.727038a528970p-1", "0x1.6ca8d797569a0p-1", "-0x1.ab2c6d26555fap+1",
         "0x1.9ea6168f56480p+0", "0x1.ab2b621fd5c35p+1", "0x1.1650d79027298p+0"),
        ("0x1.f417d6a5b8000p-15", "0x1.8a324edc8a746p-6", "-0x1.cf13baea9d7b0p+0",
         "0x1.4cf3d3163d916p+0", "0x1.790f98fee3323p+0", "0x1.d0256c0adce60p+0"),
        ("0x1.e000000000000p-39", "0x1.47ae147ae147bp-7", "-0x1.4a189f9538bccp+2",
         "0x1.f400033e8e24bp+9", "0x1.e1ce9f73761adp+1", "0x1.9e903a587219ep+0"),
    ),
}


@pytest.mark.parametrize("name,points", [("asymmetric", ASYMMETRIC), ("origin", ORIGIN)])
def test_sets_without_rotation_orbits_keep_the_full_sum(name, points):
    for (gb, eta, r_v, xi), want in zip(ORBIT_CONTEXTS, FULL_PATH_HEX[name]):
        got = six_quantities(complex_set(points, gb), eta, r_v, xi)
        for quantity, value, hex_value in zip(SQUARE_QUANTITIES, got, want):
            assert value.hex() == hex_value, (name, gb, quantity)


@pytest.mark.parametrize("points,components", [
    (None, 2), (PSK8_TURNED, 2), (HALF_TURN, 2), (ASYMMETRIC, 5), (ORIGIN, 5),
], ids=["psk8", "psk8_turned", "half_turn", "asymmetric", "origin"])
def test_complex_kernels_integrate_one_component_per_orbit(points, components, monkeypatch):
    seen = []

    def spy(comps, f, order):
        comps = list(comps)
        seen.append(len(comps))
        return mixture_expectation(comps, f, order)

    monkeypatch.setattr(decoupled, "mixture_expectation", spy)
    six_quantities(complex_set(points, 2.0), 0.9, 0.3, 0.7)
    assert seen == [components] * len(SQUARE_QUANTITIES)


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
    # the rectangular grid {+-1, +-3} x {+-1} has unequal I and Q axes, which
    # must each be integrated, never merged into one doubled axis
    rect = make_constellation("custom", 1.7, np.array([a + 1j * b for a in (-3, -1, 1, 3) for b in (-1, 1)]))
    assert rect.axes is not None and not np.array_equal(*rect.axes)
    for con in [make_constellation(kind, 1.7) for kind in ("bpsk", "qpsk", "qam16")] + [rect]:
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
