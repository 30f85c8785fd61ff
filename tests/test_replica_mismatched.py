"""GMI under a postulated white noise law: fixed points and the scale sweep."""

import math

import numpy as np
import pytest

from binoisy.model import make_config, make_constellation
from binoisy.replica_matched import matched_mi, matched_residuals
from binoisy.replica_mismatched import (
    gmi,
    gmi_at_s,
    gmi_at_s_general,
    gmi_general,
    gmi_highsnr_gaussian,
    mismatched_residuals,
    xi_gaussian_closed_form,
)

# Frozen anchors at M=N=4, snr 10 dB, EVM -10 dB (acceptance suite holds the
# ensemble Monte Carlo cross-check for the Gaussian value).
GAUSSIAN_GMI_BITS = 1.878304088704249
GAUSSIAN_S_STAR = 0.4428156168699132
QPSK_GMI_BITS = 1.7025847366954552
HIGHSNR_GMI_BITS_K01 = 5.360269087601638


def anchor_cfg():
    return make_config(4, 4, 10.0, evm_db=-10.0)


def test_closed_form_xi_satisfies_its_quadratic():
    # xi solves alpha*gb*xi^2 + (alpha + (alpha-1)*s*gb)*xi - s = 0 with the
    # positive root; direct substitution is solver-independent
    rng = np.random.default_rng(7)
    for _ in range(100):
        alpha = float(rng.uniform(0.2, 5.0))
        gb = float(10.0 ** rng.uniform(-2.0, 2.0))
        s = float(10.0 ** rng.uniform(-3.0, 3.0))
        xi = xi_gaussian_closed_form(alpha, gb, s)
        assert xi > 0
        residual = alpha * gb * xi * xi + (alpha + (alpha - 1.0) * s * gb) * xi - s
        scale = max(1.0, alpha * gb * xi * xi, s)
        assert abs(residual) / scale < 1e-12


def test_closed_form_xi_hand_value():
    # alpha=1, gb=10, s=1 reduces to xi = (sqrt(41)-1)/20
    assert xi_gaussian_closed_form(1.0, 10.0, 1.0) == pytest.approx(
        (math.sqrt(41.0) - 1.0) / 20.0, abs=1e-15
    )


def test_frozen_gaussian_anchor():
    cfg = anchor_cfg()
    res = gmi(cfg, make_constellation("gaussian", cfg.gamma_bar))
    assert res.converged
    assert res.rate_bits == pytest.approx(GAUSSIAN_GMI_BITS, abs=1e-9)
    assert res.s_tilde == pytest.approx(GAUSSIAN_S_STAR, rel=1e-4)


def test_frozen_qpsk_anchor():
    cfg = anchor_cfg()
    res = gmi(cfg, make_constellation("qpsk", cfg.gamma_bar))
    assert res.converged
    assert res.rate_bits == pytest.approx(QPSK_GMI_BITS, abs=1e-9)


@pytest.mark.parametrize("kind", ["gaussian", "qpsk", "qam16"])
def test_solution_residuals(kind):
    cfg = anchor_cfg()
    con = make_constellation(kind, cfg.gamma_bar)
    res = gmi(cfg, con)
    for name, violation in mismatched_residuals(res, cfg, con).items():
        assert violation < 1e-9, (kind, name, violation)


@pytest.mark.parametrize("kind", ["gaussian", "qpsk"])
def test_ideal_hardware_degeneracy(kind):
    # with r_v = 0 the postulated law can reproduce the true one, so the
    # supremum must recover matched decoding (argmax at unit scale)
    cfg = make_config(4, 4, 10.0)
    con = make_constellation(kind, cfg.gamma_bar)
    g = gmi(cfg, con)
    m = matched_mi(cfg, con)
    assert abs(g.rate_bits - m.rate_bits) < 1e-6
    assert g.s_tilde == pytest.approx(1.0, abs=5e-3)


def test_gmi_never_exceeds_matched():
    # regression: the raw scale sweep walks into a window where the symmetric
    # fixed point is spurious (its value crosses the matched rate, which no
    # decoding metric can); those points must be screened out
    for evm in (-math.inf, -20.0, -10.0):
        cfg = make_config(4, 4, 10.0, evm_db=evm)
        for kind in ("qpsk", "qam16"):
            con = make_constellation(kind, cfg.gamma_bar)
            g = gmi(cfg, con)
            m = matched_mi(cfg, con)
            assert g.rate_nats <= m.rate_nats + 1e-7, (kind, evm)


_ITEM_1 = "ROADMAP item 1: the discrete GMI breaks its r_v = 0 identities"


@pytest.mark.parametrize("kind,snr", [
    ("bpsk", 10.0), ("qpsk", 5.0), ("qpsk", 10.0), ("qam16", 10.0),
    pytest.param("qam16", 16.0, marks=pytest.mark.xfail(strict=True, reason=_ITEM_1)),  # 5.00 bits low
])
def test_ideal_hardware_unit_scale_is_matched(kind, snr):
    # with r_v = 0 the white postulate at s = 1/cw is the true channel law,
    # so the GMI at that scale is the matched rate
    cfg = make_config(4, 4, snr)
    con = make_constellation(kind, cfg.gamma_bar)
    val, _ = gmi_at_s(1.0 / cfg.cw, cfg, con)
    assert abs(val - matched_mi(cfg, con).rate_nats) / math.log(2.0) <= 1e-9


@pytest.mark.parametrize("kind,snr,s_tilde", [
    pytest.param("bpsk", 10.0, 0.18, marks=pytest.mark.xfail(strict=True, reason=_ITEM_1)),  # +0.011 bits
    pytest.param("qpsk", 10.0, 0.40, marks=pytest.mark.xfail(strict=True, reason=_ITEM_1)),  # +0.028 bits
    pytest.param("qam16", 16.0, 0.74, marks=pytest.mark.xfail(strict=True, reason=_ITEM_1)),  # +0.060 bits
])
def test_fixed_scale_gmi_never_exceeds_matched(kind, snr, s_tilde):
    # Gibbs' inequality holds at every scale, not only at the screened
    # supremum that gmi reports
    cfg = make_config(4, 4, snr)
    con = make_constellation(kind, cfg.gamma_bar)
    val, _ = gmi_at_s(s_tilde, cfg, con)
    assert (val - matched_mi(cfg, con).rate_nats) / math.log(2.0) <= 1e-9


def test_scale_search_propagates_errors_other_than_no_fixed_point(monkeypatch):
    import binoisy.replica_mismatched as rmm

    def broken(*args, **kwargs):
        raise ValueError("boom")

    monkeypatch.setattr(rmm, "free_energy", broken)
    cfg = anchor_cfg()
    with pytest.raises(ValueError, match="boom"):
        gmi(cfg, make_constellation("qpsk", cfg.gamma_bar))


def test_the_configuration_owns_the_signal_power():
    # an alphabet built at another power is carried to the config's power,
    # as the Monte Carlo reference does: qpsk at power 1 on this 10 dB link
    # once gave a matched rate of 2.15 bits, above log2(4)
    cfg = make_config(2, 2, 10.0, evm_db=-20.0)
    right, wrong = make_constellation("qpsk", cfg.gamma_bar), make_constellation("qpsk", 1.0)
    for solve, residuals in ((matched_mi, matched_residuals), (gmi, mismatched_residuals)):
        res = solve(cfg, wrong)
        assert res.rate_bits == pytest.approx(solve(cfg, right).rate_bits, rel=0.0, abs=1e-12)
        assert max(residuals(res, cfg, wrong).values()) < 1e-9
    general = [gmi_at_s_general(0.5, cfg, con, np.eye(2))[0] for con in (wrong, right)]
    assert general[0] == pytest.approx(general[1], rel=0.0, abs=1e-12)


def test_distortion_orders_gmi():
    cfg_lo = make_config(4, 4, 10.0, evm_db=-30.0)
    cfg_hi = make_config(4, 4, 10.0, evm_db=-10.0)
    con_lo = make_constellation("gaussian", cfg_lo.gamma_bar)
    con_hi = make_constellation("gaussian", cfg_hi.gamma_bar)
    assert gmi(cfg_hi, con_hi).rate_nats < gmi(cfg_lo, con_lo).rate_nats


@pytest.mark.parametrize("kind", ["gaussian", "qpsk"])
@pytest.mark.parametrize("r_tilde", [0.1, 10.0])
def test_postulated_covariance_scale_is_immaterial(kind, r_tilde):
    # a scaled identity postulate only relabels the scale axis; the general
    # matrix path must land on the white-path value
    cfg = anchor_cfg()
    con = make_constellation(kind, cfg.gamma_bar)
    white = gmi(cfg, con)
    general = gmi_general(cfg, con, r_tilde * np.eye(cfg.N))
    assert general.converged
    assert general.rate_nats == pytest.approx(white.rate_nats, abs=1e-9)


def test_general_path_with_colored_postulate():
    cfg = anchor_cfg()
    con = make_constellation("gaussian", cfg.gamma_bar)
    R_tilde = np.diag([0.5, 1.0, 1.5, 2.0]).astype(complex)
    res = gmi_general(cfg, con, R_tilde)
    assert res.converged
    # mismatching the postulate's shape can only lose rate relative to the
    # best white postulate at this R_w = I channel
    assert res.rate_nats <= gmi(cfg, con).rate_nats + 1e-9
    with pytest.raises(ValueError):
        gmi_general(cfg, con, np.diag([1.0, 1.0, 1.0, -0.1]))


@pytest.mark.parametrize("R_tilde,message", [
    (np.eye(3), "R_tilde must be 2x2"),
    (np.array([[1.0, 1.0], [0.0, 1.0]]), "R_tilde must be Hermitian"),
    (np.diag([1.0, -0.5]), "R_tilde must be positive definite"),
])
def test_gmi_general_rejects_bad_postulates(R_tilde, message):
    # the matrices make_config rejects as R_w; eigvalsh alone reads one
    # triangle and would solve the non-Hermitian one as the identity
    cfg = make_config(2, 2, 10.0, evm_db=-10.0)
    with pytest.raises(ValueError, match=message):
        gmi_general(cfg, make_constellation("gaussian", cfg.gamma_bar), R_tilde)


def test_free_energy_identity_at_reported_solution():
    cfg = anchor_cfg()
    con = make_constellation("qpsk", cfg.gamma_bar)
    res = gmi(cfg, con)
    val, aux = gmi_at_s(res.s_tilde, cfg, con)
    assert val == pytest.approx(res.rate_nats, abs=1e-12)
    penalty = res.s_tilde * (cfg.cw + cfg.r_v) / cfg.alpha
    assert aux.free_energy - penalty == pytest.approx(val, abs=1e-12)


def test_highsnr_gaussian_limit():
    res = gmi_highsnr_gaussian(1.0, 0.1)
    assert res.converged
    assert res.rate_bits == pytest.approx(HIGHSNR_GMI_BITS_K01, abs=1e-8)
    # the mismatched limit must sit below the matched one
    assert res.rate_nats < math.log(101.0)
    with pytest.raises(ValueError):
        gmi_highsnr_gaussian(1.0, 0.0)
    with pytest.raises(ValueError):
        gmi_highsnr_gaussian(-1.0, 0.1)


def test_finite_snr_approaches_highsnr_gmi():
    cfg = make_config(4, 4, 60.0, evm_db=-20.0)
    res = gmi(cfg, make_constellation("gaussian", cfg.gamma_bar))
    limit = gmi_highsnr_gaussian(1.0, 0.1)
    assert res.rate_nats == pytest.approx(limit.rate_nats, rel=1e-3)


@pytest.mark.parametrize("kind,s_tilde", [("qpsk", 0.5), ("qam16", 2.0), ("gaussian", 0.5)])
def test_gmi_at_s_iterations_count_every_start(monkeypatch, kind, s_tilde):
    import binoisy.replica_mismatched as rmm

    ran = []
    inner = rmm.damped_fixed_point

    def counting(*args, **kwargs):
        out = inner(*args, **kwargs)
        ran.append(out.iterations)
        return out

    monkeypatch.setattr(rmm, "damped_fixed_point", counting)
    cfg = make_config(4, 4, 10.0, evm_db=-20.0)
    con = make_constellation(kind, cfg.gamma_bar)
    _, aux = gmi_at_s(s_tilde, cfg, con)
    assert aux.iterations == sum(ran)
    assert (len(ran) >= 4) == (kind != "gaussian")
    ran.clear()
    _, aux = rmm.gmi_at_s_general(s_tilde, cfg, con, np.eye(4))
    assert aux.iterations == sum(ran) and len(ran) >= 4


def test_gmi_general_iterations_count_every_scan_point(monkeypatch):
    import binoisy.replica_mismatched as rmm

    ran = []
    inner = rmm.gmi_at_s_general

    def counting(*args, **kwargs):
        val, aux = inner(*args, **kwargs)
        ran.append(aux.iterations)
        return val, aux

    monkeypatch.setattr(rmm, "gmi_at_s_general", counting)
    cfg = anchor_cfg()
    res = gmi_general(cfg, make_constellation("gaussian", cfg.gamma_bar), np.eye(cfg.N))
    assert len(ran) > 31
    assert res.iterations == sum(ran)


# float.hex of the value with (iterations, converged) from gmi_at_s and
# gmi_at_s_general at M=N=4, snr 10 dB, EVM -10 dB, frozen before the white
# and general postulates shared one two-stage solve; keys are (kind, s,
# order) and (kind, s). psk8 runs the complex-plane kernel, so it uses a
# low order to keep the test fast; its two values moved by 4 and 16 ulp when
# that kernel began integrating one component per rotation orbit, a roundoff
# change that test_rotation_orbits_match_the_full_sum in test_decoupled.py
# bounds.
_FROZEN_WHITE = {
    ("gaussian", 0.3, 48): ("0x1.414d0f74382e6p+0", 0, True),
    ("gaussian", 1.0, 48): ("0x1.ebda5fdfcd344p-1", 0, True),
    ("gaussian", 3.0, 48): ("-0x1.d5492b6566aa4p+0", 0, True),
    ("qpsk", 0.3, 48): ("0x1.2b7a07f4595f8p+0", 449, True),
    ("qpsk", 1.0, 48): ("0x1.13023d60fdb10p-2", 446, True),
    ("qpsk", 3.0, 48): ("-0x1.7d6698fc795d9p+1", 421, True),
    ("qam16", 0.3, 48): ("0x1.3c7aa93f40852p+0", 337, True),
    ("qam16", 1.0, 48): ("0x1.e1972941c6a4cp-1", 516, True),
    ("qam16", 3.0, 48): ("-0x1.96a0ff59cf89cp+0", 1081, True),
    ("psk8", 0.3, 16): ("0x1.36026afce5dc2p+0", 381, True),
    ("psk8", 1.0, 16): ("0x1.dbc915aaebb30p-1", 592, True),
}
# the coloured postulate diag(0.5, 1, 1.5, 2) on the same channel
_FROZEN_GENERAL = {
    ("gaussian", 1.0): ("0x1.922641ca30ea0p-1", 468, True),
    ("qpsk", 0.3): ("0x1.1be13e242b3d8p+0", 453, True),
    ("qpsk", 1.0): ("-0x1.288cb4dc591d4p+1", 418, True),
    ("qpsk", 3.0): ("-0x1.6e9b57d3efed3p+3", 267, True),
}


@pytest.mark.parametrize("kind,s_tilde,order", sorted(_FROZEN_WHITE))
def test_gmi_at_s_is_bit_frozen(kind, s_tilde, order):
    cfg = anchor_cfg()
    val, aux = gmi_at_s(s_tilde, cfg, make_constellation(kind, cfg.gamma_bar), order)
    assert (val.hex(), aux.iterations, aux.converged) == _FROZEN_WHITE[kind, s_tilde, order]


@pytest.mark.parametrize("kind,s", sorted(_FROZEN_GENERAL))
def test_gmi_at_s_general_is_bit_frozen(kind, s):
    cfg = anchor_cfg()
    R_tilde = np.diag([0.5, 1.0, 1.5, 2.0]).astype(complex)
    val, aux = gmi_at_s_general(s, cfg, make_constellation(kind, cfg.gamma_bar), R_tilde)
    assert (val.hex(), aux.iterations, aux.converged) == _FROZEN_GENERAL[kind, s]
