"""Matched-decoding rate via the large-system fixed point."""

import math
from dataclasses import replace
from decimal import Decimal, localcontext

import numpy as np
import pytest

from binoisy.model import RateResult, make_config, make_constellation
from binoisy.replica_matched import _in_rate_range, matched_mi, matched_mi_highsnr, solve_matched_prime
from postulate_oracle import matched_residuals

# Frozen anchors at M=N=4, snr 10 dB, EVM -10 dB. The Gaussian value is
# cross-checked against ensemble Monte Carlo in the acceptance suite; the
# discrete ones against the exhaustive-lattice reference.
ANCHOR_BITS = {
    "gaussian": 1.9869982431732875,
    "qpsk": 1.7656234335523417,
    "qam16": 1.9401672531177592,
}


def anchor_cfg():
    return make_config(4, 4, 10.0, evm_db=-10.0)


@pytest.mark.parametrize("kind", sorted(ANCHOR_BITS))
def test_frozen_anchors(kind):
    cfg = anchor_cfg()
    res = matched_mi(cfg, make_constellation(kind, cfg.gamma_bar))
    assert res.converged
    assert res.rate_bits == pytest.approx(ANCHOR_BITS[kind], abs=1e-10)


def test_prime_pair_hits_golden_ratio_closed_form():
    # with white R_w, M=N and r_v=1 the auxiliary pair solves
    # eta' = 1/(1+eps'), eps' = 1/(1+eta'), i.e. eta'^2 + eta' - 1 = 0
    cfg = make_config(4, 4, 10.0, evm_db=-10.0)
    assert cfg.r_v == pytest.approx(1.0)
    eta_p, eps_p = solve_matched_prime(cfg)
    phi_inv = (math.sqrt(5.0) - 1.0) / 2.0
    assert eta_p == pytest.approx(phi_inv, abs=1e-10)
    assert eps_p == pytest.approx(phi_inv, abs=1e-10)


def test_ideal_hardware_prime_pair_is_trivial():
    cfg = make_config(3, 5, 7.0)
    eta_p, eps_p = solve_matched_prime(cfg)
    assert eps_p == 0.0
    assert eta_p == pytest.approx(cfg.trinv_rw_plus(0.0) / cfg.M)


def white_pair_root(cfg, P):
    """Positive root e of alpha e^2 + (alpha cw + (1 - alpha) P) e - alpha P cw = 0,
    the Gaussian pair of power P under white receive noise, in 60-digit
    decimal arithmetic on the form that does not cancel."""
    with localcontext() as ctx:
        ctx.prec = 60
        a, cw, P = Decimal(cfg.M) / Decimal(cfg.N), Decimal(cfg.cw), Decimal(P)
        b, c = a * cw + (1 - a) * P, a * P * cw
        sq = (b * b + 4 * a * c).sqrt()
        return float(2 * c / (b + sq) if b > 0 else (sq - b) / (2 * a))


@pytest.mark.parametrize("shape", [(4, 4), (8, 1), (1, 8), (3, 5)])
@pytest.mark.parametrize("snr", [300.0, 1000.0, 3000.0])
def test_gaussian_pairs_match_the_white_closed_form(shape, snr):
    # at these powers cw + e rounds to e, where e - P/(1 + eta P) is exactly
    # 0 over a wide range of e; eps' once read 4.6e15 at 3000 dB, not 3.2e149
    cfg = make_config(*shape, snr, evm_db=-10.0)
    _, eps_p = solve_matched_prime(cfg)
    assert eps_p == pytest.approx(white_pair_root(cfg, cfg.r_v), rel=1e-12, abs=0.0)
    res = matched_mi(cfg, make_constellation("gaussian", cfg.gamma_bar))
    assert res.converged
    assert res.params["eps"] == pytest.approx(white_pair_root(cfg, cfg.gamma_bar + cfg.r_v), rel=1e-12, abs=0.0)


@pytest.mark.parametrize("snr", [30.0, 300.0, 3000.0])
def test_colored_gaussian_pairs_solve_their_equation(snr):
    # M = N: e/P = (1/M) sum_i lam_i/(lam_i + e), whose two sides never
    # cancel; the forward form e = P/(1 + eta P) would hold for a wrong e
    R_w = np.diag([0.5, 1.0, 2.0, 4.0]).astype(complex)
    cfg = make_config(4, 4, snr, evm_db=-10.0, R_w=R_w)
    res = matched_mi(cfg, make_constellation("gaussian", cfg.gamma_bar))
    lam = cfg.rw_eigvals
    for e, P in ((res.params["eps"], cfg.gamma_bar + cfg.r_v), (res.params["eps_prime"], cfg.r_v)):
        assert e / P == pytest.approx(float(np.mean(lam / (lam + e))), rel=1e-12, abs=0.0)


@pytest.mark.parametrize("kind", ["gaussian", "qpsk", "qam16"])
def test_solution_residuals(kind):
    for snr in (0.0, 10.0, 25.0):
        cfg = make_config(4, 4, snr, evm_db=-10.0)
        con = make_constellation(kind, cfg.gamma_bar)
        res = matched_mi(cfg, con)
        assert res.converged
        for name, violation in matched_residuals(res, cfg, con).items():
            assert violation < 1e-9, (kind, snr, name, violation)


def test_rate_monotone_in_snr_and_distortion():
    rates = []
    for snr in (0.0, 5.0, 10.0, 15.0):
        cfg = make_config(4, 4, snr, evm_db=-10.0)
        rates.append(matched_mi(cfg, make_constellation("gaussian", cfg.gamma_bar)).rate_nats)
    assert rates == sorted(rates)
    cfg_clean = make_config(4, 4, 10.0)
    cfg_dirty = make_config(4, 4, 10.0, evm_db=-10.0)
    clean = matched_mi(cfg_clean, make_constellation("qpsk", cfg_clean.gamma_bar)).rate_nats
    dirty = matched_mi(cfg_dirty, make_constellation("qpsk", cfg_dirty.gamma_bar)).rate_nats
    assert dirty < clean


def test_rate_invariant_under_noise_rescaling():
    # scaling R_w by c rescales gamma_bar with it (snr is relative), which
    # leaves the channel physically unchanged
    base_cfg = make_config(3, 3, 8.0, evm_db=-15.0)
    scaled_cfg = make_config(3, 3, 8.0, evm_db=-15.0, R_w=4.0 * np.eye(3))
    assert scaled_cfg.gamma_bar == pytest.approx(4.0 * base_cfg.gamma_bar)
    a = matched_mi(base_cfg, make_constellation("qam16", base_cfg.gamma_bar))
    b = matched_mi(scaled_cfg, make_constellation("qam16", scaled_cfg.gamma_bar))
    assert a.rate_nats == pytest.approx(b.rate_nats, abs=1e-10)


def test_colored_noise_costs_rate_at_fixed_average_power():
    # spreading the noise eigenvalues while keeping tr(R_w)/N fixed must not
    # help a link whose transmitter cannot see the color
    cfg_white = make_config(4, 4, 10.0, evm_db=-10.0)
    R_w = np.diag([0.4, 0.8, 1.2, 1.6]).astype(complex)
    cfg_color = make_config(4, 4, 10.0, evm_db=-10.0, R_w=R_w)
    assert cfg_color.gamma_bar == pytest.approx(cfg_white.gamma_bar)
    white = matched_mi(cfg_white, make_constellation("gaussian", cfg_white.gamma_bar))
    color = matched_mi(cfg_color, make_constellation("gaussian", cfg_color.gamma_bar))
    assert color.rate_nats != pytest.approx(white.rate_nats, abs=1e-6)


def test_discrete_rate_saturates_at_alphabet_entropy():
    cfg = make_config(4, 4, 40.0)
    for kind, bits in (("qpsk", 2.0), ("qam16", 4.0)):
        res = matched_mi(cfg, make_constellation(kind, cfg.gamma_bar))
        assert res.rate_bits == pytest.approx(bits, abs=1e-2)
        assert res.rate_bits <= bits + 1e-9


@pytest.mark.parametrize("kind,snr", [("qam64", 200.0), ("qam16", 250.0),
                                      ("qam64", 160.0), ("qam16", 160.0), ("qpsk", 160.0)])
def test_rate_outside_the_input_entropy_is_unconverged(kind, snr):
    # far above any usable SNR the primary pair can land on a fixed point
    # whose rate exceeds log2 K (7.44 bits for qam64 at 200 dB, 5.44 for
    # qam16 at 250 dB); such a result must not claim convergence. At 160 dB
    # the rates sit within the 1e-6-nat slack and stay converged.
    cfg = make_config(4, 4, snr, evm_db=-30.0)
    con = make_constellation(kind, cfg.gamma_bar)
    res = matched_mi(cfg, con)
    assert res.converged == (res.rate_nats <= math.log(con.size) + 1e-6), res.rate_bits


def test_rate_range_guard_bounds():
    qpsk, gaussian = make_constellation("qpsk", 1.0), make_constellation("gaussian", 1.0)
    top = math.log(4.0)
    for rate, con, ok in ((top + 0.9e-6, qpsk, True), (top + 1.1e-6, qpsk, False),
                          (-0.9e-6, qpsk, True), (-1.1e-6, qpsk, False), (math.nan, qpsk, False),
                          (1e3, gaussian, True), (-1.1e-6, gaussian, False)):
        res = _in_rate_range(RateResult(rate, {}, iterations=7), con)
        assert res.converged == ok, (rate, con.kind)
        assert res.iterations == 7 and (res.rate_nats == rate or math.isnan(rate))
    assert not _in_rate_range(RateResult(0.5, {}, converged=False), qpsk).converged


def test_highsnr_limit_values():
    assert matched_mi_highsnr(1.0, 0.1) == pytest.approx(math.log(101.0))
    assert matched_mi_highsnr(0.5, 0.1) == pytest.approx(math.log(101.0))
    assert matched_mi_highsnr(2.0, 0.1) == pytest.approx(math.log(101.0) / 2.0)
    with pytest.raises(ValueError):
        matched_mi_highsnr(1.0, 0.0)
    with pytest.raises(ValueError):
        matched_mi_highsnr(0.0, 0.1)


def test_finite_snr_approaches_highsnr_limit():
    cfg = make_config(4, 4, 60.0, evm_db=-20.0)
    res = matched_mi(cfg, make_constellation("gaussian", cfg.gamma_bar))
    limit = matched_mi_highsnr(1.0, 0.1)
    assert res.rate_nats == pytest.approx(limit, rel=5e-3)
    assert res.rate_nats < limit  # finite snr stays below the ceiling


def count_root_work(monkeypatch):
    """Wrap replica_matched.nearest_root: returns the list of its results and
    a one-element list counting every call of the functions it roots."""
    import binoisy.replica_matched as rm

    results, calls = [], [0]
    inner = rm.nearest_root

    def counting(g, *args, **kwargs):
        def counted(x):
            calls[0] += 1
            return g(x)
        results.append(inner(counted, *args, **kwargs))
        return results[-1]

    monkeypatch.setattr(rm, "nearest_root", counting)
    return results, calls


def test_iterations_count_every_start(monkeypatch):
    # both starts land on one branch here; the duplicate's evaluations count
    # too, and so do the prime pair's
    import binoisy.replica_matched as rm

    etas = []
    inner = rm.matched_second_moment

    def counting(ctx, *args, **kwargs):
        etas.append(ctx.eta)
        return inner(ctx, *args, **kwargs)

    monkeypatch.setattr(rm, "matched_second_moment", counting)
    _, calls = count_root_work(monkeypatch)
    cfg = make_config(4, 4, 10.0, evm_db=-20.0)
    res = matched_mi(cfg, make_constellation("qpsk", cfg.gamma_bar))
    # each start's first evaluation is at its seed: 1e-6 and P
    for seed in (1e-6, cfg.gamma_bar + cfg.r_v):
        assert cfg.trinv_rw_plus(seed) / cfg.M in etas
    assert res.iterations == calls[0]


def test_gaussian_solve_reports_its_root_work(monkeypatch):
    results, calls = count_root_work(monkeypatch)
    cfg = make_config(4, 4, 10.0, evm_db=-20.0)
    res = matched_mi(cfg, make_constellation("gaussian", cfg.gamma_bar))
    assert len(results) == 2  # the prime pair, then the primary pair
    assert res.iterations == sum(r.iterations for r in results) == calls[0] > 0
    assert res.converged


@pytest.mark.parametrize("kind", ["gaussian", "qpsk"])
def test_unconverged_prime_pair_makes_the_rate_unconverged(monkeypatch, kind):
    import binoisy.replica_matched as rm

    cfg = make_config(4, 4, 10.0, evm_db=-20.0)
    con = make_constellation(kind, cfg.gamma_bar)
    ref = matched_mi(cfg, con)
    inner = rm.nearest_root

    def prime_fails(g, x0, *args, **kwargs):
        r = inner(g, x0, *args, **kwargs)
        return replace(r, converged=False) if x0 == cfg.r_v else r

    monkeypatch.setattr(rm, "nearest_root", prime_fails)
    res = matched_mi(cfg, con)
    assert ref.converged and not res.converged
    assert (res.rate_nats, res.params, res.iterations) == (ref.rate_nats, ref.params, ref.iterations)


# High-SNR, large-EVM corner that 500 damped steps per start do not solve.
# Reference rates from damped iteration with a 20000-step budget, which
# converged after 1104-1563 steps.
DAMPED_CORNER_BITS = {
    ("qpsk", -5.0): 1.685169282775257,
    ("qam16", -5.0): 1.9034150472703153,
    ("qam16", -10.0): 3.0306227865458086,
}


@pytest.mark.parametrize("kind,evm", sorted(DAMPED_CORNER_BITS))
def test_high_snr_large_evm_corner_converges(kind, evm):
    cfg = make_config(4, 4, 30.0, evm_db=evm)
    res = matched_mi(cfg, make_constellation(kind, cfg.gamma_bar))
    assert res.converged
    assert res.iterations < 100
    assert res.rate_bits == pytest.approx(DAMPED_CORNER_BITS[kind, evm], abs=1e-9)
