"""End-to-end acceptance runs.

Each test prints one PASS/FAIL line (visible with pytest -s) and then asserts,
so the suite double-functions as a human-readable checklist and a gate.
"""

import math
import time

import numpy as np
import pytest
import scipy.special

from binoisy.evm_planner import LossQuery, max_evm_for_loss, rule_of_thumb_evm
from binoisy.model import make_config, make_constellation
from binoisy.montecarlo import (
    McSettings,
    mc_gmi_gaussian,
    mc_mi_matched_discrete,
    mc_mi_matched_gaussian,
)
from binoisy.replica_matched import matched_mi, matched_mi_highsnr, matched_residuals
from binoisy.replica_mismatched import (
    gmi,
    gmi_general,
    gmi_highsnr_gaussian,
    mismatched_residuals,
    xi_gaussian_closed_form,
)

SEED = 20260819


def report(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num:02d} {'PASS' if ok else 'FAIL'}: {detail}", flush=True)


def test_criterion_01_gaussian_ensemble_agreement():
    t0 = time.perf_counter()
    worst = 0.0
    for snr in (0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0):
        cfg = make_config(4, 4, snr, evm_db=-10.0)
        con = make_constellation("gaussian", cfg.gamma_bar)
        settings = McSettings(n_channels=10000, seed=SEED)
        d_matched = abs(matched_mi(cfg, con).rate_bits
                        - mc_mi_matched_gaussian(cfg, settings).rate_bits)
        d_gmi = abs(gmi(cfg, con).rate_bits - mc_gmi_gaussian(cfg, settings).rate_bits)
        worst = max(worst, d_matched, d_gmi)
    elapsed = time.perf_counter() - t0
    ok = worst <= 0.10 and elapsed < 300.0
    report(1, ok, f"Gaussian 4x4 EVM -10 replica vs MC, worst |diff| = "
                  f"{worst:.4f} bits (<= 0.10), {elapsed:.0f}s (< 300s)")
    assert ok


def test_criterion_02_discrete_ensemble_agreement():
    t0 = time.perf_counter()
    worst = 0.0
    for kind, M, N in (("qpsk", 4, 4), ("qam16", 2, 2)):
        for snr in (0.0, 10.0, 20.0):
            cfg = make_config(M, N, snr, evm_db=-10.0)
            con = make_constellation(kind, cfg.gamma_bar)
            mc = mc_mi_matched_discrete(cfg, con, McSettings(n_channels=1000, seed=SEED))
            diff = abs(matched_mi(cfg, con).rate_bits - mc.rate_bits)
            worst = max(worst, diff)
    elapsed = time.perf_counter() - t0
    ok = worst <= 0.15 and elapsed < 900.0
    report(2, ok, f"QPSK 4x4 / 16-QAM 2x2 matched replica vs exhaustive MC, "
                  f"worst |diff| = {worst:.4f} bits (<= 0.15), {elapsed:.0f}s (< 900s)")
    assert ok


def test_criterion_03_matched_highsnr_limits():
    target = math.log2(101.0)
    worst = 0.0
    for M, N, scale in ((4, 4, 1.0), (8, 4, 0.5)):
        cfg = make_config(M, N, 60.0, evm_db=-20.0)
        res = matched_mi(cfg, make_constellation("gaussian", cfg.gamma_bar))
        rel = abs(res.rate_bits - scale * target) / (scale * target)
        worst = max(worst, rel)
    ok = worst <= 0.01
    report(3, ok, f"matched 60 dB kappa=0.1 vs log2(101) limits (alpha 1 and 2), "
                  f"worst rel err = {worst:.2e} (<= 1e-2)")
    assert ok


def test_criterion_04_mismatched_highsnr_limits():
    worst = 0.0
    for kappa in (0.05, 0.1):
        cfg = make_config(4, 4, 60.0, evm_db=20.0 * math.log10(kappa))
        res = gmi(cfg, make_constellation("gaussian", cfg.gamma_bar))
        limit = gmi_highsnr_gaussian(1.0, kappa)
        rel = abs(res.rate_nats - limit.rate_nats) / limit.rate_nats
        worst = max(worst, rel)
    ok = worst <= 0.01
    report(4, ok, f"gmi at gamma_bar=1e6 vs infinite-snr limit, kappa in "
                  f"{{0.05, 0.1}}, worst rel err = {worst:.2e} (<= 1e-2)")
    assert ok


def test_criterion_05_postulated_scale_invariance():
    cfg = make_config(4, 4, 10.0, evm_db=-10.0)
    worst = 0.0
    for kind in ("gaussian", "qpsk"):
        con = make_constellation(kind, cfg.gamma_bar)
        base = gmi(cfg, con).rate_bits
        for r in (0.1, 1.0, 10.0):
            general = gmi_general(cfg, con, r * np.eye(cfg.N)).rate_bits
            worst = max(worst, abs(general - base))
    ok = worst <= 1e-6
    report(5, ok, f"white vs general path across r_tilde in {{0.1, 1, 10}}, "
                  f"Gaussian and QPSK, worst |diff| = {worst:.2e} bits (<= 1e-6)")
    assert ok


def test_criterion_06_degeneracy_and_entropy_exhaustion():
    worst = 0.0
    for snr in (0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0):
        cfg = make_config(4, 4, snr)
        con = make_constellation("gaussian", cfg.gamma_bar)
        worst = max(worst, abs(gmi(cfg, con).rate_bits - matched_mi(cfg, con).rate_bits))
    cfg40 = make_config(4, 4, 40.0)
    sat_ok = True
    sats = {}
    for kind, bits in (("qpsk", 2.0), ("qam16", 4.0)):
        rate = matched_mi(cfg40, make_constellation(kind, cfg40.gamma_bar)).rate_bits
        sats[kind] = rate
        sat_ok = sat_ok and abs(rate - bits) <= 0.01
    ok = worst <= 1e-4 and sat_ok
    report(6, ok, f"r_v=0 gmi==matched worst |diff| = {worst:.2e} bits (<= 1e-4); "
                  f"40 dB saturation qpsk {sats['qpsk']:.3f} / qam16 {sats['qam16']:.3f}")
    assert ok


def test_criterion_07_fixed_point_soundness():
    worst_solution = 0.0
    for kind in ("gaussian", "qpsk", "qam16"):
        for snr in (0.0, 10.0, 20.0):
            cfg = make_config(4, 4, snr, evm_db=-10.0)
            con = make_constellation(kind, cfg.gamma_bar)
            m = matched_mi(cfg, con)
            worst_solution = max(worst_solution, *matched_residuals(m, cfg, con).values())
            g = gmi(cfg, con)
            worst_solution = max(worst_solution, *mismatched_residuals(g, cfg, con).values())
    rng = np.random.default_rng(SEED)
    worst_xi = 0.0
    for _ in range(100):
        alpha = float(rng.uniform(0.2, 5.0))
        gb = float(10.0 ** rng.uniform(-2.0, 2.0))
        s = float(10.0 ** rng.uniform(-3.0, 3.0))
        xi = xi_gaussian_closed_form(alpha, gb, s)
        res = alpha * gb * xi * xi + (alpha + (alpha - 1.0) * s * gb) * xi - s
        worst_xi = max(worst_xi, abs(res) / max(1.0, alpha * gb * xi * xi, s))
    ok = worst_solution < 1e-9 and worst_xi < 1e-12
    report(7, ok, f"fixed-point residuals worst = {worst_solution:.2e} (< 1e-9); "
                  f"closed-form xi on 100 triples worst = {worst_xi:.2e} (< 1e-12)")
    assert ok


def test_criterion_08_siso_analytic_oracle():
    cfg = make_config(1, 1, 0.0)
    res = mc_mi_matched_gaussian(cfg, McSettings(n_channels=10000, seed=SEED))
    target = math.e * float(scipy.special.exp1(1.0)) / math.log(2.0)
    z = abs(res.rate_bits - target) / res.stderr_bits
    ok = z <= 2.0
    report(8, ok, f"SISO ergodic rate {res.rate_bits:.4f} bits vs e*E1(1) = "
                  f"{target:.4f}, z = {z:.2f} (<= 2 stderr)")
    assert ok


def test_criterion_09_evm_planner_bound():
    q = LossQuery(M=4, N=4, constellation="gaussian", decoder="matched")
    prev = math.inf
    ok = True
    details = []
    for snr in (0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0):
        t0 = time.perf_counter()
        evm = max_evm_for_loss(q, snr, 0.05)
        dt = time.perf_counter() - t0
        ok = ok and evm >= rule_of_thumb_evm(snr) and evm <= prev + 1e-9 and dt < 30.0
        prev = evm
        details.append(f"{evm:.2f}")
    report(9, ok, f"5% max-EVM curve [{', '.join(details)}] dB above -0.7*snr-13, "
                  f"nonincreasing, each search < 30s")
    assert ok


def test_criterion_10_orderings_and_loss_peaks():
    ordered = True
    for kind in ("gaussian", "qpsk", "qam16", "qam64"):
        for snr in (0.0, 10.0, 20.0, 30.0):
            for evm in (-10.0, -20.0):
                cfg = make_config(4, 4, snr, evm_db=evm)
                ideal_cfg = make_config(4, 4, snr)
                con = make_constellation(kind, cfg.gamma_bar)
                icon = make_constellation(kind, ideal_cfg.gamma_bar)
                g = gmi(cfg, con).rate_nats
                m = matched_mi(cfg, con).rate_nats
                i = matched_mi(ideal_cfg, icon).rate_nats
                ordered = ordered and g <= m + 1e-7 and m <= i + 1e-7

    def loss_peak_snr(kind):
        best = (-1.0, None)
        for snr in (0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0):
            cfg = make_config(4, 4, snr, evm_db=-20.0)
            ideal_cfg = make_config(4, 4, snr)
            dirty = matched_mi(cfg, make_constellation(kind, cfg.gamma_bar)).rate_nats
            clean = matched_mi(ideal_cfg, make_constellation(kind, ideal_cfg.gamma_bar)).rate_nats
            loss = 1.0 - dirty / clean
            if loss > best[0]:
                best = (loss, snr)
        return best[1]

    qpsk_peak = loss_peak_snr("qpsk")
    qam64_peak = loss_peak_snr("qam64")
    peaks_ok = qam64_peak > qpsk_peak
    ok = ordered and peaks_ok
    report(10, ok, f"gmi <= matched <= ideal on the sweep grid: {ordered}; "
                   f"max-loss snr at EVM -20: qam64 {qam64_peak:g} dB > qpsk {qpsk_peak:g} dB")
    assert ok
