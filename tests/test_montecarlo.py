"""Finite-size ensemble references for the large-system formulas."""

import math

import numpy as np
import pytest

from binoisy.model import make_config, make_constellation
from binoisy.montecarlo import (
    LATTICE_LIMIT,
    McSettings,
    mc_gmi_gaussian,
    mc_mi_matched_discrete,
    mc_mi_matched_gaussian,
    sample_channel,
)


def test_settings_validation():
    with pytest.raises(ValueError):
        McSettings(n_channels=1)
    with pytest.raises(ValueError):
        McSettings(n_noise=0)
    for field, bad in (("n_channels", 150.0), ("n_channels", True), ("n_channels", "150"),
                       ("n_noise", 2.5), ("n_noise", np.float64(3.0)), ("seed", -1),
                       ("seed", 1.0), ("seed", False)):
        with pytest.raises(ValueError, match=field):
            McSettings(**{field: bad})
    # numpy integers are integers; the CLI's derived seeds are plain ints
    assert McSettings(n_channels=np.int64(5), n_noise=np.uint32(2), seed=np.int64(7)).seed == 7


def test_channel_entries_have_unit_column_energy():
    rng = np.random.default_rng(0)
    H = np.stack([sample_channel(3, 5, rng) for _ in range(4000)])
    assert H.shape[1:] == (5, 3)
    assert abs(H.mean()) < 5e-3
    # E|H_ij|^2 = 1/M so each transmit stream arrives with unit energy
    assert float(np.mean(np.abs(H) ** 2)) == pytest.approx(1.0 / 3.0, rel=2e-2)
    frob = float(np.mean(np.sum(np.abs(H) ** 2, axis=(1, 2))))
    assert frob == pytest.approx(5.0, rel=2e-2)


def test_results_are_deterministic_in_the_seed():
    cfg = make_config(2, 2, 5.0, evm_db=-15.0)
    a = mc_mi_matched_gaussian(cfg, McSettings(n_channels=300, seed=4))
    b = mc_mi_matched_gaussian(cfg, McSettings(n_channels=300, seed=4))
    c = mc_mi_matched_gaussian(cfg, McSettings(n_channels=300, seed=5))
    assert a.rate_nats == b.rate_nats
    assert a.stderr_nats == b.stderr_nats
    assert a.rate_nats != c.rate_nats


def test_stderr_shrinks_with_sample_size():
    cfg = make_config(2, 2, 5.0)
    small = mc_mi_matched_gaussian(cfg, McSettings(n_channels=400, seed=1))
    large = mc_mi_matched_gaussian(cfg, McSettings(n_channels=6400, seed=1))
    ratio = small.stderr_nats / large.stderr_nats
    assert 2.0 < ratio < 8.0  # expect ~4 from the 16x sample increase


def test_siso_rate_matches_exponential_integral_constant():
    # M=N=1, unit snr, no distortion: ergodic MI = e*E1(1) nats, a classic
    # closed form for Rayleigh fading
    cfg = make_config(1, 1, 0.0)
    res = mc_mi_matched_gaussian(cfg, McSettings(n_channels=10000, seed=3))
    target = 0.8603  # bits
    assert abs(res.rate_bits - target) < 2.0 * res.stderr_bits


def test_gmi_reference_never_beats_matched_reference():
    cfg = make_config(4, 4, 10.0, evm_db=-10.0)
    settings = McSettings(n_channels=500, seed=2)
    g = mc_gmi_gaussian(cfg, settings)
    m = mc_mi_matched_gaussian(cfg, settings)
    assert g.rate_nats < m.rate_nats


def test_gmi_reference_equals_matched_without_distortion():
    cfg = make_config(3, 3, 8.0)
    settings = McSettings(n_channels=400, seed=6)
    g = mc_gmi_gaussian(cfg, settings)
    m = mc_mi_matched_gaussian(cfg, settings)
    # identical channel draws, and the scale sweep can reach the true law
    assert g.rate_nats == pytest.approx(m.rate_nats, abs=1e-6)


def test_finite_size_tracks_large_system_value():
    from binoisy.replica_matched import matched_mi

    cfg = make_config(4, 4, 10.0, evm_db=-10.0)
    mc = mc_mi_matched_gaussian(cfg, McSettings(n_channels=500, seed=8))
    rep = matched_mi(cfg, make_constellation("gaussian", cfg.gamma_bar))
    assert abs(mc.rate_bits - rep.rate_bits) < 0.08


def test_discrete_reference_matches_scalar_awgn_oracle():
    # a 1x1 link with H fixed by conditioning cannot be pinned, but at high
    # snr the QPSK rate must exhaust the alphabet regardless of fading
    cfg = make_config(1, 1, 45.0)
    con = make_constellation("qpsk", cfg.gamma_bar)
    res = mc_mi_matched_discrete(cfg, con, McSettings(n_channels=200, n_noise=20, seed=9))
    assert res.rate_bits == pytest.approx(2.0, abs=0.05)


def test_discrete_reference_guards():
    cfg = make_config(4, 4, 10.0)
    gauss = make_constellation("gaussian", cfg.gamma_bar)
    with pytest.raises(ValueError):
        mc_mi_matched_discrete(cfg, gauss, McSettings(n_channels=2))
    qam16 = make_constellation("qam16", cfg.gamma_bar)
    assert 16**4 > LATTICE_LIMIT
    with pytest.raises(ValueError):
        mc_mi_matched_discrete(cfg, qam16, McSettings(n_channels=2))


def test_discrete_reference_rescales_constellation_power():
    # the constellation is re-anchored to the config's power budget so a
    # mismatched gamma_bar in the alphabet object cannot skew the reference
    cfg = make_config(2, 2, 10.0, evm_db=-10.0)
    con_right = make_constellation("qpsk", cfg.gamma_bar)
    con_wrong = make_constellation("qpsk", 1.0)
    settings = McSettings(n_channels=100, n_noise=10, seed=12)
    a = mc_mi_matched_discrete(cfg, con_right, settings)
    b = mc_mi_matched_discrete(cfg, con_wrong, settings)
    assert a.rate_nats == pytest.approx(b.rate_nats, abs=1e-12)


def test_batched_draw_equals_consecutive_sample_channel_calls():
    from binoisy.montecarlo import _draw_channels

    batch = _draw_channels(4, 2, 3, np.random.default_rng(11))
    rng = np.random.default_rng(11)
    singles = np.stack([sample_channel(2, 3, rng) for _ in range(4)])
    assert batch.shape == (4, 3, 2)
    assert np.array_equal(singles, batch)


# float.hex of (rate_nats, stderr_nats), frozen from the per-channel loops the
# batched references replaced; any change in draw order, reduction order or
# the log-sum-exp clamp shows up here as a changed bit
_FROZEN_GAUSSIAN = {
    "matched": ("0x1.30f5dd89db0f9p+1", "0x1.21c528e6f7dfbp-7"),
    "gmi": ("0x1.29b4b777bf6e3p+1", "0x1.a473b191d89eep-7"),
}
_FROZEN_DISCRETE = {
    # 25 dB at -30 dB EVM puts most log-sum-exp exponents below the clamp
    ("qpsk", 25.0, -30.0): ("0x1.37bd95c8d6865p+0", "0x1.07f6668703d3fp-4"),
    ("qam16", 25.0, -30.0): ("0x1.4d50cfa772babp+1", "0x1.07f66b56cd192p-4"),
    # few clamped terms: the order of the score additions shows here
    ("qam16", 5.0, -10.0): ("0x1.17a439d14a98ep+0", "0x1.5491201e04cefp-4"),
}


@pytest.mark.parametrize("kind", sorted(_FROZEN_GAUSSIAN))
def test_gaussian_references_are_bit_frozen(kind):
    # 1050 channels: ten full blocks and a partial one
    cfg = make_config(2, 3, 12.0, evm_db=-15.0)
    fn = mc_mi_matched_gaussian if kind == "matched" else mc_gmi_gaussian
    res = fn(cfg, McSettings(n_channels=1050))
    assert (res.rate_nats.hex(), res.stderr_nats.hex()) == _FROZEN_GAUSSIAN[kind]


@pytest.mark.parametrize("kind,snr_db,evm_db", sorted(_FROZEN_DISCRETE))
def test_discrete_reference_is_bit_frozen(kind, snr_db, evm_db):
    cfg = make_config(2, 3, snr_db, evm_db=evm_db)
    con = make_constellation(kind, cfg.gamma_bar)
    res = mc_mi_matched_discrete(cfg, con, McSettings(n_channels=7, n_noise=13))
    assert (res.rate_nats.hex(), res.stderr_nats.hex()) == _FROZEN_DISCRETE[kind, snr_db, evm_db]
