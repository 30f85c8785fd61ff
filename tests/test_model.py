"""System configuration and constellation construction."""

import math

import numpy as np
import pytest

from binoisy.model import (
    CONSTELLATION_KINDS,
    RateResult,
    at_power,
    make_config,
    make_constellation,
)


def test_config_white_noise_defaults():
    cfg = make_config(4, 4, 10.0, evm_db=-20.0)
    assert cfg.gamma_bar == pytest.approx(10.0)
    assert cfg.alpha == 1.0
    assert cfg.cw == pytest.approx(1.0)
    assert cfg.kappa == pytest.approx(0.1)
    assert cfg.r_v == pytest.approx(0.01 * 10.0)
    assert np.array_equal(cfg.R_w, np.eye(4))


def test_config_ideal_hardware_has_zero_distortion():
    cfg = make_config(2, 3, 5.0)
    assert cfg.evm_db == -math.inf
    assert cfg.kappa == 0.0
    assert cfg.r_v == 0.0
    assert cfg.alpha == pytest.approx(2.0 / 3.0)


def test_config_colored_noise_scales_gamma_bar():
    # snr is defined against the average receive-noise power, so doubling
    # tr(R_w)/N doubles gamma_bar at fixed snr_db
    R_w = np.diag([1.0, 3.0]).astype(complex)
    cfg = make_config(2, 2, 0.0, R_w=R_w)
    assert cfg.cw == pytest.approx(2.0)
    assert cfg.gamma_bar == pytest.approx(2.0)


def test_config_trace_helpers_match_dense_algebra():
    rng = np.random.default_rng(1)
    A = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    R_w = A @ A.conj().T + 0.5 * np.eye(3)
    cfg = make_config(2, 3, 0.0, R_w=R_w)
    shifted = R_w + 0.7 * np.eye(3)
    assert cfg.logdet_rw_plus(0.7) == pytest.approx(
        float(np.linalg.slogdet(shifted)[1]), rel=1e-13
    )
    assert cfg.trinv_rw_plus(0.7) == pytest.approx(
        float(np.trace(np.linalg.inv(shifted)).real), rel=1e-13
    )


@pytest.mark.parametrize(
    "bad",
    [
        dict(M=0, N=4, snr_db=0.0),
        dict(M=4, N=-1, snr_db=0.0),
        dict(M=2, N=2, snr_db=0.0, evm_db=1.0),
        dict(M=2, N=2, snr_db=0.0, R_w=np.eye(3)),
        dict(M=2, N=2, snr_db=0.0, R_w=np.array([[1.0, 1.0], [0.0, 1.0]])),
        dict(M=2, N=2, snr_db=0.0, R_w=np.diag([1.0, -0.5])),
        dict(M=2, N=2, snr_db=math.nan),
        dict(M=2, N=2, snr_db=math.inf),
        dict(M=2, N=2, snr_db=-math.inf),
        dict(M=2, N=2, snr_db=4000.0),  # 10^(snr/10) overflows
        dict(M=2, N=2, snr_db=-4000.0),  # 10^(snr/10) underflows to 0
        dict(M=2, N=2, snr_db=0.0, evm_db=math.nan),
    ],
)
def test_config_rejects_bad_inputs(bad):
    with pytest.raises(ValueError):
        make_config(**bad)


@pytest.mark.parametrize("kind", [k for k in CONSTELLATION_KINDS if k not in ("gaussian", "custom")])
def test_points_are_centered_and_power_normalized(kind):
    con = make_constellation(kind, 3.7)
    assert con.points.mean() == pytest.approx(0.0, abs=1e-12)
    assert float(np.mean(np.abs(con.points) ** 2)) == pytest.approx(3.7, rel=1e-12)
    assert con.bits == math.log2(con.size)


def test_gaussian_constellation_has_no_points():
    con = make_constellation("gaussian", 2.0)
    assert con.is_gaussian
    assert con.size == 0
    assert con.points.size == 0
    assert con.axes is None


@pytest.mark.parametrize("kind,expect", [
    ("bpsk", True),
    ("qpsk", True),
    ("qam16", True),
    ("qam64", True),
    ("psk8", False),
])
def test_iq_product_split_detected_exactly_for_square_grids(kind, expect):
    con = make_constellation(kind, 1.0)
    assert (con.axes is not None) is expect
    if expect:
        re, im = con.axes
        rebuilt = np.sort_complex((re[:, None] + 1j * im[None, :]).ravel())
        assert np.allclose(rebuilt, np.sort_complex(con.points), atol=1e-12)


def test_at_power_carries_a_constellation_to_the_config_power():
    cfg = make_config(2, 2, 10.0)
    for kind in ("qam16", "psk8", "gaussian"):
        con = make_constellation(kind, cfg.gamma_bar)
        assert at_power(con, cfg) is con
        moved = at_power(make_constellation(kind, 1.0), cfg)
        assert moved.kind == kind and moved.gamma_bar == cfg.gamma_bar
        assert np.array_equal(moved.points, con.points)
        assert (moved.axes is None) == (con.axes is None)
        if con.axes is not None:
            assert all(np.array_equal(a, b) for a, b in zip(moved.axes, con.axes))
    with pytest.raises(ValueError):
        at_power(make_constellation("qpsk", 0.0), cfg)


def test_custom_constellation_centered_and_scaled():
    raw = np.array([1 + 1j, 2 + 1j, 5 - 1j, 3 + 3j])
    con = make_constellation("custom", 4.0, points=raw)
    assert con.points.mean() == pytest.approx(0.0, abs=1e-12)
    assert float(np.mean(np.abs(con.points) ** 2)) == pytest.approx(4.0, rel=1e-12)


def test_custom_constellation_rejects_degenerate_sets():
    with pytest.raises(ValueError):
        make_constellation("custom", 1.0, points=np.array([]))
    with pytest.raises(ValueError):
        make_constellation("custom", 1.0, points=np.array([2.0 + 1j, 2.0 + 1j]))
    with pytest.raises(ValueError):
        make_constellation("hexagon", 1.0)
    with pytest.raises(ValueError):
        make_constellation("qpsk", -1.0)


def test_rate_result_unit_conversion():
    res = RateResult(rate_nats=math.log(2.0) * 1.5, params={}, s_tilde=None,
                     free_energy=None, converged=True, iterations=3)
    assert res.rate_bits == pytest.approx(1.5)
