"""Distortion budgeting: how much transmitter noise a rate target tolerates."""

import math

import pytest

from binoisy import evm_planner
from binoisy.evm_planner import (
    LossQuery,
    max_evm_for_loss,
    rate_loss,
    rule_of_thumb_evm,
)


def gaussian_query(decoder="matched"):
    return LossQuery(M=4, N=4, constellation="gaussian", decoder=decoder)


def test_rule_of_thumb_line():
    assert rule_of_thumb_evm(0.0) == pytest.approx(-13.0)
    assert rule_of_thumb_evm(10.0) == pytest.approx(-20.0)
    assert rule_of_thumb_evm(30.0) == pytest.approx(-34.0)


def test_rate_loss_basics():
    q = gaussian_query()
    assert rate_loss(q, 10.0, -math.inf) == pytest.approx(0.0, abs=1e-12)
    loss = rate_loss(q, 10.0, -10.0)
    assert 0.0 < loss < 1.0
    # worse hardware loses more rate
    assert rate_loss(q, 10.0, -5.0) > loss
    with pytest.raises(ValueError):
        rate_loss(q, 10.0, -10.0, ideal_rate_nats=0.0)


def test_boundary_hits_the_budget():
    q = gaussian_query()
    evm = max_evm_for_loss(q, 10.0, 0.05)
    # certified side: the returned point keeps the loss within budget, and
    # a transmitter worse by the default tol_db, 0.002 dB, violates it
    assert rate_loss(q, 10.0, evm) <= 0.05 < rate_loss(q, 10.0, evm + 0.002)


def count_rate_solves(monkeypatch):
    calls = []
    solve = evm_planner._rate_nats

    def counted(*args):
        calls.append(args)
        return solve(*args)
    monkeypatch.setattr(evm_planner, "_rate_nats", counted)
    return calls


@pytest.mark.parametrize("snr_db", [0.0, 10.0, 20.0])
def test_search_takes_fewer_solves_than_bisection(monkeypatch, snr_db):
    # bisection of [-60, 0] dB to 0.002 dB took 15 solves after the ideal
    # rate and the two end points, 18 in all
    calls = count_rate_solves(monkeypatch)
    max_evm_for_loss(gaussian_query(), snr_db, 0.05)
    assert len(calls) <= 13


def test_search_that_runs_out_of_solves_is_an_error(monkeypatch):
    monkeypatch.setattr(evm_planner, "_MAX_SEARCH_SOLVES", 2)
    calls = count_rate_solves(monkeypatch)
    with pytest.raises(RuntimeError, match="EVM search did not narrow"):
        max_evm_for_loss(gaussian_query(), 10.0, 0.05)
    # the ideal rate, both end points and the search's budget
    assert len(calls) == 5


def test_planner_beats_rule_of_thumb_and_is_monotone():
    q = gaussian_query()
    prev = math.inf
    for snr in (0.0, 10.0, 20.0):
        evm = max_evm_for_loss(q, snr, 0.05)
        assert evm >= rule_of_thumb_evm(snr)
        assert evm <= prev + 1e-9
        prev = evm


def test_generous_budget_returns_upper_endpoint():
    q = gaussian_query()
    assert max_evm_for_loss(q, 10.0, 0.99, hi_db=-1.0) == -1.0


def test_impossible_budget_returns_minus_inf():
    q = gaussian_query()
    # even EVM of -60 dB loses more than 1e-12 of the rate, so the budget
    # cannot be met inside the bracket; that is an answer, not an error
    assert max_evm_for_loss(q, 10.0, 1e-12) == -math.inf


def test_mismatched_decoder_loses_at_least_as_much():
    qm = gaussian_query("matched")
    qg = gaussian_query("mismatched")
    # same ideal reference (no distortion means no mismatch), weaker decoder
    assert rate_loss(qg, 10.0, -10.0) >= rate_loss(qm, 10.0, -10.0) - 1e-12
    # hence the gmi planner can never allow more distortion
    assert max_evm_for_loss(qg, 10.0, 0.05) <= max_evm_for_loss(qm, 10.0, 0.05) + 1e-9


def test_tolerance_below_float_spacing_still_ends():
    # below the spacing of floats near the boundary the midpoint equals an
    # end point; the bisection must stop there, not loop
    q = gaussian_query()
    fine = max_evm_for_loss(q, 10.0, 0.05, tol_db=1e-12)
    assert max_evm_for_loss(q, 10.0, 0.05, tol_db=1e-300) == pytest.approx(fine, abs=1e-9)


def test_discrete_constellation_budget():
    q = LossQuery(M=4, N=4, constellation="qpsk", decoder="matched")
    evm = max_evm_for_loss(q, 10.0, 0.05, tol_db=0.05)
    assert -40.0 < evm < 0.0
    assert rate_loss(q, 10.0, evm) <= 0.05 < rate_loss(q, 10.0, evm + 0.05)


def test_validation_errors():
    q = gaussian_query()
    with pytest.raises(ValueError):
        max_evm_for_loss(q, 10.0, 0.0)
    with pytest.raises(ValueError):
        max_evm_for_loss(q, 10.0, 1.0)
    with pytest.raises(ValueError):
        max_evm_for_loss(q, 10.0, 0.05, lo_db=-5.0, hi_db=-10.0)
    with pytest.raises(ValueError):
        max_evm_for_loss(q, 10.0, 0.05, tol_db=0.0)
    with pytest.raises(ValueError, match="above 0 dB"):
        max_evm_for_loss(q, 10.0, 0.05, hi_db=1.0)
    with pytest.raises(ValueError):
        LossQuery(M=4, N=4, constellation="gaussian", decoder="map")


@pytest.mark.parametrize("bracket", [
    dict(tol_db=math.nan), dict(tol_db=math.inf),
    dict(lo_db=-math.inf), dict(lo_db=math.nan), dict(hi_db=math.nan), dict(hi_db=math.inf),
])
def test_non_finite_bracket_or_tolerance_is_rejected(bracket):
    # a NaN tolerance ended the bisection at once and returned lo_db; a -inf
    # lower end kept the midpoint at -inf forever
    with pytest.raises(ValueError, match="finite"):
        max_evm_for_loss(gaussian_query(), 10.0, 0.05, **bracket)
