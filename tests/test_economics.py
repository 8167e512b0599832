"""Costs, conjugates, and objective evaluators.

Conjugates are cross-checked against a brute-force Legendre transform on a
dense grid (the costs are piecewise linear, so a grid containing the
breakpoints attains the supremum exactly).
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evdispatch import pricing
from evdispatch.domain import DispatchDecision, ResourceLedger
from evdispatch.economics import (
    INFEASIBLE, dual_objective, primal_increment, primal_objective,
)
from evdispatch.pricing import (
    CABLE, DESTINATION, ENERGY, GENERATION, OUT_OF_SERVICE, InfeasibleType, cell_shape,
)


# ---------------------------------------------------------------------------
# Primal costs
# ---------------------------------------------------------------------------


def test_generation_cost_branches():
    generation = cell_shape(GENERATION, 5.0, 4.0, 0.3)  # delta, mu, pi
    assert generation.cost(3.0) == 0.0
    assert generation.cost(5.0) == 0.0
    assert generation.cost(7.0) == pytest.approx(0.6)
    assert generation.cost(9.0) == pytest.approx(1.2)
    assert generation.cost(9.1) is INFEASIBLE
    with pytest.raises(ValueError):
        generation.cost(-1.0)


def test_out_of_service_cost_branches():
    out_of_service = cell_shape(OUT_OF_SERVICE, 4.0, 0.4)  # cap, phi
    assert out_of_service.cost(3.0) == pytest.approx(1.2)
    assert out_of_service.cost(0.0) == 0.0
    assert out_of_service.cost(4.5) is INFEASIBLE
    with pytest.raises(ValueError):
        out_of_service.cost(-0.1)


def test_infeasible_is_a_singleton():
    assert INFEASIBLE is type(INFEASIBLE)()
    assert repr(INFEASIBLE) == "Infeasible"
    assert isinstance(INFEASIBLE, InfeasibleType) and not isinstance(0.0, InfeasibleType)


# ---------------------------------------------------------------------------
# Conjugates vs a numeric Legendre transform
# ---------------------------------------------------------------------------


def _legendre(cost, p, cap, breakpoints=()):
    ys = np.linspace(0.0, cap, 4001)
    ys = np.append(ys, breakpoints)
    best = -math.inf
    for y in ys:
        c = cost(float(y))
        if c is INFEASIBLE:
            continue
        best = max(best, p * float(y) - c)
    return best


@pytest.mark.parametrize("p", [0.0, 0.05, 0.2, 1.7, 40.0])
def test_indicator_conjugates_match_oracle(p):
    assert cell_shape(CABLE, 3).conj(p) == pytest.approx(
        _legendre(lambda y: 0.0, p, 3.0), abs=1e-9)
    assert cell_shape(ENERGY, 12.5).conj(p) == pytest.approx(
        _legendre(lambda y: 0.0, p, 12.5), abs=1e-9)
    assert cell_shape(DESTINATION, 7).conj(p) == pytest.approx(
        _legendre(lambda y: 0.0, p, 7.0), abs=1e-9)


@pytest.mark.parametrize("p", [0.0, 0.1, 0.3, 0.300001, 2.0, 16.0])
def test_generation_conjugate_matches_oracle(p):
    delta, mu, pi = 5.0, 4.0, 0.3
    generation = cell_shape(GENERATION, delta, mu, pi)
    got = generation.conj(p)
    want = _legendre(generation.cost, p, delta + mu, breakpoints=(delta, delta + mu))
    assert got == pytest.approx(want, abs=1e-9)


@pytest.mark.parametrize("p", [0.0, 0.2, 0.4, 0.400001, 3.0, 15.0])
def test_out_of_service_conjugate_matches_oracle(p):
    phi, cap = 0.4, 4.0
    out_of_service = cell_shape(OUT_OF_SERVICE, cap, phi)
    got = out_of_service.conj(p)
    want = _legendre(out_of_service.cost, p, cap, breakpoints=(cap,))
    assert got == pytest.approx(want, abs=1e-9)


@settings(max_examples=200, deadline=None)
@given(p=st.floats(0.0, 50.0), y=st.floats(0.0, 9.0),
       delta=st.floats(0.0, 5.0), mu=st.floats(0.1, 4.0),
       pi=st.floats(0.01, 2.0))
def test_fenchel_young_inequality(p, y, delta, mu, pi):
    generation = cell_shape(GENERATION, delta, mu, pi)
    cost = generation.cost(min(y, delta + mu))
    assert cost is not INFEASIBLE
    assert p * min(y, delta + mu) <= cost + generation.conj(p) + 1e-9


@settings(max_examples=200, deadline=None)
@given(p=st.floats(0.0, 50.0), y=st.floats(0.0, 4.0),
       phi=st.floats(0.0, 2.0))
def test_fenchel_young_out_of_service(p, y, phi):
    out_of_service = cell_shape(OUT_OF_SERVICE, 4.0, phi)
    cost = out_of_service.cost(y)
    assert p * y <= cost + out_of_service.conj(p) + 1e-9


def test_conjugates_reject_negative_prices():
    for shape in (cell_shape(CABLE, 2),
                  cell_shape(ENERGY, 5.0),
                  cell_shape(GENERATION, 1.0, 1.0, 0.5),
                  cell_shape(DESTINATION, 3),
                  cell_shape(OUT_OF_SERVICE, 4.0, 0.4)):
        with pytest.raises(ValueError):
            shape.conj(-0.1)


# ---------------------------------------------------------------------------
# Objectives
# ---------------------------------------------------------------------------


def test_primal_objective_hand_example(mini_config, mini_rebalance, mini_charge):
    # charge plan: value 13, grid energy 5 kWh at 0.2, three noisy slots
    ledger = ResourceLedger.zero(mini_config)
    ledger.apply(mini_charge)
    decisions = [DispatchDecision(session_id=0, schedule=mini_charge, utility=1.0)]
    welfare = primal_objective(decisions, ledger, mini_config)
    assert welfare == pytest.approx(13.0 - 0.2 * 5.0 - 0.4 * 3)

    # pure rebalance: value 12.5, one out-of-service slot, no energy
    ledger2 = ResourceLedger.zero(mini_config)
    ledger2.apply(mini_rebalance)
    decisions2 = [DispatchDecision(session_id=0, schedule=mini_rebalance,
                                   utility=1.0)]
    assert primal_objective(decisions2, ledger2, mini_config) == pytest.approx(
        12.5 - 0.4)


def test_primal_objective_infeasible_when_over_cap(mini_config, mini_rebalance):
    ledger = ResourceLedger.zero(mini_config)
    decisions = []
    for i in range(5):  # out_of_service_cap is 4
        ledger.apply(mini_rebalance)
        decisions.append(DispatchDecision(session_id=i, schedule=mini_rebalance,
                                          utility=1.0))
    assert primal_objective(decisions, ledger, mini_config) is INFEASIBLE


def test_primal_increment_matches_objective_delta(mini_config, mini_rebalance,
                                                  mini_charge):
    ledger = ResourceLedger.zero(mini_config)
    decisions = []
    for i, schedule in enumerate((mini_rebalance, mini_charge, mini_charge)):
        before = primal_objective(decisions, ledger, mini_config)
        inc = primal_increment(ledger, schedule)
        ledger.apply(schedule)
        decisions.append(DispatchDecision(session_id=i, schedule=schedule,
                                          utility=1.0))
        after = primal_objective(decisions, ledger, mini_config)
        assert after - before == pytest.approx(inc, abs=1e-9)


def test_primal_increment_rejects_infeasible_step(mini_config, mini_rebalance):
    ledger = ResourceLedger.zero(mini_config)
    for _ in range(4):
        ledger.apply(mini_rebalance)
    with pytest.raises(ValueError):
        primal_increment(ledger, mini_rebalance)


def test_dual_objective_base_value_closed_form(mini_config, mini_bounds):
    """At an empty ledger the dual is the sum of conjugates at the anchor
    prices; every term below is written out from the closed forms."""
    psi_ = pricing.psi(mini_config)
    assert psi_ == 6
    b = mini_bounds
    T = mini_config.horizon

    p_c0 = b.L_c / (2 * psi_)
    p_e0 = b.L_e / (2 * psi_)
    p_d0 = b.L_d / (2 * psi_)
    p_o0 = 0.4 + (b.L_o - 0.4) / (2 * psi_)
    # no solar, so the generation curve starts on its grid-priced branch
    p_g0 = 0.2 + (b.L_g - 0.2) / (2 * psi_)

    want = 0.0
    want += T * p_c0 * 2                      # one EVSE, C = 2
    want += T * p_e0 * 10.0                   # E = 10
    want += T * (10.0 * p_g0 - 10.0 * 0.2)    # p_g0 >= pi, mu = 10
    want += T * (p_o0 - 0.4) * 4              # I = 4
    want += 2 * T * p_d0 * 4                  # two regions, Omega = 4

    ledger = ResourceLedger.zero(mini_config)
    got = dual_objective([], ledger, mini_config, b, psi_)
    assert got == pytest.approx(want, rel=1e-12)


def test_dual_objective_adds_utilities(mini_config, mini_bounds):
    psi_ = pricing.psi(mini_config)
    ledger = ResourceLedger.zero(mini_config)
    base = dual_objective([], ledger, mini_config, mini_bounds, psi_)
    with_u = dual_objective([2.5, 4.0], ledger, mini_config, mini_bounds, psi_)
    assert with_u == pytest.approx(base + 6.5)
    with pytest.raises(ValueError):
        dual_objective([-1.0], ledger, mini_config, mini_bounds, psi_)
