"""Candidate schedule generation: coverage, caps, greedy slot placement,
and determinism."""

from __future__ import annotations

import dataclasses
import math

import pytest

from evdispatch import pricing, run_online, schedules
from evdispatch.domain import (
    ResourceLedger, Session, plan_value, schedule_violations,
)
from evdispatch.harness import generate_scenario
from evdispatch.schedules import (
    DEFAULT_POLICY, GenerationPolicy, feasible_schedules, ranked, rebalances,
    validate_policy,
)

from conftest import as_plans, build_mini_config


def _snapshot(config, ledger=None):
    if ledger is None:
        ledger = ResourceLedger.zero(config)
    return pricing.Snapshot(ledger, pricing.estimate_bounds(config), pricing.psi(config))


def _candidates(config, session, policy=DEFAULT_POLICY, ledger=None):
    """Every candidate of a session, in the order ``dispatch`` reads them,
    each made into its ``Schedule``."""
    charges = feasible_schedules(session, config, _snapshot(config, ledger), policy)
    assert all(s.charging for s in as_plans(session, config, charges))
    return as_plans(session, config, ranked(rebalances(session, config), charges))


def test_mini_candidate_set_by_hand(mini_config, mini_session, mini_charge):
    out = _candidates(mini_config, mini_session)
    values = [s.value for s in out]
    assert values == sorted(values, reverse=True)
    # hand enumeration: charge-then-deliver 13.0, stay 12.5,
    # charge-and-stay-at-facility 4.0, deadhead to the facility region 1.5
    assert values == pytest.approx([13.0, 12.5, 4.0, 1.5])
    assert out[0] == mini_charge
    rebalances = [s for s in out if not s.charging]
    assert {s.dest_region for s in rebalances} == {0, 1}
    for s in out:
        assert schedule_violations(s, mini_config, mini_session) == []
        assert s.value == pytest.approx(plan_value(
            mini_config, s.final_soc * mini_config.battery_capacity,
            s.dest_region, s.hops_total))


def test_full_battery_yields_only_rebalances(mini_config):
    session = Session(id=0, t_minus=1, origin_region=1, soc=1.0)
    out = _candidates(mini_config, session)
    assert out and all(not s.charging for s in out)
    assert all(s.final_soc <= 1.0 + 1e-12 for s in out)


def test_final_slot_session_has_no_candidates(mini_config):
    session = Session(id=0, t_minus=6, origin_region=1, soc=0.5)
    assert _candidates(mini_config, session) == []
    with pytest.raises(ValueError, match="outside the horizon"):
        _candidates(mini_config, Session(id=0, t_minus=7, origin_region=1,
                                         soc=0.5))


def test_rebalances_survive_the_charge_cap(mini_config, mini_session):
    policy = GenerationPolicy(max_candidates_total=1)
    out = _candidates(mini_config, mini_session, policy)
    charges = [s for s in out if s.charging]
    rebalances = [s for s in out if not s.charging]
    assert len(charges) == 1
    assert {s.dest_region for s in rebalances} == {0, 1}


def test_charge_candidates_respect_the_cap(tiny_instance):
    config, sessions = tiny_instance
    policy = GenerationPolicy(max_candidates_total=4)
    for session in sessions:
        out = _candidates(config, session, policy)
        assert sum(1 for s in out if s.charging) <= 4
        assert len(out) <= 4 + len(config.regions)


def test_candidates_are_feasible_and_priced_consistently(tiny_instance):
    config, sessions = tiny_instance
    ledger = ResourceLedger.zero(config)
    for session in sessions:
        for s in _candidates(config, session):
            assert schedule_violations(s, config, session) == []
            assert ledger.fits(s)
            assert s.value == pytest.approx(plan_value(
                config, s.final_soc * config.battery_capacity, s.dest_region,
                s.hops_total))


def test_generation_is_deterministic(mini_config, mini_session):
    a = _candidates(mini_config, mini_session)
    b = _candidates(mini_config, mini_session)
    assert a == b


def test_greedy_placement_avoids_expensive_slots(mini_config, mini_session):
    # on an empty ledger ties collapse every window onto slot 2
    empty = _candidates(mini_config, mini_session)
    slots_used = {t for s in empty if s.charging for t, _ in s.energy_slots}
    assert slots_used == {2}

    # load slot 2 of the only EVSE; wider windows now pick slot 3
    ledger = ResourceLedger.zero(mini_config)
    loaded = dataclasses.replace(
        empty[0], energy_slots=((2, 9.0),), cable_slots=(2,))
    ledger.apply(loaded)
    out = _candidates(mini_config, mini_session, ledger=ledger)
    slots_used = {t for s in out if s.charging for t, _ in s.energy_slots}
    assert 3 in slots_used


def test_slot_without_generation_is_used_only_when_forced(mini_config, mini_session):
    fac = dataclasses.replace(mini_config.facilities[0],
                              grid_limit=(10.0, 0.0, 10.0, 10.0, 10.0, 10.0))
    config = dataclasses.replace(mini_config, facilities=(fac,))
    out = [s for s in _candidates(config, mini_session) if s.charging]
    assert any(2 not in dict(s.energy_slots) for s in out)
    for s in out:
        # slot 2 has no solar and no grid: only a one-slot window takes it
        if 2 in dict(s.energy_slots):
            assert s.cable_slots == (2,)


def test_remainder_lands_on_the_dearest_slot():
    config = build_mini_config(battery_capacity=15.0, charge_increment=2.5)
    session = Session(id=0, t_minus=1, origin_region=1, soc=0.1)

    def plans(ledger=None):
        # 12.5 kWh at rate 5 needs three slots: 5 + 5 + 2.5
        return [s for s in _candidates(config, session, ledger=ledger)
                if s.energy_total == pytest.approx(12.5)]
    out = plans()
    assert out
    amounts = sorted(e for _, e in out[0].energy_slots)
    assert amounts == pytest.approx([2.5, 5.0, 5.0])

    ledger = ResourceLedger.zero(config)
    mid = dataclasses.replace(out[0], energy_slots=((3, 8.0),),
                              cable_slots=(3,))
    ledger.apply(mid)
    out2 = [s for s in plans(ledger) if any(t == 3 for t, _ in s.energy_slots)]
    assert out2, "no candidate spans the loaded slot"
    for s in out2:
        assert dict(s.energy_slots)[3] == pytest.approx(2.5)


def test_policy_validation():
    """NaN used to pass and silently build no charging plan (on the tiny
    seed-0 day 0 plans charged and welfare 102.175, against 2 and 89.95
    at the default); infinity and 2.5 passed too."""
    assert validate_policy(DEFAULT_POLICY) == []
    assert validate_policy(GenerationPolicy(max_candidates_total=1)) == []
    for n in (0, -3, 2.5, math.inf, math.nan, "4", True, None):
        problems = validate_policy(GenerationPolicy(max_candidates_total=n))
        assert problems == [f"max_candidates_total must be an integer >= 1, got {n!r}"]


def test_low_battery_cannot_reach_far_destinations(mini_config):
    session = Session(id=0, t_minus=1, origin_region=1, soc=0.0)
    out = _candidates(mini_config, session)
    # 0 kWh cannot cover the hop to region 0, charged or not
    assert all(s.dest_region == 1 and not s.charging for s in out)


def test_the_build_values_only_what_the_cap_reaches(monkeypatch):
    """Equal candidate lists do not show lost laziness: a build that
    values every destination group of every (facility, target) stream
    gives the same plans. The bound, 8,113, is the count of a build that
    valued a stream's next batch as soon as the first plan of the batch
    before it was taken; the merged streams wait for its last."""
    calls = [0]

    def counted(*args):
        calls[0] += 1
        return plan_value(*args)
    monkeypatch.setattr(schedules, "plan_value", counted)
    config, sessions = generate_scenario(0, "desk")
    run_online(sessions, config)
    assert 0 < calls[0] <= 8113


def test_ranked_puts_a_rebalance_first_at_equal_value():
    """The merge of the plain candidate tuples gives the order of sorting
    every candidate, also where a rebalance and a charging plan have
    bit-equal values: the rebalance's facility, -1, sorts first."""
    config = build_mini_config()
    session = Session(id=0, t_minus=1, origin_region=1, soc=0.5)
    charge = feasible_schedules(session, config, _snapshot(config))[0]
    stay, away = sorted(rebalances(session, config), key=lambda plan: -plan[4])
    assert (stay[4], away[4], charge[1]) == (1, 0, 0)

    def valued(plan, v, evse=None):
        return (-v, plan[1], plan[2] if evse is None else evse) + plan[3:]
    for rebalance_values in ((12.5, 12.5), (13.0, 4.0), (4.0, 1.5), (0.0, -0.0)):
        for charge_values in ((13.0, 12.5, 12.5), (12.5, 4.0, 1.5), (-0.0, 0.0, -1.0)):
            plans = sorted(valued(s, v) for s, v in zip((stay, away), rebalance_values))
            charges = sorted(valued(charge, v, m) for m, v in enumerate(charge_values))
            merged = list(ranked(iter(plans), charges))
            assert merged == sorted(plans + charges)
            # by value, and a rebalance before a charging plan of equal value
            order = [(plan[0], plan[1] >= 0) for plan in merged]
            assert order == sorted(order)
    # on mini_config: the stay and a charge to the same value, bit for bit
    candidates = list(ranked(rebalances(session, config),
                             feasible_schedules(session, config, _snapshot(config))))
    assert candidates == sorted(candidates)
    stay_plan = next(c for c in candidates if c[1] < 0 and c[4] == 1)
    tied = (stay_plan[0],) + candidates[0][1:]
    assert tied[1] >= 0
    charges = sorted([c for c in candidates if c[1] >= 0] + [tied])
    merged = list(ranked(rebalances(session, config), charges))
    assert merged == sorted(merged)
    assert merged.index(stay_plan) == merged.index(tied) - 1


def test_an_empty_window_reads_one_evse(monkeypatch):
    """``_pick`` stops its EVSE scan at the first EVSE with no cable
    load over the window: on an empty ``full`` ledger it sums one EVSE's
    posted cable prices, not all ten, and it skips a loaded EVSE."""
    config, _ = generate_scenario(0, "full")
    fid, fac = 0, config.facilities[0]
    assert fac.evse_count > 2
    ledger = ResourceLedger.zero(config)
    bounds, psi_ = pricing.estimate_bounds(config), pricing.psi(config)
    reads = []
    run = pricing.Snapshot.run

    def counted(self, k, first, n):
        if k is None:  # a sum of posted cable prices
            reads.append(first)
        return run(self, k, first, n)
    monkeypatch.setattr(pricing.Snapshot, "run", counted)

    start, end = 10, 14
    prices = pricing.Snapshot(ledger, bounds, psi_)
    assert schedules._pick(fid, fac, start, end, 1, prices)[0] == 0
    assert len(reads) == 1

    # a cable taken on EVSE 0 inside the window: EVSE 1 is empty and wins
    ledger.loads[pricing.CABLE][ledger.cells.evse_cell(fid, 0, 12)] = 1.0
    reads.clear()
    prices = pricing.Snapshot(ledger, bounds, psi_)
    assert schedules._pick(fid, fac, start, end, 1, prices)[0] == 1
    assert len(reads) == 2
