"""Offline references: the analytic upper bound and the exact search."""

from __future__ import annotations

import dataclasses
import itertools
import random

import pytest

from evdispatch import offline
from evdispatch.dispatcher import run_online
from evdispatch.domain import (
    DispatchDecision, Session, plan_value, recompute_ledger,
)
from evdispatch.economics import primal_objective
from evdispatch.harness import PRESETS, generate_scenario
from evdispatch.offline import (
    exact_offline, search_space_size, upper_bound,
)
from evdispatch.schedules import GenerationPolicy

from conftest import broken_configs, broken_sessions


def test_session_upper_bound_by_hand(mini_config, mini_session):
    # the bound charges at the full 10 kWh EVSE rate, so charge-to-headroom
    # (6 kWh) fits one slot: 0.5*9 + 10 - 2*0.5 - 3*0.4 = 12.3; the pure
    # stay nets 0.5*5 + 10 - 0.4 = 12.1 and charge-to-5 nets 11.8
    assert upper_bound([mini_session], mini_config) == pytest.approx(12.3)


def test_session_upper_bound_horizon_edges(mini_config):
    last = Session(id=0, t_minus=6, origin_region=1, soc=0.5)
    assert upper_bound([last], mini_config) == 0.0
    with pytest.raises(ValueError, match="t_minus at session 0: 7 outside 1..6"):
        upper_bound([Session(id=0, t_minus=7, origin_region=1, soc=0.5)], mini_config)


def test_upper_bound_sums_over_sessions(mini_config, mini_session):
    other = Session(id=1, t_minus=2, origin_region=0, soc=0.9)
    both = upper_bound([mini_session, other], mini_config)
    assert both == pytest.approx(
        upper_bound([mini_session], mini_config) + upper_bound([other], mini_config))
    assert upper_bound([], mini_config) == 0.0


def test_upper_bound_values_only_the_rings_that_can_win(monkeypatch):
    """Equal floats do not show a lost cut: a bound that values every hop
    ring of every (facility, target) and of the pure rebalance gives the
    same number with 340,259 ``plan_value`` calls on this day; stopping at
    the first ring that cannot win takes about 34,000."""
    calls = [0]

    def counted(*args):
        calls[0] += 1
        return plan_value(*args)
    monkeypatch.setattr(offline, "plan_value", counted)
    config, sessions = generate_scenario(0, "full")
    upper_bound(sessions, config)
    assert 0 < calls[0] < 40_000


@pytest.mark.parametrize("seed", range(4))
def test_bound_chain_ub_exact_online(seed):
    config, sessions = generate_scenario(seed, "tiny")
    policy = GenerationPolicy(max_candidates_total=4)
    report, captured = run_online(sessions, config, policy,
                                  capture_candidates=True)
    result = exact_offline(sessions, config, captured)
    ub = upper_bound(sessions, config)
    assert result.welfare >= report.welfare - 1e-9
    assert ub >= result.welfare - 1e-9


def test_exact_matches_brute_force():
    config, sessions = generate_scenario(2, "tiny")
    sessions = sessions[:4]
    policy = GenerationPolicy(max_candidates_total=2)
    _, captured = run_online(sessions, config, policy,
                             capture_candidates=True)

    best = 0.0
    pools = [list(captured[s.id]) + [None] for s in sessions]
    for combo in itertools.product(*pools):
        decisions = [
            DispatchDecision(session_id=s.id, schedule=sch, utility=0.0)
            for s, sch in zip(sessions, combo)]
        ledger = recompute_ledger(decisions, config)
        if ledger.violations(config):
            continue
        best = max(best, primal_objective(decisions, ledger, config))

    result = exact_offline(sessions, config, captured)
    assert result.welfare == pytest.approx(best, abs=1e-9)
    assert result.search_space == search_space_size(sessions, captured)
    assert 1 <= result.nodes_explored


#: A tiny day that charges in thirds of a kWh, which no sum of floats
#: takes back exactly: undone by subtraction, a generation cell of its
#: search was left at -2.8e-17 and the search raised on it.
FRACTIONAL = dataclasses.replace(
    PRESETS["tiny"], evse_energy_limit=1.0, cables_per_evse=6, battery_capacity=1.0,
    charge_increment=1.0 / 3, per_hop_energy=0.0, grid_limit=1.0)


def test_exact_result_is_feasible_and_self_consistent():
    policy = GenerationPolicy(max_candidates_total=3)
    for seed, params in ((5, "tiny"), (0, FRACTIONAL)):
        config, sessions = generate_scenario(seed, params)
        _, captured = run_online(sessions, config, policy,
                                 capture_candidates=True)
        result = exact_offline(sessions, config, captured)

        assert len(result.assignment) == len(sessions)
        decisions = []
        for session, schedule in zip(sessions, result.assignment):
            if schedule is not None:
                assert schedule in captured[session.id]
            decisions.append(DispatchDecision(session_id=session.id,
                                              schedule=schedule, utility=0.0))
        ledger = recompute_ledger(decisions, config)
        assert ledger.violations(config) == []
        assert result.welfare == pytest.approx(
            primal_objective(decisions, ledger, config), abs=1e-9)


def test_exact_welfare_ignores_candidate_order():
    config, sessions = generate_scenario(7, "tiny")
    policy = GenerationPolicy(max_candidates_total=3)
    _, captured = run_online(sessions, config, policy,
                             capture_candidates=True)
    shuffled = {}
    rng = random.Random(0)
    for sid, cands in captured.items():
        pool = list(cands)
        rng.shuffle(pool)
        shuffled[sid] = pool
    a = exact_offline(sessions, config, captured)
    b = exact_offline(sessions, config, shuffled)
    assert a.welfare == pytest.approx(b.welfare, abs=1e-9)


@pytest.mark.parametrize("defect", sorted(broken_sessions()[1]))
def test_bounds_reject_invalid_sessions(defect):
    """On the tiny seed-0 day the bound is 124.6 and the exact optimum
    106.375. Unchecked, a soc of 1.5 made the bound 129.15 and a NaN soc
    104.7 (the session dropped out), and the duplicate id made the exact
    search return 106.625."""
    config, streams = broken_sessions()
    _, sessions = streams[defect]
    _, captured = run_online(generate_scenario(0, "tiny")[1], config,
                             capture_candidates=True)
    with pytest.raises(ValueError, match="invalid sessions: "):
        upper_bound(sessions, config)
    with pytest.raises(ValueError, match="invalid sessions: "):
        exact_offline(sessions, config, captured)


@pytest.mark.parametrize("defect", sorted(broken_configs()))
def test_bounds_reject_invalid_configs(defect):
    """On the tiny seed-0 day the bound is 124.6 and the exact optimum
    106.375. Unchecked, the bound was 0.0 for a NaN hop energy or an
    infinite negative soc slope, infinite for an infinite pickup value,
    and an infinite battery or a NaN charge increment raised an unnamed
    error; the exact optimum was 0.0 for a NaN penalty."""
    field, config = broken_configs()[defect]
    good, sessions = generate_scenario(0, "tiny")
    _, captured = run_online(sessions, good, capture_candidates=True)
    assert upper_bound(sessions, good) == pytest.approx(124.6)
    assert exact_offline(sessions, good, captured).welfare == pytest.approx(106.375)
    with pytest.raises(ValueError, match=f"invalid config: {field} at "):
        upper_bound(sessions, config)
    with pytest.raises(ValueError, match=f"invalid config: {field} at "):
        exact_offline(sessions, config, captured)


def test_exact_refuses_oversized_spaces():
    config, sessions = generate_scenario(2, "tiny")
    _, captured = run_online(sessions, config, capture_candidates=True)
    size = search_space_size(sessions, captured)
    assert size > 4
    with pytest.raises(ValueError, match="refusing exact search"):
        exact_offline(sessions, config, captured, space_limit=4)


@pytest.mark.parametrize("preset, change, message", [
    ("tiny", {"facility_id": 5}, "unknown facility 5"),
    ("tiny", {"evse_index": 3}, "unknown EVSE 3"),
    ("tiny", {"dest_region": 99}, "unknown destination 99"),
    ("tiny", {"t_plus": 99}, "t_plus 99 outside"),
    ("tiny", {"energy_slots": ((99, 1.0),)}, "energy in slot 99 without a cable"),
    ("desk", {"evse_index": 3}, "unknown EVSE 3"),
], ids=["facility 5", "EVSE 3", "destination 99", "t_plus 99", "energy slot 99",
        "desk EVSE 3"])
def test_exact_rejects_invalid_candidates(preset, change, message):
    """Unchecked, each tiny defect died mid-search with an unnamed
    IndexError, and the desk plan at facility 0 loaded ledger row 3,
    which is facility 1's EVSE 0."""
    config, sessions = generate_scenario(0, preset)
    _, captured = run_online(sessions, config, capture_candidates=True)
    session, plan = next((s, c) for s in sessions for c in captured.get(s.id, ())
                         if c.facility_id == 0)
    bad = dataclasses.replace(plan, **change)
    with pytest.raises(ValueError, match=f"invalid candidates: session {session.id}: "
                                         f".*{message}"):
        exact_offline([session], config, {session.id: [bad]})


def test_exact_refuses_forged_candidates():
    """Values raised by 1000 once passed the candidate check, and the
    search returned a welfare of 1106.375 against an upper bound of 124.6.
    A plan that leaves one slot earlier than its last leg allows, or that
    drops its hops with its value raised to match, is refused as well."""
    config, sessions = generate_scenario(0, "tiny")
    _, captured = run_online(sessions, config, GenerationPolicy(max_candidates_total=4),
                             capture_candidates=True)
    assert exact_offline(sessions, config, captured).welfare <= upper_bound(sessions, config)
    session = sessions[0]
    charge = next(c for c in captured[session.id] if c.charging)
    penalty = config.per_hop_value_penalty * charge.hops_total
    for forged, problem in [
            ([dataclasses.replace(c, value=c.value + 1000) for c in captured[session.id]],
             "value"),
            ([dataclasses.replace(charge, t_plus=charge.t_plus - 1)], "t_plus"),
            ([dataclasses.replace(charge, hops_total=0, value=charge.value + penalty)],
             "hops_total")]:
        with pytest.raises(ValueError, match=f"invalid candidates: session {session.id}: "
                                             f".*{problem} "):
            exact_offline(sessions, config, {**captured, session.id: forged})
