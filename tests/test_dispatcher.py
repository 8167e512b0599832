"""Online engine: argmax selection, trajectory bookkeeping, and the
capacity backstop behind the price barrier."""

from __future__ import annotations

import dataclasses
import math
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from evdispatch import baselines, dispatcher, economics, pricing, schedules
from evdispatch.baselines import run_threshold
from evdispatch.dispatcher import (
    DispatcherState, dispatch, peak_utilization, run_online,
    utility_breakdown,
)
from evdispatch.domain import (
    MONEY_ATOL, CapacityError, DispatchDecision, ResourceLedger, Session, recompute_ledger,
    validate_sessions,
)
from evdispatch.harness import PRESETS, generate_scenario
from evdispatch.offline import exact_offline, upper_bound
from evdispatch.pricing import DESTINATION, PriceBounds, PriceTable, Snapshot
from evdispatch.schedules import GenerationPolicy, feasible_schedules, ranked, rebalances

from conftest import broken_configs, broken_sessions, build_mini_config, cell_index


def _prices(state):
    """A snapshot of the state's live ledger, as ``dispatch`` takes one."""
    return Snapshot(state.ledger, state.table)


def _candidates(session, config, prices, policy):
    """Every candidate of a session, in the order ``dispatch`` reads them."""
    return list(ranked(rebalances(session, config),
                       feasible_schedules(session, config, prices, policy)))


def test_fresh_rejects_invalid_config():
    config = build_mini_config(out_of_service_penalty=(0.4,) * 5)
    with pytest.raises(ValueError, match="invalid config"):
        DispatcherState.fresh(config)


def test_bounds_below_the_value_density_breach_capacity():
    config, sessions = generate_scenario(1, PRESETS["rush"])
    estimated = pricing.estimate_bounds(config)
    for family, density in zip(pricing.FAMILIES, pricing.value_densities(config)):
        assert family.limits(estimated)[1] >= density
    bounds = dataclasses.replace(estimated, U_o=10.0)
    assert pricing.validate_bounds(bounds, config) == []
    assert pricing.value_densities(config)[pricing.OUT_OF_SERVICE] > 10.0

    # below the density the barrier fails, and the run dies mid-way
    state = DispatcherState.fresh(config)
    state = dataclasses.replace(state, table=PriceTable(bounds, state.table.psi))
    with pytest.raises(CapacityError, match="session 111 "):
        for session in sessions:
            dispatch(session, state)


def test_fresh_rejects_invalid_policy(mini_config):
    for n in (-3, 2.5, math.inf, math.nan):
        with pytest.raises(ValueError, match="invalid policy: max_candidates_total"):
            DispatcherState.fresh(mini_config, GenerationPolicy(max_candidates_total=n))


def test_utility_is_value_minus_payments(mini_config, mini_session,
                                         mini_charge, mini_rebalance):
    state = DispatcherState.fresh(mini_config)
    for schedule in (mini_charge, mini_rebalance):
        u, breakdown = utility_breakdown(schedule, _prices(state))
        assert u == pytest.approx(schedule.value - breakdown.total)
        assert breakdown.total > 0
    # prices are nondecreasing in load, so utility can only fall
    before = utility_breakdown(mini_charge, _prices(state))[0]
    state.ledger.apply(mini_charge)
    after = utility_breakdown(mini_charge, _prices(state))[0]
    assert after < before


def test_dispatch_picks_the_utility_argmax(mini_config, mini_session):
    probe = DispatcherState.fresh(mini_config)
    prices = _prices(probe)
    candidates = _candidates(mini_session, mini_config, prices, probe.policy)
    utilities = [utility_breakdown(s, prices)[0] for s in candidates]

    state = DispatcherState.fresh(mini_config)
    decision = dispatch(mini_session, state)
    assert decision.schedule is not None
    assert decision.utility == pytest.approx(max(utilities))
    assert len(state.primal_trajectory) == 2
    assert state.primal_trajectory[1] > 0


def test_depot_when_nothing_is_feasible(mini_config):
    state = DispatcherState.fresh(mini_config)
    decision = dispatch(Session(id=0, t_minus=6, origin_region=1, soc=0.5),
                        state)
    assert decision.is_depot
    assert decision.schedule is None and decision.utility == 0.0
    assert state.primal_trajectory == [0.0, 0.0]
    assert state.dual_trajectory == [0.0, 0.0]


def test_out_of_order_arrivals_are_rejected(mini_config):
    state = DispatcherState.fresh(mini_config)
    dispatch(Session(id=0, t_minus=3, origin_region=1, soc=0.5), state)
    with pytest.raises(ValueError, match="arrives out of order"):
        dispatch(Session(id=1, t_minus=2, origin_region=1, soc=0.5), state)


@pytest.mark.parametrize("defect", sorted(broken_sessions()[1]))
def test_runs_reject_invalid_sessions_before_the_first(defect, monkeypatch):
    """Without the check, soc=1.5 committed plans that overfill the battery,
    soc=nan gave nan welfare online and killed the threshold run, and a
    start past the horizon stopped online mid-run while the threshold run
    sent it to the depot."""
    config, streams = broken_sessions()
    _, sessions = streams[defect]
    calls = []
    monkeypatch.setattr(dispatcher, "dispatch", lambda *args: calls.append(args))
    monkeypatch.setattr(baselines, "threshold_dispatch", lambda *args: calls.append(args))
    with pytest.raises(ValueError, match="invalid sessions: "):
        run_online(sessions, config)
    for threshold in (0.25, 0.5, 0.75):
        with pytest.raises(ValueError, match="invalid sessions: "):
            run_threshold(sessions, config, threshold)
    assert calls == []


@pytest.mark.parametrize("defect", ["soc above one", "soc below zero", "soc nan", "t_minus zero",
                                    "t_minus past the horizon", "unknown origin"])
def test_per_session_entry_points_reject_an_invalid_session(defect):
    """Without the check, ``dispatch`` committed a plan that arrives with
    24.5 kWh in a 15 kWh battery at soc 1.7 and a plan worth NaN at soc
    NaN, and ``threshold_dispatch`` loaded out-of-service slots through
    negative indices at t_minus -3 and sent a start past the horizon to
    the depot without a word."""
    config, streams = broken_sessions()
    field, stream = streams[defect]
    session, = (s for s in stream if validate_sessions((s,), config))
    match = f"invalid sessions: {field} at session {session.id}: "
    state = DispatcherState.fresh(config)
    with pytest.raises(ValueError, match=match):
        dispatch(session, state)
    assert state.last_t == DispatcherState.fresh(config).last_t
    assert state.decisions == []
    assert state.primal_trajectory == state.dual_trajectory == [0.0]
    ledger = ResourceLedger.zero(config)
    for threshold in (0.25, 0.5, 0.75):
        with pytest.raises(ValueError, match=match):
            baselines.threshold_dispatch(session, config, ledger, threshold)
    zero = ResourceLedger.zero(config).loads
    assert state.ledger.loads == ledger.loads == zero


@pytest.mark.parametrize("threshold", [0.0, 1.0, 5.0, math.nan, -1.0])
def test_threshold_dispatch_rejects_a_threshold_outside_the_unit_interval(threshold):
    """``run_threshold`` refused these thresholds but the per-session entry
    point took them: on tiny seed 0, 5.0 and NaN sent the first vehicle to
    charge and -1.0 sent it to a pickup."""
    config, sessions = generate_scenario(0, "tiny")
    ledger = ResourceLedger.zero(config)
    with pytest.raises(ValueError, match=r"threshold .* outside \(0, 1\)"):
        baselines.threshold_dispatch(sessions[0], config, ledger, threshold)
    assert ledger.loads == ResourceLedger.zero(config).loads
    # the whole run still refuses before its first session, also on none
    for stream in (sessions, ()):
        with pytest.raises(ValueError, match=r"threshold .* outside \(0, 1\)"):
            run_threshold(stream, config, threshold)


@pytest.mark.parametrize("defect", sorted(broken_configs()))
def test_runs_reject_non_finite_configs_before_the_first(defect, monkeypatch):
    """Without the check, an infinite EVSE energy limit raised IndexError
    mid-run, an infinite pickup value or a NaN hop energy breached
    capacity, a NaN grid price or penalty raised a math domain error, and
    an infinite hop penalty gave NaN welfare."""
    field, config = broken_configs()[defect]
    _, sessions = generate_scenario(0, "tiny")
    calls = []
    monkeypatch.setattr(dispatcher, "dispatch", lambda *args: calls.append(args))
    monkeypatch.setattr(baselines, "threshold_dispatch", lambda *args: calls.append(args))
    with pytest.raises(ValueError, match=f"invalid config: {field} at "):
        run_online(sessions, config)
    for threshold in (0.25, 0.5, 0.75):
        with pytest.raises(ValueError, match=f"invalid config: {field} at "):
            run_threshold(sessions, config, threshold)
    assert calls == []


def _magnitude(low: int, high: int):
    """Floats spread evenly in log scale over 10**low..10**high."""
    return st.floats(low, high).map(lambda x: 10.0 ** x)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(energy_limit=_magnitude(-6, 15), cables=st.integers(1, 8),
       battery=_magnitude(-2, 4), increments=st.integers(1, 6),
       per_hop_energy=st.one_of(st.just(0.0), _magnitude(-3, 3)),
       grid_limit=st.one_of(st.just(0.0), _magnitude(-3, 6)), seed=st.integers(0, 9),
       max_candidates=st.integers(1, 24))
@example(energy_limit=1e13, cables=2, battery=15.0, increments=3, per_hop_energy=1.0,
         grid_limit=10.0, seed=0, max_candidates=24)
@example(energy_limit=1e-6, cables=1, battery=1000.0, increments=1, per_hop_energy=0.0,
         grid_limit=0.0, seed=0, max_candidates=1)
def test_runs_at_any_magnitude_refuse_at_load_or_keep_capacity(
        energy_limit, cables, battery, increments, per_hop_energy, grid_limit, seed,
        max_candidates):
    """A tiny day whose magnitudes are drawn wide either is refused with a
    named ValueError before its first session, or runs online, under all
    three thresholds and through ``upper_bound`` with no capacity breach,
    and ``exact_offline`` over the candidates of a capturing online run
    finds a feasible assignment between that run and the bound. Each
    online run's final dual, unshifted, covers its welfare. With an
    EVSE energy limit of 1e13 a charge target took 0 slots, and online
    died with IndexError; an exact search that undid its branches by
    subtraction died on two draws with a negative generation load; and at
    a limit of 1e-6 in a 1000 kWh battery the threshold charging move
    listed a billion slot amounts before it saw that they end past the
    horizon, and died with MemoryError."""
    params = dataclasses.replace(
        PRESETS["tiny"], evse_energy_limit=energy_limit, cables_per_evse=cables,
        battery_capacity=battery, charge_increment=battery / increments,
        per_hop_energy=per_hop_energy, grid_limit=grid_limit)
    config, sessions = generate_scenario(seed, params)
    reports = []
    with mock.patch.object(dispatcher, "dispatch", wraps=dispatcher.dispatch) as dispatched:
        try:
            reports.append(run_online(
                sessions, config, GenerationPolicy(max_candidates_total=max_candidates)))
            captured_run, captured = run_online(
                sessions, config, GenerationPolicy(max_candidates_total=4),
                capture_candidates=True)
        except ValueError as refusal:
            assert str(refusal).startswith("estimated bounds are unusable: ")
            assert dispatched.call_count == 0
            captured = None
    reports += [run_threshold(sessions, config, t) for t in (0.25, 0.5, 0.75)]
    bound = upper_bound(sessions, config)
    assert bound >= 0.0
    runs = [report.decisions for report in reports]
    if captured is not None:
        exact = exact_offline(sessions, config, captured)
        runs.append(captured_run.decisions)
        runs.append([DispatchDecision(session_id=s.id, schedule=a, utility=0.0)
                     for s, a in zip(sessions, exact.assignment)])
        for lower, upper in ((captured_run.welfare, exact.welfare), (exact.welfare, bound)):
            assert lower <= upper + MONEY_ATOL + 1e-9 * abs(upper)
        zero = ResourceLedger.zero(config)
        for run in (reports[0], captured_run):
            base = economics.dual_objective([], zero, config, run.bounds, run.psi)
            gap = run.dual_trajectory[-1] + base - run.welfare
            assert gap >= -(MONEY_ATOL + 1e-9 * abs(run.welfare))
    for decisions in runs:
        assert recompute_ledger(decisions, config).violations(config) == []


def test_candidate_with_infinite_payment_is_never_chosen(mini_config,
                                                       mini_session):
    # 0.01 kWh of grid and no solar: charging 5 kWh overflows the payment
    fac = dataclasses.replace(mini_config.facilities[0],
                              grid_limit=(0.01,) * mini_config.horizon)
    config = dataclasses.replace(mini_config, facilities=(fac,))
    state = DispatcherState.fresh(config)
    prices = _prices(state)
    candidates = feasible_schedules(mini_session, config, prices, state.policy)
    priced = [utility_breakdown(s, prices) for s in candidates]
    infinite = [s for s, (u, b) in zip(candidates, priced)
                if b.generation == math.inf]
    assert infinite and all(u == -math.inf for u, b in priced
                            if b.generation == math.inf)

    decision = dispatch(mini_session, state)
    assert decision.schedule not in infinite
    assert math.isfinite(decision.utility)


def test_capacity_backstop_fires_without_the_barrier(mini_config,
                                                     mini_session):
    # near-zero prices defeat the barrier; a saturated destination must
    # then trip the hard check rather than corrupt the ledger
    flat = PriceBounds(L_c=1e-9, U_c=1e-8, L_e=1e-9, U_e=1e-8, L_g=1e-9,
                       U_g=1e-8, L_d=1e-9, U_d=1e-8, L_o=1e-9, U_o=1e-8)
    state = DispatcherState.fresh(mini_config)
    state = dataclasses.replace(state, table=PriceTable(flat, state.table.psi))
    for d in range(len(mini_config.regions)):
        for t in range(mini_config.horizon):
            cell = cell_index(mini_config, DESTINATION, d, t + 1)
            state.ledger.loads[DESTINATION][cell] = (
                mini_config.regions[d].vehicle_limit[t])
    with pytest.raises(CapacityError, match="price barrier failed"):
        dispatch(mini_session, state)


def test_replaced_bounds_get_a_price_table_of_their_own():
    """``dataclasses.replace`` with a table of other bounds gives a state
    whose price table is new, empty and built on the other bounds, and a
    run on it keeps only prices and payments at those bounds: never an
    entry of the state it was copied from."""
    config, sessions = generate_scenario(0, dataclasses.replace(PRESETS["desk"],
                                                                max_sessions=60))
    state = DispatcherState.fresh(config)
    for session in sessions[:30]:
        dispatch(session, state)
    old = state.table
    assert old.prices and old.paid
    other = dataclasses.replace(old.bounds, **{
        name: 2 * getattr(old.bounds, name) for name in
        ("U_c", "U_e", "U_g", "U_d", "U_o")})

    moved = dataclasses.replace(state, table=PriceTable(other, old.psi))
    table = moved.table
    assert table is not old and state.table is old
    assert (table.bounds, table.psi) == (other, old.psi)
    assert table.prices == table.paid == {}
    for session in sessions[30:]:
        dispatch(session, moved)
    assert table.prices and table.paid
    for (shape, y), p in table.prices.items():
        assert p == shape.price(y, other, old.psi)
    moved_payments = 0
    for (shape, y, amount), paid in table.paid.items():
        assert paid == shape.payment(y, y + amount, other, old.psi)
        moved_payments += paid != shape.payment(y, y + amount, old.bounds, old.psi)
    assert moved_payments > 0


def test_replay_matches_decisions(tiny_instance):
    config, sessions = tiny_instance
    report, captured = run_online(sessions, config, capture_candidates=True)
    assert set(captured) == {s.id for s in sessions}

    state = DispatcherState.fresh(config)
    for k, session in enumerate(sessions):
        candidates = captured[session.id]
        prices = _prices(state)
        assert candidates == _candidates(session, config, prices, state.policy)
        # the early stop in dispatch rests on this order
        values = [s.value for s in candidates]
        assert values == sorted(values, reverse=True)
        # the argmax over every candidate, none skipped
        best_key, best = None, None
        for idx, s in enumerate(candidates):
            u = utility_breakdown(s, prices)[0]
            key = (u, -s.t_plus, -idx)
            if best_key is None or key > best_key:
                best_key, best = key, s
        decision = report.decisions[k]
        if best_key is None or best_key[0] <= 0.0:
            assert decision.is_depot
        else:
            assert decision.schedule == best
            assert decision.utility == pytest.approx(best_key[0])
            state.ledger.apply(best)


def test_a_full_day_prices_and_builds_under_half_its_candidates():
    """Guards the early stop and the lazy rebalances: on a short ``full``
    day ``dispatch`` prices fewer than half of the candidates it could
    read, and makes fewer than half of the pure rebalances."""
    config, sessions = generate_scenario(0, dataclasses.replace(PRESETS["full"],
                                                                max_sessions=150))
    state = DispatcherState.fresh(config)
    counts = {"candidates": 0, "rebalances": 0, "priced": 0, "made": 0}
    make_plan = schedules.make_plan

    def priced(*args):
        counts["priced"] += 1
        return utility_breakdown(*args)

    def made(*args, **kwargs):
        plan = make_plan(*args, **kwargs)
        if plan is not None and not plan.charging:
            counts["made"] += 1
        return plan
    for session in sessions:
        candidates = _candidates(session, config, _prices(state), state.policy)
        counts["candidates"] += len(candidates)
        counts["rebalances"] += sum(not s.charging for s in candidates)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(dispatcher, "utility_breakdown", priced)
            patch.setattr(schedules, "make_plan", made)
            dispatch(session, state)
    assert counts["rebalances"] > 20 * len(sessions)
    assert 0 < counts["priced"] < counts["candidates"] / 2, counts
    assert 0 < counts["made"] < counts["rebalances"] / 2, counts


@pytest.mark.parametrize("seed", range(6))
def test_per_step_primal_dual_inequality(seed):
    from evdispatch.harness import generate_scenario

    config, sessions = generate_scenario(seed, "tiny")
    report = run_online(sessions, config)
    alpha = report.alphas.alpha
    P, D = report.primal_trajectory, report.dual_trajectory
    assert len(P) == len(D) == len(sessions) + 1
    for k in range(len(sessions)):
        assert P[k + 1] - P[k] >= (D[k + 1] - D[k]) / alpha - 1e-9


def test_trajectories_tie_out_to_the_objectives(tiny_instance):
    config, sessions = tiny_instance
    state = DispatcherState.fresh(config)
    for session in sessions:
        dispatch(session, state)

    ledger = recompute_ledger(state.decisions, config)
    assert ledger.loads == state.ledger.loads

    welfare = economics.primal_objective(state.decisions, ledger, config)
    assert state.primal_trajectory[-1] == pytest.approx(welfare, abs=1e-9)

    # the stored dual curve is shifted to start at zero
    base = economics.dual_objective([], ResourceLedger.zero(config), config,
                                    state.table.bounds, state.table.psi)
    full = economics.dual_objective([d.utility for d in state.decisions], ledger, config,
                                    state.table.bounds, state.table.psi)
    assert state.dual_trajectory[-1] == pytest.approx(full - base, abs=1e-8)
    # weak duality in unshifted terms
    assert full >= welfare - 1e-9


def test_run_online_is_deterministic(tiny_instance):
    config, sessions = tiny_instance
    a = run_online(sessions, config)
    b = run_online(sessions, config)
    c, _ = run_online(sessions, config, capture_candidates=True)
    assert a == b
    assert dataclasses.replace(a, algorithm=c.algorithm) == c


def test_peak_utilization_stays_within_capacity(desk_instance):
    config, sessions = desk_instance
    report = run_online(sessions, config)
    assert set(report.peak_utilization) == {
        "cable", "energy", "generation", "out_of_service", "destination"}
    for name, frac in report.peak_utilization.items():
        assert 0.0 <= frac <= 1.0 + 1e-12, name
    assert report.welfare > 0
    assert report.accepted > 0
