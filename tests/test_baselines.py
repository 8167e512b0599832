"""Threshold baselines: policy shape, capacity discipline, report format."""

from __future__ import annotations

from dataclasses import replace

import pytest

from evdispatch import baselines
from evdispatch.baselines import run_threshold, threshold_dispatch
from evdispatch.domain import (
    ResourceLedger, Schedule, Session, recompute_ledger, schedule_violations,
)
from evdispatch.economics import primal_objective
from evdispatch.harness import generate_scenario
from evdispatch.pricing import CABLE, DESTINATION, ENERGY, GENERATION

from conftest import build_mini_config, cell_index


def test_above_threshold_takes_the_best_pickup(mini_config, mini_session):
    ledger = ResourceLedger.zero(mini_config)
    s = threshold_dispatch(mini_session, mini_config, ledger, threshold=0.5)
    assert s is not None and not s.charging
    assert s.dest_region == 1 and s.t_plus == 1
    assert s.value == pytest.approx(12.5)


def test_full_destination_slot_falls_through(mini_config, mini_session):
    ledger = ResourceLedger.zero(mini_config)
    for t in range(mini_config.horizon):
        cell = cell_index(mini_config, DESTINATION, 1, t + 1)
        ledger.loads[DESTINATION][cell] = mini_config.regions[1].vehicle_limit[t]
    s = threshold_dispatch(mini_session, mini_config, ledger, threshold=0.5)
    assert s is not None and s.dest_region == 0


def test_below_threshold_charges_to_full(mini_config, mini_session):
    ledger = ResourceLedger.zero(mini_config)
    s = threshold_dispatch(mini_session, mini_config, ledger, threshold=0.75)
    assert s is not None and s.charging
    # one 6 kWh slot tops up the battery; best pickup is region 1
    assert s.energy_slots == ((2, 6.0),)
    assert s.cable_slots == (2,)
    assert s.dest_region == 1
    assert s.final_soc == pytest.approx(0.9)
    assert s.value == pytest.approx(13.5)
    assert schedule_violations(s, mini_config, mini_session) == []


def test_remainder_charges_last():
    config = build_mini_config(battery_capacity=15.0, charge_increment=2.5)
    session = Session(id=0, t_minus=1, origin_region=1, soc=0.2)
    ledger = ResourceLedger.zero(config)
    s = threshold_dispatch(session, config, ledger, threshold=0.5)
    # 3 kWh arrives as 2 after the hop; 13 kWh at rate 10 is 10 then 3
    assert s.energy_slots == ((2, 10.0), (3, 3.0))
    assert s.final_soc == pytest.approx(14.0 / 15.0)
    assert schedule_violations(s, config, session) == []


def test_patience_waits_out_a_busy_slot(mini_config, mini_session, monkeypatch):
    ledger = ResourceLedger.zero(mini_config)
    hog = Schedule(session_id=9, t_minus=1, facility_id=0, evse_index=0,
                   t_arrival=2, cable_slots=(2,), energy_slots=((2, 10.0),),
                   dest_region=0, t_plus=3, hops_total=0, final_soc=1.0,
                   value=0.0)
    ledger.apply(hog)
    s = threshold_dispatch(mini_session, mini_config, ledger, threshold=0.75)
    assert s is not None
    assert s.energy_slots == ((3, 6.0),)
    assert s.cable_slots == (2, 3)

    monkeypatch.setattr(baselines, "PATIENCE", 0)
    blocked = threshold_dispatch(mini_session, mini_config, ledger, threshold=0.75)
    assert blocked is None


def test_start_blocked_by_generation_is_skipped(mini_config, mini_session,
                                                monkeypatch):
    # slot 2's generation is spent, so no EVSE or destination can start there
    ledger = ResourceLedger.zero(mini_config)
    ledger.loads[GENERATION][cell_index(mini_config, GENERATION, 0, 2)] = 10.0
    checked = []
    fits = ResourceLedger.fits

    def counted(self, schedule):
        checked.append(schedule)
        return fits(self, schedule)
    monkeypatch.setattr(ResourceLedger, "fits", counted)
    s = threshold_dispatch(mini_session, mini_config, ledger, threshold=0.75)
    assert s is not None
    assert s.energy_slots == ((3, 6.0),) and s.cable_slots == (2, 3)
    # the first plan checked is the one taken: none started in slot 2
    assert checked == [s]


def test_evse_pick_skips_a_full_cable_and_a_full_energy_cell(mini_config, mini_session,
                                                              monkeypatch):
    """EVSE 0's cables and EVSE 1's energy are taken in the arrival slot,
    so the move starts there on EVSE 2, and that plan is the first one
    checked whole."""
    fac = replace(mini_config.facilities[0], evse_count=3,
                  grid_limit=(30.0,) * mini_config.horizon)
    config = replace(mini_config, facilities=(fac,))
    ledger = ResourceLedger.zero(config)
    ledger.loads[CABLE][cell_index(config, CABLE, 0, 0, 2)] = 2
    ledger.loads[ENERGY][cell_index(config, ENERGY, 0, 1, 2)] = 10.0
    checked = []
    fits = ResourceLedger.fits

    def counted(self, schedule):
        checked.append(schedule)
        return fits(self, schedule)
    monkeypatch.setattr(ResourceLedger, "fits", counted)
    s = threshold_dispatch(mini_session, config, ledger, threshold=0.75)
    assert s is not None and s.evse_index == 2
    assert s.energy_slots == ((2, 6.0),) and s.cable_slots == (2,)
    assert checked == [s]


def test_charging_checks_each_evse_once_per_start(monkeypatch):
    """Equal moves do not show a lost cut: checking every (EVSE,
    destination) pair of each start delay whole gives the same three runs
    of this day with 43,730 ``fits`` calls; picking the EVSE first takes
    about 2,800."""
    calls = [0]
    fits = ResourceLedger.fits

    def counted(self, schedule):
        calls[0] += 1
        return fits(self, schedule)
    monkeypatch.setattr(ResourceLedger, "fits", counted)
    config, sessions = generate_scenario(1, "full")
    for threshold in (0.25, 0.5, 0.75):
        run_threshold(sessions, config, threshold)
    assert 0 < calls[0] < 5_000


@pytest.mark.parametrize("threshold", [0.25, 0.5, 0.75])
@pytest.mark.parametrize("preset,seed", [("tiny", 3), ("desk", 1), ("full", 3)])
def test_threshold_runs_respect_capacity(preset, seed, threshold):
    config, sessions = generate_scenario(seed, preset)
    report = run_threshold(sessions, config, threshold)
    assert report.algorithm == f"threshold-{int(threshold * 100)}"
    if preset == "full" and threshold > 0.25:
        # the charge-to-full path runs at scale: 332 and 642 of 993 plans
        assert sum(d.schedule is not None and d.schedule.charging
                   for d in report.decisions) > 100
    ledger = recompute_ledger(report.decisions, config)
    assert ledger.violations(config) == []
    by_id = {s.id: s for s in sessions}
    for d in report.decisions:
        if d.schedule is not None:
            assert d.utility == d.schedule.value
            assert schedule_violations(d.schedule, config,
                                       by_id[d.session_id]) == []
    assert report.welfare == pytest.approx(
        primal_objective(report.decisions, ledger, config), abs=1e-9)


def test_report_has_no_dual_side(tiny_instance):
    config, sessions = tiny_instance
    report = run_threshold(sessions, config, 0.5)
    assert report.bounds is None
    assert report.alphas is None
    assert report.dual_trajectory is None
    assert report.welfare == report.primal_trajectory[-1]
    assert len(report.primal_trajectory) == len(sessions) + 1
    assert all(0.0 <= v <= 1.0 + 1e-12
               for v in report.peak_utilization.values())


def test_argument_validation(mini_config, tiny_instance):
    config, sessions = tiny_instance
    for bad in (0.0, 1.0, -0.2, 1.7):
        with pytest.raises(ValueError, match="outside"):
            run_threshold(sessions, config, bad)
    with pytest.raises(ValueError, match="invalid config"):
        run_threshold([], build_mini_config(horizon=0), 0.5)
    shuffled = [sessions[-1]] + list(sessions[:-1])
    if sessions[-1].t_minus > sessions[0].t_minus:
        with pytest.raises(ValueError, match="out of order"):
            run_threshold(shuffled, config, 0.5)


def test_a_threshold_run_checks_its_sessions_once(monkeypatch):
    """``run_threshold`` checks the whole stream once, up front, and decides
    each session unchecked: ``check_sessions`` runs once per run, not once
    more per session. The per-session entry point still checks: it refuses
    a session past the horizon and a threshold outside (0, 1), and writes
    no load."""
    config, sessions = generate_scenario(0, "tiny")
    check, calls = baselines.check_sessions, [0]

    def counted(*args):
        calls[0] += 1
        return check(*args)
    monkeypatch.setattr(baselines, "check_sessions", counted)
    for threshold in (0.25, 0.5, 0.75):
        calls[0] = 0
        report = run_threshold(sessions, config, threshold)
        assert calls[0] == 1
        assert len(report.decisions) == len(sessions) > 1

    ledger = ResourceLedger.zero(config)
    late = replace(sessions[0], t_minus=config.horizon + 1)
    with pytest.raises(ValueError, match="invalid sessions: t_minus at session "):
        threshold_dispatch(late, config, ledger, 0.5)
    for bad in (0.0, 1.0, -0.2, 1.7):
        with pytest.raises(ValueError, match=r"threshold .* outside \(0, 1\)"):
            threshold_dispatch(sessions[0], config, ledger, bad)
    assert ledger.loads == ResourceLedger.zero(config).loads
