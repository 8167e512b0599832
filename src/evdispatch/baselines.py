"""Threshold charging baselines.

A threshold policy never looks at prices. A vehicle above the state of
charge threshold takes the most valuable reachable pickup immediately;
a vehicle below it drives to the nearest facility, charges to full at the
maximum rate in back-to-back slots (waiting up to ``PATIENCE`` slots
when the facility is busy), and only then takes a pickup. Capacity is
respected by construction, value is whatever falls out. Both moves are
made by ``schedules.make_plan``, as online's plans are.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from .domain import (
    MONEY_ATOL, DispatchDecision, ResourceLedger, RunReport, ScenarioConfig, Schedule,
    Session, check_config, check_sessions, facility_legs, instance_hash,
)
from .dispatcher import peak_utilization
from .economics import primal_increment
from .pricing import CABLE, ENERGY, GENERATION, charge_slots, psi as compute_psi
from .schedules import make_plan

#: How many slots past its facility arrival a charging vehicle may wait
#: for a start that fits; read at call time.
PATIENCE = 4


def _dest_order(config: ScenarioConfig, anchor: int) -> Tuple[Tuple[int, int], ...]:
    """(hops, dest) pairs reachable from anchor, best pickup value first,
    ties to the closer then lower-id region; ranked once per config
    (``Destinations.by_pickup``)."""
    if not 0 <= anchor < len(config.regions):
        raise ValueError(f"unknown region {anchor}")
    return config.destinations[anchor].by_pickup


def _rebalance(session: Session, config: ScenarioConfig,
               ledger: ResourceLedger) -> Optional[Schedule]:
    """Most valuable reachable pickup with a free arrival slot, if any."""
    for h2, dest in _dest_order(config, session.origin_region):
        s = make_plan(session, config, dest, h2, session.soc * config.battery_capacity,
                      session.t_minus)
        if s is not None and ledger.fits(s):
            return s
    return None


def _charge_then_go(session: Session, config: ScenarioConfig,
                    ledger: ResourceLedger) -> Optional[Schedule]:
    """Charge to full at the nearest facility, then the best pickup.

    Tries start delays of 0..PATIENCE slots and EVSEs in index order;
    gives up (depot) when nothing fits. An EVSE's energy and cable cells
    do not depend on the destination, and the destination's arrival and
    out-of-service cells not on the EVSE, so the first (EVSE, destination)
    pair that fits pairs the first EVSE whose own cells fit with the first
    destination that fits: each delay picks that EVSE once, then walks the
    destinations with ``ResourceLedger.fits``.
    """
    T = config.horizon
    cap = config.battery_capacity
    energy0 = session.soc * cap

    legs = facility_legs(session.origin_region, energy0, session.t_minus, config)
    if not legs:
        return None
    h1, fac = legs[0]

    arrival_energy = energy0 - h1 * config.per_hop_energy
    rate = fac.evse_energy_limit
    k, last = charge_slots(cap - arrival_energy, rate)
    t_arr = session.t_minus + h1
    if t_arr + k - 1 > T:
        # no start delay ends by the horizon; k may be far larger than T
        return None
    # full rate first, the remainder in the last slot
    amounts = [rate] * (k - 1) + [last]
    dests = _dest_order(config, fac.region_id)
    cells = config.cells
    # a row's cell of slot t is row + t; every EVSE shares the facility's
    # generation row
    generation_row = cells.facility_cell(fac.id, 0)

    def overfull(family: int, row: int, demands) -> bool:
        """Whether any (slot, amount) of ``demands`` breaches its cell of
        the row, as ``ResourceLedger.fits`` checks it."""
        loads, shapes = ledger.loads[family], cells.shapes[family]
        return any(loads[row + t] + e > shapes[row + t].cap + MONEY_ATOL
                   for t, e in demands)

    for wait in range(PATIENCE + 1):
        start = t_arr + wait
        done = start + k - 1
        if done > T:
            break
        energy_slots = tuple(zip(range(start, done + 1), amounts))
        if overfull(GENERATION, generation_row, energy_slots):
            # no EVSE or destination makes these slots fit
            continue
        cable = [(t, 1) for t in range(t_arr, done + 1)]
        for m in range(fac.evse_count):
            evse_row = cells.evse_cell(fac.id, m, 0)
            if not (overfull(ENERGY, evse_row, energy_slots)
                    or overfull(CABLE, evse_row, cable)):
                break
        else:
            # every EVSE is full in these slots, whatever the destination
            continue
        for h2, dest in dests:
            s = make_plan(session, config, dest, h2, cap, done,
                          (fac.id, m, h1, energy_slots))
            if s is not None and ledger.fits(s):
                return s
    return None


def _check_threshold(threshold: float) -> None:
    if not (0.0 < threshold < 1.0):  # NaN included
        raise ValueError(f"threshold {threshold} outside (0, 1)")


def threshold_dispatch(session: Session, config: ScenarioConfig,
                       ledger: ResourceLedger, threshold: float) -> Optional[Schedule]:
    """One session under the threshold policy; None means depot. Raises
    on a threshold outside (0, 1) and on a session that
    ``validate_sessions`` rejects."""
    _check_threshold(threshold)
    check_sessions((session,), config)
    if session.t_minus >= config.horizon:
        return None
    if session.soc >= threshold:
        return _rebalance(session, config, ledger)
    return _charge_then_go(session, config, ledger)


def run_threshold(sessions: Sequence[Session], config: ScenarioConfig,
                  threshold: float = 0.5) -> RunReport:
    """Run a threshold baseline over an ordered session stream.

    The recorded utility of a decision is the raw schedule value; the
    baseline has no prices and no dual trajectory.
    """
    _check_threshold(threshold)
    check_config(config)
    check_sessions(sessions, config)

    ledger = ResourceLedger.zero(config)
    decisions: List[DispatchDecision] = []
    primal = [0.0]
    for session in sessions:
        schedule = threshold_dispatch(session, config, ledger, threshold)
        if schedule is None:
            decisions.append(DispatchDecision(session_id=session.id,
                                              schedule=None, utility=0.0))
            primal.append(primal[-1])
            continue
        gain = primal_increment(ledger, schedule)
        ledger.apply(schedule)
        decisions.append(DispatchDecision(session_id=session.id,
                                          schedule=schedule,
                                          utility=schedule.value))
        primal.append(primal[-1] + gain)

    return RunReport(
        algorithm=f"threshold-{int(round(threshold * 100))}",
        instance_hash=instance_hash(config, sessions),
        psi=compute_psi(config),
        bounds=None,
        alphas=None,
        decisions=tuple(decisions),
        primal_trajectory=tuple(primal),
        dual_trajectory=None,
        welfare=primal[-1],
        peak_utilization=peak_utilization(ledger),
    )
