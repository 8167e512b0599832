"""Candidate schedule generation for one between-ride session.

The dispatcher never enumerates every conceivable plan. For each session
it considers a bounded family of tuples (facility, charge target,
destination, start offset) plus pure rebalances, ranks them by analytic
value, and only builds the top candidates into full schedules. A charge
target is any multiple of the config's charge increment up to the
battery's headroom, drawn at the facility's fair-share rate; the only
knob a caller sets is the cap on charging candidates. Charging
slots inside a tuple's dwell window are placed greedily on the cheapest
posted marginal energy price, so the candidate set adapts to current load
without exhaustive search.

Charging tuples are never all enumerated either. Each facility's
destinations are ranked once per config (``ScenarioConfig.destinations``)
into batches of groups that share a hop count and a pickup value, so that
every plan of a batch outranks every plan of a later one. Each (facility,
target) pair is a stream that values and sorts one batch at a time, the
streams are merged with ``heapq.merge``, and the build stops at the cap:
the order is exactly that of sorting every tuple, and only the batches
that the cap reaches are ever valued.

The builder reads posted prices from the ``pricing.Snapshot`` its caller
took of the ledger; ``dispatch`` prices the candidates from the same one.

Every plan, here and in ``baselines``, is made by ``make_plan``, which
works out a plan's arrival slot, cable window, final charge and value.
"""

from __future__ import annotations

import heapq
import math
import numbers
from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Tuple

from . import pricing
from .domain import (
    MONEY_ATOL, ScenarioConfig, Schedule, Session, facility_legs, hop_row, plan_value,
)
from .pricing import CABLE, Snapshot, charge_slots

#: How many nearest facilities a session considers.
MAX_CANDIDATE_FACILITIES = 8
#: Latest charging start, in slots after facility arrival. Offset w widens
#: the dwell window to k + w slots, within which the k charging slots are
#: chosen greedily by posted price.
MAX_START_OFFSET = 4


@dataclass(frozen=True)
class GenerationPolicy:
    """The caller's one knob on the candidate enumeration.

    Every plan charges to a multiple of charge_increment
    (``pricing.default_charge_targets``) at its facility's fair-share rate
    (``pricing.effective_charge_rate``); neither is a setting.

    Attributes
    ----------
    max_candidates_total:
        Hard cap on charging candidates per session, an integer >= 1.
        Pure rebalances are always all included; they are the cheap
        fallback moves and cost nothing to build.
    """

    max_candidates_total: int = 24


DEFAULT_POLICY = GenerationPolicy()


def validate_policy(policy: GenerationPolicy) -> List[str]:
    """Problems of a policy; [] if it can be run."""
    n = policy.max_candidates_total
    if isinstance(n, bool) or not isinstance(n, numbers.Integral) or n < 1:
        return [f"max_candidates_total must be an integer >= 1, got {n!r}"]
    return []


def feasible_schedules(session: Session, config: ScenarioConfig, prices: Snapshot,
                       policy: GenerationPolicy = DEFAULT_POLICY) -> List[Schedule]:
    """Candidate schedules for a session against the ledger state that
    ``prices`` was taken of.

    Deterministic in its inputs. Sessions arriving in the final slot get
    no candidates: there is no slot left to complete any move. Every
    reachable pure rebalance is included; charging plans are capped at
    max_candidates_total, best analytic value first. The combined list is
    sorted by descending value with a canonical tie-break.
    """
    T = config.horizon
    if not (1 <= session.t_minus <= T):
        raise ValueError(f"session {session.id} starts outside the horizon")
    if session.t_minus >= T:
        return []

    cap = config.battery_capacity
    e_hop = config.per_hop_energy
    energy0 = session.soc * cap
    t0 = session.t_minus
    # the origin's hop row, read once; -1 marks an unreachable region
    origin_hops = hop_row(session.origin_region, config)

    # ---- every reachable pure rebalance ----
    out: List[Schedule] = []
    for dest, h2 in enumerate(origin_hops):
        if h2 >= 0:
            s = make_plan(session, config, dest, h2, energy0, t0)
            if s is not None:
                out.append(s)

    # ---- one stream of charging tuples per (facility, target) ----
    # Each stream yields (-v, f, target, dest, h1, h2, k, last) in
    # ascending order. The first four fields are unique, so the merge
    # order is that of sorting every tuple by (-v, f, target, dest).
    streams = []
    targets = pricing.default_charge_targets(config)
    legs = facility_legs(session.origin_region, energy0, t0, config)
    for h1, fac in legs[:MAX_CANDIDATE_FACILITIES]:
        arrival_energy = energy0 - h1 * e_hop
        headroom = cap - arrival_energy
        t_arr = t0 + h1
        rate = pricing.effective_charge_rate(fac)
        for target in targets:
            if target > headroom + MONEY_ATOL:
                break
            k, last = charge_slots(target, rate)
            if t_arr + k - 1 > T:
                continue
            streams.append(_stream(config, fac, target, h1, k, last,
                                   arrival_energy + target, T - (t_arr + k - 1)))

    # ---- build charging tuples, best value first, until the cap ----
    # A window runs from the facility arrival slot t_arr, fixed per
    # facility, to its end slot, so the EVSE and the slot ranking depend
    # on (facility, window end) only, and the chosen slots on k as well.
    windows = {}  # (facility, window end) -> (EVSE, slots cheapest first)
    plans = {}  # (facility, window end, k) -> (EVSE, chosen slots, dearest)
    seen = set()
    built_charges = 0
    for neg_v, fid, target, dest, h1, h2, k, last in heapq.merge(*streams):
        fac = config.facilities[fid]
        t_arr = t0 + h1
        rate = pricing.effective_charge_rate(fac)
        for w in range(MAX_START_OFFSET + 1):
            if built_charges >= policy.max_candidates_total:
                break
            # _stream kept h2 <= T - (t_arr + k - 1): the window holds k slots
            hi = min(T - h2, t_arr + k - 1 + w)
            plan = plans.get((fid, hi, k))
            if plan is None:
                window = windows.get((fid, hi))
                if window is None:
                    window = windows[fid, hi] = _rank_window(fid, fac, t_arr, hi, prices)
                evse, ranked = window
                chosen = sorted(ranked[:k])
                plan = plans[fid, hi, k] = (evse, chosen,
                                            _dearest(chosen, fid, evse, prices))
            evse, chosen, dearest = plan
            # full rate on the chosen slots, the last slot's energy on the dearest
            energy_slots = tuple((t, last if t == dearest else rate) for t in chosen)
            # the energy slots fix the last charging slot, and dest fixes h2
            key = (fid, evse, energy_slots, dest)
            if key in seen:
                continue
            seen.add(key)
            built_charges += 1
            out.append(make_plan(session, config, dest, h2,
                                 energy0 - h1 * e_hop + target, chosen[-1],
                                 (fid, evse, h1, energy_slots), value=-neg_v))
        if built_charges >= policy.max_candidates_total:
            break
    out.sort(key=_candidate_key)
    return out


def make_plan(session: Session, config: ScenarioConfig, dest: int, h2: int,
              stored: float, t_leave: int, charge: Optional[tuple] = None,
              value: Optional[float] = None) -> Optional[Schedule]:
    """The session's plan that leaves slot ``t_leave`` with ``stored`` kWh
    for ``dest``, ``h2`` hops on; None past the horizon or the battery
    floor. ``charge`` is None for a pure rebalance from the origin, else
    ``(facility, EVSE, h1, energy_slots)``, holding the cable from arrival
    through ``t_leave``, the last charging slot. ``value`` defaults to
    ``plan_value``."""
    t_plus = t_leave + h2
    final = stored - h2 * config.per_hop_energy
    if t_plus > config.horizon or final < -MONEY_ATOL:
        return None
    fid = evse = t_arr = None
    h1, cable, energy_slots = 0, (), ()
    if charge is not None:
        fid, evse, h1, energy_slots = charge
        t_arr = session.t_minus + h1
        cable = tuple(range(t_arr, t_leave + 1))
    if value is None:
        value = plan_value(config, final, dest, h1 + h2)
    return Schedule(session_id=session.id, t_minus=session.t_minus, facility_id=fid,
                    evse_index=evse, t_arrival=t_arr, cable_slots=cable,
                    energy_slots=energy_slots, dest_region=dest, t_plus=t_plus,
                    hops_total=h1 + h2, final_soc=final / config.battery_capacity,
                    value=value)


def _stream(config: ScenarioConfig, fac, target: float, h1: int, k: int, last: float,
            stored: float, reach: int) -> Iterator[tuple]:
    """The charging tuples of one (facility, charge target), best first:
    the facility's destination batches in turn, each valued and sorted
    only when the one before it is used up. ``k`` and ``last`` are the
    charging slots and the energy of the last of them
    (``pricing.charge_slots``), ``stored`` the energy on leaving the
    facility, and ``reach`` the farthest hop count the horizon allows.
    The destinations of a group share its value bit for bit."""
    e_hop = config.per_hop_energy
    for batch in config.destinations[fac.region_id].batches:
        tuples = []
        for h2, dests in batch:
            final = stored - h2 * e_hop
            if h2 > reach or final < -MONEY_ATOL:
                continue
            v = plan_value(config, final, dests[0], h1 + h2)
            tuples.extend((-v, fac.id, target, dest, h1, h2, k, last) for dest in dests)
        tuples.sort()
        yield from tuples


def _candidate_key(s: Schedule):
    """Descending value, then a canonical structural tie-break."""
    return (-s.value,
            -1 if s.facility_id is None else s.facility_id,
            -1 if s.evse_index is None else s.evse_index,
            s.energy_slots, s.dest_region, s.t_plus)


def _rank_window(fid: int, fac, start: int, end: int,
                 prices: Snapshot) -> Tuple[int, List[int]]:
    """The window's EVSE, the one with the cheapest summed posted cable
    price over slots start..end, and the window's slots ranked by its
    posted energy plus generation price, ties to the earlier slot. A slot
    without generation capacity ranks as infinitely dear."""
    best_m, best_cost = 0, math.inf
    first, n = prices.cells.evse_cell(fid, 0, start), end - start + 1
    for m in range(fac.evse_count):
        cost = prices.run(CABLE, first + m * prices.cells.horizon, n, posted=True)
        if cost < best_cost - 1e-15:
            best_m, best_cost = m, cost
    priced = []
    for t in range(start, end + 1):
        if fac.solar[t - 1] + fac.grid_limit[t - 1] > 0:
            priced.append((prices.charge(fid, best_m, t), t))
        else:
            priced.append((math.inf, t))
    priced.sort()
    return best_m, [t for _, t in priced]


def _dearest(chosen: Sequence[int], fid: int, m: int,
             prices: Snapshot) -> int:
    """The chosen slot with the highest posted charging price, ties to the
    earlier slot."""
    worst_t, worst_p = chosen[0], -math.inf
    for t in chosen:
        p = prices.charge(fid, m, t)
        if p > worst_p + 1e-15:
            worst_t, worst_p = t, p
    return worst_t
