"""Candidate schedule generation for one between-ride session.

The dispatcher never enumerates every conceivable plan. For each session
it considers a bounded family of tuples (facility, charge target,
destination, start offset) plus pure rebalances, ranks them by analytic
value, and only builds the candidates it reads into full schedules. A charge
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
target) pair is a stream of tuples ``(-v, facility, target, dest, h2)``
that values and sorts one batch at a time (``_batches``); the rest of a
stream is fixed and kept once, keyed by (facility, target). The build
stops at the cap: the order is exactly that of sorting every tuple, and
only the batches that the cap reaches are ever valued.

The pure rebalances are one more such stream, from the origin with no
facility (``rebalances``), and a rebalance is made only when it is read.
``heapq.merge`` is the one merge rule: it merges the charging streams by
their tuples and, in ``ranked``, the rebalances with the charging plans by
value, into the order of sorting every candidate by ``_candidate_key``.
``dispatch`` reads that order only as far as a candidate can still win.
Rebalances are most of a session's candidates and are rarely chosen, so
most of them are never built.

The charging build reads posted prices from the ``pricing.Snapshot`` its
caller took of the ledger; ``dispatch`` prices the candidates from the
same one.

Every plan, here and in ``baselines``, is made by ``make_plan``, which
works out a plan's arrival slot, cable window, final charge and value.
"""

from __future__ import annotations

import heapq
import math
import numbers
from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Iterator, List, Optional, Tuple

from . import pricing
from .domain import (
    MONEY_ATOL, ScenarioConfig, Schedule, Session, facility_legs, plan_value,
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
        Pure rebalances are never capped: they are the fallback moves.
        They are not free to build: making and sorting all of them took
        about a seventh of a ``full`` session's dispatch, so
        ``rebalances`` makes each one only when it is read.
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
    """Charging candidates for a session against the ledger state that
    ``prices`` was taken of.

    Deterministic in its inputs. Sessions arriving in the final slot get
    no candidates: there is no slot left to complete any move. Charging
    plans are capped at max_candidates_total, best analytic value first,
    and sorted by descending value with a canonical tie-break
    (``_candidate_key``). The pure rebalances come from ``rebalances``;
    ``ranked`` merges the two into the session's whole candidate list.
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

    # ---- one stream of charging tuples per (facility, target) ----
    # Each stream yields (-v, fid, target, dest, h2) in ascending order.
    # The first four fields are unique across the streams, so the merge
    # never compares h2 and its order is that of sorting every tuple.
    streams = []
    fixed = {}  # (fid, target) -> (fac, h1, t_arr, rate, k, last, stored)
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
            stored = arrival_energy + target
            fixed[fac.id, target] = (fac, h1, t_arr, rate, k, last, stored)
            streams.append(chain.from_iterable(_batches(
                config, fac.region_id, h1, stored, T - (t_arr + k - 1), (fac.id, target))))

    # ---- build charging tuples, best value first, until the cap ----
    # A window runs from the facility arrival slot t_arr to its end slot,
    # so a pick depends on (facility, window end, k) only. Each start
    # offset widens the window by one slot, up to slot T - h2; _batches
    # kept h2 <= T - (t_arr + k - 1), so the shortest window holds k slots.
    picks = {}  # (facility, window end, k) -> (EVSE, chosen slots, dearest)
    seen = set()
    out: List[Schedule] = []
    for neg_v, fid, target, dest, h2 in heapq.merge(*streams):
        fac, h1, t_arr, rate, k, last, stored = fixed[fid, target]
        lo = t_arr + k - 1
        for hi in range(lo, min(T - h2, lo + MAX_START_OFFSET) + 1):
            if len(out) >= policy.max_candidates_total:
                break
            pick = picks.get((fid, hi, k))
            if pick is None:
                pick = picks[fid, hi, k] = _pick(fid, fac, t_arr, hi, k, prices)
            evse, chosen, dearest = pick
            # full rate on the chosen slots, the last slot's energy on the dearest
            energy_slots = tuple((t, last if t == dearest else rate) for t in chosen)
            # the energy slots fix the last charging slot, and dest fixes h2;
            # a plan recurs when the cheapest EVSE flips and flips back
            key = (fid, evse, energy_slots, dest)
            if key in seen:
                continue
            seen.add(key)
            out.append(make_plan(session, config, dest, h2, stored, chosen[-1],
                                 (fid, evse, h1, energy_slots), value=-neg_v))
        if len(out) >= policy.max_candidates_total:
            break
    out.sort(key=_candidate_key)
    return out


def rebalances(session: Session, config: ScenarioConfig) -> Iterator[Schedule]:
    """The session's pure rebalances, sorted by ``_candidate_key``: the
    origin's destination batches in turn, each valued and sorted only when
    the one before it is used up, and each plan made only when it is read.
    Nothing for a session in the final slot, as in ``feasible_schedules``."""
    T, t0 = config.horizon, session.t_minus
    if t0 >= T:
        return
    energy0 = session.soc * config.battery_capacity
    # the batches with no hop before the origin and no charge
    for batch in _batches(config, session.origin_region, 0, energy0, T - t0, ()):
        for neg_v, dest, h2 in batch:
            yield make_plan(session, config, dest, h2, energy0, t0, value=-neg_v)


def ranked(rebalances: Iterable[Schedule], charges: Iterable[Schedule]) -> Iterator[Schedule]:
    """Pure rebalances and charging plans, each sorted by ``_candidate_key``,
    merged into that order by ``heapq.merge`` on value alone. The merge is
    stable, so at equal values the rebalance comes first, as its facility,
    -1, sorts it; and it reads one plan ahead in each input, so a
    rebalance is still made only when it is read."""
    return heapq.merge(rebalances, charges, key=lambda plan: -plan.value)


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


def _batches(config: ScenarioConfig, region: int, h1: int, stored: float, reach: int,
             head: tuple) -> Iterator[List[tuple]]:
    """The tuples ``(-v, *head, dest, h2)`` of one stream, batch by batch,
    best first: each of the destination batches of ``region`` is valued
    and sorted only when the one before it has been taken. ``h1`` is the
    hop count before ``region``, ``stored`` the energy on leaving it, and
    ``reach`` the farthest hop count the horizon allows. ``head`` is what
    tells the stream apart in a merge: ``(facility, target)`` for a
    charging stream, ``()`` for the rebalances. The destinations of a
    group share its value bit for bit."""
    e_hop = config.per_hop_energy
    for batch in config.destinations[region].batches:
        tuples = []
        for h2, dests in batch:
            final = stored - h2 * e_hop
            if h2 > reach or final < -MONEY_ATOL:
                continue
            v = plan_value(config, final, dests[0], h1 + h2)
            tuples.extend((-v, *head, dest, h2) for dest in dests)
        tuples.sort()
        yield tuples


def _candidate_key(s: Schedule):
    """Descending value, then a canonical structural tie-break."""
    return (-s.value,
            -1 if s.facility_id is None else s.facility_id,
            -1 if s.evse_index is None else s.evse_index,
            s.energy_slots, s.dest_region, s.t_plus)


def _pick(fid: int, fac, start: int, end: int, k: int,
          prices: Snapshot) -> Tuple[int, List[int], int]:
    """The EVSE, charging slots and dearest slot of a k-slot charge in
    the window of slots start..end.

    The EVSE is the one with the cheapest summed posted cable price over
    the window, ties to the lower index. The facility's EVSEs share one
    cable shape and posted prices rise with load, so an EVSE with no
    cable load over the window sums the lowest prices, and no later EVSE
    can beat it: the scan stops there. The chosen slots, in slot order,
    are the k with the cheapest posted energy plus generation price on
    that EVSE, ties to the earlier slot; a slot without generation
    capacity ranks as infinitely dear. The dearest is the chosen slot
    with the highest posted charging price, ties to the earlier slot."""
    best_m, best_cost = 0, math.inf
    first, n = prices.cells.evse_cell(fid, 0, start), end - start + 1
    loads = prices.loads[CABLE]
    for m in range(fac.evse_count):
        cell = first + m * prices.cells.horizon
        cost = prices.run(CABLE, cell, n, posted=True)
        if cost < best_cost - 1e-15:
            best_m, best_cost = m, cost
        if m + 1 < fac.evse_count and not any(loads[cell:cell + n]):
            break
    priced = []
    for t in range(start, end + 1):
        if fac.solar[t - 1] + fac.grid_limit[t - 1] > 0:
            priced.append((prices.charge(fid, best_m, t), t))
        else:
            priced.append((math.inf, t))
    priced.sort()
    chosen = sorted(t for _, t in priced[:k])
    dearest, worst = chosen[0], -math.inf
    for t in chosen:
        p = prices.charge(fid, best_m, t)
        if p > worst + 1e-15:
            dearest, worst = t, p
    return best_m, chosen, dearest
