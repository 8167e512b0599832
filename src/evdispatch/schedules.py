"""Candidate schedule generation for one between-ride session.

The dispatcher never enumerates every conceivable plan. For each session
it considers a bounded family of tuples (facility, charge target,
destination, start offset) plus pure rebalances, ranks them by analytic
value, and yields each candidate as a plain tuple (``Candidate``), never
as a ``Schedule``. A charge target is any multiple of the config's charge
increment up to the battery's headroom, drawn at the facility's
fair-share rate; the only knob a caller sets is the cap on charging
candidates. Charging slots inside a tuple's dwell window are placed greedily on the cheapest
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
facility (``rebalances``), valued one batch at a time as it is read.
``heapq.merge`` is the one merge rule: it merges the charging streams by
their tuples and, in ``ranked``, the rebalances with the charging plans,
into the order of sorting every candidate tuple. A candidate leads with
its order key, so no merge or sort takes a key function. ``dispatch``
reads that order only as far as a candidate can still win, prices the
tuples, and makes a ``Schedule`` only of the winner.

A charging tuple's windows all start at its facility arrival slot and end
up to ``MAX_START_OFFSET`` slots apart, at most at ``T - h2``. Each
(facility, target) stream keeps one list of its distinct windows (end,
EVSE, energy slots, last charging slot), in ascending end, first
occurrence only, and extends it only as far as the current tuple's last
window end; the tuple makes one candidate from each entry up to that
end. A stream picks the EVSE and slots of each of its windows once.

The charging build reads posted cable and charging prices from the
caller's ``pricing.Snapshot``. An online run keeps one snapshot for the
whole run, the one object that holds its ledger, bounds, Psi and prices;
``dispatch`` prices the candidates from the same snapshot and commits
through it.

Every plan, a candidate's (``plan_of``) and each of ``baselines``, is made
by ``make_plan``, which works out a plan's arrival slot, cable window,
final charge and value.
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
from .pricing import CABLE, GENERATION, Snapshot, charge_slots

#: How many nearest facilities a session considers.
MAX_CANDIDATE_FACILITIES = 8
#: Latest charging start, in slots after facility arrival. Offset w widens
#: the dwell window to k + w slots, within which the k charging slots are
#: chosen greedily by posted price.
MAX_START_OFFSET = 4

#: A candidate plan as a plain tuple. Its first six fields, (-value,
#: facility or -1, EVSE or -1, energy slots, destination, t_plus), are the
#: candidate order: descending value, then a canonical structural
#: tie-break, so plain tuple comparison orders candidates. The rest,
#: (t_minus, h1, h2, stored energy, t_leave), are what pricing and
#: ``plan_of`` read: the hops before and after the facility, the energy
#: on leaving it (or the origin) and the slot of leaving.
Candidate = Tuple[float, int, int, tuple, int, int, int, int, int, float, int]


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
        ``rebalances`` values each batch of them only when it is read.
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
                       policy: GenerationPolicy = DEFAULT_POLICY) -> List[Candidate]:
    """Charging candidates for a session against the ledger state that
    ``prices`` was taken of, as ``Candidate`` tuples.

    Deterministic in its inputs. Sessions arriving in the final slot get
    no candidates: there is no slot left to complete any move. Charging
    plans are capped at max_candidates_total, best analytic value first,
    and sorted into candidate order. The pure rebalances come from
    ``rebalances``; ``ranked`` merges the two into the session's whole
    candidate list, and ``plan_of`` makes the ``Schedule`` of any one.
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
    fixed = {}  # (fid, target) -> _Stream
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
            fixed[fac.id, target] = _Stream(fac, h1, t_arr, rate, k, last, stored)
            streams.append(chain.from_iterable(_batches(
                config, fac.region_id, h1, stored, T - (t_arr + k - 1), (fac.id, target))))

    # ---- build charging tuples, best value first, until the cap ----
    # A window runs from the facility arrival slot t_arr to its end slot.
    # Each start offset widens the window by one slot, up to slot T - h2;
    # _batches kept h2 <= T - (t_arr + k - 1), so the shortest window
    # holds k slots. A plan recurs when the cheapest EVSE flips and flips
    # back, and only inside one tuple's windows: a stream yields each
    # destination once, and two targets never draw the same energy slots.
    # So each stream keeps its distinct windows, first occurrence only, in
    # ascending end, extended up to the last window end of the tuple at
    # hand; the tuple makes one candidate from each of them up to that end.
    out: List[Candidate] = []
    for neg_v, fid, target, dest, h2 in heapq.merge(*streams):
        stream = fixed[fid, target]
        top = min(T - h2, stream.lo + MAX_START_OFFSET)
        stream.extend(top, prices)
        h1, stored = stream.h1, stream.stored
        for end, evse, slots, t_leave in stream.windows:
            if end > top:
                break
            out.append((neg_v, fid, evse, slots, dest, t_leave + h2, t0, h1, h2, stored,
                        t_leave))
            if len(out) >= policy.max_candidates_total:
                break
        if len(out) >= policy.max_candidates_total:
            break
    out.sort()
    return out


class _Stream:
    """One (facility, target) charging stream of a session: what its
    tuples share, and its distinct windows so far."""

    __slots__ = ("fac", "h1", "t_arr", "rate", "k", "last", "stored", "lo",
                 "windows", "next_end")

    def __init__(self, fac, h1: int, t_arr: int, rate: float, k: int, last: float,
                 stored: float) -> None:
        self.fac, self.h1, self.t_arr, self.rate = fac, h1, t_arr, rate
        self.k, self.last, self.stored = k, last, stored
        self.lo = self.next_end = t_arr + k - 1  # the shortest window's end
        self.windows: List[tuple] = []

    def extend(self, top: int, prices: Snapshot) -> None:
        """Add the stream's distinct windows that end by slot ``top``, each
        as (end, EVSE, energy slots, last charging slot), in ascending end,
        first occurrence only. Each window end is picked once."""
        fid, k, windows = self.fac.id, self.k, self.windows
        for end in range(self.next_end, top + 1):
            evse, chosen, dearest = _pick(fid, self.fac, self.t_arr, end, k, prices)
            # full rate on the chosen slots, the last slot's energy on the dearest
            slots = tuple((t, self.last if t == dearest else self.rate) for t in chosen)
            if all((evse, slots) != window[1:3] for window in windows):
                windows.append((end, evse, slots, chosen[-1]))
        self.next_end = max(self.next_end, top + 1)


def rebalances(session: Session, config: ScenarioConfig) -> Iterator[Candidate]:
    """The session's pure rebalances as candidates, in candidate order:
    the origin's destination batches in turn, each valued and sorted only
    when the one before it is used up. Nothing for a session in the final
    slot, as in ``feasible_schedules``."""
    T, t0 = config.horizon, session.t_minus
    if t0 >= T:
        return
    energy0 = session.soc * config.battery_capacity
    # the batches with no hop before the origin and no charge
    for batch in _batches(config, session.origin_region, 0, energy0, T - t0, ()):
        for neg_v, dest, h2 in batch:
            yield (neg_v, -1, -1, (), dest, t0 + h2, t0, 0, h2, energy0, t0)


def ranked(rebalances: Iterable[Candidate], charges: Iterable[Candidate]
           ) -> Iterator[Candidate]:
    """Pure rebalances and charging plans, each in candidate order, merged
    into that order by ``heapq.merge`` on the plain tuples: at equal
    values the rebalance comes first, as its facility, -1, sorts it. The
    merge reads one candidate ahead in each input, so a batch of
    rebalances is still valued only when it is reached."""
    return heapq.merge(rebalances, charges)


def plan_of(session: Session, config: ScenarioConfig, candidate: Candidate) -> Schedule:
    """The ``Schedule`` of one of the session's candidates, made by
    ``make_plan``."""
    neg_v, fid, evse, slots, dest, _, _, h1, h2, stored, t_leave = candidate
    return make_plan(session, config, dest, h2, stored, t_leave,
                     None if fid < 0 else (fid, evse, h1, slots), -neg_v)


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
    that EVSE, ties to the earlier slot; a slot whose generation cell has
    no capacity ranks as infinitely dear, as the snapshot posts no
    generation price there. The dearest is the chosen slot with the
    highest posted charging price, ties to the earlier slot."""
    cells, n = prices.cells, end - start + 1
    best_m, best_cost = 0, math.inf
    loads = prices.loads[CABLE]
    for m in range(fac.evse_count):
        cell = cells.evse_cell(fid, m, start)
        cost = prices.run(None, cell, n)  # the posted cable prices
        if cost < best_cost - 1e-15:
            best_m, best_cost = m, cost
        if m + 1 < fac.evse_count and not any(loads[cell:cell + n]):
            break
    charges, generation = prices.charges, cells.shapes[GENERATION]
    base, g = cells.evse_cell(fid, best_m, 0), cells.facility_cell(fid, 0)
    priced = []
    for t in range(start, end + 1):
        if generation[g + t].cap > 0:
            priced.append((charges[base + t], t))
        else:
            priced.append((math.inf, t))
    priced.sort()
    chosen = sorted(t for _, t in priced[:k])
    dearest, worst = chosen[0], -math.inf
    for t in chosen:
        p = charges[base + t]
        if p > worst + 1e-15:
            dearest, worst = t, p
    return best_m, chosen, dearest
