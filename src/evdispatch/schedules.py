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
prices the rebalances first, each stream only as far as a candidate can
still win, and makes a ``Schedule`` only of the winner. It passes the
build the floor they leave, the best rebalance utility or 0, and the
build returns no plan when no plan of any (facility, target) stream can
reach it: a bound per stream, exact by monotone rounding
(``feasible_schedules``), read from the stream's first tuple, the
out-of-service payments through its shortest window and its windows'
payments. On a congested day that is most sessions. A capturing run
builds every candidate and prices them in the merged order (``ranked``).

A charging tuple's windows all start at its facility arrival slot and end
up to ``MAX_START_OFFSET`` slots apart, at most at ``T - h2``. Each
(facility, arrival slot, target) has one list of its distinct windows
(end, EVSE, energy slots, last charging slot), in ascending end, first
occurrence only, extended only as far as a tuple's last window end; the
tuple makes one candidate from each entry up to that end. The list keeps,
per EVSE, running sums of the posted cable prices from the arrival slot.
A window's plans share their cable, energy and generation payments,
which ``Snapshot.window_payments`` makes on first asking, for the
build's bound or for ``dispatcher.utility_breakdown``, and keeps by
(arrival slot, EVSE, energy slots), what names the window at its
facility. Lists and payments read only the facility's cable, energy and
generation cells, so the snapshot keeps both in one memo per facility
(``Snapshot.windows``) until a charging commit there: each window end is
picked once, and each window paid once, between two such commits. An
online run keeps one snapshot, the one object that holds its ledger,
bounds, Psi and prices; ``dispatch`` builds and prices the candidates
from it and commits through it.

Every plan, a candidate's (``plan_of``) and each of ``baselines``, is made
by ``make_plan``, which works out a plan's arrival slot, cable window,
final charge and value.
"""

from __future__ import annotations

import heapq
import math
import numbers
from dataclasses import dataclass
from itertools import accumulate, chain
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

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
                       policy: GenerationPolicy = DEFAULT_POLICY,
                       floor: float = -math.inf) -> List[Candidate]:
    """Charging candidates for a session against the ledger state that
    ``prices`` was taken of, as ``Candidate`` tuples; [] if no charging
    plan's utility can reach ``floor``.

    Deterministic in its inputs. Sessions arriving in the final slot get
    no candidates: there is no slot left to complete any move. Charging
    plans are capped at max_candidates_total, best analytic value first,
    and sorted into candidate order. The pure rebalances come from
    ``rebalances``; ``ranked`` merges the two into the session's whole
    candidate list, and ``plan_of`` makes the ``Schedule`` of any one.

    Every payment is >= 0, and ``dispatcher.utility_breakdown`` adds a
    plan's destination, out-of-service, cable, energy and generation
    payments left to right and subtracts the sum from its value. So by
    monotone rounding, no plan of a (facility, target) stream has a
    utility above the value of the stream's first tuple less the sum of
    the out-of-service run from t_minus through the stream's shortest
    window end (``_Windows.lo``), which every plan of it is out of service
    for, and the cable, energy and generation payments of the window the
    plan charges in (``Snapshot.window_payments``), added in that order.
    The streams are bounded best first tuple first, the out-of-service
    run alone first, as it needs no pick, then window by window up to the
    latest end any plan of the stream can have, picking each window end
    only when it is reached. At the first window whose bound reaches
    ``floor`` everything is built as without one; when none does, no plan
    can reach ``floor``, and none is built.
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
    # The first four fields are unique across the streams, so neither the
    # merge nor the sort of the first tuples ever compares h2 or a stream,
    # and the merge's order is that of sorting every tuple.
    streams = []
    fixed = {}  # (fid, target) -> (_Windows, h1, stored energy)
    targets = pricing.default_charge_targets(config)
    legs = facility_legs(session.origin_region, energy0, t0, config)
    for h1, fac in legs[:MAX_CANDIDATE_FACILITIES]:
        arrival_energy = energy0 - h1 * e_hop
        headroom = cap - arrival_energy
        t_arr = t0 + h1
        rate = pricing.effective_charge_rate(fac)
        kept = prices.windows(fac.id)
        for target in targets:
            if target > headroom + MONEY_ATOL:
                break
            k, last = charge_slots(target, rate)
            if t_arr + k - 1 > T:
                continue
            windows = kept.get((t_arr, target))
            if windows is None:
                windows = kept[t_arr, target] = _Windows(fac, t_arr, rate, k, last)
            stored = arrival_energy + target
            fixed[fac.id, target] = (windows, h1, stored)
            streams.append(chain.from_iterable(_batches(
                config, fac.region_id, h1, stored, T - (t_arr + k - 1), (fac.id, target))))

    # ---- bound the streams, best first tuple first, unless unfloored ----
    # The merge reads each stream's first tuple anyway.
    if floor > -math.inf:
        firsts = sorted((first, stream) for stream in streams
                        if (first := next(stream, None)) is not None)
        if not any(_may_reach(first, fixed[first[1:3]][0], t0, T, floor, prices)
                   for first, _ in firsts):
            return []
        streams = [chain((first,), rest) for first, rest in firsts]

    # ---- build charging tuples, best value first, until the cap ----
    # A window runs from the facility arrival slot t_arr to its end slot.
    # Each start offset widens the window by one slot, up to slot T - h2;
    # _batches kept h2 <= T - (t_arr + k - 1), so the shortest window
    # holds k slots. A plan recurs when the cheapest EVSE flips and flips
    # back, and only inside one tuple's windows: a stream yields each
    # destination once, and two targets never draw the same energy slots.
    # So each (facility, arrival slot, target) keeps its distinct windows,
    # first occurrence only, in ascending end, extended up to the last
    # window end of the tuple at hand; the tuple makes one candidate from
    # each of them up to that end. Entries past that end, which an earlier
    # session may have added, change none before it.
    out: List[Candidate] = []
    for neg_v, fid, target, dest, h2 in heapq.merge(*streams):
        windows, h1, stored = fixed[fid, target]
        top = min(T - h2, windows.lo + MAX_START_OFFSET)
        windows.extend(top, prices)
        for end, evse, slots, t_leave in windows.picked:
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


def _may_reach(first: tuple, windows: "_Windows", t0: int, T: int, floor: float,
               prices: Snapshot) -> bool:
    """Whether a plan of the charging stream whose first tuple is ``first``
    and whose windows ``windows`` holds may reach utility ``floor``, by the
    bound in ``feasible_schedules``."""
    value = -first[0]
    out_of_service = prices.run(t0 - 1, windows.lo - t0 + 1)
    if value - out_of_service < floor:
        return False
    f, t_arr = windows.fac.id, windows.t_arr
    for _, m, slots, t_leave in windows.upto(min(T, windows.lo + MAX_START_OFFSET), prices):
        cable, energy, generation = prices.window_payments(f, t_arr, m, slots, t_leave)
        if value - (out_of_service + cable + energy + generation) >= floor:
            return True
    return False


class _Windows:
    """The distinct windows of charging ``k`` slots at one facility from
    arrival slot ``t_arr``, picked so far: what every session arriving
    there then with one target shares, kept in the snapshot's
    ``windows`` memo of the facility until a charging commit there, with
    each EVSE's running sums of posted cable prices from ``t_arr``."""

    __slots__ = ("fac", "t_arr", "rate", "k", "last", "lo", "picked", "next_end", "sums")

    def __init__(self, fac, t_arr: int, rate: float, k: int, last: float) -> None:
        self.fac, self.t_arr, self.rate, self.k, self.last = fac, t_arr, rate, k, last
        self.lo = self.next_end = t_arr + k - 1  # the shortest window's end
        self.picked: List[tuple] = []
        self.sums: Dict[int, List[float]] = {}

    def extend(self, top: int, prices: Snapshot) -> None:
        """Add the distinct windows that end by slot ``top``, each as (end,
        EVSE, energy slots, last charging slot), in ascending end, first
        occurrence only. Each window end is picked once."""
        picked = self.picked
        for end in range(self.next_end, top + 1):
            evse, chosen, dearest = _pick(self, end, prices)
            # full rate on the chosen slots, the last slot's energy on the dearest
            slots = tuple((t, self.last if t == dearest else self.rate) for t in chosen)
            if all((evse, slots) != window[1:3] for window in picked):
                picked.append((end, evse, slots, chosen[-1]))
        self.next_end = max(self.next_end, top + 1)

    def upto(self, top: int, prices: Snapshot) -> Iterator[tuple]:
        """The distinct windows that end by slot ``top``, as ``picked``
        holds them, picking each window end only when every window before
        it has been read."""
        picked, i = self.picked, 0
        while True:
            if i < len(picked):
                if picked[i][0] > top:
                    return
                yield picked[i]
                i += 1
            elif self.next_end <= top:
                self.extend(self.next_end, prices)
            else:
                return


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


def _pick(windows: _Windows, end: int, prices: Snapshot) -> Tuple[int, List[int], int]:
    """The EVSE, charging slots and dearest slot of a k-slot charge in
    the window of slots ``windows.t_arr``..end.

    The EVSE is the one with the cheapest summed posted cable price over
    the window (``_Windows.sums``), ties to the lower index. The
    facility's EVSEs share one cable shape and posted prices rise with
    load, so an EVSE with no cable load over the window sums the lowest
    prices, and no later EVSE can beat it: the scan stops there. The
    chosen slots, in slot order, are the k with the cheapest posted
    energy plus generation price on that EVSE, ties to the earlier slot;
    a slot whose generation cell has no capacity ranks as infinitely
    dear, as the snapshot posts no generation price there. The dearest is
    the chosen slot with the highest posted charging price, ties to the
    earlier slot."""
    fac, start, k = windows.fac, windows.t_arr, windows.k
    fid, cells, n = fac.id, prices.cells, end - start + 1
    best_m, best_cost = 0, math.inf
    loads, cables = prices.loads[CABLE], prices.cables
    for m in range(fac.evse_count):
        cell = cells.evse_cell(fid, m, start)
        sums = windows.sums.get(m)
        if sums is None or len(sums) < n:
            # left to right, the floats of a walk that adds from 0.0
            sums = windows.sums[m] = list(accumulate(cables[cell:cell + n]))
        if sums[n - 1] < best_cost - 1e-15:
            best_m, best_cost = m, sums[n - 1]
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
