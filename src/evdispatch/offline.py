"""Offline reference solvers: a fast analytic upper bound and exact search.

Welfare decomposes as the sum of schedule values minus generation cost
minus the out-of-service penalty, and the penalty itself decomposes per
session over its service window. Dropping the (nonnegative) generation
cost and giving every session its best conceivable plan independently of
capacity therefore yields a true upper bound on any feasible assignment,
online or offline, priced or threshold-driven. For a given final energy
and hop count a plan is worth most at the best pickup of its hop ring, so
the bound reads one destination per ring (``Destinations.rings``). Each
walk over the rings stops at the first ring where the best pickup of that
ring or any farther one cannot beat the running maximum, so the bound is
the same float as a walk over every destination. ``upper_bound`` is
the one entry point; the bound of a single session is that of a
one-session stream. It needs no candidate sets: it already dominates
every plan a builder in this package makes.

The exact solver is a depth-first search over explicit per-session
candidate sets (typically captured from an online run) and is only
intended for small instances; it refuses search spaces past a hard limit.
Each option is compiled once, before the search, into its capacity
checks and its costed cells on the search's own ledger (``_compile``),
and the search walks those inline: the checks of ``ResourceLedger.fits``
and the gain of ``primal_increment``, the same floats in the same order,
with no call per option. A child is checked against the cut before its
loads are written, and a branch is undone by writing back the loads it
overwrote, never by subtracting, so no float residue is left behind.
It cuts a subtree when the welfare so far plus each remaining session's
best gain at the empty ledger cannot beat the best leaf. Generation cost
is convex in load (free solar, then the grid price) and the
out-of-service cost is linear, so a plan's ``primal_increment`` is
largest at the empty ledger, and a plan that does not fit the empty
ledger fits none: the bound is admissible, and tighter than one that
leaves the generation cost out.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import List, Mapping, Optional, Sequence, Tuple

from . import pricing
from .domain import (
    MONEY_ATOL, ResourceLedger, ScenarioConfig, Schedule, Session, check_config,
    check_sessions, facility_legs, plan_value, schedule_violations,
)
from .economics import primal_increment


def _phi_prefix(config: ScenarioConfig) -> List[float]:
    """prefix[t] = sum of the out-of-service penalty over slots 1..t."""
    return list(itertools.accumulate(config.out_of_service_penalty, initial=0.0))


def _span_penalty(prefix: List[float], lo: int, hi: int) -> float:
    return prefix[hi] - prefix[lo - 1]


def _net_value(schedule: Schedule, prefix: List[float]) -> float:
    """Schedule value minus its unavoidable out-of-service penalty."""
    return schedule.value - _span_penalty(prefix, schedule.t_minus, schedule.t_plus)


def _best_ring(config: ScenarioConfig, prefix: List[float],
               rings: Sequence[Tuple[int, int, int]], best: float,
               stored: float, h1: int, t0: int, t_leave: int) -> float:
    """The larger of ``best`` and the best net over ``rings``
    (``Destinations.rings``) of the plans that leave slot ``t_leave``
    with ``stored`` kWh, ``h1`` hops into a session that starts at ``t0``.

    Every term of a ring's net falls as its hop count grows: the final
    energy, the hop penalty and the service window, as floats too, since
    rounding is monotone. So the net at one ring's final energy, hops and
    window, read at the best pickup of that ring or any farther one
    (``ahead``), bounds every net from that ring on; the walk stops at the
    first ring where that bound cannot beat ``best``, or that lies past the
    horizon or the battery floor, as every farther ring does too."""
    T = config.horizon
    e_hop = config.per_hop_energy
    for h2, dest, ahead in rings:
        t_plus = t_leave + h2
        final = stored - h2 * e_hop
        if t_plus > T or final < -MONEY_ATOL:
            break
        span = _span_penalty(prefix, t0, t_plus)
        net = plan_value(config, final, ahead, h1 + h2) - span
        if net <= best:
            break
        if ahead != dest:
            net = plan_value(config, final, dest, h1 + h2) - span
        best = max(best, net)
    return best


def _session_bound(session: Session, config: ScenarioConfig, prefix: List[float],
                   targets: Tuple[float, ...]) -> float:
    """Best conceivable welfare contribution of one session, from the
    penalty prefix sums and the charge targets that ``upper_bound`` builds
    once per session stream.

    Covers every reachable (facility, charge target, destination) triple
    plus pure rebalances, charges energy nothing, and assumes the
    shortest possible service window, so every actual plan any solver in
    this package can pick is dominated, the candidates of an online run
    included. Charge targets cover the default multiples and a
    charge-to-full amount per facility. Net of the service window's
    penalty, a plan's value is still monotone in the pickup value, so
    each hop ring is read at its best destination, and each walk over the
    rings stops at the first ring that cannot win (``_best_ring``)."""
    t0 = session.t_minus
    if t0 >= config.horizon:
        return 0.0

    cap = config.battery_capacity
    energy0 = session.soc * cap
    destinations = config.destinations
    best = _best_ring(config, prefix, destinations[session.origin_region].rings, 0.0,
                      energy0, 0, t0, t0)

    for h1, fac in facility_legs(session.origin_region, energy0, t0, config):
        arrival_energy = energy0 - h1 * config.per_hop_energy
        headroom = cap - arrival_energy
        fac_targets = [x for x in targets if x <= headroom + MONEY_ATOL]
        if headroom > MONEY_ATOL and not any(abs(x - headroom) <= MONEY_ATOL
                                             for x in fac_targets):
            fac_targets.append(headroom)
        t_arr = t0 + h1
        rate = fac.evse_energy_limit
        rings = destinations[fac.region_id].rings
        for target in fac_targets:
            k, _ = pricing.charge_slots(target, rate)
            best = _best_ring(config, prefix, rings, best, arrival_energy + target,
                              h1, t0, t_arr + k - 1)
    return best


def upper_bound(sessions: Sequence[Session], config: ScenarioConfig) -> float:
    """Capacity-free welfare upper bound for a session stream: the sum of
    each session's best conceivable contribution, at least 0.0 each, so
    a one-session stream gives that session's bound.

    Raises ValueError on a config that ``validate`` or a stream that
    ``validate_sessions`` rejects.
    """
    check_config(config)
    check_sessions(sessions, config)
    prefix = _phi_prefix(config)
    targets = pricing.default_charge_targets(config)
    total = 0.0
    for session in sessions:
        total += _session_bound(session, config, prefix, targets)
    return total


# ---------------------------------------------------------------------------
# Exact search over explicit candidate sets
# ---------------------------------------------------------------------------


def _compile(schedule: Schedule, ledger: ResourceLedger) -> tuple:
    """One option of the exact search, read on ``ledger``'s load rows as
    (schedule, value, capacity checks, costed cells). A check is (row,
    cell, amount, cap + MONEY_ATOL), the limit ``ResourceLedger.fits``
    tests, in ``cells.demands`` order; a costed cell is (row, cell,
    amount, split, offset), what ``Shape.cost`` reads, in the order
    ``primal_increment`` sums them."""
    loads = ledger.loads
    demands = tuple(ledger.cells.demands(schedule))
    checks = tuple((loads[k], i, amount, shape.cap + MONEY_ATOL)
                   for k, i, amount, shape in demands)
    costed = tuple((loads[k], i, amount, shape.split, shape.offset)
                   for k, i, amount, shape in demands if k in pricing.COSTED)
    return schedule, schedule.value, checks, costed


@dataclass(frozen=True)
class OfflineResult:
    """Optimal assignment over the given candidate sets.

    ``assignment`` holds one entry per session in input order, None for
    the depot. ``welfare`` equals primal_objective of that assignment.
    """

    welfare: float
    assignment: Tuple[Optional[Schedule], ...]
    nodes_explored: int
    search_space: int


def search_space_size(sessions: Sequence[Session],
                      candidate_sets: Mapping[int, Sequence[Schedule]]) -> int:
    """Product over sessions of (candidate count + 1)."""
    return math.prod(len(candidate_sets.get(session.id, ())) + 1 for session in sessions)


def exact_offline(sessions: Sequence[Session], config: ScenarioConfig,
                  candidate_sets: Mapping[int, Sequence[Schedule]],
                  space_limit: int = 10_000_000) -> OfflineResult:
    """Exhaustive optimum over per-session candidate sets.

    Every session independently picks one of its candidates or the depot,
    subject to the shared capacities; the search maximizes total welfare
    exactly. Branch-and-bound: candidates whose value cannot beat their
    own service-window penalty are dropped (they can never help a maximum),
    and subtrees are cut with suffix sums of each session's best gain at
    the empty ledger, or 0 for the depot, which no later ledger raises.
    Options are tried in descending net value, ties in candidate order;
    that order fixes which optimum is recorded. A leaf must beat the best
    by more than 1e-12, a slack that also absorbs the last-bit rounding of
    ``cost(y0 + a) - cost(y0)`` at a loaded cell.

    Raises ValueError on a config that ``validate`` or a stream that
    ``validate_sessions`` rejects, when the raw search space exceeds
    ``space_limit``, and on a candidate that ``schedule_violations``
    rejects for its session.
    """
    check_config(config)
    check_sessions(sessions, config)
    size = search_space_size(sessions, candidate_sets)
    if size > space_limit:
        raise ValueError(
            f"refusing exact search: {size} assignments exceeds the limit "
            f"of {space_limit}; capture fewer candidates or fewer sessions")
    for session in sessions:
        for s in candidate_sets.get(session.id, ()):
            problems = schedule_violations(s, config, session)
            if problems:
                raise ValueError(f"invalid candidates: session {session.id}: "
                                 + "; ".join(problems))

    prefix = _phi_prefix(config)
    n = len(sessions)

    # per session: positive-net candidates in descending net order, equal
    # nets in candidate order (the sort is stable); a plan that cannot beat
    # its own window penalty never helps
    options: List[List[Tuple[float, Schedule]]] = []
    for session in sessions:
        netted = ((_net_value(s, prefix), s) for s in candidate_sets.get(session.id, ()))
        options.append(sorted((o for o in netted if o[0] > 0.0),
                              key=lambda o: o[0], reverse=True))

    # a session's best gain at the empty ledger, or the depot's 0, bounds
    # its gain at every ledger the search reaches
    ledger = ResourceLedger.zero(config)
    suffix = [0.0] * (n + 1)
    for j in range(n - 1, -1, -1):
        gains = [primal_increment(ledger, s) for _, s in options[j] if ledger.fits(s)]
        suffix[j] = suffix[j + 1] + max(gains + [0.0])

    # each option is checked, priced and applied at many nodes: compile it
    # once into its capacity checks and its costed cells on the ledger's
    # own load rows
    compiled = [[_compile(s, ledger) for _, s in opts] for opts in options]

    current: List[Optional[Schedule]] = [None] * n
    best_assignment: List[Optional[Schedule]] = [None] * n
    best_welfare = 0.0
    nodes = 1

    def search(j: int, acc: float) -> None:
        """Search below a node at depth j that the cut let through, with
        welfare ``acc`` so far: each fitting option, then the depot. A
        child is cut before its loads are written, and counts one node
        whether it is cut or not."""
        nonlocal best_welfare, nodes
        if j == n:
            best_welfare = acc
            best_assignment[:] = current
            return
        rest = suffix[j + 1]
        for schedule, value, checks, costed in compiled[j]:
            for row, i, amount, limit in checks:
                if row[i] + amount > limit:
                    break
            else:
                # primal_increment, with cost's branches read inline: the
                # fit above already rules out its INFEASIBLE branch
                gain = value
                for row, i, amount, split, offset in costed:
                    y0 = row[i]
                    y1 = y0 + amount
                    gain -= ((offset * (y1 - split) if y1 > split else 0.0)
                             - (offset * (y0 - split) if y0 > split else 0.0))
                nodes += 1
                child = acc + gain
                if child + rest <= best_welfare + 1e-12:
                    continue
                overwritten = []
                for row, i, amount, _ in checks:
                    y = row[i]
                    overwritten.append(y)
                    row[i] = y + amount
                current[j] = schedule
                search(j + 1, child)
                current[j] = None
                for (row, i, _, _), y in zip(checks, overwritten):
                    row[i] = y
        # depot branch
        nodes += 1
        if acc + rest > best_welfare + 1e-12:
            search(j + 1, acc)

    if suffix[0] > best_welfare + 1e-12:
        search(0, 0.0)
    return OfflineResult(welfare=best_welfare,
                         assignment=tuple(best_assignment),
                         nodes_explored=nodes,
                         search_space=size)
