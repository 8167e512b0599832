"""The online engine: evaluate utilities, pick the argmax, update state.

Sessions are consumed strictly in arrival order. For each one the engine
reads the candidates best value first, as the plain tuples that
``schedules`` builds, and prices them against the current ledger until
no candidate left can win or turn positive. It accepts the best
candidate iff its utility is strictly positive, making a ``Schedule`` of
that one alone, and otherwise sends the vehicle to the depot. Payments
are exact integrals of the price curves, so a schedule that would
overfill any resource meets prices above the family's U bound and can
never win; a hard capacity check backs that barrier anyway.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

from . import economics, pricing
from .domain import (
    CapacityError, DispatchDecision, PriceBreakdown, ResourceLedger, RunReport,
    ScenarioConfig, Schedule, Session, check_config, check_sessions, instance_hash,
)
from .pricing import (
    CABLE, DESTINATION, OUT_OF_SERVICE, Alphas, Snapshot,
)
from .schedules import (
    DEFAULT_POLICY, Candidate, GenerationPolicy, feasible_schedules, plan_of, ranked,
    rebalances, validate_policy,
)


@dataclass(slots=True)
class DispatcherState:
    """Mutable state of one online run, slotted: assigning a field it does
    not have raises ``AttributeError``.

    Its ``posted`` is the one owner of the run's loads and prices, a
    ``pricing.Snapshot`` that ``fresh`` builds on an empty ledger: it holds
    the run's only ledger (``posted.ledger``), its bounds and Psi, and
    every price, payment and running sum the run reads. Each plan is
    committed through it, and the commit returns the plan's dual
    increment, read at its prices too, so a copy made by
    ``dataclasses.replace`` with a ``Snapshot`` at other bounds prices
    everything at those. A caller that writes the
    ledger's loads in place between two ``dispatch`` calls builds a new
    ``Snapshot(posted.ledger, posted.bounds, posted.psi)``."""

    config: ScenarioConfig
    policy: GenerationPolicy
    alphas: Alphas
    posted: Snapshot = field(repr=False, compare=False)
    decisions: List[DispatchDecision] = field(default_factory=list)
    primal_trajectory: List[float] = field(default_factory=lambda: [0.0])
    dual_trajectory: List[float] = field(default_factory=lambda: [0.0])
    last_t: int = 1
    captured: Optional[Dict[int, List[Schedule]]] = None

    @classmethod
    def fresh(cls, config: ScenarioConfig, policy: GenerationPolicy = DEFAULT_POLICY,
              capture_candidates: bool = False) -> "DispatcherState":
        check_config(config)
        bad_policy = validate_policy(policy)
        if bad_policy:
            raise ValueError("invalid policy: " + "; ".join(bad_policy))
        psi_ = pricing.psi(config)
        bounds = pricing.estimate_bounds(config)
        return cls(config=config, policy=policy, alphas=pricing.alphas(bounds, psi_, config),
                   posted=Snapshot(ResourceLedger.zero(config), bounds, psi_),
                   captured={} if capture_candidates else None)


def utility_breakdown(plan: Candidate, prices: Snapshot, best: float = -math.inf,
                      ) -> Optional[Tuple[float, Tuple[float, ...]]]:
    """Utility of a candidate tuple (``schedules.Candidate``) at the ledger
    state ``prices`` was taken of, with its payments as plain floats,
    (destination, out_of_service, cable, energy, generation), the fields
    of ``PriceBreakdown`` in order; None if it is below ``best`` for
    certain. The utility is the value less their sum, added in the order
    ``PriceBreakdown.total`` adds them, so it is the same float as the
    breakdown ``dispatch`` builds of a winner's.

    The destination and out-of-service payments come first. Every payment
    is >= 0 and the sum adds those two first, so by monotone rounding the
    utility is at most value - (destination + out of service). When that
    is strictly below ``best``, the plan can neither beat nor tie a plan of
    utility ``best``, and its cable, energy and generation payments are not
    made.

    Plans touching a saturated slot are priced, not rejected; the
    integral payment runs past capacity, so their utility is nonpositive.
    Each family's terms are added in the order of ``Cells.demands``: energy
    and generation slot by slot, cable and out-of-service slots from the
    first.
    """
    neg_v, f, m, slots, dest, t1, t0, h1, _, _, t_leave = plan
    cells, value = prices.cells, -neg_v
    destination = prices.pay(DESTINATION, dest * cells.horizon + t1 - 1, 1)
    out_of_service = prices.run(OUT_OF_SERVICE, t0 - 1, t1 - t0 + 1)
    if value - (destination + out_of_service) < best:
        return None
    energy = generation = cable = 0.0
    if f >= 0:
        energy, generation = prices.draw(f, m, slots)
        # the cable is held from the arrival slot through t_leave
        t_arr = t0 + h1
        cable = prices.run(CABLE, cells.evse_cell(f, m, t_arr), t_leave - t_arr + 1)
    return (value - (destination + out_of_service + cable + energy + generation),
            (destination, out_of_service, cable, energy, generation))


def dispatch(session: Session, state: DispatcherState) -> DispatchDecision:
    """Process one session: argmax utility over candidates, or depot.

    Ties on utility go to the earlier destination arrival, then the lower
    candidate index. The candidates are built and priced from the run's
    snapshot (``state.posted``) as plain tuples, in descending order of
    value, and only the winner is made into a ``Schedule`` and committed
    through it. Every plan is out of service in its first slot and every
    payment is >= 0, so no utility exceeds its value less p0, the
    out-of-service payment of slot t_minus; and a plan of utility <= 0 is
    never accepted. So pricing stops at the first candidate whose value
    less p0 is below max(best utility so far, 0), as none from there on
    can win, tie or be accepted, and ``utility_breakdown`` skips the rest
    of any plan that its destination and out-of-service payments already
    put below that floor. A candidate's payments stay plain floats: only
    an accepted plan's become a ``PriceBreakdown``, and its dual increment
    is the one its commit walk returns. Raises on a session that
    ``validate_sessions`` rejects, on out-of-order arrivals and, should
    the price barrier ever fail, on a capacity breach.
    """
    check_sessions((session,), state.config)
    if session.t_minus < state.last_t:
        raise ValueError(f"session {session.id} arrives out of order "
                         f"({session.t_minus} < {state.last_t})")
    state.last_t = session.t_minus

    config, prices = state.config, state.posted
    candidates = ranked(rebalances(session, config),
                        feasible_schedules(session, config, prices, state.policy))
    made = None
    if state.captured is not None:
        candidates = list(candidates)
        made = state.captured[session.id] = [plan_of(session, config, plan)
                                             for plan in candidates]

    best = None
    best_key = None
    floor = 0.0  # max(best utility so far, 0)
    p0 = prices.pay(OUT_OF_SERVICE, session.t_minus - 1, 1)
    for idx, plan in enumerate(candidates):
        if -plan[0] - p0 < floor:
            break
        priced = utility_breakdown(plan, prices, floor)
        if priced is None:
            continue
        u, payments = priced
        key = (u, -plan[5], -idx)
        if best_key is None or key > best_key:
            best, best_key = (idx, plan, u, payments), key
            if u > floor:
                floor = u

    # a trajectory never holds -0.0, so adding 0.0 for the depot keeps it
    d_primal = d_dual = 0.0
    if best is None or best[2] <= 0.0:
        decision = DispatchDecision(session_id=session.id, schedule=None,
                                    utility=0.0)
    else:
        idx, plan, u, payments = best
        schedule = made[idx] if made is not None else plan_of(session, config, plan)
        if not prices.ledger.fits(schedule):
            raise CapacityError(
                f"price barrier failed: positive-utility schedule for session "
                f"{session.id} breaches capacity")
        d_primal = economics.primal_increment(prices.ledger, schedule)
        d_dual = prices.commit(schedule, u)
        decision = DispatchDecision(session_id=session.id, schedule=schedule,
                                    utility=u, breakdown=PriceBreakdown(*payments))
    state.decisions.append(decision)
    state.primal_trajectory.append(state.primal_trajectory[-1] + d_primal)
    state.dual_trajectory.append(state.dual_trajectory[-1] + d_dual)
    return decision


def peak_utilization(ledger: ResourceLedger) -> Dict[str, float]:
    """Max fraction of capacity reached per resource family."""
    return {name: max((y / s.cap for y, s in zip(loads, shapes) if s.cap > 0), default=0.0)
            for name, loads, shapes in zip(pricing.NAMES, ledger.loads, ledger.cells.shapes)}


def run_online(sessions: Sequence[Session], config: ScenarioConfig,
               policy: GenerationPolicy = DEFAULT_POLICY,
               capture_candidates: bool = False,
               ) -> Union[RunReport, Tuple[RunReport, Dict[int, List[Schedule]]]]:
    """Run the full online heuristic over an ordered session stream.

    With capture_candidates=True also returns each session's whole
    candidate set, the ones left unpriced included, for offline comparison
    on the same action space.
    """
    state = DispatcherState.fresh(config, policy,
                                  capture_candidates=capture_candidates)
    check_sessions(sessions, config)
    for session in sessions:
        dispatch(session, state)

    report = RunReport(
        algorithm="online",
        instance_hash=instance_hash(config, sessions),
        psi=state.posted.psi,
        bounds=state.posted.bounds,
        alphas=state.alphas,
        decisions=tuple(state.decisions),
        primal_trajectory=tuple(state.primal_trajectory),
        dual_trajectory=tuple(state.dual_trajectory),
        welfare=state.primal_trajectory[-1],
        peak_utilization=peak_utilization(state.posted.ledger),
    )
    if capture_candidates:
        return report, state.captured
    return report
