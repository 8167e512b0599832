"""The online engine: evaluate utilities, pick the argmax, update state.

Sessions are consumed strictly in arrival order. For each one the engine
prices every candidate schedule against the current ledger, accepts the
best candidate iff its utility is strictly positive, and otherwise sends
the vehicle to the depot. Payments are exact integrals of the price
curves, so a schedule that would overfill any resource meets prices above
the family's U bound and can never win; a hard capacity check backs that
barrier anyway.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

from . import economics, pricing
from .constants import MONEY_ATOL
from .domain import (
    CapacityError, DispatchDecision, PriceBreakdown, ResourceLedger, RunReport,
    ScenarioConfig, Schedule, Session, instance_hash, validate,
)
from .pricing import Alphas, PriceBounds
from .schedules import (
    DEFAULT_POLICY, GenerationPolicy, feasible_schedules, validate_policy,
)


@dataclass
class DispatcherState:
    """Mutable state of one online run.

    ``payments`` memoises the payment terms of ``utility_breakdown``:
    prices stay posted until a session commits, so its candidates keep
    integrating the same terms. A key is the family; the cell that the
    payment's parameters come from (a destination (d, t+), an
    out-of-service slot t, a facility for cables and EVSE energy, a
    (facility, t) for generation); the load read from the ledger; and,
    for energy and generation, the amount, as other families demand one
    unit. Since the load is in the key, an entry is never read against
    another load; config and bounds are fixed for the run. ``dispatch``
    empties the memo when it commits, so that it holds the payments of
    one ledger state at a time.
    """

    config: ScenarioConfig
    policy: GenerationPolicy
    bounds: PriceBounds
    psi: int
    alphas: Alphas
    ledger: ResourceLedger
    decisions: List[DispatchDecision] = field(default_factory=list)
    primal_trajectory: List[float] = field(default_factory=lambda: [0.0])
    dual_trajectory: List[float] = field(default_factory=lambda: [0.0])
    utilities: List[float] = field(default_factory=list)
    last_t: int = 1
    captured: Optional[Dict[int, List[Schedule]]] = None
    payments: Dict[tuple, float] = field(default_factory=dict, init=False,
                                         repr=False, compare=False)

    @classmethod
    def fresh(cls, config: ScenarioConfig, policy: GenerationPolicy = DEFAULT_POLICY,
              bounds: Optional[PriceBounds] = None,
              capture_candidates: bool = False) -> "DispatcherState":
        problems = validate(config)
        if problems:
            raise ValueError("invalid config: " + "; ".join(str(p) for p in problems[:5]))
        bad_policy = validate_policy(policy, config)
        if bad_policy:
            raise ValueError("invalid policy: " + "; ".join(bad_policy))
        psi_ = pricing.psi(config)
        if bounds is None:
            bounds = pricing.estimate_bounds(config, policy.charge_targets,
                                             policy.charge_rate)
        else:
            bad = pricing.validate_bounds(bounds, config)
            if bad:
                raise ValueError("invalid bounds: " + "; ".join(bad))
        return cls(config=config, policy=policy, bounds=bounds, psi=psi_,
                   alphas=pricing.alphas(bounds, psi_, config),
                   ledger=ResourceLedger.zero(config),
                   captured={} if capture_candidates else None)


def utility_breakdown(schedule: Schedule,
                      state: DispatcherState) -> Tuple[float, PriceBreakdown]:
    """Utility of a schedule at the current ledger, with per-family payments.

    Schedules touching a saturated slot are priced, not rejected; the
    integral payment runs past capacity, so their utility is nonpositive.
    Each payment term comes from ``state.payments`` when that cell was
    already priced at the same load and amount; the terms are added in
    the same order either way, so the result does not depend on the memo.
    """
    config = state.config
    ledger = state.ledger
    bounds = state.bounds
    psi_ = state.psi
    memo = state.payments

    d, tp = schedule.dest_region, schedule.t_plus
    y = ledger.y_d[d][tp - 1]
    key = ("destination", d, tp, y)
    pay_dest = memo.get(key)
    if pay_dest is None:
        pay_dest = memo[key] = pricing.destination_payment(
            y, y + 1, config.regions[d].vehicle_limit[tp - 1], bounds, psi_)

    pay_oos = 0.0
    for t in schedule.out_of_service_slots:
        y = ledger.y_o[t - 1]
        key = ("out_of_service", t, y)
        pay = memo.get(key)
        if pay is None:
            pay = memo[key] = pricing.out_of_service_payment(
                y, y + 1, config.out_of_service_cap[t - 1],
                config.out_of_service_penalty[t - 1], bounds, psi_)
        pay_oos += pay

    pay_cable = pay_energy = pay_gen = 0.0
    if schedule.charging:
        f = schedule.facility_id
        m = schedule.evse_index
        fac = config.facilities[f]
        for t in schedule.cable_slots:
            y = ledger.y_c[f][m][t - 1]
            key = ("cable", f, y)
            pay = memo.get(key)
            if pay is None:
                pay = memo[key] = pricing.cable_payment(
                    y, y + 1, fac.cables_per_evse, bounds, psi_)
            pay_cable += pay
        for t, e in schedule.energy_slots:
            ye = ledger.y_e[f][m][t - 1]
            key = ("energy", f, ye, e)
            pay = memo.get(key)
            if pay is None:
                pay = memo[key] = pricing.energy_payment(
                    ye, ye + e, fac.evse_energy_limit, bounds, psi_)
            pay_energy += pay
            yg = ledger.y_g[f][t - 1]
            key = ("generation", f, t, yg, e)
            pay = memo.get(key)
            if pay is None:
                pay = memo[key] = pricing.generation_payment(
                    yg, yg + e, fac.solar[t - 1], fac.grid_limit[t - 1],
                    fac.grid_price[t - 1], bounds, psi_)
            pay_gen += pay

    breakdown = PriceBreakdown(destination=pay_dest, out_of_service=pay_oos,
                               cable=pay_cable, energy=pay_energy,
                               generation=pay_gen)
    return schedule.value - breakdown.total, breakdown


def _dual_increment(schedule: Schedule, u: float, state: DispatcherState) -> float:
    """Exact dual objective change: u plus every touched conjugate's move."""
    config = state.config
    ledger = state.ledger
    bounds = state.bounds
    psi_ = state.psi
    total = u

    d, tp = schedule.dest_region, schedule.t_plus
    omega = config.regions[d].vehicle_limit[tp - 1]
    y = ledger.y_d[d][tp - 1]
    total += (economics.conj_destination(pricing.price_destination(y + 1, omega, bounds, psi_), omega)
              - economics.conj_destination(pricing.price_destination(y, omega, bounds, psi_), omega))

    for t in schedule.out_of_service_slots:
        cap = config.out_of_service_cap[t - 1]
        phi = config.out_of_service_penalty[t - 1]
        y = ledger.y_o[t - 1]
        total += (economics.conj_out_of_service(
                      pricing.price_out_of_service(y + 1, cap, phi, bounds, psi_), phi, cap)
                  - economics.conj_out_of_service(
                      pricing.price_out_of_service(y, cap, phi, bounds, psi_), phi, cap))

    if schedule.charging:
        f = schedule.facility_id
        m = schedule.evse_index
        fac = config.facilities[f]
        for t in schedule.cable_slots:
            y = ledger.y_c[f][m][t - 1]
            total += (economics.conj_cable(
                          pricing.price_cable(y + 1, fac.cables_per_evse, bounds, psi_),
                          fac.cables_per_evse)
                      - economics.conj_cable(
                          pricing.price_cable(y, fac.cables_per_evse, bounds, psi_),
                          fac.cables_per_evse))
        for t, e in schedule.energy_slots:
            ye = ledger.y_e[f][m][t - 1]
            total += (economics.conj_energy(
                          pricing.price_energy(ye + e, fac.evse_energy_limit, bounds, psi_),
                          fac.evse_energy_limit)
                      - economics.conj_energy(
                          pricing.price_energy(ye, fac.evse_energy_limit, bounds, psi_),
                          fac.evse_energy_limit))
            delta, mu, pi = fac.solar[t - 1], fac.grid_limit[t - 1], fac.grid_price[t - 1]
            yg = ledger.y_g[f][t - 1]
            total += (economics.conj_generation(
                          pricing.price_generation(yg + e, delta, mu, pi, bounds, psi_),
                          delta, mu, pi)
                      - economics.conj_generation(
                          pricing.price_generation(yg, delta, mu, pi, bounds, psi_),
                          delta, mu, pi))
    return total


def dispatch(session: Session, state: DispatcherState) -> DispatchDecision:
    """Process one session: argmax utility over candidates, or depot.

    Ties on utility go to the earlier destination arrival, then the lower
    candidate index. Raises on out-of-order arrivals and, should the price
    barrier ever fail, on a capacity breach.
    """
    if session.t_minus < state.last_t:
        raise ValueError(f"session {session.id} arrives out of order "
                         f"({session.t_minus} < {state.last_t})")
    state.last_t = session.t_minus

    candidates = feasible_schedules(session, state.config, state.ledger,
                                    state.bounds, state.psi, state.policy)
    if state.captured is not None:
        state.captured[session.id] = list(candidates)

    best = None
    best_key = None
    for idx, schedule in enumerate(candidates):
        u, breakdown = utility_breakdown(schedule, state)
        key = (u, -schedule.t_plus, -idx)
        if best_key is None or key > best_key:
            best, best_key = (schedule, u, breakdown), key

    if best is None or best[1] <= 0.0:
        decision = DispatchDecision(session_id=session.id, schedule=None,
                                    utility=0.0)
        state.decisions.append(decision)
        state.primal_trajectory.append(state.primal_trajectory[-1])
        state.dual_trajectory.append(state.dual_trajectory[-1])
        state.utilities.append(0.0)
        return decision

    schedule, u, breakdown = best
    if not state.ledger.fits(schedule, state.config):
        raise CapacityError(
            f"price barrier failed: positive-utility schedule for session "
            f"{session.id} breaches capacity")
    d_primal = economics.primal_increment(state.ledger, schedule, state.config)
    d_dual = _dual_increment(schedule, u, state)
    state.ledger.apply(schedule, sign=1)
    state.payments.clear()

    decision = DispatchDecision(session_id=session.id, schedule=schedule,
                                utility=u, breakdown=breakdown)
    state.decisions.append(decision)
    state.primal_trajectory.append(state.primal_trajectory[-1] + d_primal)
    state.dual_trajectory.append(state.dual_trajectory[-1] + d_dual)
    state.utilities.append(u)
    return decision


def peak_utilization(ledger: ResourceLedger, config: ScenarioConfig) -> Dict[str, float]:
    """Max fraction of capacity reached per resource family."""
    peaks = {"cable": 0.0, "energy": 0.0, "generation": 0.0,
             "out_of_service": 0.0, "destination": 0.0}
    T = config.horizon
    for f, fac in enumerate(config.facilities):
        for m in range(fac.evse_count):
            for t in range(T):
                peaks["cable"] = max(peaks["cable"],
                                     ledger.y_c[f][m][t] / fac.cables_per_evse)
                peaks["energy"] = max(peaks["energy"],
                                      ledger.y_e[f][m][t] / fac.evse_energy_limit)
        for t in range(T):
            cap = fac.solar[t] + fac.grid_limit[t]
            if cap > 0:
                peaks["generation"] = max(peaks["generation"], ledger.y_g[f][t] / cap)
    for t in range(T):
        peaks["out_of_service"] = max(peaks["out_of_service"],
                                      ledger.y_o[t] / config.out_of_service_cap[t])
    for d, region in enumerate(config.regions):
        for t in range(T):
            if region.vehicle_limit[t] > 0:
                peaks["destination"] = max(peaks["destination"],
                                           ledger.y_d[d][t] / region.vehicle_limit[t])
    return peaks


def run_online(sessions: Sequence[Session], config: ScenarioConfig,
               policy: GenerationPolicy = DEFAULT_POLICY,
               bounds: Optional[PriceBounds] = None,
               capture_candidates: bool = False,
               ) -> Union[RunReport, Tuple[RunReport, Dict[int, List[Schedule]]]]:
    """Run the full online heuristic over an ordered session stream.

    With capture_candidates=True also returns the exact candidate sets
    each session was priced against, for offline comparison on the same
    action space.
    """
    state = DispatcherState.fresh(config, policy, bounds,
                                  capture_candidates=capture_candidates)
    for session in sessions:
        dispatch(session, state)

    report = RunReport(
        algorithm="online",
        instance_hash=instance_hash(config, sessions),
        psi=state.psi,
        bounds=state.bounds,
        alphas=state.alphas,
        decisions=tuple(state.decisions),
        primal_trajectory=tuple(state.primal_trajectory),
        dual_trajectory=tuple(state.dual_trajectory),
        welfare=state.primal_trajectory[-1],
        peak_utilization=peak_utilization(state.ledger, config),
    )
    if capture_candidates:
        return report, state.captured
    return report
