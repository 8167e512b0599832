"""Primal costs, Fenchel conjugates, and objective evaluators.

Each family's cost and conjugate are written once, on its cell shape in
``pricing``; the per-family functions here are entry points into that
table, and the objectives walk the ledger's cells. Every family's cost is
a capacity indicator except generation (free solar, then the grid price)
and out of service (the penalty per vehicle-slot). All functions here are
pure. Infeasible cost branches are represented by the explicit INFEASIBLE
marker, never by a large float, so accidental arithmetic on a sentinel
fails loudly instead of corrupting a total.
"""

from __future__ import annotations

from typing import Sequence, Union, TYPE_CHECKING

from .constants import MONEY_ATOL
from .domain import DispatchDecision, ResourceLedger, ScenarioConfig
from .pricing import (
    CABLE, COSTED, DESTINATION, ENERGY, GENERATION, INFEASIBLE, OUT_OF_SERVICE,
    InfeasibleType, cell_shape,
)

if TYPE_CHECKING:  # pragma: no cover
    from .pricing import PriceBounds


#: Either a finite nonnegative dollar amount or INFEASIBLE.
CostValue = Union[float, InfeasibleType]


def is_infeasible(value: CostValue) -> bool:
    return value is INFEASIBLE


# ---------------------------------------------------------------------------
# Primal costs
# ---------------------------------------------------------------------------


def generation_cost(y_g: float, delta: float, mu: float, pi: float) -> CostValue:
    """Cost of generating y_g at one facility-slot.

    Free while solar covers the demand, grid-priced for the excess, and
    INFEASIBLE past the combined solar plus grid limit.
    """
    return cell_shape(GENERATION, delta, mu, pi).cost(y_g)


def out_of_service_cost(y_o: float, phi: float, cap: float) -> CostValue:
    """Penalty for y_o out-of-service vehicles in one slot, capped at I."""
    return cell_shape(OUT_OF_SERVICE, cap, phi).cost(y_o)


# ---------------------------------------------------------------------------
# Fenchel conjugates, evaluated from the closed forms
# ---------------------------------------------------------------------------


def conj_cable(p: float, cables: int) -> float:
    """Conjugate of the cable capacity indicator: p * C."""
    return cell_shape(CABLE, cables).conj(p)


def conj_energy(p: float, energy_limit: float) -> float:
    """Conjugate of the EVSE energy capacity indicator: p * E."""
    return cell_shape(ENERGY, energy_limit).conj(p)


def conj_generation(p: float, delta: float, mu: float, pi: float) -> float:
    """Conjugate of the generation cost: delta*p below pi, then kinked."""
    return cell_shape(GENERATION, delta, mu, pi).conj(p)


def conj_destination(p: float, omega: float) -> float:
    """Conjugate of the arrival capacity indicator: p * Omega."""
    return cell_shape(DESTINATION, omega).conj(p)


def conj_out_of_service(p: float, phi: float, cap: float) -> float:
    """Conjugate of the out-of-service penalty: 0 below phi, then (p-phi)*I."""
    return cell_shape(OUT_OF_SERVICE, cap, phi).conj(p)


# ---------------------------------------------------------------------------
# Objectives
# ---------------------------------------------------------------------------


def primal_objective(decisions: Sequence[DispatchDecision], ledger: ResourceLedger,
                     config: ScenarioConfig) -> CostValue:
    """Welfare of a decision set: summed values minus generation and
    out-of-service costs, INFEASIBLE if any cost branch is."""
    total = 0.0
    for decision in decisions:
        if decision.schedule is not None:
            total += decision.schedule.value
    for k in COSTED:
        for y, shape in zip(ledger.loads[k], config.cells.shapes[k]):
            c = shape.cost(y)
            if c is INFEASIBLE:
                return INFEASIBLE
            total -= c
    return total


def primal_increment(ledger: ResourceLedger, schedule, config: ScenarioConfig) -> float:
    """Change in primal_objective from accepting one schedule against the
    given pre-decision ledger. Reads the ledger without mutating it."""
    delta = schedule.value
    for k, i, amount, shape in config.cells.demands(schedule):
        if k not in COSTED:
            continue
        y0 = ledger.loads[k][i]
        c0, c1 = shape.cost(y0), shape.cost(y0 + amount)
        if c0 is INFEASIBLE or c1 is INFEASIBLE:
            raise ValueError(f"{shape.family.name} increment leaves the feasible domain")
        delta -= c1 - c0
    return delta


def dual_objective(utilities: Sequence[float], ledger: ResourceLedger,
                   config: ScenarioConfig, bounds: "PriceBounds", psi: int) -> float:
    """Value of the Fenchel dual at the prices implied by the ledger.

    Sum of session utilities plus every resource cell's conjugate
    evaluated at its current posted price. This is the true, unshifted
    dual; with an empty ledger it already carries the base conjugates.
    """
    for u in utilities:
        if u < -MONEY_ATOL:
            raise ValueError(f"negative utility {u}")
    total = float(sum(utilities))
    for loads, shapes in zip(ledger.loads, config.cells.shapes):
        for y, shape in zip(loads, shapes):
            total += shape.conj(shape.price(y, bounds, psi))
    return total
