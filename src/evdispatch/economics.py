"""Primal and dual objective evaluators.

Each family's primal cost and Fenchel conjugate are written once, on its
cell shape in ``pricing`` (``Shape.cost`` and ``Shape.conj``); the
objectives here walk the ledger's cells and read them there. Every
family's cost is a capacity indicator except generation (free solar, then
the grid price) and out of service (the penalty per vehicle-slot). All
functions here are pure. Infeasible cost branches are represented by the
explicit INFEASIBLE marker, never by a large float, so accidental
arithmetic on a sentinel fails loudly instead of corrupting a total.
"""

from __future__ import annotations

from typing import Sequence, Union

from .domain import MONEY_ATOL, DispatchDecision, ResourceLedger, ScenarioConfig
from .pricing import COSTED, INFEASIBLE, InfeasibleType, PriceBounds


#: Either a finite nonnegative dollar amount or INFEASIBLE.
CostValue = Union[float, InfeasibleType]


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


def primal_increment(ledger: ResourceLedger, schedule) -> float:
    """Change in primal_objective from accepting one schedule against the
    given pre-decision ledger. Reads the ledger without mutating it."""
    delta = schedule.value
    for k, i, amount, shape in ledger.cells.demands(schedule):
        if k not in COSTED:
            continue
        y0 = ledger.loads[k][i]
        c0, c1 = shape.cost(y0), shape.cost(y0 + amount)
        if c0 is INFEASIBLE or c1 is INFEASIBLE:
            raise ValueError(f"{shape.family.name} increment leaves the feasible domain")
        delta -= c1 - c0
    return delta


def dual_objective(utilities: Sequence[float], ledger: ResourceLedger,
                   config: ScenarioConfig, bounds: PriceBounds, psi: int) -> float:
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
