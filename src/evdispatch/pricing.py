"""The resource table, price curves, bound estimation, competitive
ratios, and the differential allocation-payment verifier.

Every shared resource is a ledger cell of one of the five families listed
once in ``FAMILIES``: cables and EVSE energy per (facility, EVSE, slot),
generation per (facility, slot), destination arrivals per (region, slot)
and vehicles out of service per slot. A cell's arguments give its
``Shape``: a capacity, a cost offset (grid price pi, penalty phi, else 0)
and a solar split (delta, else 0). Its price grows exponentially in the
fraction of capacity allocated, from L/(2*Psi) above the offset when empty
to U when full; below delta the generation price climbs from L_g/(2*Psi)
to pi instead. Price, payment, conjugate and primal cost are written once,
on the shape's exponential segments, which ``verify_dapr`` also checks:
exactly, segment by segment, since the allocation-payment margin keeps its
sign on a segment and its grid needs reading only at the two ends.
Callers reach a cell's shape through ``cell_shape`` or ``config.cells``.
Every payment is made through its family's function (``cable_payment``,
...), looked up by name at call time, so that a wrapper there sees it.

Payments are exact integrals of the price curves, which is what makes the
per-session primal/dual inequality and weak duality hold to machine
precision instead of only up to a discretization gap. A payment that runs
so far past capacity that it leaves the float range is infinite. A
``PriceTable`` is the one holder of a run's bounds and Psi, and keeps the
run's posted prices and payments: each is a function of its key (shape,
load, and amount) and those alone, so an entry holds for every ledger
state of the run. A ``Snapshot`` reads one ledger state through a table
and keeps the sums over consecutive cells that only that state gives:
each ``dispatch`` call takes one and hands it to both the candidate build
and the pricing of the candidates.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Mapping, NamedTuple, Optional, Tuple

from .domain import MONEY_ATOL, ResourceLedger, ScenarioConfig, as_plain


# ---------------------------------------------------------------------------
# Shared resource count
# ---------------------------------------------------------------------------


def psi(config: ScenarioConfig) -> int:
    """Total number of shared resources: 2*sum(M_f) + D + F + 1."""
    m_total = sum(f.evse_count for f in config.facilities)
    return 2 * m_total + len(config.regions) + len(config.facilities) + 1


# ---------------------------------------------------------------------------
# Bounds
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PriceBounds:
    """(L, U) value-density bounds per resource family, in dollars per
    resource unit. L_g must clear every grid price and L_o every penalty,
    or the corresponding price curves lose their anchor."""

    L_c: float
    U_c: float
    L_e: float
    U_e: float
    L_g: float
    U_g: float
    L_d: float
    U_d: float
    L_o: float
    U_o: float


def validate_bounds(bounds: PriceBounds, config: ScenarioConfig) -> List[str]:
    """Invariant check for a bounds object against a config; [] if clean.
    Per family, ``_curve_problems`` of its cell shapes."""
    two_psi = 2 * psi(config)
    return [problem for family, shapes in zip(FAMILIES, config.cells.shapes)
            for problem in _curve_problems(family, *family.limits(bounds), shapes, two_psi)]


def _curve_problems(family: Family, lo: float, hi: float, shapes: List[Shape],
                    two_psi: float) -> List[str]:
    """The rules a family's (L, U) = (lo, hi) must meet for the price curves
    of ``shapes`` to exist: 0 < L <= U, L above every cost offset (grid
    price, penalty), and L below 2*Psi times the offset of every shape with
    a solar split, where the solar segment's base 2*Psi*offset/L must
    exceed 1."""
    out = []
    name = f"{family.name}: L_{family.bound}={lo}"
    if not (0 < lo <= hi):
        out.append(f"{family.name}: need 0 < L <= U, got ({lo}, {hi})")
    top = max((shape.offset for shape in shapes), default=0.0)
    if top > 0 and lo <= top:
        out.append(f"{name} must exceed the largest cost offset {top}")
    solar = [shape.offset for shape in shapes if shape.split > 0]
    if solar and lo >= two_psi * min(solar):
        out.append(f"{name} must stay below 2*Psi*offset={two_psi * min(solar)} "
                   "at a cell with solar")
    return out


# ---------------------------------------------------------------------------
# The resource table
# ---------------------------------------------------------------------------


class InfeasibleType:
    """Marker for cost values outside the feasible domain."""

    _instance: Optional["InfeasibleType"] = None

    def __new__(cls) -> "InfeasibleType":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "Infeasible"


INFEASIBLE = InfeasibleType()


class Segment(NamedTuple):
    """One exponential piece of a price curve: p(y) = a * b^(y/cap) + offset
    on [lo, hi). The offset is also the marginal primal cost there, and hi
    the slope of the conjugate at the piece's prices."""

    lo: float
    hi: float
    cap: float
    a: float
    b: float
    offset: float

    def price(self, y: float) -> float:
        return self.a * self.b ** (y / self.cap) + self.offset

    def integral(self, y0: float, y1: float) -> float:
        """The antiderivative a*cap/ln(b) * b^(y/cap) + offset*y from y0 to
        y1. It extends smoothly beyond hi: an increment that would overfill
        the resource meets prices above U, which is the saturation barrier."""
        _, _, cap, a, b, offset = self
        if y1 == y0:
            return 0.0
        try:
            growth = b ** (y1 / cap) - b ** (y0 / cap)
        except OverflowError:
            # an overfill many capacities deep: the barrier price is unbounded
            return math.inf
        return a * cap / math.log(b) * growth + offset * (y1 - y0)


@dataclass(frozen=True)
class Family:
    """One row of the resource table.

    ``cells`` lists a config's cells of the family in ledger order, as
    (coordinates ending in the 1-based slot, arguments); the arguments are
    the scalars the family's payment function takes after the loads, and
    ``shape`` maps them to (capacity, offset, split). ``conj`` is the
    conjugate's closed form in them and ``params`` their names in
    ``verify_dapr``. The prices use PriceBounds L_<bound> and U_<bound>;
    ``symbol`` and ``where`` label capacity breaches.
    """

    name: str
    bound: str
    params: Tuple[str, ...]
    shape: Callable[..., Tuple[float, float, float]]
    conj: Callable[..., float]
    cells: Callable[[ScenarioConfig], list]
    symbol: str
    where: str

    def limits(self, bounds: PriceBounds) -> Tuple[float, float]:
        return getattr(bounds, "L_" + self.bound), getattr(bounds, "U_" + self.bound)


def _capacity(cap: float) -> Tuple[float, float, float]:
    return cap, 0.0, 0.0


def _conj_capacity(p: float, cap: float) -> float:
    """Conjugate of a capacity indicator: p * capacity."""
    return p * cap


def _evse_cells(config: ScenarioConfig, cap: Callable) -> list:
    return [((f, m, t), (cap(fac),)) for f, fac in enumerate(config.facilities)
            for m in range(fac.evse_count) for t in range(1, config.horizon + 1)]


#: Family indices, in the paper's order (alphas a1..a5).
CABLE, ENERGY, GENERATION, DESTINATION, OUT_OF_SERVICE = range(5)

FAMILIES = (
    Family("cable", "c", ("capacity",), _capacity, _conj_capacity,
           lambda config: _evse_cells(config, lambda fac: fac.cables_per_evse),
           "C", "facility {} evse {} slot {}"),
    Family("energy", "e", ("capacity",), _capacity, _conj_capacity,
           lambda config: _evse_cells(config, lambda fac: fac.evse_energy_limit),
           "E", "facility {} evse {} slot {}"),
    # free solar up to delta, then grid energy at pi up to delta + mu
    Family("generation", "g", ("delta", "mu", "pi"),
           lambda delta, mu, pi: (delta + mu, pi, delta),
           lambda p, delta, mu, pi: delta * p if p < pi else (delta + mu) * p - mu * pi,
           lambda config: [((f, t + 1), (fac.solar[t], fac.grid_limit[t], fac.grid_price[t]))
                           for f, fac in enumerate(config.facilities)
                           for t in range(config.horizon)],
           "delta+mu", "facility {} slot {}"),
    Family("destination", "d", ("capacity",), _capacity, _conj_capacity,
           lambda config: [((d, t + 1), (omega,)) for d, region in enumerate(config.regions)
                           for t, omega in enumerate(region.vehicle_limit)],
           "Omega", "region {} slot {}"),
    # the penalty phi per vehicle-slot, up to the fleet-wide cap I
    Family("out_of_service", "o", ("capacity", "phi"),
           lambda cap, phi: (cap, phi, 0.0),
           lambda p, cap, phi: 0.0 if p < phi else (p - phi) * cap,
           lambda config: [((t + 1,), (cap, phi)) for t, (cap, phi) in enumerate(
               zip(config.out_of_service_cap, config.out_of_service_penalty))],
           "I", "slot {}"),
)

NAMES = tuple(family.name for family in FAMILIES)

#: Families whose primal cost is more than a capacity indicator.
COSTED = (GENERATION, OUT_OF_SERVICE)

#: Where each family's terms go in a dual increment: destination, out of
#: service, cable, then energy and generation slot by slot. This is the
#: order the family-by-family walk summed them in, kept so that dual
#: trajectories stay bit-identical.
DUAL_RANK = {DESTINATION: 0, OUT_OF_SERVICE: 1, CABLE: 2, ENERGY: 3, GENERATION: 3}


class Shape:
    """A cell's family, arguments, and the capacity, offset and solar split
    they give: value data, set once. Cells with equal arguments share one
    shape across every run in the process, so a shape keeps nothing of a
    run: L, U and Psi are arguments of each call, and a run passes those
    of its ``PriceTable``."""

    __slots__ = ("family", "args", "cap", "offset", "split")

    def __init__(self, family: int, *args: float) -> None:
        self.family = FAMILIES[family]
        self.args = args
        self.cap, self.offset, self.split = self.family.shape(*args)

    def segments(self, low: float, high: float, psi_: int) -> List[Segment]:
        """The price curve for (L, U) = (low, high). Below a solar split it
        climbs from L/(2 Psi) to the offset; from the split on it climbs
        from (L - offset)/(2 Psi) above the offset to U at capacity."""
        two_psi = 2.0 * psi_
        off = self.offset
        grid = Segment(self.split, self.cap, self.cap, (low - off) / two_psi,
                       two_psi * (high - off) / (low - off), off)
        if self.split > 0:
            solar = Segment(0.0, self.split, self.split, low / two_psi,
                            two_psi * off / low, 0.0)
            return [solar, grid]
        return [grid]

    def price(self, y: float, bounds: PriceBounds, psi_: int) -> float:
        """Posted price at load y. A zero-capacity cell is permanently at
        its ceiling price."""
        name = self.family.name
        if y < 0:
            raise ValueError(f"{name}: negative allocation {y}")
        if y > self.cap + MONEY_ATOL:
            raise ValueError(f"{name}: allocation {y} beyond capacity {self.cap}")
        if self.cap == 0:
            return self.family.limits(bounds)[1]
        segments = self.segments(*self.family.limits(bounds), psi_)
        return segments[0 if y < self.split else -1].price(y)

    def payment(self, y0: float, y1: float, bounds: PriceBounds, psi_: int) -> float:
        """Exact integral of the price from y0 to y1.

        An increment that first reaches the solar split also pays a
        one-time surcharge equal to the conjugate's jump there; without it
        the dual objective would jump while the payment stays infinitesimal.
        """
        if y1 < y0:
            raise ValueError("payment requires y1 >= y0")
        if y1 == y0:
            return 0.0
        if self.cap <= 0:
            return math.inf
        segments = self.segments(*self.family.limits(bounds), psi_)
        grid, split = segments[-1], self.split
        if y0 >= split:
            return grid.integral(y0, y1)
        total = segments[0].integral(y0, min(y1, split))
        if y1 >= split:
            total += grid.integral(split, y1)
            # cap times the price step from the offset up to the grid piece
            total += self.cap * (grid.price(split) - self.offset)
        return total

    def conj(self, p: float) -> float:
        """Fenchel conjugate of the cell's primal cost at price p."""
        if p < 0:
            raise ValueError(f"negative price {p}")
        return self.family.conj(p, *self.args)

    def cost(self, y: float):
        """Primal cost of load y: free up to the split, the offset per unit
        beyond it, and INFEASIBLE past capacity."""
        if y < 0:
            raise ValueError(f"{self.family.name}: negative load {y}")
        if y <= self.split:
            return 0.0
        if y <= self.cap + MONEY_ATOL:
            return self.offset * (y - self.split)
        return INFEASIBLE


class Cells:
    """The ledger cells of one config, family by family, in ledger order.

    ``shapes[k][i]`` is the shape of cell i of family k, in the order that
    ``FAMILIES[k].cells`` lists the config's cells: slot fastest, so the
    cell of slot t in row r is r * T + t - 1, a row being a facility, a
    region, or a (facility, EVSE) pair counted across facilities. The
    table is a function of its config alone: its rows are tuples, and
    nothing writes to it once built, so every solver and every run of the
    config shares it.
    """

    __slots__ = ("horizon", "evse_row", "shapes", "idle")

    def __init__(self, config: ScenarioConfig) -> None:
        self.horizon = config.horizon
        evse_row = []  # first (facility, EVSE) row of each facility
        rows = 0
        for fac in config.facilities:
            evse_row.append(rows)
            rows += fac.evse_count
        self.evse_row = tuple(evse_row)
        self.shapes = tuple(tuple(cell_shape(k, *args) for _, args in family.cells(config))
                            for k, family in enumerate(FAMILIES))
        # one vehicle out of service per slot, sliced by every schedule
        self.idle = tuple((OUT_OF_SERVICE, i, 1, shape)
                          for i, shape in enumerate(self.shapes[OUT_OF_SERVICE]))

    def evse_cell(self, f: int, m: int, t: int) -> int:
        return (self.evse_row[f] + m) * self.horizon + t - 1

    def facility_cell(self, f: int, t: int) -> int:
        return f * self.horizon + t - 1

    def demands(self, schedule) -> Iterator[Tuple[int, int, float, Shape]]:
        """Every unit the schedule takes, as (family, cell, amount, shape):
        each energy slot's EVSE energy and generation in turn, each cable
        slot, each out-of-service slot, then the destination arrival. The
        scarcest cells come first, where a capacity check stops soonest."""
        T, shapes = self.horizon, self.shapes
        f = schedule.facility_id
        if f is not None:
            row = (self.evse_row[f] + schedule.evse_index) * T - 1
            cable, energy, generation = shapes[CABLE], shapes[ENERGY], shapes[GENERATION]
            for t, e in schedule.energy_slots:
                yield ENERGY, row + t, e, energy[row + t]
                yield GENERATION, f * T + t - 1, e, generation[f * T + t - 1]
            for t in schedule.cable_slots:
                yield CABLE, row + t, 1, cable[row + t]
        yield from self.idle[schedule.t_minus - 1:schedule.t_plus]
        i = schedule.dest_region * T + schedule.t_plus - 1
        yield DESTINATION, i, 1, shapes[DESTINATION][i]


# ---------------------------------------------------------------------------
# Interned shapes, per-family payments, price tables and ledger snapshots
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=1024)
def cell_shape(family: int, *args: float) -> Shape:
    """The shape of a cell of ``family`` with these arguments, interned so
    that equal cells share one key in a ``PriceTable``."""
    return Shape(family, *args)


def cable_payment(y0: float, y1: float, cables: int, bounds: PriceBounds,
                  psi_: int) -> float:
    return cell_shape(CABLE, cables).payment(y0, y1, bounds, psi_)


def energy_payment(y0: float, y1: float, energy_limit: float, bounds: PriceBounds,
                   psi_: int) -> float:
    return cell_shape(ENERGY, energy_limit).payment(y0, y1, bounds, psi_)


def generation_payment(y0: float, y1: float, delta: float, mu: float, pi: float,
                       bounds: PriceBounds, psi_: int) -> float:
    return cell_shape(GENERATION, delta, mu, pi).payment(y0, y1, bounds, psi_)


def destination_payment(y0: float, y1: float, omega: float, bounds: PriceBounds,
                        psi_: int) -> float:
    return cell_shape(DESTINATION, omega).payment(y0, y1, bounds, psi_)


def out_of_service_payment(y0: float, y1: float, cap: float, phi: float,
                           bounds: PriceBounds, psi_: int) -> float:
    return cell_shape(OUT_OF_SERVICE, cap, phi).payment(y0, y1, bounds, psi_)


class PriceTable:
    """Posted prices and payments of one run, at its bounds and Psi.

    A price is a function of the cell's shape (its family and arguments,
    shared by equal cells) and its load, and a payment of those and the
    amount. Neither depends on which session asks or on any other cell, so
    each is computed once per such key and kept for the whole run: one
    entry serves every destination arrival of a day with one Omega, and
    every session that finds a cell at the same load. The table is the
    only holder of the run's bounds and Psi: every price of a run, its
    dual increments' included, is read through it, so no entry can be read
    at other bounds.
    """

    __slots__ = ("bounds", "psi", "prices", "paid")

    def __init__(self, bounds: PriceBounds, psi_: int) -> None:
        self.bounds = bounds
        self.psi = psi_
        self.prices: Dict[tuple, float] = {}
        self.paid: Dict[tuple, float] = {}

    def price(self, shape: Shape, y: float) -> float:
        """Posted price of a cell of ``shape`` at load y."""
        p = self.prices.get((shape, y))
        if p is None:
            p = self.prices[shape, y] = shape.price(y, self.bounds, self.psi)
        return p

    def pay(self, shape: Shape, y: float, amount: float) -> float:
        """Payment for ``amount`` more units of a cell of ``shape`` at load y."""
        key = (shape, y, amount)
        paid = self.paid.get(key)
        if paid is None:
            # looked up on the module at call time, so a wrapper there sees it
            paid = self.paid[key] = globals()[shape.family.name + "_payment"](
                y, y + amount, *shape.args, self.bounds, self.psi)
        return paid


class Snapshot:
    """Sums of posted prices and payments against one ledger state.

    The ledger does not move while one session is handled: its candidates
    are built and priced against the loads it had on arrival. Each price
    and payment is read through the run's ``PriceTable``. Every cable
    window at a facility starts at the vehicle's arrival slot there, and
    every out-of-service run at its t_minus, so ``run`` keeps sums over
    consecutive cells as running sums from their first cell, extended only
    as far as asked. Those sums, and the per-slot charges and per-window
    draws, read the loads of this one state, so they live no longer than
    the snapshot. Every sum is added left to right from 0.0, cell by cell,
    as a walk over the cells adds it, so each float is bit-identical to the
    walk's own.
    """

    __slots__ = ("cells", "loads", "table", "_runs", "_charges", "_drawn")

    def __init__(self, ledger: ResourceLedger, table: PriceTable) -> None:
        self.cells = ledger.cells
        self.loads = ledger.loads
        self.table = table
        self._runs: Dict[tuple, List[float]] = {}
        self._charges: Dict[tuple, float] = {}
        self._drawn: Dict[tuple, Tuple[float, float]] = {}

    def price(self, k: int, i: int) -> float:
        """Posted price of cell i of family k. A cell loaded beyond capacity
        keeps its ceiling price: posted prices only rank slots."""
        shape = self.cells.shapes[k][i]
        return self.table.price(shape, min(self.loads[k][i], shape.cap))

    def pay(self, k: int, i: int, amount: float = 1) -> float:
        """Payment for ``amount`` more units of cell i of family k."""
        return self.table.pay(self.cells.shapes[k][i], self.loads[k][i], amount)

    def run(self, k: int, first: int, n: int, posted: bool = False) -> float:
        """Summed payments for one more unit of each of the n cells of
        family k from cell ``first`` on; their posted prices if ``posted``."""
        key = (posted, k, first)
        sums = self._runs.get(key)
        if sums is None:
            sums = self._runs[key] = []
        done = len(sums)
        if done < n:
            term = self.price if posted else self.pay
            total = sums[-1] if done else 0.0
            for i in range(first + done, first + n):
                total += term(k, i)
                sums.append(total)
        return sums[n - 1]

    def charge(self, f: int, m: int, t: int) -> float:
        """Energy plus generation price per kWh at EVSE m of facility f in
        slot t; energy alone at a slot without generation capacity."""
        key = (f, m, t)
        p = self._charges.get(key)
        if p is None:
            cells = self.cells
            p = self.price(ENERGY, cells.evse_cell(f, m, t))
            g = cells.facility_cell(f, t)
            if cells.shapes[GENERATION][g].cap > 0:
                p += self.price(GENERATION, g)
            self._charges[key] = p
        return p

    def draw(self, f: int, m: int, slots: Tuple[Tuple[int, float], ...]) -> Tuple[float, float]:
        """Summed energy and generation payments for drawing each (slot,
        kWh) of ``slots`` at EVSE m of facility f, kept per set of slots,
        which the candidates for every destination share."""
        key = (f, m, slots)
        paid = self._drawn.get(key)
        if paid is None:
            cells = self.cells
            energy = generation = 0.0
            for t, e in slots:
                energy += self.pay(ENERGY, cells.evse_cell(f, m, t), e)
                generation += self.pay(GENERATION, cells.facility_cell(f, t), e)
            paid = self._drawn[key] = (energy, generation)
        return paid


# ---------------------------------------------------------------------------
# Bound estimation from the config alone
# ---------------------------------------------------------------------------


def default_charge_targets(config: ScenarioConfig) -> Tuple[float, ...]:
    """Every multiple of charge_increment up to the battery capacity."""
    k = round(config.battery_capacity / config.charge_increment)
    return tuple(config.charge_increment * i for i in range(1, k + 1))


def effective_charge_rate(fac) -> float:
    """Per-vehicle kWh drawn per charging slot at one facility: the fair
    share of the EVSE energy budget across its cables, so a fully
    subscribed EVSE stays within its limit."""
    return fac.evse_energy_limit / fac.cables_per_evse


def charge_slots(target: float, rate: float) -> Tuple[int, float]:
    """``(k, last)``: the slots it takes to charge ``target`` kWh at
    ``rate`` per slot, at least one, and the energy of the last of them;
    every other slot draws the full rate."""
    k = max(1, math.ceil(target / rate - 1e-12))
    return k, target - (k - 1) * rate


def _min_slot_energy(config: ScenarioConfig) -> float:
    """Smallest positive per-slot energy any schedule can draw: the full
    rate or the final remainder slot of some (facility, target) pair."""
    targets = default_charge_targets(config)
    best = math.inf
    for fac in config.facilities:
        rate = effective_charge_rate(fac)
        best = min(best, rate)
        for target in targets:
            _, rem = charge_slots(target, rate)
            if rem > MONEY_ATOL:
                best = min(best, rem)
    if not math.isfinite(best):
        best = min(config.charge_increment, config.battery_capacity)
    return best


def _best_value(config: ScenarioConfig) -> float:
    """The most a schedule can be worth: the best pickup on a full battery."""
    v_dest_max = max((r.pickup_value for r in config.regions), default=0.0)
    return v_dest_max + config.soc_value_slope * config.battery_capacity


def value_densities(config: ScenarioConfig) -> List[float]:
    """Per family, in table order, the most value one schedule can offer
    per unit of the resource: the best schedule value over the smallest
    positive use of the resource by one schedule (one cable-slot, one
    vehicle, or the smallest positive per-slot energy). A nearly full cell
    priced at a U of at least this outbids every schedule; below it, the
    price barrier can fail and a positive-utility schedule overfill."""
    e_min = _min_slot_energy(config) if config.facilities else 1.0
    least = {CABLE: 1, ENERGY: e_min, GENERATION: e_min, DESTINATION: 1,
             OUT_OF_SERVICE: 1}
    u_best = _best_value(config)
    return [u_best / least[k] for k in range(len(FAMILIES))]


def estimate_bounds(config: ScenarioConfig) -> PriceBounds:
    """Conservative (L, U) pairs computed from the config alone.

    U's are the ``value_densities``: the best possible schedule value
    over the minimal usage of the family's resource; L's divide the
    smallest positive pickup value by Psi times the largest per-schedule
    usage. L's of families with a cost offset are then clamped just above
    the largest offset (grid price, penalty), and every U re-clamped
    above its L.

    Raises ValueError when the config admits no positive-value schedule.
    """
    psi_ = psi(config)

    u_best = _best_value(config)
    if u_best <= 0:
        raise ValueError("config admits no positive-value schedule; "
                         "bounds would collapse to zero")

    positive = [r.pickup_value for r in config.regions if r.pickup_value > 0]
    if positive:
        v_min = min(positive)
    elif config.soc_value_slope * config.charge_increment > 0:
        v_min = config.soc_value_slope * config.charge_increment
    else:
        raise ValueError("no positive pickup value and no charging value; "
                         "price lower bounds would be zero")

    T = config.horizon
    # the largest use of each family's resource by one schedule
    most = {CABLE: T, ENERGY: config.battery_capacity,
            GENERATION: config.battery_capacity, DESTINATION: 1, OUT_OF_SERVICE: T}
    densities = value_densities(config)
    limits = []
    for k, shapes in enumerate(config.cells.shapes):
        low, high = v_min / (psi_ * most[k]), densities[k]
        top = max((shape.offset for shape in shapes), default=0.0)
        if top > 0:
            low = max(low, top * (1.0 + 1e-6))
            high = max(high, low * (1.0 + 1e-6))
        limits += [low, max(high, low)]
    bounds = PriceBounds(*limits)
    problems = validate_bounds(bounds, config)
    if problems:
        raise ValueError("estimated bounds are unusable: " + "; ".join(problems))
    return bounds


# ---------------------------------------------------------------------------
# Competitive ratio components
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Alphas:
    """The five per-family competitive ratio components and their max."""

    a1: float
    a2: float
    a3: float
    a4: float
    a5: float

    @property
    def alpha(self) -> float:
        return max(self.a1, self.a2, self.a3, self.a4, self.a5)


def alphas(bounds: PriceBounds, psi_: int, config: ScenarioConfig) -> Alphas:
    """Per-family ratios ln(2 Psi (U - offset)/(L - offset)), maximized
    over the offsets (grid prices, penalties) of the family's cells."""
    two_psi = 2.0 * psi_
    ratios = []
    for family, shapes in zip(FAMILIES, config.cells.shapes):
        low, high = family.limits(bounds)
        offsets = {shape.offset for shape in shapes} or {0.0}
        ratios.append(max(math.log(two_psi * (high - off) / (low - off))
                          for off in offsets))
    out = Alphas(*ratios)
    for name, val in as_plain(out).items():
        if val < 1.0:
            raise ValueError(f"ratio component {name}={val} below 1; bounds too tight")
    return out


# ---------------------------------------------------------------------------
# Differential allocation-payment verifier
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DaprReport:
    """Result of one allocation-payment check.

    On a uniform allocation grid, the verifier checks that the margin of
    each increment

        (p(y) - f'(y)) * dy - (1/alpha) * f*'(p(y)) * p'(y) * dy

    is nonnegative: the price the allocator collects above marginal cost
    must cover the dual objective's growth at rate 1/alpha. Derivatives
    are analytic, so the margin vanishes identically at the family's own
    ratio and goes strictly negative when alpha is undersized. The check
    is exact per segment: there the margin's sign is fixed, so its least
    value on the grid sits at one of the segment's two end points, and
    those are the only points evaluated. ``grid_points`` counts the grid,
    and ``worst_margin`` and ``worst_y`` are its least margin and where it
    falls.
    """

    family: str
    alpha: float
    grid_points: int
    passed: bool
    worst_margin: float
    worst_y: float
    segments: int


def verify_dapr(family: str, params: Mapping[str, float], alpha: float,
                grid_points: int = 10_000) -> DaprReport:
    """Check the allocation-payment inequality for one resource.

    ``params`` carries the family's scalars: capacity, L, U, psi, plus pi
    (generation: with delta and mu) or phi (out_of_service). The grid runs
    over the segments of the price curve, split at the solar boundary so
    that no increment straddles the branch switch; on each, f' is the
    segment's offset and f*' its upper end, and the margin is read at the
    segment's first and last grid points. Parameters that give no price
    curve (a missing or non-finite one, a capacity that is not positive,
    a psi that is not a whole number of at least 1, or an (L, U) that
    ``validate_bounds`` would refuse) raise a ValueError naming them.
    """
    if family not in NAMES:
        raise ValueError(f"unknown family {family!r}")
    if grid_points < 100:
        raise ValueError("grid_points must be at least 100")
    if not 0 < alpha < math.inf:  # NaN included
        raise ValueError("alpha must be positive and finite")

    k = NAMES.index(family)
    names = FAMILIES[k].params + ("L", "U", "psi")
    missing = [name for name in names if name not in params]
    if missing:
        raise ValueError(f"{family}: missing parameter {', '.join(missing)}")
    values = {name: float(params[name]) for name in names}
    problems = [f"{family}: {name}={value} must be finite"
                for name, value in values.items() if not math.isfinite(value)]
    shape = Shape(k, *(values[name] for name in FAMILIES[k].params))
    if shape.cap <= 0:
        problems.append(f"{family}: capacity {FAMILIES[k].symbol}={shape.cap} "
                        "must be positive")
    if values["psi"] < 1 or values["psi"] % 1:
        problems.append(f"{family}: psi={values['psi']} must be a whole number of at least 1")
    low, high = values["L"], values["U"]
    if not problems:
        psi_ = int(values["psi"])
        problems = _curve_problems(FAMILIES[k], low, high, [shape], 2 * psi_)
    if problems:
        raise ValueError("; ".join(problems))
    segments = [seg for seg in shape.segments(low, high, psi_) if seg.hi > seg.lo]

    total_len = sum(seg.hi - seg.lo for seg in segments)
    worst_margin = math.inf
    worst_y = 0.0
    checked = 0
    for lo, hi, cap, a, b, offset in segments:
        n = max(1, round(grid_points * (hi - lo) / total_len))
        dy = (hi - lo) / n
        z = math.log(b)
        # The margin is dy * growth * (1 - hi*z/(cap*alpha)): growth rises
        # with y and the bracket is fixed on the segment, so the least
        # margin of the n grid points is at the first or the last.
        for i in (0, n - 1):
            y = lo + i * dy
            growth = a * b ** (y / cap)
            p = growth + offset
            pprime = growth * z / cap
            margin = (p - offset) * dy - (hi * pprime * dy) / alpha
            if margin < worst_margin:
                worst_margin = margin
                worst_y = y
        checked += n
    return DaprReport(family=family, alpha=alpha, grid_points=checked,
                      passed=worst_margin >= -MONEY_ATOL,
                      worst_margin=worst_margin, worst_y=worst_y,
                      segments=len(segments))


def dapr_cases(config: ScenarioConfig, bounds: PriceBounds,
               psi_: int) -> List[Tuple[str, Dict[str, float]]]:
    """One (family, params) pair per distinct cell shape of a config,
    family by family; zero-capacity cells have no curve to check."""
    cases: List[Tuple[str, Dict[str, float]]] = []
    for family, shapes in zip(FAMILIES, config.cells.shapes):
        low, high = family.limits(bounds)
        for shape in dict.fromkeys(shapes):
            if shape.cap > 0:
                cases.append((family.name, dict(zip(family.params, shape.args),
                                                L=low, U=high, psi=psi_)))
    return cases
