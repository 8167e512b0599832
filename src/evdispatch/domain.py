"""Shared data types, instance validation, and the region travel model.

Time is discrete. Slots are 1-based in all data: a slot index t runs over
1..T, and per-slot traces (tuples of length T) are indexed with t - 1.
Regions and facilities are identified by their position in the config
lists, so ``config.regions[r].id == r`` always holds for a valid instance.

Travel is counted in hops of the undirected region graph: one hop takes
one slot and ``per_hop_energy`` of battery. ``config.hop_table`` holds
every shortest hop count, -1 for a region with no path, and callers read
it by row through ``hop_row``, which range-checks the origin. Every plan
builder reaches its facilities through ``facility_legs``, under one
battery floor: a vehicle may arrive with as little as ``-MONEY_ATOL``
stored.

Every type in this module is immutable value data except ResourceLedger,
which is the single mutable accumulator shared by the online dispatcher,
the baselines, and the offline solvers. It keeps one flat load list per
resource family, in the cell order of ``config.cells``, the resource
table that ``pricing`` builds for each config; every ledger operation is
one walk over a schedule's demands or over the cells.
"""

from __future__ import annotations

import hashlib
import json
import math
from collections import deque
from dataclasses import dataclass, field, fields, is_dataclass
from functools import cache, cached_property
from typing import Callable, Dict, Optional, Tuple, List, Sequence, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from .pricing import Alphas, Cells, PriceBounds


#: Absolute tolerance for money comparisons, in dollars. Money is plain
#: floats; capacity and bound checks, tests, invariant checks and the CLI
#: use this one tolerance, so they agree on "equal". Three comparisons
#: keep tighter margins of their own, which pinned artifacts depend on:
#: ``exact_offline`` prunes at 1e-12, and ``schedules._pick`` compares
#: posted cable and charging prices at 1e-15.
MONEY_ATOL = 1e-9


# ---------------------------------------------------------------------------
# Static instance description
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Region:
    """One service region, a node of the undirected hop graph.

    Attributes
    ----------
    id:
        Position of this region in ``ScenarioConfig.regions``.
    pickup_value:
        Dollar value v_d of delivering a pickup-ready vehicle here.
    vehicle_limit:
        Per-slot cap on vehicle arrivals, one entry per slot. Arrivals,
        not occupancy: the cap binds on the number of schedules whose
        destination arrival lands in the slot.
    facility_id:
        Id of the charging facility located in this region, if any.
    """

    id: int
    pickup_value: float
    vehicle_limit: Tuple[int, ...]
    facility_id: Optional[int] = None


@dataclass(frozen=True)
class Facility:
    """A charging facility hosting identical single-output multi-cable EVSEs.

    Each of the ``evse_count`` EVSEs offers ``cables_per_evse`` cables that
    share one per-slot energy budget ``evse_energy_limit``. Facility-level
    energy is free while the solar trace covers it and costs the grid price
    beyond, up to the per-slot grid limit.

    Attributes
    ----------
    id:
        Position of this facility in ``ScenarioConfig.facilities``.
    region_id:
        Region in which the facility sits.
    evse_count:
        Number of EVSEs (M).
    cables_per_evse:
        Cables per EVSE (C); at most C vehicles connect simultaneously.
    evse_energy_limit:
        Shared per-slot energy budget of one EVSE (E), in kWh.
    solar:
        Free on-site generation per slot, in kWh, one entry per slot.
    solar_cap:
        Nameplate cap on the solar trace; 0 <= solar[t] <= solar_cap.
    grid_price:
        Grid energy price per slot, in dollars per kWh, strictly positive.
    grid_limit:
        Purchasable grid energy per slot, in kWh, nonnegative.
    """

    id: int
    region_id: int
    evse_count: int
    cables_per_evse: int
    evse_energy_limit: float
    solar: Tuple[float, ...]
    solar_cap: float
    grid_price: Tuple[float, ...]
    grid_limit: Tuple[float, ...]


@dataclass(frozen=True)
class ScenarioConfig:
    """Full static description of one simulated instance.

    Attributes
    ----------
    horizon:
        Number of slots T, at least 1.
    regions:
        All regions; position equals id.
    edges:
        Undirected hop-graph edges as (a, b) region-id pairs. One hop
        costs one slot of travel time and ``per_hop_energy`` of battery.
    facilities:
        All charging facilities; position equals id.
    out_of_service_cap:
        Fleet-wide cap I(t) on vehicles that may be out of service in a
        slot, one entry per slot.
    out_of_service_penalty:
        Virtual cost phi(t) per vehicle-slot out of service, in dollars.
    battery_capacity:
        Usable battery size of every vehicle, in kWh.
    charge_increment:
        Granularity of charge targets, in kWh; divides battery_capacity.
    per_hop_energy:
        Battery drain per hop traveled, in kWh.
    per_hop_value_penalty:
        Dollar penalty per hop traveled in a schedule's value.
    soc_value_slope:
        Dollars per kWh of final stored energy in a schedule's value.
    rng_seed:
        Seed recorded by the generator that produced the instance.

    Five cached properties are built once per config object and kept in
    its instance dict: ``hop_table``, ``cells``, ``destinations``,
    ``violations`` (what ``validate`` finds, read by ``check_config``)
    and ``canonical_json`` (read by ``instance_hash``). None is a field:
    equality, hashing and ``as_plain`` ignore them, and
    ``dataclasses.replace`` yields a new object that builds its own.
    """

    horizon: int
    regions: Tuple[Region, ...]
    edges: Tuple[Tuple[int, int], ...]
    facilities: Tuple[Facility, ...]
    out_of_service_cap: Tuple[int, ...]
    out_of_service_penalty: Tuple[float, ...]
    battery_capacity: float
    charge_increment: float
    per_hop_energy: float
    per_hop_value_penalty: float
    soc_value_slope: float
    rng_seed: int = 0

    @cached_property
    def hop_table(self) -> Tuple[Tuple[int, ...], ...]:
        """All-pairs shortest hop counts, -1 for unreachable pairs.

        Built once per config object and kept in the instance dict, so
        lookups never hash the config; ``dataclasses.replace`` yields a
        new object with its own table. Not a field: equality, hashing
        and ``as_plain`` ignore it.
        """
        return _hop_table(self)

    @cached_property
    def cells(self) -> "Cells":
        """The ledger cells of every resource family (``pricing.Cells``),
        built once per config object like ``hop_table``."""
        from .pricing import Cells
        return Cells(self)

    @cached_property
    def destinations(self) -> Tuple["Destinations", ...]:
        """Per anchor region, the reachable destinations ranked once
        (:class:`Destinations`), built once per config object like
        ``hop_table``."""
        return _destinations(self)

    @cached_property
    def violations(self) -> Tuple["Violation", ...]:
        """``validate(self)``, run once per config object like
        ``hop_table``, so each solver's ``check_config`` reads it."""
        return tuple(validate(self))

    @cached_property
    def canonical_json(self) -> str:
        """``as_plain(self)`` as compact JSON with sorted keys, dumped once
        per config object like ``hop_table``; ``instance_hash`` hashes it."""
        return json.dumps(as_plain(self), sort_keys=True, separators=(",", ":"))


@dataclass(frozen=True)
class Session:
    """A between-ride event: one idle vehicle awaiting dispatch.

    Attributes
    ----------
    id:
        Unique nonnegative integer; the online stream is ordered by
        nondecreasing start slot, ties by id.
    t_minus:
        Drop-off slot at which the vehicle becomes available (1..T).
    origin_region:
        Region of the drop-off.
    soc:
        State of charge at drop-off as a fraction of battery_capacity.
    """

    id: int
    t_minus: int
    origin_region: int
    soc: float


# ---------------------------------------------------------------------------
# Plans and decisions
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True, init=False)
class Schedule:
    """One feasible charging/pickup plan for a session.

    The vehicle leaves its origin at ``t_minus``, optionally travels to a
    facility (arriving at ``t_arrival``), holds one cable from arrival
    through its last charging slot, and then travels to ``dest_region``,
    arriving at ``t_plus``. The out-of-service indicator is 1 exactly on
    [t_minus, t_plus].

    Attributes
    ----------
    session_id:
        Owning session.
    t_minus:
        Inception slot, copied from the session.
    facility_id / evse_index:
        Charging location, or both None for a pure rebalance.
    t_arrival:
        Slot of arrival at the facility; None without charging.
    cable_slots:
        Slots with the cable indicator set, contiguous from t_arrival
        through the last charging slot; empty without charging.
    energy_slots:
        (slot, kwh) pairs with positive energy drawn; kwh is the full
        per-slot rate except for one final remainder slot.
    dest_region:
        Destination region d+.
    t_plus:
        Arrival slot at the destination; d+ is counted in this slot only.
    hops_total:
        Hops traveled origin -> (facility ->) destination.
    final_soc:
        State of charge on arrival, fraction of battery_capacity.
    value:
        Schedule value v_js in dollars.
    """

    session_id: int
    t_minus: int
    facility_id: Optional[int]
    evse_index: Optional[int]
    t_arrival: Optional[int]
    cable_slots: Tuple[int, ...]
    energy_slots: Tuple[Tuple[int, float], ...]
    dest_region: int
    t_plus: int
    hops_total: int
    final_soc: float
    value: float

    def __init__(self, session_id: int, t_minus: int, facility_id: Optional[int],
                 evse_index: Optional[int], t_arrival: Optional[int],
                 cable_slots: Tuple[int, ...], energy_slots: Tuple[Tuple[int, float], ...],
                 dest_region: int, t_plus: int, hops_total: int, final_soc: float,
                 value: float) -> None:
        # the frozen dataclass's own __init__ goes through object.__setattr__
        # by name; each slot's descriptor sets its field directly
        _set_session_id(self, session_id)
        _set_t_minus(self, t_minus)
        _set_facility_id(self, facility_id)
        _set_evse_index(self, evse_index)
        _set_t_arrival(self, t_arrival)
        _set_cable_slots(self, cable_slots)
        _set_energy_slots(self, energy_slots)
        _set_dest_region(self, dest_region)
        _set_t_plus(self, t_plus)
        _set_hops_total(self, hops_total)
        _set_final_soc(self, final_soc)
        _set_value(self, value)

    @property
    def charging(self) -> bool:
        return self.facility_id is not None

    @property
    def out_of_service_slots(self) -> range:
        """Slots with o(t) = 1, inclusive on both ends."""
        return range(self.t_minus, self.t_plus + 1)

    @property
    def energy_total(self) -> float:
        return sum(e for _, e in self.energy_slots)


# The setters of Schedule's slots, bound once for its __init__.
_set_session_id = Schedule.session_id.__set__
_set_t_minus = Schedule.t_minus.__set__
_set_facility_id = Schedule.facility_id.__set__
_set_evse_index = Schedule.evse_index.__set__
_set_t_arrival = Schedule.t_arrival.__set__
_set_cable_slots = Schedule.cable_slots.__set__
_set_energy_slots = Schedule.energy_slots.__set__
_set_dest_region = Schedule.dest_region.__set__
_set_t_plus = Schedule.t_plus.__set__
_set_hops_total = Schedule.hops_total.__set__
_set_final_soc = Schedule.final_soc.__set__
_set_value = Schedule.value.__set__


def plan_value(config: "ScenarioConfig", final_energy: float, dest: int,
               hops_total: int) -> float:
    """v_js: stored-energy value plus destination value minus hop penalty."""
    return (config.soc_value_slope * final_energy
            + config.regions[dest].pickup_value
            - config.per_hop_value_penalty * hops_total)


@dataclass(frozen=True)
class PriceBreakdown:
    """Per-family payment components of one utility evaluation."""

    destination: float = 0.0
    out_of_service: float = 0.0
    cable: float = 0.0
    energy: float = 0.0
    generation: float = 0.0

    @property
    def total(self) -> float:
        return (self.destination + self.out_of_service + self.cable
                + self.energy + self.generation)


@dataclass(frozen=True)
class DispatchDecision:
    """Outcome for one session: a chosen schedule or the depot.

    Depot implies utility 0 and no ledger change. For the online
    dispatcher ``utility`` is the price-based utility of the chosen
    schedule; threshold baselines ignore prices and record the raw
    schedule value instead.
    """

    session_id: int
    schedule: Optional[Schedule]
    utility: float
    breakdown: PriceBreakdown = PriceBreakdown()

    @property
    def is_depot(self) -> bool:
        return self.schedule is None


@dataclass
class RunReport:
    """Result of one simulated run.

    Trajectories have length J + 1 with P[0] = D[0] = 0. The dual
    trajectory is stored shifted by its base value (the sum of conjugates
    at empty-ledger prices), so differences are exact dual increments and
    the end value still dominates the primal end value. Baseline runs
    carry no dual trajectory.
    """

    algorithm: str
    instance_hash: str
    psi: int
    bounds: Optional["PriceBounds"]
    alphas: Optional["Alphas"]
    decisions: Tuple[DispatchDecision, ...]
    primal_trajectory: Tuple[float, ...]
    dual_trajectory: Optional[Tuple[float, ...]]
    welfare: float
    peak_utilization: Dict[str, float]

    @property
    def accepted(self) -> int:
        return sum(1 for d in self.decisions if not d.is_depot)


# ---------------------------------------------------------------------------
# Resource ledger
# ---------------------------------------------------------------------------


class CapacityError(AssertionError):
    """A ledger update breached a hard capacity invariant."""


class ResourceLedger:
    """Running load of every resource cell.

    ``loads[k][i]`` is the load of cell i of family k, laid out as in
    ``cells`` (``pricing.Cells``): cables in use and energy drawn per
    (facility, EVSE, slot), energy generated per (facility, slot), vehicle
    arrivals per (region, slot) and vehicles out of service per slot. A
    facility's generation load always equals its summed EVSE energy.
    """

    __slots__ = ("cells", "loads")

    def __init__(self, cells: "Cells", loads: List[list]) -> None:
        self.cells = cells
        self.loads = loads

    @classmethod
    def zero(cls, config: ScenarioConfig) -> "ResourceLedger":
        cells = config.cells
        return cls(cells, [[0] * len(shapes) for shapes in cells.shapes])

    def apply(self, schedule: Schedule) -> List[float]:
        """Add one schedule's demands and return the loads they overwrote,
        in ``cells.demands`` order: written back, those undo it exactly,
        where subtracting the demands can leave float residue."""
        loads, overwritten = self.loads, []
        for k, i, amount, _ in self.cells.demands(schedule):
            y = loads[k][i]
            overwritten.append(y)
            loads[k][i] = y + amount
        return overwritten

    def fits(self, schedule: Schedule) -> bool:
        """True when applying the schedule breaches no capacity."""
        loads = self.loads
        for k, i, amount, shape in self.cells.demands(schedule):
            if loads[k][i] + amount > shape.cap + MONEY_ATOL:
                return False
        return True

    def violations(self, config: ScenarioConfig) -> List["Violation"]:
        """All capacity breaches in the current counts."""
        from .pricing import ENERGY, GENERATION

        out: List[Violation] = []
        cells = config.cells
        for loads, shapes in zip(self.loads, cells.shapes):
            coords = None  # the family's cell coordinates, listed at its first breach
            for i, (y, shape) in enumerate(zip(loads, shapes)):
                if y > shape.cap + MONEY_ATOL:
                    family = shape.family
                    if coords is None:
                        coords = [where for where, _ in family.cells(config)]
                    out.append(Violation("y_" + family.bound, family.where.format(*coords[i]),
                                         f"{y} > {family.symbol}={shape.cap}"))
        T = config.horizon
        energy, generated = self.loads[ENERGY], self.loads[GENERATION]
        for f, fac in enumerate(config.facilities):
            for t in range(1, T + 1):
                drawn = sum(energy[cells.evse_cell(f, m, t)] for m in range(fac.evse_count))
                if abs(generated[cells.facility_cell(f, t)] - drawn) > MONEY_ATOL:
                    out.append(Violation("y_g", f"facility {f} slot {t}",
                                         "generation does not match summed EVSE energy"))
        return out

    def assert_capacity(self, config: ScenarioConfig) -> None:
        vs = self.violations(config)
        if vs:
            raise CapacityError("; ".join(str(v) for v in vs[:5]))


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Violation:
    """One named invariant breach; data, not an exception."""

    field: str
    where: str
    message: str

    def __str__(self) -> str:
        return f"{self.field} at {self.where}: {self.message}"


def _unless_finite(x: float, bound: str = "", label: str = "") -> str:
    """The message for a number failing its range check: ``label``, the
    number and ``bound``, or that it is not finite when it is infinite or
    NaN, whatever its range."""
    return f"{label}{x} {bound}" if math.isfinite(x) else f"{x} is not finite"


def _nonnegative(x: float) -> bool:
    return x >= 0


def _positive(x: float) -> bool:
    return x > 0


def _check_number(out: List[Violation], name: str, where: str, x: float,
                  ok: Optional[Callable[[float], bool]] = None, bound: str = "",
                  label: str = "", slot: int = 0) -> None:
    """Name ``x`` once unless it is finite and within its range ``ok``, if
    any; ``bound`` says what the range refuses, in ``_unless_finite``'s
    message. A trace entry is named at its ``slot`` of ``where``."""
    if not (math.isfinite(x) and (ok is None or ok(x))):
        if slot:
            where = f"{where} slot {slot}".lstrip()
        out.append(Violation(name, where, _unless_finite(x, bound, label)))


def _check_trace(out: List[Violation], name: str, owner: str, trace: Sequence[float],
                 T: int, ok: Callable[[float], bool], bound: str, label: str) -> None:
    """Name a per-slot trace whose length is not T, then check each of its
    first T entries with ``_check_number``. ``owner`` is the region or
    facility it belongs to, "" for a fleet-wide trace."""
    if len(trace) != T:
        out.append(Violation(name, owner or "config", f"trace length {len(trace)} != T={T}"))
    for t, x in enumerate(trace[:T], 1):
        _check_number(out, name, owner, x, ok, bound, label, t)


def validate(config: ScenarioConfig) -> List[Violation]:
    """Check every static invariant; an empty list means a valid instance.
    Every number must also be finite: an infinite or NaN one is named as
    such in place of its range (see ``_unless_finite``)."""
    out: List[Violation] = []
    T = config.horizon
    if T < 1:
        out.append(Violation("horizon", "config", f"T={T} < 1"))
        return out

    n = len(config.regions)
    for i, r in enumerate(config.regions):
        where = f"region {i}"
        if r.id != i:
            out.append(Violation("region.id", f"position {i}", f"id {r.id} != position"))
        _check_number(out, "pickup_value", where, r.pickup_value, _nonnegative, "< 0")
        _check_trace(out, "vehicle_limit", where, r.vehicle_limit, T, _nonnegative, "< 0",
                     "Omega=")
        if r.facility_id is not None:
            if not (0 <= r.facility_id < len(config.facilities)):
                out.append(Violation("facility_id", where, f"{r.facility_id} unknown"))
            elif config.facilities[r.facility_id].region_id != i:
                out.append(Violation("facility_id", where,
                                     "facility does not point back at region"))

    for i, f in enumerate(config.facilities):
        where = f"facility {i}"
        if f.id != i:
            out.append(Violation("facility.id", f"position {i}", f"id {f.id} != position"))
        if not (0 <= f.region_id < n):
            out.append(Violation("region_id", where, f"{f.region_id} unknown"))
        if f.evse_count < 1:
            out.append(Violation("evse_count", where, f"M={f.evse_count} < 1"))
        if f.cables_per_evse < 1:
            out.append(Violation("cables_per_evse", where, f"C={f.cables_per_evse} < 1"))
        _check_number(out, "evse_energy_limit", where, f.evse_energy_limit, _positive,
                      "<= 0", "E=")
        _check_number(out, "solar_cap", where, f.solar_cap)
        _check_trace(out, "solar", where, f.solar, T,
                     lambda x: 0 <= x <= f.solar_cap + MONEY_ATOL,
                     f"outside [0, {f.solar_cap}]", "delta=")
        _check_trace(out, "grid_price", where, f.grid_price, T, _positive, "<= 0", "pi=")
        _check_trace(out, "grid_limit", where, f.grid_limit, T, _nonnegative, "< 0", "mu=")

    _check_trace(out, "out_of_service_cap", "", config.out_of_service_cap, T,
                 lambda x: x >= 1, "< 1", "I=")
    _check_trace(out, "out_of_service_penalty", "", config.out_of_service_penalty, T,
                 _nonnegative, "< 0", "phi=")

    cap, inc = config.battery_capacity, config.charge_increment
    checked = len(out)
    _check_number(out, "battery_capacity", "config", cap, _positive, "<= 0")
    _check_number(out, "charge_increment", "config", inc, _positive, "<= 0")
    if len(out) == checked:  # both finite and positive
        k = round(cap / inc)
        if k < 1 or abs(k * inc - cap) > MONEY_ATOL:
            out.append(Violation("charge_increment", "config",
                                 f"{inc} does not divide capacity {cap}"))
    for name in ("per_hop_energy", "per_hop_value_penalty", "soc_value_slope"):
        _check_number(out, name, "config", getattr(config, name), _nonnegative, "< 0")

    for a, b in config.edges:
        if not (0 <= a < n and 0 <= b < n):
            out.append(Violation("edges", f"({a}, {b})", "unknown region id"))
        elif a == b:
            out.append(Violation("edges", f"({a}, {b})", "self loop"))

    # positive-demand regions must sit in one connected component
    demand = [r.id for r in config.regions if r.pickup_value > 0]
    if demand and not out:
        table = config.hop_table
        root = demand[0]
        for d in demand[1:]:
            if table[root][d] < 0:
                out.append(Violation("edges", f"regions {root} and {d}",
                                     "positive-demand regions not connected"))
    return out


def check_config(config: ScenarioConfig) -> None:
    """Raise ``ValueError("invalid config: …")`` if validate finds a
    problem; every solver calls it before it reads the config. The
    problems are the config object's cached ``violations``."""
    problems = config.violations
    if problems:
        raise ValueError("invalid config: " + "; ".join(str(p) for p in problems[:5]))


def validate_sessions(sessions: Sequence[Session],
                      config: ScenarioConfig) -> List[Violation]:
    """Check a session stream against its config; [] means it can be run.
    Ids are unique, each state of charge lies in [0, 1], each start slot in
    1..T and each origin is a known region, and start slots never drop."""
    out: List[Violation] = []
    seen = set()
    last = 1
    for s in sessions:
        where = f"session {s.id}"
        if s.id in seen:
            out.append(Violation("id", where, "duplicate id"))
        seen.add(s.id)
        if not 0.0 <= s.soc <= 1.0:  # also false for NaN
            out.append(Violation("soc", where, f"{s.soc} outside [0, 1]"))
        if not 1 <= s.t_minus <= config.horizon:
            out.append(Violation("t_minus", where,
                                 f"{s.t_minus} outside 1..{config.horizon}"))
        elif s.t_minus < last:
            out.append(Violation("t_minus", where,
                                 f"arrives out of order ({s.t_minus} < {last})"))
        last = s.t_minus
        if not 0 <= s.origin_region < len(config.regions):
            out.append(Violation("origin_region", where, f"{s.origin_region} unknown"))
    return out


def check_sessions(sessions: Sequence[Session], config: ScenarioConfig) -> None:
    """Raise ``ValueError("invalid sessions: …")`` if validate_sessions
    finds a problem; every solver calls it before its first session."""
    bad = validate_sessions(sessions, config)
    if bad:
        raise ValueError("invalid sessions: " + "; ".join(str(v) for v in bad[:5]))


# ---------------------------------------------------------------------------
# Travel model
# ---------------------------------------------------------------------------


def _hop_table(config: ScenarioConfig) -> Tuple[Tuple[int, ...], ...]:
    """All-pairs shortest hop counts by BFS; -1 marks unreachable."""
    n = len(config.regions)
    adj: List[List[int]] = [[] for _ in range(n)]
    for a, b in config.edges:
        if 0 <= a < n and 0 <= b < n and a != b:
            adj[a].append(b)
            adj[b].append(a)
    rows = []
    for src in range(n):
        dist = [-1] * n
        dist[src] = 0
        queue = deque([src])
        while queue:
            u = queue.popleft()
            for v in adj[u]:
                if dist[v] < 0:
                    dist[v] = dist[u] + 1
                    queue.append(v)
        rows.append(tuple(dist))
    return tuple(rows)


def hop_row(origin: int, config: ScenarioConfig) -> Tuple[int, ...]:
    """Hop counts from one region to every region, -1 for an unreachable
    one: the origin's row of ``config.hop_table``, range-checked once."""
    if not 0 <= origin < len(config.regions):
        raise ValueError(f"unknown region {origin}")
    return config.hop_table[origin]


def facility_legs(origin: int, energy: float, t0: int,
                  config: ScenarioConfig) -> List[Tuple[int, Facility]]:
    """``(hops, facility)`` for every facility that a vehicle leaving
    ``origin`` in slot ``t0`` with ``energy`` kWh stored reaches within
    the horizon and with a battery of at least ``-MONEY_ATOL``; nearest
    first, ties to the lower id."""
    row = hop_row(origin, config)
    legs = []
    for fac in config.facilities:
        h1 = row[fac.region_id]
        if (h1 >= 0 and t0 + h1 <= config.horizon
                and energy - h1 * config.per_hop_energy >= -MONEY_ATOL):
            legs.append((h1, fac))
    legs.sort(key=lambda leg: leg[0])
    return legs


@dataclass(frozen=True)
class Destinations:
    """The regions reachable from one anchor region, ranked for the plan
    builders; ``config.destinations[anchor]``.

    A group is the destinations at one hop count from the anchor that
    share one pickup value, bit for bit: ``(hops, dests)`` with ``dests``
    ascending. A plan's value depends on its destination only through the
    pickup value and the hop count, so for a fixed rest of the plan every
    destination of a group scores the same float, and a group passes or
    fails the energy, horizon and radius filters as a whole.

    Attributes
    ----------
    by_pickup:
        ``(hops, dest)`` pairs, best pickup value first, ties to the
        closer then the lower-id region.
    rings:
        One ``(hops, dest, ahead)`` triple per hop count, ascending:
        ``dest`` is the lowest-id region with the best pickup value at that
        distance, ``ahead`` a region with the best pickup value at that
        distance or farther, the nearest such ring's ``dest``. At a fixed
        final energy and hop count ``plan_value`` is monotone in the
        pickup value, so no other region of the ring scores higher, and
        ``ahead`` read at this ring's final energy and hop count scores
        at least as high as any region of a farther ring
        (``offline._session_bound`` stops there).
    batches:
        Every group, in descending order of its key
        ``pickup - (soc_value_slope * per_hop_energy +
        per_hop_value_penalty) * hops``, cut wherever consecutive keys
        differ by more than the slack below. Given the facility, its hop
        count and the charge target, a plan's value is a constant plus
        the key of its destination group, up to rounding. The slack is 64
        ulps of a bound on the magnitude of every term that enters that
        value or the key, which is more than twice their combined
        rounding error; so every plan of one batch has a strictly higher
        value, as a float, than every plan of a later batch, whatever the
        magnitudes of the config. A fixed slack fails once pickup values
        are large: their ulp outgrows it.
    """

    by_pickup: Tuple[Tuple[int, int], ...]
    rings: Tuple[Tuple[int, int, int], ...]
    batches: Tuple[Tuple[Tuple[int, Tuple[int, ...]], ...], ...]


def _destinations(config: ScenarioConfig) -> Tuple[Destinations, ...]:
    pickup = [r.pickup_value for r in config.regions]
    # 0.0 and -0.0 are equal but can give values of either sign
    sign = [math.copysign(1.0, p) for p in pickup]
    diameter = max(map(max, config.hop_table), default=0)
    s, e, q = (config.soc_value_slope, config.per_hop_energy,
               config.per_hop_value_penalty)
    per_hop = s * e + q
    # stored energy stays within the battery, up to the money tolerance,
    # and a plan travels at most two diameters
    slack = 64 * math.ulp(abs(s) * (abs(config.battery_capacity) + 1.0 + abs(e) * diameter)
                          + max(map(abs, pickup), default=0.0) + abs(q) * 2 * diameter)
    out = []
    for row in config.hop_table:
        ranked = sorted((-pickup[dest], h, dest) for dest, h in enumerate(row) if h >= 0)
        groups = {}
        rings = {}
        for neg_p, h, dest in ranked:
            groups.setdefault((h, neg_p, sign[dest]), []).append(dest)
            rings.setdefault(h, dest)
        batches = []
        previous = None
        for neg_key, h, _, dests in sorted((neg_p + per_hop * h, h, neg_p, tuple(dests))
                                           for (h, neg_p, _), dests in groups.items()):
            if previous is None or neg_key - previous > slack:
                batch = []
                batches.append(batch)
            batch.append((h, dests))
            previous = neg_key
        farthest_first = []
        ahead = None
        for h, dest in sorted(rings.items(), reverse=True):
            if ahead is None or pickup[dest] >= pickup[ahead]:
                ahead = dest
            farthest_first.append((h, dest, ahead))
        out.append(Destinations(by_pickup=tuple((h, dest) for _, h, dest in ranked),
                                rings=tuple(reversed(farthest_first)),
                                batches=tuple(map(tuple, batches))))
    return tuple(out)


# ---------------------------------------------------------------------------
# Ledger reconstruction
# ---------------------------------------------------------------------------


def recompute_ledger(decisions: Sequence[DispatchDecision], config: ScenarioConfig,
                     strict: bool = False) -> ResourceLedger:
    """Rebuild the ledger by summing each chosen schedule's indicators.

    With strict=True a capacity breach raises CapacityError instead of
    being returned silently inside the ledger; either way nothing is
    clamped.
    """
    ledger = ResourceLedger.zero(config)
    for decision in decisions:
        if decision.schedule is not None:
            ledger.apply(decision.schedule)
    if strict:
        ledger.assert_capacity(config)
    return ledger


# ---------------------------------------------------------------------------
# Schedule invariants
# ---------------------------------------------------------------------------


def schedule_violations(schedule: Schedule, config: ScenarioConfig,
                        session: Optional[Session] = None) -> List[str]:
    """Check one schedule against the domain invariants; [] when clean."""
    out: List[str] = []
    T = config.horizon
    cap = config.battery_capacity
    if not (1 <= schedule.t_minus <= T):
        out.append(f"t_minus {schedule.t_minus} outside 1..{T}")
    if not (schedule.t_minus <= schedule.t_plus <= T):
        out.append(f"t_plus {schedule.t_plus} outside t_minus..{T}")
    known_dest = schedule.dest_region in range(len(config.regions))
    if not known_dest:
        out.append(f"unknown destination {schedule.dest_region}")
    if not (-MONEY_ATOL <= schedule.final_soc * cap <= cap + MONEY_ATOL):
        out.append(f"final stored energy {schedule.final_soc * cap} outside [0, {cap}]")

    # an unknown facility skips the checks that read it; the last leg
    # leaves at t_leave, None for a charging plan without an arrival slot
    fac, t_leave = None, schedule.t_minus
    if schedule.charging:
        if schedule.facility_id in range(len(config.facilities)):
            fac = config.facilities[schedule.facility_id]
            if schedule.evse_index not in range(fac.evse_count):
                out.append(f"unknown EVSE {schedule.evse_index}")
        else:
            out.append(f"unknown facility {schedule.facility_id}")
        if schedule.t_arrival is None:
            out.append("charging schedule without arrival slot")
            t_leave = None
        else:
            lo, t_leave = schedule.t_arrival, max(schedule.cable_slots or (schedule.t_arrival,))
            if tuple(schedule.cable_slots) != tuple(range(lo, t_leave + 1)):
                out.append("cable slots not contiguous from arrival")
            if not (schedule.t_minus <= lo and t_leave <= schedule.t_plus):
                out.append("cable held outside the out-of-service window")
        cable_set = set(schedule.cable_slots)
        limit = math.inf if fac is None else fac.evse_energy_limit
        for t, e in schedule.energy_slots:
            if t not in cable_set:
                out.append(f"energy in slot {t} without a cable")
            if not (0 < e <= limit + MONEY_ATOL):
                out.append(f"per-slot energy {e} outside (0, {limit}]")
        if schedule.energy_slots:
            # every slot draws the plan's rate except one final remainder
            rate = max(e for _, e in schedule.energy_slots)
            full = [e for _, e in schedule.energy_slots
                    if abs(e - rate) <= MONEY_ATOL]
            if len(schedule.energy_slots) - len(full) > 1:
                out.append("more than one partial-rate slot")
    else:
        if schedule.cable_slots or schedule.energy_slots:
            out.append("cable or energy indicators without a facility")

    if session is not None:
        if session.id != schedule.session_id:
            out.append("session id mismatch")
        if session.t_minus != schedule.t_minus:
            out.append("t_minus does not match session")
        # replay the stored energy and the clock hop by hop, up to the
        # first leg without a path (-1 hops) or with an unknown end; a
        # plan whose legs all replay must also carry their hop count and
        # its plan value
        energy = session.soc * cap
        origin = session.origin_region
        anchor = origin if origin in range(len(config.regions)) else None
        h1 = 0
        if anchor is None:
            out.append(f"unknown origin {origin}")
        elif schedule.charging:
            anchor = None
            if fac is not None:
                h1 = hop_row(origin, config)[fac.region_id]
                if h1 < 0:
                    out.append("facility unreachable")
                else:
                    anchor = fac.region_id
                    t_arr = schedule.t_minus + h1
                    if schedule.t_arrival not in (None, t_arr):
                        out.append(f"t_arrival {schedule.t_arrival} != t_minus + h1 = {t_arr}")
                    energy -= h1 * config.per_hop_energy
                    if energy < -MONEY_ATOL:
                        out.append("battery below 0 en route to facility")
                    energy += schedule.energy_total
                    if energy > cap + MONEY_ATOL:
                        out.append("battery above capacity after charging")
        if anchor is not None and known_dest:
            # hop counts are symmetric
            h2 = hop_row(schedule.dest_region, config)[anchor]
            if h2 < 0:
                out.append("destination unreachable")
            else:
                energy -= h2 * config.per_hop_energy
                if t_leave is not None and schedule.t_plus != t_leave + h2:
                    out.append(f"t_plus {schedule.t_plus} != t_leave + h2 = {t_leave + h2}")
                if schedule.hops_total != h1 + h2:
                    out.append(f"hops_total {schedule.hops_total} != h1 + h2 = {h1 + h2}")
                v = plan_value(config, schedule.final_soc * cap, schedule.dest_region, h1 + h2)
                if not abs(schedule.value - v) <= MONEY_ATOL + 1e-9 * abs(v):
                    out.append(f"value {schedule.value} != plan value {v}")
        if energy < -MONEY_ATOL:
            out.append("battery below 0 on arrival")
        if abs(energy - schedule.final_soc * cap) > 1e-6:
            out.append("final_soc does not match replayed trajectory")
    return out


# ---------------------------------------------------------------------------
# Canonical serialization and hashing
# ---------------------------------------------------------------------------


@cache
def _field_names(cls) -> Optional[Tuple[str, ...]]:
    return tuple(f.name for f in fields(cls)) if is_dataclass(cls) else None


def as_plain(obj):
    """A dataclass as a dict of its fields, recursing into nested
    dataclasses and into tuples whose first item is one; every other
    value is kept as it is (``json`` writes tuples as lists). Unlike
    ``dataclasses.asdict`` it copies no leaf."""
    names = _field_names(type(obj))
    if names is not None:
        return {name: as_plain(getattr(obj, name)) for name in names}
    if isinstance(obj, tuple) and obj and _field_names(type(obj[0])) is not None:
        return [as_plain(x) for x in obj]
    return obj


def instance_hash(config: ScenarioConfig, sessions: Sequence[Session]) -> str:
    """Stable sha256 over the canonical JSON of (config, session stream):
    ``{"config":…,"sessions":[…]}``, the config's part spliced in from its
    cached ``canonical_json``."""
    stream = json.dumps([[s.id, s.t_minus, s.origin_region, s.soc] for s in sessions],
                        separators=(",", ":"))
    blob = f'{{"config":{config.canonical_json},"sessions":{stream}}}'
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()
