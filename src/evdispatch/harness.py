"""Scenario generation, file IO, and run comparison.

Everything here is plumbing around the core library: deterministic
synthetic instances (grid-graph regions, diurnal solar, two-tier
time-of-use prices, Poisson arrivals), JSON/CSV round-trips for configs,
session streams and run reports, and the comparison table that lines up
algorithms against the offline bounds.

All randomness flows from one seeded generator, and every artifact is
written with canonical key order, so equal seeds give equal bytes. Every
JSON artifact is a dataclass written as its fields (``domain.as_plain``)
and read back by its type hints (``from_plain``).
"""

from __future__ import annotations

import csv
import functools
import json
import math
import numbers
from dataclasses import MISSING, dataclass, fields, is_dataclass
from typing import (
    Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union, get_args,
    get_origin, get_type_hints,
)

import numpy as np

from .domain import (
    MONEY_ATOL, Facility, Region, RunReport, ScenarioConfig, Session, as_plain,
    check_config,
)
from .pricing import Alphas, PriceBounds


# ---------------------------------------------------------------------------
# Synthetic scenario generation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GeneratorParams:
    """Knobs for the synthetic instance generator.

    Regions form a grid_rows x grid_cols grid with unit-hop edges.
    Facilities are placed in distinct random regions. Solar follows a
    clipped sine over the 06:00-18:00 daylight window, grid prices a
    two-tier time-of-use step, and the out-of-service penalty is twice
    the peak price throughout. Arrivals are Poisson per slot.
    """

    horizon: int = 96
    grid_rows: int = 4
    grid_cols: int = 4
    facility_count: int = 2
    evse_per_facility: int = 3
    cables_per_evse: int = 4
    evse_energy_limit: float = 20.0
    battery_capacity: float = 50.0
    charge_increment: float = 12.5
    per_hop_energy: float = 1.0
    per_hop_value_penalty: float = 0.5
    soc_value_slope: float = 0.5
    pickup_values: Tuple[float, ...] = (15.0, 10.0, 5.0)
    vehicle_limit: int = 40
    out_of_service_cap: int = 80
    offpeak_price: float = 0.15
    peak_price: float = 0.45
    peak_hours: Tuple[float, float] = (16.0, 21.0)
    solar_peak: float = 6.0
    grid_limit: float = 12.0
    arrival_rate: float = 3.2
    soc_choices: Tuple[float, ...] = (0.25, 0.50, 0.75)
    max_sessions: Optional[int] = None


#: Ready-made parameter sets: a fast desk scale, a minimal scale suited
#: to exhaustive offline search, the full evaluation scale, and a
#: congested desk day.
PRESETS: Dict[str, GeneratorParams] = {
    "desk": GeneratorParams(),
    # desk with 10 arrivals per slot meeting one facility of 2 EVSEs,
    # Omega = 3 arrivals per region-slot and I = 25 vehicles out of service
    "rush": GeneratorParams(
        arrival_rate=10.0, facility_count=1, evse_per_facility=2,
        vehicle_limit=3, out_of_service_cap=25),
    "tiny": GeneratorParams(
        horizon=12, grid_rows=2, grid_cols=2, facility_count=1,
        evse_per_facility=1, cables_per_evse=2, evse_energy_limit=10.0,
        battery_capacity=15.0, charge_increment=5.0, per_hop_energy=1.0,
        per_hop_value_penalty=0.5, soc_value_slope=0.5, vehicle_limit=1,
        out_of_service_cap=3, offpeak_price=0.2, peak_price=0.2,
        solar_peak=0.0, grid_limit=10.0, arrival_rate=0.5, max_sessions=6),
    "full": GeneratorParams(
        horizon=96, grid_rows=2, grid_cols=23, facility_count=8,
        evse_per_facility=10, cables_per_evse=4, evse_energy_limit=20.0,
        battery_capacity=50.0, charge_increment=12.5, vehicle_limit=40,
        out_of_service_cap=200, solar_peak=40.0, grid_limit=120.0,
        arrival_rate=10.0),
}


def validate_params(params: GeneratorParams) -> List[str]:
    """Problems of the knobs themselves, [] when the generator can run
    them: every count must be an integer and every number finite. The
    config they generate is then checked by ``validate``, which owns its
    ranges."""
    out = []
    for field in fields(params):
        value = getattr(params, field.name)
        if field.type in ("int", "Optional[int]"):  # annotations are strings here
            if value is not None and not isinstance(value, numbers.Integral):
                out.append(f"{field.name} must be an integer, not {value!r}")
        elif not all(math.isfinite(x) for x in (value if isinstance(value, tuple)
                                                 else (value,))):
            out.append(f"{field.name} must be finite")
    if params.horizon < 1:
        out.append("horizon must be >= 1")
    for name in ("grid_rows", "grid_cols"):
        if getattr(params, name) < 1:
            out.append(f"{name} must be >= 1")
    n = params.grid_rows * params.grid_cols
    if not (1 <= params.facility_count <= n):
        out.append(f"facility_count must be in 1..{n}")
    if params.arrival_rate < 0:
        out.append("arrival_rate must be >= 0")
    if min(params.pickup_values, default=0.0) < 0 or not params.pickup_values:
        out.append("pickup_values must be nonempty and nonnegative")
    if max(params.pickup_values, default=0.0) <= 0:
        out.append("at least one pickup value must be positive")
    if not params.soc_choices:
        out.append("soc_choices must be nonempty")
    if not all(0.0 <= s <= 1.0 for s in params.soc_choices):
        out.append("soc_choices must lie in [0, 1]")
    for name in ("offpeak_price", "peak_price"):
        if getattr(params, name) <= 0:
            out.append(f"{name} must be positive")
    # a window across midnight is refused, not wrapped
    if len(params.peak_hours) != 2 or params.peak_hours[0] > params.peak_hours[1]:
        out.append("peak_hours must be (start, end) with start <= end")
    if params.max_sessions is not None and params.max_sessions < 0:
        out.append("max_sessions must be >= 0 when set")
    return out


def _grid_edges(rows: int, cols: int) -> Tuple[Tuple[int, int], ...]:
    edges = []
    for i in range(rows):
        for j in range(cols):
            r = i * cols + j
            if j + 1 < cols:
                edges.append((r, r + 1))
            if i + 1 < rows:
                edges.append((r, r + cols))
    return tuple(edges)


def _slot_hour(t: int, horizon: int) -> float:
    """Clock hour at the midpoint of slot t, mapping the horizon to 24h."""
    return (t - 0.5) * 24.0 / horizon


def generate_scenario(seed: int, params: Union[str, GeneratorParams] = "desk",
                      ) -> Tuple[ScenarioConfig, Tuple[Session, ...]]:
    """Deterministic synthetic instance from one seed.

    Same seed and params give the identical config and session stream,
    bit for bit. Raises ``ValueError("invalid generator params: …")``
    naming each field that ``validate_params`` rejects, or that
    ``validate`` rejects in the config the params generate.
    """
    if isinstance(params, str):
        try:
            params = PRESETS[params]
        except KeyError:
            raise ValueError(f"unknown preset {params!r}; "
                             f"choose from {sorted(PRESETS)}") from None
    problems = validate_params(params)
    if problems:
        raise ValueError("invalid generator params: " + "; ".join(problems))

    rng = np.random.default_rng(seed)
    T = params.horizon
    n = params.grid_rows * params.grid_cols

    facility_regions = sorted(int(r) for r in rng.choice(
        n, size=params.facility_count, replace=False))
    region_to_facility = {r: f for f, r in enumerate(facility_regions)}
    values = [float(v) for v in rng.choice(params.pickup_values, size=n)]

    regions = tuple(
        Region(id=d, pickup_value=values[d],
               vehicle_limit=(params.vehicle_limit,) * T,
               facility_id=region_to_facility.get(d))
        for d in range(n))

    phi = 2.0 * max(params.peak_price, params.offpeak_price)
    lo_h, hi_h = params.peak_hours
    prices = tuple(
        params.peak_price if lo_h <= _slot_hour(t, T) < hi_h else params.offpeak_price
        for t in range(1, T + 1))
    solar_cap = params.solar_peak * 1.15

    facilities = []
    for f, r in enumerate(facility_regions):
        shape = [max(0.0, math.sin(math.pi * (_slot_hour(t, T) - 6.0) / 12.0))
                 for t in range(1, T + 1)]
        noise = rng.uniform(0.85, 1.15, size=T)
        solar = tuple(
            min(solar_cap, max(0.0, params.solar_peak * s * float(x)))
            for s, x in zip(shape, noise))
        facilities.append(Facility(
            id=f, region_id=r, evse_count=params.evse_per_facility,
            cables_per_evse=params.cables_per_evse,
            evse_energy_limit=params.evse_energy_limit,
            solar=solar, solar_cap=solar_cap,
            grid_price=prices, grid_limit=(params.grid_limit,) * T))

    config = ScenarioConfig(
        horizon=T, regions=regions, edges=_grid_edges(params.grid_rows, params.grid_cols),
        facilities=tuple(facilities),
        out_of_service_cap=(params.out_of_service_cap,) * T,
        out_of_service_penalty=(phi,) * T,
        battery_capacity=params.battery_capacity,
        charge_increment=params.charge_increment,
        per_hop_energy=params.per_hop_energy,
        per_hop_value_penalty=params.per_hop_value_penalty,
        soc_value_slope=params.soc_value_slope,
        rng_seed=seed)
    try:
        check_config(config)
    except ValueError as exc:
        raise ValueError(f"invalid generator params: {exc}") from None

    sessions: List[Session] = []
    sid = 0
    for t in range(1, T + 1):
        count = int(rng.poisson(params.arrival_rate))
        for _ in range(count):
            origin = int(rng.integers(0, n))
            soc = float(rng.choice(params.soc_choices))
            if params.max_sessions is None or sid < params.max_sessions:
                sessions.append(Session(id=sid, t_minus=t,
                                        origin_region=origin, soc=soc))
            sid += 1
    return config, tuple(sessions)


# ---------------------------------------------------------------------------
# Config / session / report round-trips
# ---------------------------------------------------------------------------


def _integer(x) -> int:
    """The value of an integer field; a number with a fraction is refused,
    not truncated."""
    if isinstance(x, float) and not x.is_integer():
        raise ValueError(f"{x!r} is not an integer")
    return int(x)


def from_plain(cls, data):
    """Inverse of ``as_plain``: ``data``, as ``json`` parsed it, read as
    type ``cls`` by its type hints.

    A dataclass is read from a dict by field name: unknown keys are
    ignored and a field with a default may be omitted. A ``Dict`` is read
    key by key and value by value from a JSON object. A tuple is read
    item by item, and a fixed-length one is length-checked. ``Optional``
    accepts null, ``int`` goes through ``_integer`` and any other type
    through its constructor. A missing field raises ``KeyError``, a
    malformed value ``TypeError`` or ``ValueError``.
    """
    return _reader(cls)(data)


@functools.cache
def _reader(tp) -> Callable:
    """The reader of one type, built once from its type hints."""
    if is_dataclass(tp):
        # domain imports these two names only for type checking
        hints = get_type_hints(tp, localns={"Alphas": Alphas, "PriceBounds": PriceBounds})
        spec = [(f.name, _reader(hints[f.name]), f.default is MISSING)
                for f in fields(tp)]

        def read_dataclass(data):
            kwargs = {}
            for name, read, required in spec:
                if name in data:
                    kwargs[name] = read(data[name])
                elif required:
                    raise KeyError(name)
            return tp(**kwargs)
        return read_dataclass
    args = get_args(tp)
    if get_origin(tp) is dict:
        key, value = [_reader(a) for a in args]

        def read_dict(data):
            if not isinstance(data, dict):
                raise TypeError(f"expected an object, not {type(data).__name__}")
            return {key(k): value(v) for k, v in data.items()}
        return read_dict
    if get_origin(tp) is Union:  # Optional[X]
        (inner,) = [_reader(a) for a in args if a is not type(None)]
        return lambda x: None if x is None else inner(x)
    if get_origin(tp) is tuple:
        if args[-1] is Ellipsis:
            item = _reader(args[0])
            return lambda xs: tuple(map(item, xs))
        items = [_reader(a) for a in args]

        def read_fixed(xs):
            if len(xs) != len(items):
                raise ValueError(f"expected {len(items)} items, got {list(xs)!r}")
            return tuple([read(x) for read, x in zip(items, xs)])
        return read_fixed
    return _integer if tp is int else tp


def _dump_json(payload, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")


def write_config(config: ScenarioConfig, path: str) -> None:
    _dump_json(as_plain(config), path)


def _read_json(path: str, from_dict):
    """``from_dict`` of a JSON file; a malformed file raises a ValueError
    that names it."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return from_dict(json.load(fh))
        except KeyError as exc:
            raise ValueError(f"{path}: missing field {exc}") from None
        except (TypeError, ValueError, OverflowError) as exc:
            raise ValueError(f"{path}: {exc}") from None


def read_config(path: str) -> ScenarioConfig:
    def checked(d: Mapping) -> ScenarioConfig:
        config = from_plain(ScenarioConfig, d)
        check_config(config)
        return config
    return _read_json(path, checked)


def write_sessions(sessions: Sequence[Session], path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "t_minus", "origin_region", "soc"])
        for s in sessions:
            writer.writerow([s.id, s.t_minus, s.origin_region, repr(s.soc)])


def read_sessions(path: str) -> Tuple[Session, ...]:
    sessions = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        for i, row in enumerate(reader, start=2):
            try:
                sessions.append(Session(
                    id=int(row["id"]), t_minus=int(row["t_minus"]),
                    origin_region=int(row["origin_region"]), soc=float(row["soc"])))
            except (KeyError, TypeError, ValueError) as exc:
                raise ValueError(f"{path}: row {i}: {exc}") from None
    return tuple(sessions)


def report_to_dict(report: RunReport) -> dict:
    """``as_plain`` of a report plus two derived keys that reading
    ignores: ``accepted`` and ``alphas.alpha``."""
    out = as_plain(report)
    out["accepted"] = report.accepted
    if report.alphas is not None:
        out["alphas"]["alpha"] = report.alphas.alpha
    return out


def write_report(report: RunReport, path: str) -> None:
    _dump_json(report_to_dict(report), path)


def read_report(path: str) -> RunReport:
    return _read_json(path, lambda d: from_plain(RunReport, d))


def write_decisions_csv(report: RunReport, path: str) -> None:
    """One row per session: what the algorithm did with it."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["session_id", "action", "utility", "value",
                         "facility_id", "evse_index", "t_arrival", "t_plus",
                         "dest_region", "energy_kwh", "hops", "final_soc"])
        for d in report.decisions:
            s = d.schedule
            if s is None:
                writer.writerow([d.session_id, "depot", repr(d.utility),
                                 "", "", "", "", "", "", "", "", ""])
                continue
            action = "charge" if s.charging else "rebalance"
            writer.writerow([
                d.session_id, action, repr(d.utility), repr(s.value),
                "" if s.facility_id is None else s.facility_id,
                "" if s.evse_index is None else s.evse_index,
                "" if s.t_arrival is None else s.t_arrival,
                s.t_plus, s.dest_region, repr(s.energy_total),
                s.hops_total, repr(s.final_soc)])


# ---------------------------------------------------------------------------
# Comparison
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ComparisonRow:
    algorithm: str
    welfare: float
    accepted: int
    ratio_to_ub: Optional[float]
    ratio_to_opt: Optional[float]


@dataclass(frozen=True)
class ComparisonTable:
    """Welfare of several runs of one instance against the offline bounds."""

    instance_hash: str
    rows: Tuple[ComparisonRow, ...]
    upper_bound: float
    opt: Optional[float]
    alpha: Optional[float]
    ratio_guarantee_met: Optional[bool]


def compare(reports: Sequence[RunReport], ub: float,
            opt: Optional[float] = None) -> ComparisonTable:
    """Line up runs of one instance against the upper bound.

    Refuses a non-finite ``ub``, ``opt`` or welfare and mixed instances,
    and treats any welfare above the upper bound as a hard contradiction.
    When an exact optimum is supplied, checks alpha * (online welfare)
    >= opt with the first online run's own worst-family alpha.
    """
    if not reports:
        raise ValueError("no reports to compare")
    for name, bound in (("ub", ub), ("opt", opt)):
        if bound is not None and not math.isfinite(bound):
            raise ValueError(f"{name} must be finite, not {bound!r}")
    hashes = {r.instance_hash for r in reports}
    if len(hashes) != 1:
        raise ValueError(f"reports mix {len(hashes)} different instances; "
                         "compare requires a single instance")
    for r in reports:
        if not math.isfinite(r.welfare):
            raise ValueError(f"{r.algorithm} welfare must be finite, not {r.welfare!r}")
        if r.welfare > ub + MONEY_ATOL:
            raise ValueError(
                f"upper bound violated: {r.algorithm} welfare {r.welfare} "
                f"exceeds the bound {ub}")
    if opt is not None and opt > ub + MONEY_ATOL:
        raise ValueError(f"upper bound violated: optimum {opt} exceeds {ub}")

    online = next((r for r in reports if r.algorithm == "online"), None)
    alpha = None if online is None or online.alphas is None else online.alphas.alpha

    rows = tuple(
        ComparisonRow(
            algorithm=r.algorithm, welfare=r.welfare, accepted=r.accepted,
            ratio_to_ub=(r.welfare / ub) if ub > 0 else None,
            ratio_to_opt=(r.welfare / opt) if opt else None)
        for r in reports)

    met: Optional[bool] = None
    if opt is not None and alpha is not None:
        met = alpha * online.welfare >= opt - MONEY_ATOL
    return ComparisonTable(instance_hash=reports[0].instance_hash, rows=rows,
                           upper_bound=ub, opt=opt, alpha=alpha,
                           ratio_guarantee_met=met)


def write_comparison(table: ComparisonTable, csv_path: str, plot_json_path: str) -> None:
    with open(csv_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["algorithm", "welfare", "accepted",
                         "ratio_to_ub", "ratio_to_opt"])
        for row in table.rows:
            writer.writerow([
                row.algorithm, repr(row.welfare), row.accepted,
                "" if row.ratio_to_ub is None else repr(row.ratio_to_ub),
                "" if row.ratio_to_opt is None else repr(row.ratio_to_opt)])
    _dump_json({
        "instance_hash": table.instance_hash,
        "upper_bound": table.upper_bound,
        "opt": table.opt,
        "alpha": table.alpha,
        "ratio_guarantee_met": table.ratio_guarantee_met,
        "series": [
            {"algorithm": row.algorithm, "welfare": row.welfare,
             "ratio_to_ub": row.ratio_to_ub}
            for row in table.rows],
    }, plot_json_path)
