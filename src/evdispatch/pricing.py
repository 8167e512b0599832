"""Dual-price update functions, bound estimation, competitive ratios, and
the differential allocation-payment verifier.

Each of the five resource families posts a price that grows exponentially
in the fraction of capacity already allocated, anchored at L/(2*Psi) when
the resource is empty and exactly at U when it is full. Generation and
out-of-service prices ride on top of their marginal cost offsets (the grid
price pi and the penalty phi).

Prices and payments are pure functions of the load and the resource's
parameters, and this module caches nothing. Its callers reuse results
while the ledger stays put: the candidate builder prices each slot once
per session and the dispatcher memoises payments until a session
commits. Payments are exact integrals of the price curves (see *_payment
below), which is what makes the per-session primal/dual inequality and
weak duality hold to machine precision instead of only up to a
discretization gap. A payment that runs so far past capacity that it
leaves the float range is infinite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from .constants import MONEY_ATOL
from .domain import ScenarioConfig


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
    """Invariant check for a bounds object against a config; [] if clean."""
    out = []
    for name, lo, hi in (("cable", bounds.L_c, bounds.U_c),
                         ("energy", bounds.L_e, bounds.U_e),
                         ("generation", bounds.L_g, bounds.U_g),
                         ("destination", bounds.L_d, bounds.U_d),
                         ("out_of_service", bounds.L_o, bounds.U_o)):
        if not (0 < lo <= hi):
            out.append(f"{name}: need 0 < L <= U, got ({lo}, {hi})")
    pi_max = max((p for f in config.facilities for p in f.grid_price), default=0.0)
    pi_min = min((p for f in config.facilities for p in f.grid_price), default=None)
    if config.facilities and bounds.L_g <= pi_max:
        out.append(f"generation: L_g={bounds.L_g} must exceed max grid price {pi_max}")
    if pi_min is not None and bounds.L_g >= 2 * psi(config) * pi_min:
        out.append("generation: L_g too large for the first-branch exponent base")
    phi_max = max(config.out_of_service_penalty, default=0.0)
    if phi_max > 0 and bounds.L_o <= phi_max:
        out.append(f"out_of_service: L_o={bounds.L_o} must exceed max penalty {phi_max}")
    return out


# ---------------------------------------------------------------------------
# Price update functions (point prices)
# ---------------------------------------------------------------------------


def _exp_price(y: float, cap: float, low: float, high: float, psi_: int,
               offset: float = 0.0) -> float:
    """(low-offset)/(2 Psi) * (2 Psi (high-offset)/(low-offset))^(y/cap) + offset."""
    a = (low - offset) / (2.0 * psi_)
    b = 2.0 * psi_ * (high - offset) / (low - offset)
    return a * b ** (y / cap) + offset


def _check_range(y: float, cap: float, family: str) -> None:
    if y < 0:
        raise ValueError(f"{family}: negative allocation {y}")
    if y > cap + MONEY_ATOL:
        raise ValueError(f"{family}: allocation {y} beyond capacity {cap}")


def price_cable(y: float, cables: int, bounds: PriceBounds, psi_: int) -> float:
    """Posted price of one cable-slot at load y of C."""
    _check_range(y, cables, "cable")
    return _exp_price(y, cables, bounds.L_c, bounds.U_c, psi_)


def price_energy(y: float, energy_limit: float, bounds: PriceBounds, psi_: int) -> float:
    """Posted price per kWh of EVSE energy at load y of E."""
    _check_range(y, energy_limit, "energy")
    return _exp_price(y, energy_limit, bounds.L_e, bounds.U_e, psi_)


def price_generation(y: float, delta: float, mu: float, pi: float,
                     bounds: PriceBounds, psi_: int) -> float:
    """Posted price per kWh of facility generation at load y of delta+mu.

    Below the free solar budget the price climbs from L_g/(2 Psi) to the
    grid price; from delta onward it climbs from just above pi to U_g.
    With no solar the second branch applies from y = 0.
    """
    _check_range(y, delta + mu, "generation")
    if y < delta:
        return (bounds.L_g / (2.0 * psi_)) * (2.0 * psi_ * pi / bounds.L_g) ** (y / delta)
    return _exp_price(y, delta + mu, bounds.L_g, bounds.U_g, psi_, offset=pi)


def price_destination(y: float, omega: float, bounds: PriceBounds, psi_: int) -> float:
    """Posted price of one arrival at load y of Omega. A zero-capacity
    region is permanently at its ceiling price."""
    if omega == 0:
        if y > 0:
            raise ValueError(f"destination: allocation {y} beyond capacity 0")
        return bounds.U_d
    _check_range(y, omega, "destination")
    return _exp_price(y, omega, bounds.L_d, bounds.U_d, psi_)


def price_out_of_service(y: float, cap: float, phi: float,
                         bounds: PriceBounds, psi_: int) -> float:
    """Posted price of one out-of-service vehicle-slot at load y of I."""
    _check_range(y, cap, "out_of_service")
    return _exp_price(y, cap, bounds.L_o, bounds.U_o, psi_, offset=phi)


# ---------------------------------------------------------------------------
# Payments (exact integrals of the price curves)
# ---------------------------------------------------------------------------
#
# The antiderivative of a * b^(y/K) + c is a*K/ln(b) * b^(y/K) + c*y, and it
# extends smoothly beyond K: an increment that would overfill a resource
# meets prices above U, which is precisely the saturation barrier. The
# generation payment adds a one-time surcharge equal to the conjugate jump
# when an increment first reaches the solar boundary; without it the dual
# objective would jump while the payment stays infinitesimal.


def _exp_payment(y0: float, y1: float, cap: float, low: float, high: float,
                 psi_: int, offset: float = 0.0) -> float:
    if y1 < y0:
        raise ValueError("payment requires y1 >= y0")
    if y1 == y0:
        return 0.0
    if cap <= 0:
        return math.inf
    a = (low - offset) / (2.0 * psi_)
    b = 2.0 * psi_ * (high - offset) / (low - offset)
    z = math.log(b)
    try:
        growth = b ** (y1 / cap) - b ** (y0 / cap)
    except OverflowError:
        # an overfill many capacities deep: the barrier price is unbounded
        return math.inf
    return a * cap / z * growth + offset * (y1 - y0)


def cable_payment(y0: float, y1: float, cables: int, bounds: PriceBounds,
                  psi_: int) -> float:
    return _exp_payment(y0, y1, cables, bounds.L_c, bounds.U_c, psi_)


def energy_payment(y0: float, y1: float, energy_limit: float, bounds: PriceBounds,
                   psi_: int) -> float:
    return _exp_payment(y0, y1, energy_limit, bounds.L_e, bounds.U_e, psi_)


def destination_payment(y0: float, y1: float, omega: float, bounds: PriceBounds,
                        psi_: int) -> float:
    return _exp_payment(y0, y1, omega, bounds.L_d, bounds.U_d, psi_)


def out_of_service_payment(y0: float, y1: float, cap: float, phi: float,
                           bounds: PriceBounds, psi_: int) -> float:
    return _exp_payment(y0, y1, cap, bounds.L_o, bounds.U_o, psi_, offset=phi)


def generation_payment(y0: float, y1: float, delta: float, mu: float, pi: float,
                       bounds: PriceBounds, psi_: int) -> float:
    if y1 < y0:
        raise ValueError("payment requires y1 >= y0")
    if y1 == y0:
        return 0.0
    if delta + mu <= 0:
        return math.inf
    total = 0.0
    if y0 < delta:
        b1 = min(y1, delta)
        # first branch: anchor L_g/(2 Psi), ceiling pi at y = delta
        a = bounds.L_g / (2.0 * psi_)
        base = 2.0 * psi_ * pi / bounds.L_g
        z = math.log(base)
        total += a * delta / z * (base ** (b1 / delta) - base ** (y0 / delta))
    if y1 >= delta:
        a2 = max(y0, delta)
        total += _exp_payment(a2, y1, delta + mu, bounds.L_g, bounds.U_g, psi_,
                              offset=pi)
        if y0 < delta:
            # conjugate jump at the solar boundary, charged once on crossing:
            # (delta+mu) times the price step from pi up to the second branch
            p_delta = _exp_price(delta, delta + mu, bounds.L_g, bounds.U_g,
                                 psi_, offset=pi)
            total += (delta + mu) * (p_delta - pi)
    return total


# ---------------------------------------------------------------------------
# Bound estimation from the config alone
# ---------------------------------------------------------------------------


def default_charge_targets(config: ScenarioConfig) -> Tuple[float, ...]:
    """Every multiple of charge_increment up to the battery capacity."""
    k = round(config.battery_capacity / config.charge_increment)
    return tuple(config.charge_increment * i for i in range(1, k + 1))


def effective_charge_rate(fac, charge_rate: Optional[float] = None) -> float:
    """Per-vehicle kWh drawn per charging slot at one facility.

    Defaults to the fair share of the EVSE energy budget across its
    cables, so a fully subscribed EVSE stays within its limit.
    """
    if charge_rate is None:
        return fac.evse_energy_limit / fac.cables_per_evse
    return min(charge_rate, fac.evse_energy_limit)


def _min_slot_energy(config: ScenarioConfig, targets: Sequence[float],
                     charge_rate: Optional[float] = None) -> float:
    """Smallest positive per-slot energy any schedule can draw: the full
    rate or the final remainder slot of some (facility, target) pair."""
    best = math.inf
    for fac in config.facilities:
        rate = effective_charge_rate(fac, charge_rate)
        best = min(best, rate)
        for target in targets:
            if target <= 0 or target > config.battery_capacity + MONEY_ATOL:
                continue
            k = math.ceil(target / rate - 1e-12)
            rem = target - (k - 1) * rate
            if rem > MONEY_ATOL:
                best = min(best, rem)
    if not math.isfinite(best):
        best = min(config.charge_increment, config.battery_capacity)
    return best


def estimate_bounds(config: ScenarioConfig,
                    charge_targets: Optional[Sequence[float]] = None,
                    charge_rate: Optional[float] = None) -> PriceBounds:
    """Conservative (L, U) pairs computed from the config alone.

    U's divide the best possible schedule value by the minimal usage of
    the family's resource (one cable-slot, one vehicle, or the smallest
    positive per-slot energy); L's divide the smallest positive pickup
    value by Psi times the largest per-schedule usage. L_g and L_o are
    then clamped just above the largest grid price and penalty, and the
    U's re-clamped above the L's.

    Raises ValueError when the config admits no positive-value schedule.
    """
    psi_ = psi(config)
    T = config.horizon
    cap = config.battery_capacity

    v_dest_max = max((r.pickup_value for r in config.regions), default=0.0)
    u_best = v_dest_max + config.soc_value_slope * cap
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

    targets = tuple(charge_targets) if charge_targets else default_charge_targets(config)
    e_min = _min_slot_energy(config, targets, charge_rate) if config.facilities else 1.0

    l_c = v_min / (psi_ * T)
    l_e = v_min / (psi_ * cap)
    l_d = v_min / psi_
    l_o = v_min / (psi_ * T)
    u_c = u_best
    u_e = u_best / e_min
    u_g = u_best / e_min
    u_d = u_best
    u_o = u_best
    l_g = l_e

    pi_max = max((p for f in config.facilities for p in f.grid_price), default=0.0)
    if pi_max > 0:
        l_g = max(l_g, pi_max * (1.0 + 1e-6))
        u_g = max(u_g, l_g * (1.0 + 1e-6))
    phi_max = max(config.out_of_service_penalty, default=0.0)
    if phi_max > 0:
        l_o = max(l_o, phi_max * (1.0 + 1e-6))
        u_o = max(u_o, l_o * (1.0 + 1e-6))

    bounds = PriceBounds(L_c=l_c, U_c=max(u_c, l_c), L_e=l_e, U_e=max(u_e, l_e),
                         L_g=l_g, U_g=u_g, L_d=l_d, U_d=max(u_d, l_d),
                         L_o=l_o, U_o=u_o)
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

    def as_dict(self) -> Dict[str, float]:
        return {"a1": self.a1, "a2": self.a2, "a3": self.a3, "a4": self.a4,
                "a5": self.a5, "alpha": self.alpha}


def alphas(bounds: PriceBounds, psi_: int, config: ScenarioConfig) -> Alphas:
    """Per-family ratios ln(2 Psi U/L), with the cost offsets subtracted
    for generation and out-of-service, maximized over their traces."""
    two_psi = 2.0 * psi_
    a1 = math.log(two_psi * bounds.U_c / bounds.L_c)
    a2 = math.log(two_psi * bounds.U_e / bounds.L_e)
    a4 = math.log(two_psi * bounds.U_d / bounds.L_d)
    a3 = 0.0
    for fac in config.facilities:
        for pi in fac.grid_price:
            a3 = max(a3, math.log(two_psi * (bounds.U_g - pi) / (bounds.L_g - pi)))
    if not config.facilities:
        a3 = math.log(two_psi * bounds.U_g / bounds.L_g)
    a5 = 0.0
    for phi in config.out_of_service_penalty:
        a5 = max(a5, math.log(two_psi * (bounds.U_o - phi) / (bounds.L_o - phi)))
    if not config.out_of_service_penalty:
        a5 = math.log(two_psi * bounds.U_o / bounds.L_o)
    out = Alphas(a1=a1, a2=a2, a3=a3, a4=a4, a5=a5)
    for name, val in out.as_dict().items():
        if val < 1.0:
            raise ValueError(f"ratio component {name}={val} below 1; bounds too tight")
    return out


# ---------------------------------------------------------------------------
# Differential allocation-payment verifier
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DaprReport:
    """Result of one allocation-payment grid check.

    The verifier walks a uniform allocation grid and checks, per
    increment, that the margin

        (p(y) - f'(y)) * dy - (1/alpha) * f*'(p(y)) * p'(y) * dy

    is nonnegative: the price the allocator collects above marginal cost
    must cover the dual objective's growth at rate 1/alpha. Derivatives
    are analytic, so the margin vanishes identically at the family's own
    ratio and goes strictly negative when alpha is undersized.
    """

    family: str
    alpha: float
    grid_points: int
    passed: bool
    worst_margin: float
    worst_y: float
    segments: int


_FAMILIES = ("cable", "energy", "generation", "destination", "out_of_service")


def verify_dapr(family: str, params: Mapping[str, float], alpha: float,
                grid_points: int) -> DaprReport:
    """Grid-check the allocation-payment inequality for one resource.

    ``params`` carries the family's scalars: capacity, L, U, psi, plus pi
    (generation: with delta and mu) or phi (out_of_service). The
    generation grid is split at the solar boundary so no increment
    straddles the branch switch.
    """
    if family not in _FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    if grid_points < 100:
        raise ValueError("grid_points must be at least 100")
    if alpha <= 0:
        raise ValueError("alpha must be positive")

    psi_ = int(params["psi"])
    low, high = float(params["L"]), float(params["U"])

    # each segment: (lo, hi, cap, a, b, offset, cost_slope, conj_slope)
    # describing p(y) = a * b^(y/cap) + offset on [lo, hi)
    segments: List[Tuple[float, ...]] = []

    if family == "generation":
        delta = float(params["delta"])
        mu = float(params["mu"])
        pi = float(params["pi"])
        if delta > 0:
            # first branch: free solar, conjugate slope delta below pi
            segments.append((0.0, delta, delta, low / (2.0 * psi_),
                             2.0 * psi_ * pi / low, 0.0, 0.0, delta))
        if mu > 0 or delta == 0:
            a2 = (low - pi) / (2.0 * psi_)
            b2 = 2.0 * psi_ * (high - pi) / (low - pi)
            segments.append((delta, delta + mu, delta + mu, a2, b2, pi, pi,
                             delta + mu))
    elif family == "out_of_service":
        cap = float(params["capacity"])
        phi = float(params["phi"])
        a = (low - phi) / (2.0 * psi_)
        b = 2.0 * psi_ * (high - phi) / (low - phi)
        segments.append((0.0, cap, cap, a, b, phi, phi, cap))
    else:
        cap = float(params["capacity"])
        a = low / (2.0 * psi_)
        b = 2.0 * psi_ * high / low
        segments.append((0.0, cap, cap, a, b, 0.0, 0.0, cap))

    total_len = sum(hi - lo for lo, hi, *_ in segments)
    worst_margin = math.inf
    worst_y = 0.0
    checked = 0
    for lo, hi, cap, a, b, offset, cost_slope, conj_slope in segments:
        if hi <= lo:
            continue
        n = max(1, round(grid_points * (hi - lo) / total_len))
        dy = (hi - lo) / n
        z = math.log(b)
        for i in range(n):
            y = lo + i * dy
            growth = a * b ** (y / cap)
            p = growth + offset
            pprime = growth * z / cap
            margin = (p - cost_slope) * dy - (conj_slope * pprime * dy) / alpha
            checked += 1
            if margin < worst_margin:
                worst_margin = margin
                worst_y = y
    return DaprReport(family=family, alpha=alpha, grid_points=checked,
                      passed=worst_margin >= -MONEY_ATOL,
                      worst_margin=worst_margin, worst_y=worst_y,
                      segments=len(segments))


def dapr_cases(config: ScenarioConfig, bounds: PriceBounds,
               psi_: int) -> List[Tuple[str, Dict[str, float]]]:
    """Deduplicated (family, params) pairs covering every resource shape
    that appears in a config."""
    cases: List[Tuple[str, Dict[str, float]]] = []
    seen = set()

    def add(family: str, params: Dict[str, float]) -> None:
        key = (family, tuple(sorted(params.items())))
        if key not in seen:
            seen.add(key)
            cases.append((family, params))

    for fac in config.facilities:
        add("cable", {"capacity": fac.cables_per_evse, "L": bounds.L_c,
                      "U": bounds.U_c, "psi": psi_})
        add("energy", {"capacity": fac.evse_energy_limit, "L": bounds.L_e,
                       "U": bounds.U_e, "psi": psi_})
        for t in range(config.horizon):
            add("generation", {"delta": fac.solar[t], "mu": fac.grid_limit[t],
                               "pi": fac.grid_price[t], "L": bounds.L_g,
                               "U": bounds.U_g, "psi": psi_})
    for region in config.regions:
        for t in range(config.horizon):
            omega = region.vehicle_limit[t]
            if omega > 0:
                add("destination", {"capacity": omega, "L": bounds.L_d,
                                    "U": bounds.U_d, "psi": psi_})
    for t in range(config.horizon):
        add("out_of_service", {"capacity": config.out_of_service_cap[t],
                               "phi": config.out_of_service_penalty[t],
                               "L": bounds.L_o, "U": bounds.U_o, "psi": psi_})
    return cases
