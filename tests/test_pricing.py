"""Price curves, integral payments, bound estimation, ratio components,
and the differential allocation-payment verifier.

Payments are cross-checked against scipy quadrature of the posted price
curves; the generation payment additionally carries the one-time conjugate
jump at the solar boundary.
"""

from __future__ import annotations

import ast
import dataclasses
import math
import pathlib

import numpy as np
import pytest
from scipy import integrate

from evdispatch import pricing, run_online
from evdispatch.baselines import run_threshold
from evdispatch.domain import (
    MONEY_ATOL, Facility, Region, ResourceLedger, as_plain, recompute_ledger,
)
from evdispatch.harness import generate_scenario
from evdispatch.offline import exact_offline, upper_bound
from evdispatch.pricing import (
    CABLE, DESTINATION, ENERGY, GENERATION, OUT_OF_SERVICE, Alphas, PriceBounds,
    alphas, cell_shape, dapr_cases, default_charge_targets, effective_charge_rate,
    estimate_bounds, psi, validate_bounds, verify_dapr,
)
from evdispatch.schedules import GenerationPolicy, feasible_schedules, rebalances

from conftest import as_plans, build_mini_config


BOUNDS = PriceBounds(L_c=0.05, U_c=20.0, L_e=0.01, U_e=4.0,
                     L_g=0.5, U_g=6.0, L_d=0.4, U_d=25.0,
                     L_o=0.9, U_o=18.0)
PSI = 9


# ---------------------------------------------------------------------------
# Shared resource count
# ---------------------------------------------------------------------------


def test_psi_counts_resources(mini_config, tiny_instance):
    assert psi(mini_config) == 2 * 1 + 2 + 1 + 1
    assert psi(tiny_instance[0]) == 2 * 1 + 4 + 1 + 1
    full, _ = generate_scenario(0, "full")
    assert psi(full) == 2 * 80 + 46 + 8 + 1 == 215


def _written_attributes(target: ast.AST):
    """Each attribute that assigning to ``target`` writes, directly or
    through a subscript of it."""
    if isinstance(target, (ast.Tuple, ast.List)):
        for element in target.elts:
            yield from _written_attributes(element)
        return
    while isinstance(target, (ast.Subscript, ast.Starred)):
        target = target.value
    if isinstance(target, ast.Attribute):
        yield target.attr


def _attribute_writes(node: ast.AST, where: str = ""):
    """(qualified function or class name, attribute) of every attribute
    assignment, deletion, augmented assignment or ``setattr`` under node."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield from _attribute_writes(child, f"{where}.{child.name}".lstrip("."))
            continue
        targets = []
        if isinstance(child, (ast.Assign, ast.Delete)):
            targets = child.targets
        elif isinstance(child, (ast.AugAssign, ast.AnnAssign)):
            targets = [child.target]
        elif (isinstance(child, ast.Call) and getattr(child.func, "id", None) in
              ("setattr", "delattr") and isinstance(child.args[1], ast.Constant)):
            yield where, child.args[1].value
        for target in targets:
            for attr in _written_attributes(target):
                yield where, attr
        yield from _attribute_writes(child, where)


def test_a_configs_resource_table_is_read_only():
    """``config.cells`` is shared by every solver and every run of its
    config, so it holds only immutable values, nothing in the package
    writes to it once built, and no run leaves it changed. The exact
    search once kept its memo of walked demands there."""
    slots = ("horizon", "evse_row", "shapes", "idle")
    assert pricing.Cells.__slots__ == slots
    config, sessions = generate_scenario(0, "tiny")
    cells = config.cells
    assert not hasattr(cells, "__dict__")
    assert isinstance(cells.horizon, int)
    for name in slots[1:]:
        assert isinstance(getattr(cells, name), tuple), name
    assert all(isinstance(row, tuple) for row in cells.shapes)

    sources = pathlib.Path(pricing.__file__).parent.glob("*.py")
    writers = {(path.name, where) for path in sources
               for where, attr in _attribute_writes(ast.parse(path.read_text(encoding="utf-8")))
               if attr in slots or where.startswith("Cells.")}
    assert writers == {("pricing.py", "Cells.__init__")}

    before = {name: getattr(cells, name) for name in slots}
    rows = list(cells.shapes)
    _, captured = run_online(sessions, config, GenerationPolicy(max_candidates_total=3),
                             capture_candidates=True)
    for threshold in (0.25, 0.5, 0.75):
        run_threshold(sessions, config, threshold)
    upper_bound(sessions, config)
    exact_offline(sessions, config, captured)
    assert config.cells is cells
    assert all(getattr(cells, name) is before[name] for name in slots)
    assert all(row is old for row, old in zip(cells.shapes, rows))


# ---------------------------------------------------------------------------
# Point prices
# ---------------------------------------------------------------------------


def test_price_anchors_and_ceilings():
    two_psi = 2 * PSI
    cable, energy = cell_shape(CABLE, 4), cell_shape(ENERGY, 12.0)
    assert cable.price(0.0, BOUNDS, PSI) == pytest.approx(BOUNDS.L_c / two_psi)
    assert cable.price(4.0, BOUNDS, PSI) == pytest.approx(BOUNDS.U_c, rel=1e-12)
    assert energy.price(0.0, BOUNDS, PSI) == pytest.approx(BOUNDS.L_e / two_psi)
    assert energy.price(12.0, BOUNDS, PSI) == pytest.approx(BOUNDS.U_e, rel=1e-12)
    assert cell_shape(DESTINATION, 5).price(5.0, BOUNDS, PSI) == pytest.approx(
        BOUNDS.U_d, rel=1e-12)
    phi = 0.7
    out_of_service = cell_shape(OUT_OF_SERVICE, 8.0, phi)
    assert out_of_service.price(0.0, BOUNDS, PSI) == pytest.approx(
        phi + (BOUNDS.L_o - phi) / two_psi)
    assert out_of_service.price(8.0, BOUNDS, PSI) == pytest.approx(
        BOUNDS.U_o, rel=1e-12)


def test_generation_price_branches():
    delta, mu, pi = 6.0, 10.0, 0.3
    generation = cell_shape(GENERATION, delta, mu, pi)
    two_psi = 2 * PSI
    # first branch: anchored at L_g/(2 psi), reaching pi at y = delta
    assert generation.price(0.0, BOUNDS, PSI) == pytest.approx(BOUNDS.L_g / two_psi)
    just_below = delta * (1 - 1e-12)
    assert generation.price(just_below, BOUNDS, PSI) == pytest.approx(pi, rel=1e-9)
    # second branch: jumps above pi, reaching U_g at the combined cap
    at_delta = generation.price(delta, BOUNDS, PSI)
    b2 = two_psi * (BOUNDS.U_g - pi) / (BOUNDS.L_g - pi)
    assert at_delta == pytest.approx(
        pi + (BOUNDS.L_g - pi) / two_psi * b2 ** (delta / (delta + mu)))
    assert at_delta > pi
    assert generation.price(delta + mu, BOUNDS, PSI) == pytest.approx(
        BOUNDS.U_g, rel=1e-12)
    # without solar the second branch starts at zero load
    assert cell_shape(GENERATION, 0.0, mu, pi).price(0.0, BOUNDS, PSI) == pytest.approx(
        pi + (BOUNDS.L_g - pi) / two_psi)


def test_prices_monotone_in_load():
    ys = np.linspace(0.0, 4.0, 200)
    ps = [cell_shape(CABLE, 4).price(float(y), BOUNDS, PSI) for y in ys]
    assert all(b > a for a, b in zip(ps, ps[1:]))
    ys = np.linspace(0.0, 16.0, 400)
    generation = cell_shape(GENERATION, 6.0, 10.0, 0.3)
    ps = [generation.price(float(y), BOUNDS, PSI) for y in ys]
    assert all(b > a for a, b in zip(ps, ps[1:]))


def test_prices_reject_out_of_range():
    cable, closed = cell_shape(CABLE, 4), cell_shape(DESTINATION, 0)
    with pytest.raises(ValueError):
        cable.price(-0.5, BOUNDS, PSI)
    with pytest.raises(ValueError):
        cable.price(4.1, BOUNDS, PSI)
    with pytest.raises(ValueError):
        closed.price(0.5, BOUNDS, PSI)
    assert closed.price(0.0, BOUNDS, PSI) == BOUNDS.U_d


# ---------------------------------------------------------------------------
# Payments vs quadrature
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("y0,y1", [(0.0, 1.0), (0.7, 2.9), (3.2, 4.0), (1.5, 1.5)])
def test_cable_payment_is_price_integral(y0, y1):
    got = pricing.cable_payment(y0, y1, 4, BOUNDS, PSI)
    want, err = integrate.quad(
        lambda y: cell_shape(CABLE, 4).price(y, BOUNDS, PSI), y0, y1)
    assert got == pytest.approx(want, abs=max(1e-10, 10 * err))


@pytest.mark.parametrize("y0,y1", [(0.0, 5.0), (2.0, 11.9), (0.1, 0.2)])
def test_energy_and_service_payments_are_integrals(y0, y1):
    got = pricing.energy_payment(y0, y1, 12.0, BOUNDS, PSI)
    want, err = integrate.quad(
        lambda y: cell_shape(ENERGY, 12.0).price(y, BOUNDS, PSI), y0, y1)
    assert got == pytest.approx(want, abs=max(1e-10, 10 * err))

    got = pricing.out_of_service_payment(y0, y1, 12.0, 0.7, BOUNDS, PSI)
    want, err = integrate.quad(
        lambda y: cell_shape(OUT_OF_SERVICE, 12.0, 0.7).price(y, BOUNDS, PSI), y0, y1)
    assert got == pytest.approx(want, abs=max(1e-10, 10 * err))

    got = pricing.destination_payment(y0, y1, 12, BOUNDS, PSI)
    want, err = integrate.quad(
        lambda y: cell_shape(DESTINATION, 12).price(y, BOUNDS, PSI), y0, y1)
    assert got == pytest.approx(want, abs=max(1e-10, 10 * err))


@pytest.mark.parametrize("y0,y1", [(0.0, 3.0), (6.0, 16.0), (6.5, 9.0)])
def test_generation_payment_within_one_branch(y0, y1):
    delta, mu, pi = 6.0, 10.0, 0.3
    got = pricing.generation_payment(y0, y1, delta, mu, pi, BOUNDS, PSI)
    want, err = integrate.quad(
        lambda y: cell_shape(GENERATION, delta, mu, pi).price(y, BOUNDS, PSI), y0, y1)
    assert got == pytest.approx(want, abs=max(1e-10, 10 * err))


def test_generation_payment_adds_boundary_surcharge_once():
    """Crossing the solar boundary pays the conjugate jump: (delta+mu)
    times the price step from pi up to the second branch at delta."""
    delta, mu, pi = 6.0, 10.0, 0.3
    generation = cell_shape(GENERATION, delta, mu, pi)
    p_delta = generation.price(delta, BOUNDS, PSI)
    jump = (delta + mu) * (p_delta - pi)
    y0, y1 = 4.0, 9.0
    integral, err = integrate.quad(
        lambda y: generation.price(y, BOUNDS, PSI), y0, y1, points=[delta])
    got = pricing.generation_payment(y0, y1, delta, mu, pi, BOUNDS, PSI)
    assert got == pytest.approx(integral + jump, abs=max(1e-10, 10 * err))
    # splitting at the boundary charges the jump exactly once
    split = (pricing.generation_payment(y0, delta, delta, mu, pi, BOUNDS, PSI)
             + pricing.generation_payment(delta, y1, delta, mu, pi, BOUNDS, PSI))
    assert split == pytest.approx(got, rel=1e-12)


def test_payments_are_additive_and_guarded():
    whole = pricing.cable_payment(0.5, 3.5, 4, BOUNDS, PSI)
    parts = (pricing.cable_payment(0.5, 2.0, 4, BOUNDS, PSI)
             + pricing.cable_payment(2.0, 3.5, 4, BOUNDS, PSI))
    assert whole == pytest.approx(parts, rel=1e-12)
    assert pricing.cable_payment(1.0, 1.0, 4, BOUNDS, PSI) == 0.0
    with pytest.raises(ValueError):
        pricing.cable_payment(2.0, 1.0, 4, BOUNDS, PSI)


def test_a_run_refuses_fewer_than_one_cell():
    """``Snapshot.run`` sums n >= 1 consecutive cells, of payments or,
    with no family, of posted cable prices. With n = 0 it once raised
    IndexError on a fresh run, and after a 3-cell run it returned that
    run's sum, with n = -1 the 2-cell sum."""
    config, _ = generate_scenario(0, "tiny")
    prices = pricing.Snapshot(ResourceLedger.zero(config), estimate_bounds(config),
                              psi(config))
    for k in (OUT_OF_SERVICE, None):
        for n in (0, -1):
            with pytest.raises(ValueError, match=f"n >= 1 cells, got n={n}"):
                prices.run(k, 0, n)
        three = prices.run(k, 0, 3)
        for n in (0, -1):
            with pytest.raises(ValueError, match=f"n >= 1 cells, got n={n}"):
                prices.run(k, 0, n)
        assert prices.run(k, 0, 3) == three > 0


def test_a_commit_reposts_its_cells_and_drops_every_sum(desk_instance):
    """After each ``commit`` of three charging plans, then of a rebalance,
    a snapshot reads as a fresh one of its ledger does: every posted cable,
    energy and charging price, and every running sum and draw it kept from
    before the commit, the plans' own among them. Two of the plans draw at
    one facility, so a charging price that kept an EVSE's energy price
    from before a commit would differ."""
    config, sessions = desk_instance
    ledger = ResourceLedger.zero(config)
    bounds, psi_ = estimate_bounds(config), psi(config)
    holder = pricing.Snapshot(ledger, bounds, psi_)
    charges = [plan for session in sessions
               for plan in as_plans(session, config,
                                    feasible_schedules(session, config, holder)[:1])][:3]
    rebalance = next(plan for session in sessions
                     for plan in as_plans(session, config, rebalances(session, config)))
    plans = (*charges, rebalance)
    assert len({plan.facility_id for plan in charges}) < len(charges)

    def read(prices):
        out = []
        for plan in plans:
            out.append(prices.run(OUT_OF_SERVICE, plan.t_minus - 1,
                                  plan.t_plus - plan.t_minus + 1))
            if plan.facility_id is not None:
                first = config.cells.evse_cell(plan.facility_id, plan.evse_index,
                                               plan.cable_slots[0])
                for k in (CABLE, None):
                    out.append(prices.run(k, first, len(plan.cable_slots)))
                out.append(prices.draw(plan.facility_id, plan.evse_index, plan.energy_slots))
        return out

    before = read(holder)
    for plan in plans:
        assert ledger.fits(plan)
        holder.commit(plan, 0.0)
        assert holder.ledger is ledger
        fresh = pricing.Snapshot(ledger, bounds, psi_)
        assert ((holder.cables, holder.energies, holder.charges)
                == (fresh.cables, fresh.energies, fresh.charges))
        assert read(holder) == read(fresh)
    assert read(holder) != before


def test_a_commit_that_does_not_fit_writes_no_load():
    """A commit reads every price before it writes any load: committing
    the first charging plan of desk seed 0 a third time overfills its
    generation cell and raises, and the ledger keeps the loads of the
    second commit, its destination, out-of-service, cable and energy
    cells included."""
    config, sessions = generate_scenario(0, "desk")
    ledger = ResourceLedger.zero(config)
    holder = pricing.Snapshot(ledger, estimate_bounds(config), psi(config))
    session, plan = next((session, plans[0]) for session in sessions
                         for plans in [as_plans(session, config,
                                                feasible_schedules(session, config, holder))]
                         if plans)
    for _ in range(2):
        assert ledger.fits(plan)
        holder.commit(plan, 0.0)
    assert not ledger.fits(plan)
    loads = [list(family) for family in ledger.loads]
    with pytest.raises(ValueError, match="generation: allocation 15.0 beyond capacity 12.0"):
        holder.commit(plan, 0.0)
    assert ledger.loads == loads


def test_payment_beyond_capacity_prices_above_ceiling():
    """The antiderivative extends past the cap, where the curve exceeds U:
    that is the saturation barrier overfull plans run into."""
    cap = 12.0
    for extra in (0.5, 2.0, 5.0):
        got = pricing.energy_payment(cap, cap + extra, cap, BOUNDS, PSI)
        assert got > BOUNDS.U_e * extra


def test_overfill_beyond_the_float_range_prices_at_infinity(mini_config):
    """b ** (y/cap) leaves the float range long before a load does; the
    payment is then infinite instead of raising OverflowError."""
    bounds = estimate_bounds(mini_config)
    psi_ = psi(mini_config)
    # 5 kWh against 0.01 kWh of solar and no grid
    assert pricing.generation_payment(0, 5, 0.01, 0, 0.2, bounds, psi_) == math.inf
    assert pricing.cable_payment(0, 5000, 1, bounds, psi_) == math.inf
    assert pricing.out_of_service_payment(0, 5000, 1, 0.4, bounds, psi_) == math.inf
    # the first solar branch never runs past delta, so it stays finite
    # right up to the boundary
    assert math.isfinite(pricing.generation_payment(0, 0.01, 0.01, 0, 0.2,
                                                    bounds, psi_))


def test_an_increment_past_a_whole_thin_cell_pays_infinity():
    """5 kWh into a generation cell that holds less fits no ledger, so it
    pays infinity even from an empty cell. The cell's whole capacity stays
    finite, and so does an overfill caused by load."""
    for delta, mu in ((0.0, 4.99), (4.0, 0.5), (4.99, 0.0)):
        assert pricing.generation_payment(0, 5.0, delta, mu, 0.2, BOUNDS, PSI) == math.inf
        assert math.isfinite(pricing.generation_payment(0, delta + mu, delta, mu, 0.2,
                                                        BOUNDS, PSI))
        assert math.isfinite(pricing.generation_payment(4.0, 6.0, delta, mu, 0.2,
                                                        BOUNDS, PSI))
    assert math.isfinite(pricing.energy_payment(0, 4.99 + MONEY_ATOL / 2, 4.99,
                                                BOUNDS, PSI))


# ---------------------------------------------------------------------------
# Bound estimation
# ---------------------------------------------------------------------------


def test_estimate_bounds_mini_exact_values(mini_config):
    b = estimate_bounds(mini_config)
    psi_ = 6
    assert b.L_c == pytest.approx(10.0 / (psi_ * 6))
    assert b.L_e == pytest.approx(10.0 / (psi_ * 10.0))
    assert b.L_d == pytest.approx(10.0 / psi_)
    assert b.U_c == b.U_d == pytest.approx(15.0)
    # fair-share rate 5 is the smallest per-slot draw, so U_e = 15/5
    assert b.U_e == b.U_g == pytest.approx(3.0)
    assert b.L_g == pytest.approx(0.2 * (1 + 1e-6))
    assert b.L_o == pytest.approx(0.4 * (1 + 1e-6))
    assert b.U_o == pytest.approx(15.0)
    assert validate_bounds(b, mini_config) == []


def test_estimate_bounds_example_quarter_battery_increments():
    """Best schedule value 15 + 0.2 * 50 = 25 caps the one-unit families."""
    config = build_mini_config(
        regions=(
            Region(id=0, pickup_value=0.0, vehicle_limit=(4,) * 6, facility_id=0),
            Region(id=1, pickup_value=15.0, vehicle_limit=(4,) * 6),
        ),
        battery_capacity=50.0,
        charge_increment=12.5,
        soc_value_slope=0.2,
    )
    b = estimate_bounds(config)
    assert b.U_c == b.U_d == b.U_o == pytest.approx(25.0)
    # rate 5 leaves a 2.5 remainder on the 12.5 target
    assert b.U_e == pytest.approx(25.0 / 2.5)


def test_estimate_bounds_rejects_valueless_config(mini_config):
    worthless = build_mini_config(
        regions=(
            Region(id=0, pickup_value=0.0, vehicle_limit=(4,) * 6, facility_id=0),
            Region(id=1, pickup_value=0.0, vehicle_limit=(4,) * 6),
        ),
        soc_value_slope=0.0,
    )
    with pytest.raises(ValueError, match="no positive-value schedule"):
        estimate_bounds(worthless)


def test_effective_charge_rate_defaults_to_fair_share(mini_config):
    fac = mini_config.facilities[0]
    assert effective_charge_rate(fac) == pytest.approx(10.0 / 2)


def test_default_charge_targets(mini_config):
    assert default_charge_targets(mini_config) == (5.0, 10.0)


def test_validate_bounds_failure_modes(mini_config):
    bad = dataclasses.replace(estimate_bounds(mini_config), U_c=0.001)
    assert any("cable" in p for p in validate_bounds(bad, mini_config))
    bad = dataclasses.replace(estimate_bounds(mini_config), L_g=0.1)
    assert "generation: L_g=0.1 must exceed the largest cost offset 0.2" in validate_bounds(
        bad, mini_config)
    bad = dataclasses.replace(estimate_bounds(mini_config), L_o=0.2)
    assert "out_of_service: L_o=0.2 must exceed the largest cost offset 0.4" in validate_bounds(
        bad, mini_config)
    bad = dataclasses.replace(estimate_bounds(mini_config), U_d=1e308)
    assert validate_bounds(bad, mini_config) == [
        "destination: the price curve's base 2*Psi*(U - offset)/(L - offset) overflows "
        f"at (L, U) = ({bad.L_d}, 1e+308)"]
    # 2*Psi*pi = 12 * 0.2: only a cell with solar has a solar segment whose
    # base 2*Psi*pi/L_g must exceed 1, and mini_config has none
    bad = dataclasses.replace(estimate_bounds(mini_config), L_g=2.41, U_g=5.0)
    assert validate_bounds(bad, mini_config) == []
    fac = dataclasses.replace(mini_config.facilities[0], solar=(1.0,) + (0.0,) * 5,
                              solar_cap=1.0)
    sunny = dataclasses.replace(mini_config, facilities=(fac,))
    assert [p for p in validate_bounds(bad, sunny) if p.startswith("generation")] == [
        f"generation: L_g=2.41 must stay below 2*Psi*offset={12 * 0.2} at a cell with solar"]


def test_bounds_accept_cheap_grid_before_sunrise():
    """Grid price 0.005 before 05:00, where no facility has solar: L_g must
    clear the 0.45 peak price, which is above 2*Psi*0.005 = 0.31, so the
    solar-segment rule applied to every slot used to refuse the day."""
    config, sessions = generate_scenario(0, "desk")
    cheap = tuple(dataclasses.replace(fac, grid_price=(0.005,) * 20 + fac.grid_price[20:])
                  for fac in config.facilities)
    config = dataclasses.replace(config, facilities=cheap)
    assert all(fac.solar[t] == 0 for fac in config.facilities for t in range(20))
    b = estimate_bounds(config)
    assert (b.L_g, b.U_g) == (pytest.approx(0.45 * (1 + 1e-6)), 16.0)
    report = run_online(sessions, config)
    recompute_ledger(report.decisions, config, strict=True)
    assert report.dual_trajectory[-1] >= report.welfare > 0
    psi_ = psi(config)
    a = alphas(b, psi_, config)
    fails_at_half = set()
    for family, params in dapr_cases(config, b, psi_):
        alpha = _family_alpha(a, family)
        assert verify_dapr(family, params, alpha, 2000).passed, (family, params)
        if not verify_dapr(family, params, alpha / 2, 2000).passed:
            fails_at_half.add(family)
    assert fails_at_half == set(pricing.NAMES)


# ---------------------------------------------------------------------------
# Ratio components
# ---------------------------------------------------------------------------


def test_alphas_closed_form(mini_config):
    b = estimate_bounds(mini_config)
    psi_ = psi(mini_config)
    a = alphas(b, psi_, mini_config)
    two_psi = 2 * psi_
    assert a.a1 == pytest.approx(math.log(two_psi * b.U_c / b.L_c))
    assert a.a2 == pytest.approx(math.log(two_psi * b.U_e / b.L_e))
    assert a.a3 == pytest.approx(
        math.log(two_psi * (b.U_g - 0.2) / (b.L_g - 0.2)))
    assert a.a4 == pytest.approx(math.log(two_psi * b.U_d / b.L_d))
    assert a.a5 == pytest.approx(
        math.log(two_psi * (b.U_o - 0.4) / (b.L_o - 0.4)))
    assert a.alpha == max(a.a1, a.a2, a.a3, a.a4, a.a5)
    assert set(as_plain(a)) == {"a1", "a2", "a3", "a4", "a5"}
    assert min(as_plain(a).values()) >= 1.0


def test_alphas_reject_sub_one_component(mini_config):
    b = PriceBounds(L_c=1.0, U_c=1.0, L_e=1.0, U_e=1.0, L_g=1.0, U_g=1.0,
                    L_d=1.0, U_d=1.0, L_o=1.0, U_o=1.0)
    cfg = build_mini_config(facilities=(), out_of_service_penalty=(0.0,) * 6)
    with pytest.raises(ValueError, match="below 1"):
        alphas(b, 1, cfg)


# ---------------------------------------------------------------------------
# Allocation-payment verifier
# ---------------------------------------------------------------------------


def _family_alpha(a: Alphas, family: str) -> float:
    return {"cable": a.a1, "energy": a.a2, "generation": a.a3,
            "destination": a.a4, "out_of_service": a.a5}[family]


def test_dapr_passes_at_own_alpha_and_fails_at_half(mini_config):
    b = estimate_bounds(mini_config)
    psi_ = psi(mini_config)
    a = alphas(b, psi_, mini_config)
    cases = dapr_cases(mini_config, b, psi_)
    assert {f for f, _ in cases} == {"cable", "energy", "generation",
                                     "destination", "out_of_service"}
    for family, params in cases:
        alpha_i = _family_alpha(a, family)
        rep = verify_dapr(family, params, alpha_i, 2000)
        assert rep.passed, (family, rep.worst_margin)
        assert rep.worst_margin >= -1e-9
        rep_half = verify_dapr(family, params, alpha_i / 2, 2000)
        assert not rep_half.passed, family
        assert rep_half.worst_margin < -1e-9


def test_dapr_case_list_is_deduplicated(mini_config):
    b = estimate_bounds(mini_config)
    cases = dapr_cases(mini_config, b, psi(mini_config))
    # constant traces collapse to one case per family
    assert len(cases) == 5


def test_dapr_generation_grid_splits_at_solar_boundary():
    params = {"delta": 6.0, "mu": 10.0, "pi": 0.3, "L": BOUNDS.L_g,
              "U": BOUNDS.U_g, "psi": PSI}
    z1 = math.log(2 * PSI * 0.3 / BOUNDS.L_g)
    z2 = math.log(2 * PSI * (BOUNDS.U_g - 0.3) / (BOUNDS.L_g - 0.3))
    rep = verify_dapr("generation", params, max(z1, z2), 1000)
    assert rep.segments == 2
    assert rep.passed
    rep_tight = verify_dapr("generation", params, max(z1, z2) * 0.999, 1000)
    assert not rep_tight.passed


def test_dapr_rejects_bad_arguments():
    params = {"capacity": 4.0, "L": 0.05, "U": 20.0, "psi": 9}
    with pytest.raises(ValueError, match="unknown family"):
        verify_dapr("parking", params, 10.0, 1000)
    with pytest.raises(ValueError, match="at least 100"):
        verify_dapr("cable", params, 10.0, 50)
    with pytest.raises(ValueError, match="positive"):
        verify_dapr("cable", params, 0.0, 1000)
    # NaN passed ``alpha <= 0``, and then no margin compared below inf
    with pytest.raises(ValueError, match="positive"):
        verify_dapr("cable", params, math.nan, 1000)
    # at an infinite alpha every margin passed
    with pytest.raises(ValueError, match="positive and finite"):
        verify_dapr("cable", params, math.inf, 1000)
    # parameters that give no price curve: each passed with worst_margin=inf
    # and no segment, or died in a ZeroDivisionError, a math domain error or
    # a bare KeyError
    generation = {"delta": 6.0, "mu": 10.0, "pi": 0.3, "L": 0.5, "U": 6.0, "psi": 9}
    out_of_service = {"capacity": 20.0, "phi": 0.4, "L": 0.9, "U": 18.0, "psi": 9}
    rows = [
        ("cable", dict(params, capacity=0.0), "capacity C=0.0 must be positive"),
        ("cable", dict(params, capacity=-4.0), "capacity C=-4.0 must be positive"),
        ("cable", dict(params, capacity=math.nan), "capacity=nan must be finite"),
        ("cable", dict(params, L=0.0), r"need 0 < L <= U, got \(0.0, 20.0\)"),
        ("cable", dict(params, L=30.0), r"need 0 < L <= U, got \(30.0, 20.0\)"),
        ("cable", dict(params, U=math.inf), "U=inf must be finite"),
        # 2*Psi*U = 1.8e308 leaves the float range, and every payment was NaN
        ("cable", dict(params, U=1e307),
         r"base 2\*Psi\*\(U - offset\)/\(L - offset\) overflows at \(L, U\) = \(0.05, 1e\+307\)"),
        ("cable", dict(params, psi=0), "psi=0.0 must be a whole number of at least 1"),
        # a fractional psi was truncated, and 9.7 checked the curve of 9
        ("cable", dict(params, psi=9.7), "psi=9.7 must be a whole number"),
        ("generation", dict(generation, delta=0.0, L=0.3),
         "L_g=0.3 must exceed the largest cost offset 0.3"),
        ("generation", dict(generation, L=0.2),
         "L_g=0.2 must exceed the largest cost offset 0.3"),
        ("generation", dict(generation, L=5.5),
         r"L_g=5.5 must stay below 2\*Psi\*offset="),
        ("generation", dict(generation, pi=math.nan), "pi=nan must be finite"),
        ("out_of_service", dict(out_of_service, L=0.3),
         "L_o=0.3 must exceed the largest cost offset 0.4"),
        ("cable", {k: v for k, v in params.items() if k != "psi"},
         "missing parameter psi"),
    ]
    for family, bad, message in rows:
        with pytest.raises(ValueError, match=message):
            verify_dapr(family, bad, 10.0, 1000)


def test_dapr_margin_scales_with_alpha():
    params = {"capacity": 4.0, "L": 0.05, "U": 20.0, "psi": 9}
    z = math.log(2 * 9 * 20.0 / 0.05)
    exact = verify_dapr("cable", params, z, 5000)
    slack = verify_dapr("cable", params, z * 2, 5000)
    assert exact.passed and slack.passed
    assert slack.worst_margin > exact.worst_margin
