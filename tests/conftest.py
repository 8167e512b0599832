"""Shared fixtures: generated preset instances plus a hand-built two-region
instance whose round numbers keep expected values computable by hand."""

from __future__ import annotations

import math
from dataclasses import replace

import pytest

from evdispatch import harness, pricing, schedules
from evdispatch.dispatcher import DispatcherState
from evdispatch.domain import Facility, Region, ResourceLedger, ScenarioConfig, Session


def build_mini_config(**overrides) -> ScenarioConfig:
    """Two regions, one facility, constant traces.

    psi = 2*1 + 2 + 1 + 1 = 6. Region 1 is the only demand region
    (pickup value 10); the facility sits in region 0 one hop away.
    """
    T = 6
    base = dict(
        horizon=T,
        regions=(
            Region(id=0, pickup_value=0.0, vehicle_limit=(4,) * T, facility_id=0),
            Region(id=1, pickup_value=10.0, vehicle_limit=(4,) * T),
        ),
        edges=((0, 1),),
        facilities=(
            Facility(id=0, region_id=0, evse_count=1, cables_per_evse=2,
                     evse_energy_limit=10.0, solar=(0.0,) * T, solar_cap=0.0,
                     grid_price=(0.2,) * T, grid_limit=(10.0,) * T),
        ),
        out_of_service_cap=(4,) * T,
        out_of_service_penalty=(0.4,) * T,
        battery_capacity=10.0,
        charge_increment=5.0,
        per_hop_energy=1.0,
        per_hop_value_penalty=0.5,
        soc_value_slope=0.5,
    )
    base.update(overrides)
    return ScenarioConfig(**base)


def as_plans(session, config, candidates):
    """The ``Schedule`` of each of the session's candidate tuples, in
    order, made by ``schedules.make_plan`` through ``schedules.plan_of``,
    as ``dispatch`` makes its winner."""
    return [schedules.plan_of(session, config, plan) for plan in candidates]


def twin_state(state):
    """A fresh state of the run's day, on a copy of its ledger's loads and
    at its last arrival slot: a run from there with no memo or sum kept."""
    twin = DispatcherState.fresh(state.config, state.policy)
    ledger = ResourceLedger(state.config.cells,
                            [list(loads) for loads in state.posted.ledger.loads])
    twin.posted = pricing.Snapshot(ledger, twin.posted.bounds, twin.posted.psi)
    twin.last_t = state.last_t
    return twin


def cell_index(config: ScenarioConfig, family: int, *coords: int) -> int:
    """Ledger index of the cell of ``family`` at these coordinates."""
    return [where for where, _ in pricing.FAMILIES[family].cells(config)].index(coords)


def broken_sessions():
    """The tiny seed-0 day, and its session stream broken in one way per
    name: (the field a validator must name, the broken stream)."""
    config, sessions = harness.generate_scenario(0, "tiny")
    first, rest, last = sessions[0], sessions[1:], sessions[-1]
    late = replace(last, id=last.id + 1)
    return config, {
        "soc above one": ("soc", (replace(first, soc=1.5),) + rest),
        "soc below zero": ("soc", (replace(first, soc=-0.25),) + rest),
        "soc nan": ("soc", (replace(first, soc=math.nan),) + rest),
        "t_minus zero": ("t_minus", (replace(first, t_minus=0),) + rest),
        "t_minus past the horizon": (
            "t_minus", sessions + (replace(late, t_minus=config.horizon + 1),)),
        "t_minus decreasing": (
            "t_minus", sessions + (replace(late, t_minus=first.t_minus),)),
        "unknown origin": (
            "origin_region", (replace(first, origin_region=len(config.regions)),) + rest),
        "duplicate id": ("id", sessions[:2] + (replace(sessions[2], id=sessions[1].id),)
                         + sessions[3:]),
    }


def broken_configs():
    """The tiny seed-0 day with one number of its config made infinite or
    NaN per name: (the field a validator must name, the broken config).
    The first six each passed ``validate`` and then broke the online run:
    an IndexError, a capacity breach, a math domain error or NaN welfare."""
    config, _ = harness.generate_scenario(0, "tiny")
    fac, region = config.facilities[0], config.regions[0]

    def facility(**changes):
        return replace(config, facilities=(replace(fac, **changes),) + config.facilities[1:])

    def first(trace, x):
        return (x,) + tuple(trace[1:])

    return {
        "evse_energy_limit inf": ("evse_energy_limit", facility(evse_energy_limit=math.inf)),
        "pickup_value inf": ("pickup_value", replace(
            config, regions=(replace(region, pickup_value=math.inf),) + config.regions[1:])),
        "per_hop_energy nan": ("per_hop_energy", replace(config, per_hop_energy=math.nan)),
        "grid_price nan": ("grid_price", facility(grid_price=first(fac.grid_price, math.nan))),
        "out_of_service_penalty nan": ("out_of_service_penalty", replace(
            config, out_of_service_penalty=first(config.out_of_service_penalty, math.nan))),
        "per_hop_value_penalty inf": ("per_hop_value_penalty",
                                      replace(config, per_hop_value_penalty=math.inf)),
        "vehicle_limit inf": ("vehicle_limit", replace(config, regions=(replace(
            region, vehicle_limit=first(region.vehicle_limit, math.inf)),) + config.regions[1:])),
        "solar_cap inf": ("solar_cap", facility(solar_cap=math.inf)),
        "solar nan": ("solar", facility(solar=first(fac.solar, math.nan))),
        "grid_limit inf": ("grid_limit", facility(grid_limit=first(fac.grid_limit, math.inf))),
        "out_of_service_cap inf": ("out_of_service_cap", replace(
            config, out_of_service_cap=first(config.out_of_service_cap, math.inf))),
        "battery_capacity inf": ("battery_capacity", replace(config, battery_capacity=math.inf)),
        "charge_increment nan": ("charge_increment", replace(config, charge_increment=math.nan)),
        "soc_value_slope -inf": ("soc_value_slope", replace(config, soc_value_slope=-math.inf)),
    }


@pytest.fixture
def mini_config() -> ScenarioConfig:
    return build_mini_config()


@pytest.fixture
def mini_bounds(mini_config):
    return pricing.estimate_bounds(mini_config)


@pytest.fixture
def mini_session() -> Session:
    return Session(id=0, t_minus=1, origin_region=1, soc=0.5)


@pytest.fixture
def mini_rebalance(mini_session):
    """Stay at the demand region: value 0.5*5 + 10 = 12.5."""
    from evdispatch.domain import Schedule
    return Schedule(session_id=0, t_minus=1, facility_id=None, evse_index=None,
                    t_arrival=None, cable_slots=(), energy_slots=(),
                    dest_region=1, t_plus=1, hops_total=0, final_soc=0.5,
                    value=12.5)


@pytest.fixture
def mini_charge(mini_session):
    """Hop to the facility, add 5 kWh in slot 2, return to region 1.

    Arrives with 4 kWh, leaves with 9, lands with 8: value
    0.5*8 + 10 - 0.5*2 = 13. Out of service over slots 1..3.
    """
    from evdispatch.domain import Schedule
    return Schedule(session_id=0, t_minus=1, facility_id=0, evse_index=0,
                    t_arrival=2, cable_slots=(2,), energy_slots=((2, 5.0),),
                    dest_region=1, t_plus=3, hops_total=2, final_soc=0.8,
                    value=13.0)


@pytest.fixture(scope="session")
def tiny_instance():
    return harness.generate_scenario(1, "tiny")


@pytest.fixture(scope="session")
def desk_instance():
    return harness.generate_scenario(1, "desk")
