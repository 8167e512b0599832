"""Domain model: travel metric, validation, ledger accounting, schedule
invariants, and canonical hashing.

The hop metric is cross-checked against networkx as an independent oracle.
"""

from __future__ import annotations

import dataclasses

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evdispatch.domain import (
    CapacityError, Facility, Region, ResourceLedger, ScenarioConfig, Schedule,
    Session, as_plain, hop_row, instance_hash, recompute_ledger,
    schedule_violations, validate, validate_sessions,
)
from evdispatch.harness import generate_scenario
from evdispatch.pricing import CABLE, DESTINATION, ENERGY, GENERATION, OUT_OF_SERVICE

from conftest import broken_configs, broken_sessions, build_mini_config, cell_index


# ---------------------------------------------------------------------------
# Travel metric
# ---------------------------------------------------------------------------


def _nx_oracle(config):
    g = nx.Graph()
    g.add_nodes_from(range(len(config.regions)))
    g.add_edges_from(config.edges)
    return dict(nx.all_pairs_shortest_path_length(g))


def test_hops_matches_networkx_on_desk_grid(desk_instance):
    config, _ = desk_instance
    oracle = _nx_oracle(config)
    n = len(config.regions)
    for a in range(n):
        for b in range(n):
            expected = oracle[a].get(b)
            got = hop_row(a, config)[b]
            if expected is None:
                assert got == -1
            else:
                assert got == expected


def test_hops_unreachable_sentinel():
    # islands 2 and 3 carry no demand, so the config is still valid
    config = build_mini_config(
        regions=(
            Region(id=0, pickup_value=0.0, vehicle_limit=(4,) * 6, facility_id=0),
            Region(id=1, pickup_value=10.0, vehicle_limit=(4,) * 6),
            Region(id=2, pickup_value=0.0, vehicle_limit=(4,) * 6),
            Region(id=3, pickup_value=0.0, vehicle_limit=(4,) * 6),
        ),
        edges=((0, 1), (2, 3)),
    )
    assert validate(config) == []
    assert hop_row(0, config)[2] == -1
    assert hop_row(2, config)[3] == 1
    assert config.hop_table[0] == hop_row(0, config) == (0, 1, -1, -1)
    for unknown in (99, -1):
        with pytest.raises(ValueError, match="unknown region"):
            hop_row(unknown, config)


def _three_region_config(edges):
    return build_mini_config(
        regions=tuple(Region(id=i, pickup_value=0.0, vehicle_limit=(1,) * 6)
                      for i in range(3)),
        edges=edges,
        facilities=(),
    )


def test_hop_table_belongs_to_its_config_object():
    chain = ((0, 1), (1, 2))
    shortcut = chain + ((0, 2),)
    config = _three_region_config(chain)
    # configs built and dropped in turn often share one id(); each must
    # still get its own distances
    for edges, expected in [(chain, 2), (shortcut, 1), (chain, 2),
                            (((0, 1),), -1), (shortcut, 1)]:
        assert hop_row(0, dataclasses.replace(config, edges=edges))[2] == expected

    assert config.hop_table[0][2] == 2
    replaced = dataclasses.replace(config, edges=shortcut)
    assert replaced.hop_table[0][2] == 1
    assert config.hop_table[0][2] == 2

    # the cached table is not a field: equality, hashing and export ignore it
    restored = dataclasses.replace(replaced, edges=chain)
    assert restored == config and hash(restored) == hash(config)
    assert dataclasses.asdict(restored) == dataclasses.asdict(config)
    assert "hop_table" not in dataclasses.asdict(config)


@st.composite
def _random_graph_config(draw):
    n = draw(st.integers(min_value=1, max_value=7))
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    edges = tuple(p for p in pairs if draw(st.booleans()))
    return build_mini_config(
        regions=tuple(Region(id=i, pickup_value=0.0, vehicle_limit=(1,) * 6)
                      for i in range(n)),
        edges=edges,
        facilities=(),
    )


@settings(max_examples=60, deadline=None)
@given(_random_graph_config(), st.data())
def test_hops_is_a_metric(config, data):
    n = len(config.regions)
    a = data.draw(st.integers(0, n - 1))
    b = data.draw(st.integers(0, n - 1))
    c = data.draw(st.integers(0, n - 1))
    table = config.hop_table
    assert table[a][a] == 0
    ab, ba = table[a][b], table[b][a]
    assert ab == ba
    ac, cb = table[a][c], table[c][b]
    if ac >= 0 and cb >= 0:
        assert 0 <= ab <= ac + cb
    oracle = _nx_oracle(config)
    expected = oracle[a].get(b)
    assert (ab == -1) == (expected is None)
    if expected is not None:
        assert ab == expected


# ---------------------------------------------------------------------------
# Config validation
# ---------------------------------------------------------------------------


def test_presets_validate_clean(desk_instance, tiny_instance):
    for config in (desk_instance[0], tiny_instance[0]):
        assert validate(config) == []


def test_validate_catches_trace_length_mismatch(mini_config):
    bad = dataclasses.replace(
        mini_config,
        out_of_service_penalty=(0.4,) * 5)
    assert any(v.field == "out_of_service_penalty" for v in validate(bad))


def test_validate_catches_nonpositive_grid_price(mini_config):
    fac = dataclasses.replace(mini_config.facilities[0], grid_price=(0.0,) * 6)
    bad = dataclasses.replace(mini_config, facilities=(fac,))
    assert any(v.field == "grid_price" for v in validate(bad))


def test_validate_catches_increment_not_dividing_capacity(mini_config):
    bad = dataclasses.replace(mini_config, charge_increment=3.0)
    assert any(v.field == "charge_increment" for v in validate(bad))


def test_validate_catches_disconnected_demand(mini_config):
    bad = build_mini_config(
        regions=(
            Region(id=0, pickup_value=0.0, vehicle_limit=(4,) * 6, facility_id=0),
            Region(id=1, pickup_value=10.0, vehicle_limit=(4,) * 6),
            Region(id=2, pickup_value=5.0, vehicle_limit=(4,) * 6),
        ),
        edges=((0, 1),),
    )
    assert any("not connected" in v.message for v in validate(bad))


def test_validate_catches_facility_region_mismatch(mini_config):
    fac = dataclasses.replace(mini_config.facilities[0], region_id=1)
    bad = dataclasses.replace(mini_config, facilities=(fac,))
    assert any(v.field == "facility_id" for v in validate(bad))


def test_validate_catches_bad_horizon(mini_config):
    bad = dataclasses.replace(mini_config, horizon=0)
    out = validate(bad)
    assert len(out) == 1 and out[0].field == "horizon"


def _with_first(config, group, **changes):
    """The config with the first item of ``group`` changed."""
    items = getattr(config, group)
    return dataclasses.replace(
        config, **{group: (dataclasses.replace(items[0], **changes),) + items[1:]})


BAD_INDEXES = {
    "region id 5 at position 0": (
        lambda c: _with_first(c, "regions", id=5), "region.id", "id 5 != position"),
    "region facility 3": (
        lambda c: _with_first(c, "regions", facility_id=3), "facility_id", "3 unknown"),
    "facility id 2 at position 0": (
        lambda c: _with_first(c, "facilities", id=2), "facility.id", "id 2 != position"),
    "facility region 5": (
        lambda c: _with_first(c, "facilities", region_id=5), "region_id", "5 unknown"),
    "cables_per_evse 0": (
        lambda c: _with_first(c, "facilities", cables_per_evse=0), "cables_per_evse",
        "C=0 < 1"),
    "edge to region 7": (
        lambda c: dataclasses.replace(c, edges=c.edges + ((1, 7),)), "edges",
        "unknown region id"),
    "self loop": (
        lambda c: dataclasses.replace(c, edges=c.edges + ((1, 1),)), "edges", "self loop"),
}


@pytest.mark.parametrize("defect", sorted(BAD_INDEXES))
def test_validate_names_each_bad_index(mini_config, defect):
    """Each bad id, index or count is named, never raised or wrapped
    around."""
    change, field, message = BAD_INDEXES[defect]
    found = validate(change(mini_config))
    assert (field, message) in [(v.field, v.message) for v in found], found


def _traces(config):
    """(owner, name, trace) for every tuple field of length T on the config,
    its regions and its facilities; owner is None for the config itself,
    else (group, index)."""
    owners = [(None, config)] + [((group, i), item) for group in ("regions", "facilities")
                                  for i, item in enumerate(getattr(config, group))]
    return [(owner, f.name, getattr(obj, f.name))
            for owner, obj in owners for f in dataclasses.fields(obj)
            if isinstance(getattr(obj, f.name), tuple)
            and len(getattr(obj, f.name)) == config.horizon]


def _with_trace(config, owner, name, trace):
    """The config with the trace ``name`` of ``owner`` replaced."""
    if owner is None:
        return dataclasses.replace(config, **{name: trace})
    group, i = owner
    items = list(getattr(config, group))
    items[i] = dataclasses.replace(items[i], **{name: trace})
    return dataclasses.replace(config, **{group: tuple(items)})


def test_every_trace_is_checked():
    """A trace one entry short is named once by its length; with a bad
    first slot as well, both problems are named. The region and fleet
    traces used to skip their slots once their length was wrong."""
    config, _ = generate_scenario(0, "desk")
    traces = _traces(config)
    assert {name for _, name, _ in traces} >= {
        "vehicle_limit", "solar", "grid_price", "grid_limit", "out_of_service_cap",
        "out_of_service_penalty"}
    for owner, name, trace in traces:
        short = validate(_with_trace(config, owner, name, trace[:-1]))
        assert [(v.field, v.message) for v in short] == [
            (name, "trace length 95 != T=96")], (owner, name, short)
        both = validate(_with_trace(config, owner, name, (-1,) + trace[1:-1]))
        assert [v.field for v in both] == [name, name], (owner, name, both)
        assert both[0].message == "trace length 95 != T=96", (owner, name, both)
        assert both[1].where.endswith("slot 1") and "-1" in both[1].message, (owner, name, both)


@pytest.mark.parametrize("defect", sorted(broken_configs()))
def test_validate_names_each_non_finite_number(defect):
    """Each one is named once, and no range check of it adds a second
    violation or raises: an infinite battery made the divisibility check
    raise OverflowError."""
    field, config = broken_configs()[defect]
    found = validate(config)
    assert [(v.field, v.message.endswith("is not finite")) for v in found] == [
        (field, True)], found


def test_validate_sessions_accepts_generated_streams(tiny_instance, desk_instance):
    for config, sessions in (tiny_instance, desk_instance, generate_scenario(0, "tiny")):
        assert validate_sessions(sessions, config) == []


@pytest.mark.parametrize("defect", sorted(broken_sessions()[1]))
def test_validate_sessions_names_each_defect(defect):
    config, streams = broken_sessions()
    field, sessions = streams[defect]
    found = validate_sessions(sessions, config)
    assert [v.field for v in found] == [field], found


# ---------------------------------------------------------------------------
# Resource ledger
# ---------------------------------------------------------------------------


def test_ledger_apply_and_violations(mini_config, mini_charge):
    ledger = ResourceLedger.zero(mini_config)
    assert ledger.fits(mini_charge)
    ledger.apply(mini_charge)

    def load(family, *cell):
        return ledger.loads[family][cell_index(mini_config, family, *cell)]

    assert load(CABLE, 0, 0, 2) == 1
    assert load(ENERGY, 0, 0, 2) == pytest.approx(5.0)
    assert load(GENERATION, 0, 2) == pytest.approx(5.0)
    assert load(OUT_OF_SERVICE, 1) == 1 and load(OUT_OF_SERVICE, 3) == 1
    assert load(OUT_OF_SERVICE, 4) == 0
    assert load(DESTINATION, 1, 3) == 1
    assert ledger.violations(mini_config) == []
    # a second apply returns the loads it overwrote, and writing those
    # back restores the ledger exactly
    demands = list(mini_config.cells.demands(mini_charge))
    before = [list(row) for row in ledger.loads]
    overwritten = ledger.apply(mini_charge)
    assert overwritten == [before[k][i] for k, i, _, _ in demands]
    assert ledger.loads != before
    for (k, i, _, _), y in zip(demands, overwritten):
        ledger.loads[k][i] = y
    assert ledger.loads == before


def test_ledger_detects_cable_overflow(mini_config, mini_charge):
    ledger = ResourceLedger.zero(mini_config)
    for _ in range(2):
        assert ledger.fits(mini_charge)
        ledger.apply(mini_charge)
    # both cables of the single EVSE are now taken in slot 2
    assert not ledger.fits(mini_charge)
    ledger.apply(mini_charge)
    fields = {v.field for v in ledger.violations(mini_config)}
    assert "y_c" in fields
    with pytest.raises(CapacityError):
        ledger.assert_capacity(mini_config)


def test_ledger_detects_generation_overflow(mini_config, mini_charge):
    # shrink the grid so two 5 kWh draws exceed delta + mu = 8
    fac = dataclasses.replace(mini_config.facilities[0], grid_limit=(8.0,) * 6)
    config = dataclasses.replace(mini_config, facilities=(fac,))
    ledger = ResourceLedger.zero(config)
    ledger.apply(mini_charge)
    assert not ledger.fits(mini_charge)
    ledger.apply(mini_charge)
    assert any(v.field == "y_g" for v in ledger.violations(config))


def test_ledger_names_every_overfilled_cell():
    """Every cell of a desk day one unit over capacity: one breach per cell,
    labelled by its own coordinates, then one generation-balance line per
    facility-slot, since no slot's generation (at most solar cap + grid
    limit + 1) equals the 3 * 21 kWh its EVSEs draw. Each breach used to
    list its family's cells again, which took a minute on a full day."""
    config, _ = generate_scenario(0, "desk")
    ledger = ResourceLedger.zero(config)
    ledger.loads = [[shape.cap + 1 for shape in shapes] for shapes in config.cells.shapes]
    found = ledger.violations(config)
    T, cells = config.horizon, sum(map(len, config.cells.shapes))
    assert len(found) == cells + len(config.facilities) * T
    balance = found[cells:]
    assert {v.message for v in balance} == {"generation does not match summed EVSE energy"}
    breaches = {}
    for v in found[:cells]:
        breaches.setdefault(v.field, []).append(v)
    assert {field: (str(vs[0]), vs[-1].where) for field, vs in breaches.items()} == {
        "y_c": ("y_c at facility 0 evse 0 slot 1: 5 > C=4", "facility 1 evse 2 slot 96"),
        "y_e": ("y_e at facility 0 evse 0 slot 1: 21.0 > E=20.0", "facility 1 evse 2 slot 96"),
        "y_g": ("y_g at facility 0 slot 1: 13.0 > delta+mu=12.0", "facility 1 slot 96"),
        "y_d": ("y_d at region 0 slot 1: 41 > Omega=40", "region 15 slot 96"),
        "y_o": ("y_o at slot 1: 81 > I=80", "slot 96"),
    }
    assert (balance[0].where, balance[-1].where) == ("facility 0 slot 1", "facility 1 slot 96")


def test_recompute_ledger_strict_raises_on_breach(mini_config, mini_charge):
    from evdispatch.domain import DispatchDecision
    decisions = [DispatchDecision(session_id=i, schedule=mini_charge, utility=1.0)
                 for i in range(3)]
    with pytest.raises(CapacityError):
        recompute_ledger(decisions, mini_config, strict=True)
    ledger = recompute_ledger(decisions, mini_config)
    assert ledger.loads[CABLE][cell_index(mini_config, CABLE, 0, 0, 2)] == 3


# ---------------------------------------------------------------------------
# Schedule invariants
# ---------------------------------------------------------------------------


def test_hand_schedules_are_clean(mini_config, mini_session, mini_rebalance,
                                  mini_charge):
    assert schedule_violations(mini_rebalance, mini_config, mini_session) == []
    assert schedule_violations(mini_charge, mini_config, mini_session) == []
    assert mini_charge.charging and not mini_rebalance.charging
    assert list(mini_charge.out_of_service_slots) == [1, 2, 3]
    assert mini_charge.energy_total == pytest.approx(5.0)


def test_schedule_violations_catch_tampering(mini_config, mini_session,
                                             mini_charge, mini_rebalance):
    wrong_soc = dataclasses.replace(mini_charge, final_soc=0.9)
    assert any("final_soc" in v for v in
               schedule_violations(wrong_soc, mini_config, mini_session))

    gap = dataclasses.replace(mini_charge, cable_slots=(2, 4),
                              energy_slots=((2, 5.0),), t_plus=5)
    assert any("contiguous" in v for v in
               schedule_violations(gap, mini_config, mini_session))

    no_cable = dataclasses.replace(mini_charge, energy_slots=((3, 5.0),))
    assert any("without a cable" in v for v in
               schedule_violations(no_cable, mini_config, mini_session))

    hot = dataclasses.replace(mini_charge, energy_slots=((2, 11.0),))
    assert any("per-slot energy" in v for v in
               schedule_violations(hot, mini_config, mini_session))

    late = dataclasses.replace(mini_charge, t_plus=9)
    assert any("t_plus" in v for v in
               schedule_violations(late, mini_config, mini_session))

    id_mismatch = dataclasses.replace(mini_charge, session_id=7)
    assert any("session id" in v for v in
               schedule_violations(id_mismatch, mini_config, mini_session))

    # the clock, the hop count and the value are replayed as well: each
    # forged field is named, and every other check still passes
    for plan, fields, problem in [
            (mini_charge, {"t_arrival": 3, "cable_slots": (3,), "energy_slots": ((3, 5.0),),
                           "t_plus": 4}, "t_arrival 3 != t_minus + h1 = 2"),
            (mini_charge, {"t_plus": 2}, "t_plus 2 != t_leave + h2 = 3"),
            (mini_rebalance, {"t_plus": 2}, "t_plus 2 != t_leave + h2 = 1"),
            (mini_charge, {"hops_total": 0}, "hops_total 0 != h1 + h2 = 2"),
            (mini_rebalance, {"hops_total": 1}, "hops_total 1 != h1 + h2 = 0"),
            (mini_charge, {"value": 1013.0}, "value 1013.0 != plan value 13.0"),
            (mini_rebalance, {"value": float("nan")}, "value nan != plan value 12.5")]:
        forged = dataclasses.replace(plan, **fields)
        assert schedule_violations(forged, mini_config, mini_session) == [problem]
    # a hop count cut to zero with its value raised to match is still caught
    short = dataclasses.replace(mini_charge, hops_total=0, value=14.0)
    assert schedule_violations(short, mini_config, mini_session) == [
        "hops_total 0 != h1 + h2 = 2", "value 14.0 != plan value 13.0"]

    # a bad index is listed, never raised or wrapped around
    for fields, problem in [({"facility_id": 3}, "unknown facility 3"),
                            ({"facility_id": -1}, "unknown facility -1"),
                            ({"evse_index": None}, "unknown EVSE None"),
                            ({"evse_index": -1}, "unknown EVSE -1"),
                            ({"dest_region": 7}, "unknown destination 7"),
                            ({"dest_region": -1}, "unknown destination -1")]:
        bad = dataclasses.replace(mini_charge, **fields)
        for session in (None, mini_session):
            assert problem in schedule_violations(bad, mini_config, session)
    for origin in (7, -1):
        lost = dataclasses.replace(mini_session, origin_region=origin)
        for plan in (mini_charge, mini_rebalance):
            assert (f"unknown origin {origin}"
                    in schedule_violations(plan, mini_config, lost))

    # a bad slot or energy is listed with or without the session
    for fields, problem in [({"t_minus": 0}, "t_minus 0 outside 1..6"),
                            ({"final_soc": 1.5}, "final stored energy 15.0 outside [0, 10.0]"),
                            ({"t_arrival": None}, "charging schedule without arrival slot"),
                            ({"cable_slots": (2, 3, 4)},
                             "cable held outside the out-of-service window")]:
        bad = dataclasses.replace(mini_charge, **fields)
        for session in (None, mini_session):
            assert problem in schedule_violations(bad, mini_config, session)
    later = dataclasses.replace(mini_charge, t_minus=2)
    assert "t_minus does not match session" in schedule_violations(
        later, mini_config, mini_session)
    # with no edges the facility and region 0 are out of reach of region 1
    islands = build_mini_config(edges=())
    assert "facility unreachable" in schedule_violations(
        mini_charge, islands, mini_session)
    away = dataclasses.replace(mini_rebalance, dest_region=0, t_plus=2, hops_total=1,
                               final_soc=0.4, value=1.5)
    assert "destination unreachable" in schedule_violations(away, islands, mini_session)
    empty = dataclasses.replace(mini_session, soc=0.0)
    stranded = dataclasses.replace(away, final_soc=-0.1, value=-1.0)
    assert "battery below 0 on arrival" in schedule_violations(
        stranded, mini_config, empty)


def test_schedule_violations_allow_two_rates_only(mini_config):
    # 5 + 5 + 2.5 toward a 12.5 target reads as rate 5 plus one remainder
    config = build_mini_config(battery_capacity=15.0, charge_increment=2.5)
    session = Session(id=0, t_minus=1, origin_region=1, soc=0.1)
    s = Schedule(session_id=0, t_minus=1, facility_id=0, evse_index=0,
                 t_arrival=2, cable_slots=(2, 3, 4),
                 energy_slots=((2, 5.0), (3, 5.0), (4, 2.5)),
                 dest_region=1, t_plus=5, hops_total=2,
                 final_soc=(1.5 - 1.0 + 12.5 - 1.0) / 15.0, value=15.0)
    out = schedule_violations(s, config, session)
    assert out == []

    two_partials = dataclasses.replace(
        s, energy_slots=((2, 5.0), (3, 4.0), (4, 3.5)))
    out = schedule_violations(two_partials, config, session)
    assert any("partial-rate" in v for v in out)


def test_rebalance_with_charging_fields_is_flagged(mini_config, mini_session,
                                                   mini_rebalance):
    bad = dataclasses.replace(mini_rebalance, cable_slots=(1,))
    assert any("without a facility" in v for v in
               schedule_violations(bad, mini_config, mini_session))


def test_battery_trajectory_is_replayed(mini_config):
    # 0.05 soc = 0.5 kWh cannot cover the one-hop ride to the facility
    s = Schedule(session_id=0, t_minus=1, facility_id=0, evse_index=0,
                 t_arrival=2, cable_slots=(2,), energy_slots=((2, 5.0),),
                 dest_region=1, t_plus=3, hops_total=2, final_soc=0.35,
                 value=0.0)
    session = Session(id=0, t_minus=1, origin_region=1, soc=0.05)
    out = schedule_violations(s, mini_config, session)
    assert any("below 0" in v for v in out)


# ---------------------------------------------------------------------------
# Canonical hashing
# ---------------------------------------------------------------------------


def test_instance_hash_is_stable_and_sensitive(tiny_instance):
    config, sessions = tiny_instance
    h1 = instance_hash(config, sessions)
    h2 = instance_hash(config, list(sessions))
    assert h1 == h2 and len(h1) == 64
    bumped = (dataclasses.replace(sessions[0], soc=sessions[0].soc / 2),
              *sessions[1:])
    assert instance_hash(config, bumped) != h1
    other = dataclasses.replace(config, soc_value_slope=config.soc_value_slope + 0.1)
    assert instance_hash(other, sessions) != h1


def test_config_to_dict_round_trips_through_generator(tiny_instance):
    config, _ = tiny_instance
    from evdispatch.harness import from_plain
    assert from_plain(ScenarioConfig, as_plain(config)) == config
