"""Generator determinism, file round-trips, comparison."""

from __future__ import annotations

import csv
import dataclasses
import json
import math
import re

import pytest

from evdispatch import harness
from evdispatch.baselines import run_threshold
from evdispatch.dispatcher import run_online
from evdispatch.domain import as_plain, instance_hash, validate
from evdispatch.harness import (
    PRESETS, ComparisonTable, GeneratorParams, compare,
    generate_scenario, read_config, read_report,
    read_sessions, validate_params, write_comparison,
    write_config, write_decisions_csv, write_report, write_sessions,
)
from evdispatch.offline import exact_offline, upper_bound


def test_generation_is_deterministic():
    a_config, a_sessions = generate_scenario(5, "tiny")
    b_config, b_sessions = generate_scenario(5, "tiny")
    assert a_config == b_config
    assert a_sessions == b_sessions
    other_config, other_sessions = generate_scenario(6, "tiny")
    assert (instance_hash(a_config, a_sessions)
            != instance_hash(other_config, other_sessions))


@pytest.mark.parametrize("preset", ["tiny", "desk", "full", "rush"])
def test_presets_generate_valid_instances(preset):
    config, sessions = generate_scenario(0, preset)
    assert validate(config) == []
    assert sessions
    assert all(s.t_minus <= config.horizon for s in sessions)
    assert all(sessions[i].t_minus <= sessions[i + 1].t_minus
               for i in range(len(sessions) - 1))
    assert len(instance_hash(config, sessions)) == 64


def test_rush_is_a_congested_desk():
    assert PRESETS["rush"] == dataclasses.replace(
        PRESETS["desk"], arrival_rate=10.0, facility_count=1, evse_per_facility=2,
        vehicle_limit=3, out_of_service_cap=25)


def test_generator_rejects_bad_input():
    with pytest.raises(ValueError, match="unknown preset"):
        generate_scenario(0, "galactic")
    bad = GeneratorParams(arrival_rate=-1.0, pickup_values=())
    assert len(validate_params(bad)) >= 2
    with pytest.raises(ValueError, match="invalid generator params"):
        generate_scenario(0, bad)


#: (a knob set on the tiny preset, the name its error must carry). A NaN
#: or an infinity, a fractional count, an empty choice and a peak window
#: that is not (start, end) are the knobs' own problems; the rest are
#: those of the config the knobs generate.
#: Each used to raise a RuntimeError, a TypeError or a numpy ValueError
#: that named no parameter, or ran without any error.
BAD_PARAMS = [
    ({"offpeak_price": math.nan}, "offpeak_price"),
    ({"peak_price": math.inf}, "peak_price"),
    ({"solar_peak": math.nan}, "solar_peak"),
    ({"solar_peak": -1.0}, "solar"),
    ({"grid_limit": -1.0}, "grid_limit"),
    ({"grid_limit": math.nan}, "grid_limit"),
    ({"battery_capacity": math.nan}, "battery_capacity"),
    ({"vehicle_limit": -1}, "vehicle_limit"),
    ({"evse_energy_limit": 0.0}, "evse_energy_limit"),
    ({"evse_per_facility": 0}, "evse_count"),
    ({"pickup_values": (15.0, math.nan)}, "pickup_values"),
    ({"pickup_values": (math.inf,)}, "pickup_values"),
    ({"charge_increment": 4.0}, "charge_increment"),
    ({"horizon": 2.5}, "horizon"),
    ({"arrival_rate": math.nan}, "arrival_rate"),
    ({"arrival_rate": math.inf}, "arrival_rate"),
    ({"soc_choices": ()}, "soc_choices"),
    ({"max_sessions": 2.5}, "max_sessions"),
    ({"peak_hours": (math.nan, 3.0)}, "peak_hours"),
    ({"peak_hours": (3.0,)}, "peak_hours"),
    ({"peak_hours": (20.0, 3.0)}, "peak_hours"),
    ({"grid_rows": 0}, "grid_rows"),
    ({"grid_cols": 0}, "grid_cols"),
    ({"offpeak_price": 0.0}, "offpeak_price"),
    ({"peak_price": -1.0}, "peak_price"),
    ({"horizon": 0}, "horizon"),
    ({"facility_count": 9}, "facility_count"),
    ({"soc_choices": (1.5,)}, "soc_choices"),
    ({"max_sessions": -1}, "max_sessions"),
]


@pytest.mark.parametrize("changes, name", BAD_PARAMS,
                         ids=[" ".join(f"{k}={v}" for k, v in c.items()) for c, _ in BAD_PARAMS])
def test_generator_names_each_bad_param(changes, name):
    params = dataclasses.replace(PRESETS["tiny"], **changes)
    with pytest.raises(ValueError, match="^invalid generator params: ") as info:
        generate_scenario(0, params)
    assert re.search(rf"\b{name}\b", str(info.value)), str(info.value)


def test_tiny_caps_session_count():
    _, sessions = generate_scenario(1, "tiny")
    assert len(sessions) <= 6


def test_config_and_sessions_round_trip(tmp_path):
    cpath = str(tmp_path / "config.json")
    spath = str(tmp_path / "sessions.csv")
    for preset in PRESETS:
        config, sessions = generate_scenario(1, preset)
        write_config(config, cpath)
        write_sessions(sessions, spath)
        assert read_config(cpath) == config, preset
        assert read_sessions(spath) == sessions, preset


def test_config_fields_with_defaults_may_be_omitted(tmp_path):
    config, _ = generate_scenario(1, "tiny")
    payload = as_plain(config)
    del payload["rng_seed"]
    del payload["regions"][-1]["facility_id"]  # None: no facility there
    path = tmp_path / "config.json"
    path.write_text(json.dumps(payload))
    assert config.regions[-1].facility_id is None
    assert read_config(str(path)) == dataclasses.replace(config, rng_seed=0)


def test_read_config_rejects_invalid(tmp_path):
    path = tmp_path / "bad.json"
    config, _ = generate_scenario(0, "tiny")
    payload = as_plain(config)
    payload["horizon"] = 0
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match="invalid config"):
        read_config(str(path))
    # a real price or solar trace enters as config JSON: a bad slot is named
    fac = config.facilities[0]
    for name, x, message in [
            ("solar", fac.solar_cap + 1, f"delta={fac.solar_cap + 1} outside [0, {fac.solar_cap}]"),
            ("grid_price", 0.0, "pi=0.0 <= 0")]:
        trace = getattr(fac, name)
        bad = dataclasses.replace(fac, **{name: trace[:2] + (x,) + trace[3:]})
        write_config(dataclasses.replace(config, facilities=(bad,)), str(path))
        with pytest.raises(ValueError, match=re.escape(
                f"{path}: invalid config: {name} at facility 0 slot 3: {message}")):
            read_config(str(path))


def test_read_sessions_reports_the_row(tmp_path):
    path = tmp_path / "sessions.csv"
    path.write_text("id,t_minus,origin_region,soc\n0,1,0,0.5\nx,2,0,0.5\n")
    with pytest.raises(ValueError, match="row 3"):
        read_sessions(str(path))


def test_report_round_trip(tmp_path, tiny_instance):
    config, sessions = tiny_instance
    for report in (run_online(sessions, config),
                   run_threshold(sessions, config, 0.5)):
        path = str(tmp_path / f"{report.algorithm}.json")
        write_report(report, path)
        assert read_report(path) == report


def test_decisions_csv_shape(tmp_path, tiny_instance):
    config, sessions = tiny_instance
    report = run_threshold(sessions, config, 0.75)
    path = tmp_path / "decisions.csv"
    write_decisions_csv(report, str(path))
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == len(sessions)
    for row, decision in zip(rows, report.decisions):
        assert int(row["session_id"]) == decision.session_id
        if decision.schedule is None:
            assert row["action"] == "depot"
        else:
            assert row["action"] in ("charge", "rebalance")
            assert float(row["value"]) == decision.schedule.value


# ---------------------------------------------------------------------------
# Comparison
# ---------------------------------------------------------------------------


def _tiny_runs(seed=3):
    config, sessions = generate_scenario(seed, "tiny")
    online, captured = run_online(sessions, config, capture_candidates=True)
    threshold = run_threshold(sessions, config, 0.5)
    ub = upper_bound(sessions, config)
    opt = exact_offline(sessions, config, captured).welfare
    return config, sessions, online, threshold, ub, opt


def test_compare_ratio_math():
    _, _, online, threshold, ub, opt = _tiny_runs()
    table = compare([online, threshold], ub, opt=opt)
    assert isinstance(table, ComparisonTable)
    assert table.alpha == online.alphas.alpha
    assert table.ratio_guarantee_met is True
    by_name = {row.algorithm: row for row in table.rows}
    assert by_name["online"].ratio_to_ub == pytest.approx(online.welfare / ub)
    assert by_name["online"].ratio_to_opt == pytest.approx(
        online.welfare / opt)
    assert by_name["threshold-50"].accepted == threshold.accepted


def test_compare_rejects_contradictions():
    _, _, online, threshold, ub, opt = _tiny_runs()
    with pytest.raises(ValueError, match="no reports"):
        compare([], ub)
    with pytest.raises(ValueError, match="upper bound violated"):
        compare([online], online.welfare / 2)
    with pytest.raises(ValueError, match="upper bound violated"):
        compare([online], ub, opt=ub + 1)
    other_config, other_sessions = generate_scenario(4, "tiny")
    foreign = run_online(other_sessions, other_config)
    with pytest.raises(ValueError, match="mix"):
        compare([online, foreign], ub)


def test_write_comparison_outputs(tmp_path):
    _, _, online, threshold, ub, opt = _tiny_runs()
    table = compare([online, threshold], ub, opt=opt)
    cpath = tmp_path / "comparison.csv"
    jpath = tmp_path / "plot.json"
    write_comparison(table, str(cpath), str(jpath))
    with open(cpath, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["algorithm"] for r in rows] == ["online", "threshold-50"]
    assert float(rows[0]["welfare"]) == online.welfare
    payload = json.loads(jpath.read_text())
    assert payload["upper_bound"] == ub
    assert payload["ratio_guarantee_met"] is True
    assert len(payload["series"]) == 2
