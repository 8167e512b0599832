"""Generator determinism, file round-trips, trace ingestion, comparison."""

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
    generate_scenario, ingest_traces, read_config, read_report,
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
# Trace ingestion
# ---------------------------------------------------------------------------


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_ingest_two_column_applies_everywhere(tmp_path):
    config, _ = generate_scenario(0, "desk")
    T = config.horizon
    lines = "slot,price\n" + "".join(f"{t},{0.01 * t}\n"
                                     for t in range(1, T + 1))
    out = ingest_traces(_write(tmp_path, "p.csv", lines), None, config)
    for fac in out.facilities:
        assert fac.grid_price == tuple(0.01 * t for t in range(1, T + 1))
    # untouched fields survive
    assert out.horizon == config.horizon
    assert [f.solar for f in out.facilities] == [f.solar for f in
                                                 config.facilities]


def test_ingest_three_column_is_per_facility(tmp_path):
    config, _ = generate_scenario(0, "desk")
    T = config.horizon
    lines = []
    for f in range(len(config.facilities)):
        for t in range(1, T + 1):
            lines.append(f"{f},{t},{0.1 + 0.01 * f}\n")
    out = ingest_traces(_write(tmp_path, "p.csv", "".join(lines)), None,
                        config)
    assert out.facilities[0].grid_price == (0.1,) * T
    assert out.facilities[1].grid_price == (0.11,) * T


def test_ingest_solar_respects_the_cap(tmp_path):
    config, _ = generate_scenario(0, "desk")
    T = config.horizon
    cap = config.facilities[0].solar_cap
    good = "".join(f"{t},{cap / 2}\n" for t in range(1, T + 1))
    out = ingest_traces(None, _write(tmp_path, "s.csv", good), config)
    assert out.facilities[0].solar == (cap / 2,) * T

    bad = f"1,{cap * 2}\n" + "".join(f"{t},0\n" for t in range(2, T + 1))
    path = _write(tmp_path, "s2.csv", bad)
    message = f"{path}: solar at facility 0 slot 1: delta={cap * 2} outside [0, {cap}]"
    with pytest.raises(ValueError, match=re.escape(message)):
        ingest_traces(None, path, config)


@pytest.mark.parametrize("row,message", [
    ("5\n", "expected 2 or 3 columns"),
    ("5,abc\n", "row 13: could not convert"),
    ("5,nan\n", "NaN price"),
    ("5,inf\n", "row 13: infinite price value"),
    ("5,-inf\n", "row 13: infinite price value"),
    ("99,0.5\n", "slot 99 outside"),
    ("1,0.5\n", "duplicate entry"),
])
def test_ingest_rejects_malformed_rows(tmp_path, row, message):
    config, _ = generate_scenario(0, "tiny")
    T = config.horizon
    base = "".join(f"{t},0.3\n" for t in range(1, T + 1))
    with pytest.raises(ValueError, match=message):
        ingest_traces(_write(tmp_path, "p.csv", base + row), None, config)


@pytest.mark.parametrize("columns", [2, 3])
@pytest.mark.parametrize("cell", ["inf", "-inf", "1e400", "1.5", "0.5"])
def test_ingest_requires_integral_facilities_and_slots(tmp_path, columns, cell):
    """inf used to raise OverflowError, and 1.5 was read as slot 1."""
    config, _ = generate_scenario(0, "tiny")
    T = config.horizon
    if columns == 2:
        rows = [f"{cell},0.3"] + [f"{t},0.3" for t in range(2, T + 1)]
    else:
        rows = [f"{cell},1,0.3"] + [f"0,{t},0.3" for t in range(2, T + 1)]
    path = _write(tmp_path, "p.csv", "\n".join(rows) + "\n")
    message = f"{path}: row 1: facility or slot {cell} is not an integer"
    with pytest.raises(ValueError, match=re.escape(message)):
        ingest_traces(path, None, config)


def test_ingest_rejects_unknown_facilities(tmp_path):
    config, _ = generate_scenario(0, "tiny")
    T = config.horizon
    base = "".join(f"0,{t},0.3\n" for t in range(1, T + 1))
    with pytest.raises(ValueError, match="unknown facility 7"):
        ingest_traces(_write(tmp_path, "p.csv", base + "7,1,0.5\n"), None,
                      config)


def test_ingest_rejects_gaps_and_bad_prices(tmp_path):
    config, _ = generate_scenario(0, "tiny")
    T = config.horizon
    gappy = "".join(f"{t},0.3\n" for t in range(1, T))
    with pytest.raises(ValueError, match=f"expected {T} rows"):
        ingest_traces(_write(tmp_path, "p.csv", gappy), None, config)
    zeroed = "1,0.0\n" + "".join(f"{t},0.3\n" for t in range(2, T + 1))
    path = _write(tmp_path, "p2.csv", zeroed)
    with pytest.raises(ValueError, match=re.escape(
            f"{path}: grid_price at facility 0 slot 1: pi=0.0 <= 0")):
        ingest_traces(path, None, config)
    mixed = "0,1,0.3\n" + "".join(f"{t},0.3\n" for t in range(2, T + 1))
    with pytest.raises(ValueError, match="mixed column counts"):
        ingest_traces(_write(tmp_path, "p3.csv", mixed), None, config)


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
