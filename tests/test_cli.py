"""Command-line entry points: exit codes, artifacts, determinism."""

from __future__ import annotations

import json

import pytest

from evdispatch.cli import main
from evdispatch.harness import read_report, write_config

from conftest import broken_configs


def test_generate_writes_both_files(tmp_path, capsys):
    out = tmp_path / "inst"
    assert main(["generate", "--seed", "3", "--preset", "tiny",
                 "--out", str(out)]) == 0
    assert (out / "config-seed3.json").exists()
    assert (out / "sessions-seed3.csv").exists()
    assert "wrote" in capsys.readouterr().out


def test_generate_is_byte_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    main(["generate", "--seed", "3", "--preset", "tiny", "--out", str(a)])
    main(["generate", "--seed", "3", "--preset", "tiny", "--out", str(b)])
    assert ((a / "config-seed3.json").read_bytes()
            == (b / "config-seed3.json").read_bytes())
    assert ((a / "sessions-seed3.csv").read_bytes()
            == (b / "sessions-seed3.csv").read_bytes())


def test_run_from_seed_and_from_files_agree(tmp_path, capsys):
    inst = tmp_path / "inst"
    main(["generate", "--seed", "3", "--preset", "tiny", "--out", str(inst)])
    by_seed, by_file = tmp_path / "s", tmp_path / "f"
    assert main(["run", "--seed", "3", "--preset", "tiny",
                 "--out", str(by_seed)]) == 0
    assert main(["run", "--config", str(inst / "config-seed3.json"),
                 "--sessions", str(inst / "sessions-seed3.csv"),
                 "--out", str(by_file)]) == 0
    assert ((by_seed / "online-report.json").read_bytes()
            == (by_file / "online-report.json").read_bytes())
    assert ((by_seed / "online-decisions.csv").read_bytes()
            == (by_file / "online-decisions.csv").read_bytes())
    assert "online: welfare=" in capsys.readouterr().out


def test_run_reruns_are_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    main(["run", "--seed", "5", "--preset", "tiny", "--out", str(a)])
    main(["run", "--seed", "5", "--preset", "tiny", "--out", str(b)])
    assert ((a / "online-report.json").read_bytes()
            == (b / "online-report.json").read_bytes())


def test_run_rejects_an_invalid_policy(tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["run", "--seed", "0", "--preset", "tiny",
                 "--max-candidates", "-3", "--out", str(out)]) != 0
    assert "invalid policy" in capsys.readouterr().err
    assert not (out / "online-report.json").exists()
    assert not (out / "online-decisions.csv").exists()


def test_run_streams_json_without_out(capsys):
    assert main(["run", "--seed", "3", "--preset", "tiny"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["algorithm"] == "online"
    assert payload["welfare"] > 0


@pytest.mark.parametrize("command, filename", [
    (["run"], "online-report.json"),
    (["run-baseline", "--threshold", "50"], "threshold-50-report.json"),
    (["offline-ub"], "upper-bound.json"),
    (["offline-exact", "--max-candidates", "4"], "exact-report.json"),
], ids=["run", "run-baseline", "offline-ub", "offline-exact"])
def test_json_commands_print_without_out_what_they_write_with_it(tmp_path, capsys,
                                                                 command, filename):
    args = [*command, "--seed", "3", "--preset", "tiny"]
    assert main(args) == 0
    printed = capsys.readouterr().out
    assert main([*args, "--out", str(tmp_path)]) == 0
    assert printed == (tmp_path / filename).read_text()


def test_instance_flag_conflicts(tmp_path):
    with pytest.raises(SystemExit, match="not both"):
        main(["run", "--seed", "1", "--config", "x.json",
              "--sessions", "y.csv"])
    with pytest.raises(SystemExit, match="need --seed"):
        main(["run"])
    with pytest.raises(SystemExit, match="given together"):
        main(["run", "--config", "x.json"])
    with pytest.raises(SystemExit, match="not both"):
        main(["verify", "--seed", "1", "--config", "x.json"])
    with pytest.raises(SystemExit, match="need --seed or --config$"):
        main(["verify"])


def test_missing_files_exit_one(tmp_path, capsys):
    code = main(["run", "--config", str(tmp_path / "no.json"),
                 "--sessions", str(tmp_path / "no.csv")])
    assert code == 1
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("command", [["run"], ["run-baseline", "--threshold", "50"],
                                     ["offline-ub"]])
def test_run_on_invalid_sessions_exits_one_and_writes_nothing(tmp_path, capsys, command):
    inst = tmp_path / "inst"
    main(["generate", "--seed", "0", "--preset", "tiny", "--out", str(inst)])
    lines = (inst / "sessions-seed0.csv").read_text().splitlines()
    first = lines[1].split(",")
    lines[1] = ",".join(first[:3] + ["1.5"])  # a battery at 150 %
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    out = tmp_path / "out"
    code = main(command + ["--config", str(inst / "config-seed0.json"),
                           "--sessions", str(bad), "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert "invalid sessions: soc at session 0: 1.5 outside [0, 1]" in err
    assert not out.exists()


@pytest.mark.parametrize("defect", ["evse_energy_limit inf", "per_hop_value_penalty inf"])
def test_run_on_a_non_finite_config_exits_one_and_writes_nothing(tmp_path, capsys, defect):
    """The JSON file spells the number Infinity. The first config used to
    die with an IndexError traceback; the second exited 0, wrote its
    artifacts and printed welfare=nan. ``verify`` refuses the file the
    same way, when it loads it, before it prints anything."""
    inst = tmp_path / "inst"
    main(["generate", "--seed", "0", "--preset", "tiny", "--out", str(inst)])
    field, config = broken_configs()[defect]
    bad = tmp_path / "bad.json"
    write_config(config, str(bad))
    assert f'"{field}": Infinity' in bad.read_text()
    capsys.readouterr()
    out = tmp_path / "out"
    code = main(["run", "--config", str(bad), "--sessions",
                 str(inst / "sessions-seed0.csv"), "--out", str(out)])
    assert code == 1
    assert f"invalid config: {field} at " in capsys.readouterr().err
    assert not out.exists()
    assert main(["verify", "--config", str(bad)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {bad}: invalid config: {field} at ")
    assert captured.out == ""


def test_run_rush_preset(tmp_path, capsys):
    out = tmp_path / "rush"
    assert main(["run", "--preset", "rush", "--seed", "1", "--out", str(out)]) == 0
    report = read_report(str(out / "online-report.json"))
    # congested: about 900 sessions meet two EVSEs, and many go to the depot
    assert len(report.decisions) > 500
    assert 0 < report.accepted < len(report.decisions)
    assert "online: welfare=" in capsys.readouterr().out


def test_run_baseline(tmp_path):
    out = tmp_path / "base"
    assert main(["run-baseline", "--seed", "3", "--preset", "tiny",
                 "--threshold", "50", "--out", str(out)]) == 0
    report = read_report(str(out / "threshold-50-report.json"))
    assert report.algorithm == "threshold-50"
    with pytest.raises(SystemExit):
        main(["run-baseline", "--seed", "3", "--threshold", "33"])


def test_offline_ub_and_exact_bracket_the_online_run(tmp_path):
    out = tmp_path / "runs"
    main(["run", "--seed", "3", "--preset", "tiny", "--out", str(out)])
    online = read_report(str(out / "online-report.json"))

    assert main(["offline-ub", "--seed", "3", "--preset", "tiny",
                 "--out", str(out)]) == 0
    ub = json.loads((out / "upper-bound.json").read_text())
    assert ub["instance_hash"] == online.instance_hash
    assert ub["upper_bound"] >= online.welfare - 1e-9

    assert main(["offline-exact", "--seed", "3", "--preset", "tiny",
                 "--max-candidates", "4", "--out", str(out)]) == 0
    exact = json.loads((out / "exact-report.json").read_text())
    assert exact["welfare"] >= online.welfare - 1e-9
    assert exact["nodes_explored"] <= 2 * exact["search_space"]


def test_offline_exact_respects_the_space_limit(capsys):
    code = main(["offline-exact", "--seed", "3", "--preset", "tiny",
                 "--space-limit", "4"])
    assert code == 1
    assert "refusing exact search" in capsys.readouterr().err


def test_verify_passes_at_full_alpha(capsys):
    assert main(["verify", "--seed", "1", "--preset", "tiny"]) == 0
    out = capsys.readouterr().out
    assert "verification passed" in out
    assert "FAIL" not in out
    assert out.count("PASS") >= 4


def test_verify_fails_at_half_alpha(capsys):
    assert main(["verify", "--seed", "1", "--preset", "tiny",
                 "--alpha-scale", "0.5"]) == 1
    out = capsys.readouterr().out
    assert "verification FAILED" in out
    assert "FAIL family=" in out


def test_verify_family_filter(capsys):
    assert main(["verify", "--seed", "1", "--preset", "tiny",
                 "--family", "cable"]) == 0
    lines = [l for l in capsys.readouterr().out.splitlines()
             if l.startswith(("PASS", "FAIL"))]
    assert lines and all("family=cable" in l for l in lines)


def test_verify_refuses_a_nan_alpha_scale(capsys):
    """NaN used to pass every case with worst_margin=inf and exit 0."""
    assert main(["verify", "--seed", "0", "--preset", "tiny",
                 "--alpha-scale", "nan"]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: alpha must be positive")
    assert "PASS" not in captured.out


def test_verify_refuses_an_infinite_alpha_scale(capsys):
    """At an infinite alpha every curve passed, and the run exited 0."""
    assert main(["verify", "--seed", "0", "--preset", "tiny",
                 "--alpha-scale", "inf"]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: alpha must be positive")
    assert "PASS" not in captured.out


@pytest.mark.parametrize("flag", ["--ub", "--opt", "welfare"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_compare_refuses_a_non_finite_bound(tmp_path, capsys, flag, value):
    """``--ub nan`` used to exit 0 and write NaN, which is not JSON, into
    plot-data.json; ``--ub -inf`` and ``--opt inf`` were refused only as
    a violated upper bound. A report read back with a NaN or -inf welfare
    printed ``welfare=nan ratio=nan`` and exited 0."""
    runs = tmp_path / "runs"
    main(["run", "--seed", "0", "--preset", "tiny", "--out", str(runs)])
    capsys.readouterr()
    report = runs / "online-report.json"
    bounds = {"--ub": "1000.0", "--opt": "10.0"}
    if flag == "welfare":
        data = json.loads(report.read_text())
        data["welfare"] = float(value)
        report.write_text(json.dumps(data))
        error = "online welfare must be finite"
    else:
        bounds[flag] = value
        error = f"{flag[2:]} must be finite"
    out = tmp_path / "cmp"
    code = main(["compare", "--reports", str(report),
                 *(f"{k}={v}" for k, v in bounds.items()), "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err.startswith(f"error: {error}")
    assert not out.exists()


def test_compare_end_to_end(tmp_path, capsys):
    out = tmp_path / "runs"
    main(["run", "--seed", "3", "--preset", "tiny", "--out", str(out)])
    main(["run-baseline", "--seed", "3", "--preset", "tiny",
          "--threshold", "50", "--out", str(out)])
    capsys.readouterr()

    cmp_dir = tmp_path / "cmp"
    assert main(["compare",
                 "--reports", str(out / "online-report.json"),
                 str(out / "threshold-50-report.json"),
                 "--seed", "3", "--preset", "tiny",
                 "--out", str(cmp_dir)]) == 0
    text = capsys.readouterr().out
    assert "online: welfare=" in text and "upper bound:" in text
    assert (cmp_dir / "comparison.csv").exists()
    assert (cmp_dir / "plot-data.json").exists()

    with pytest.raises(SystemExit, match="does not match"):
        main(["compare", "--reports", str(out / "online-report.json"),
              "--seed", "4", "--preset", "tiny"])

    # an explicit --ub skips loading the instance entirely
    assert main(["compare", "--reports", str(out / "online-report.json"),
                 "--ub", "1000.0", "--out", str(cmp_dir)]) == 0

    # a known optimum adds the check of the ratio guarantee
    online = read_report(str(out / "online-report.json"))
    capsys.readouterr()
    for opt, met in [(online.welfare, "yes"), (1e6, "NO")]:
        assert main(["compare", "--reports", str(out / "online-report.json"),
                     "--ub", "1e6", "--opt", repr(opt), "--out", str(cmp_dir)]) == 0
        assert capsys.readouterr().out.endswith(f"alpha * online >= opt: {met}\n")


@pytest.mark.parametrize("defect", ["no horizon", "regions 5", "horizon 12.7"])
def test_run_on_a_malformed_config_exits_one_and_writes_nothing(tmp_path, capsys, defect):
    """A missing field used to exit through a KeyError traceback, a
    scalar in place of a list through a TypeError one, and a fractional
    horizon was truncated to 12 and run."""
    inst = tmp_path / "inst"
    main(["generate", "--seed", "0", "--preset", "tiny", "--out", str(inst)])
    payload = json.loads((inst / "config-seed0.json").read_text())
    if defect == "no horizon":
        del payload["horizon"]
    elif defect == "regions 5":
        payload["regions"] = 5
    else:
        payload["horizon"] = 12.7
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload))
    capsys.readouterr()
    out = tmp_path / "out"
    code = main(["run", "--config", str(bad), "--sessions",
                 str(inst / "sessions-seed0.csv"), "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err.startswith(f"error: {bad}: ")
    assert not out.exists()


@pytest.mark.parametrize("payload", [{"algorithm": "online"}, [], {"psi": 6.5}])
def test_compare_on_a_malformed_report_exits_one_and_writes_nothing(tmp_path, capsys,
                                                                    payload):
    """A report without its fields used to exit through a KeyError
    traceback."""
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload))
    out = tmp_path / "cmp"
    code = main(["compare", "--reports", str(bad), "--ub", "1.0", "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err.startswith(f"error: {bad}: ")
    assert not out.exists()


@pytest.mark.parametrize("kind, defect", [
    ("config", "vehicle_limit 2.5"), ("config", "edge (0,)"),
    ("report", "t_plus + 0.5"), ("report", "energy slot of three"),
    ("report", "peak_utilization lots"), ("report", "peak_utilization []")])
def test_nested_malformed_fields_exit_one_and_write_nothing(tmp_path, capsys, kind,
                                                            defect):
    """Fields inside lists and nested objects are read by the same rule as
    top-level ones: an integer with a fraction, a pair of the wrong length
    or a utilization that is not a number in an object is refused under
    the file's name. The last two used to read back unchecked."""
    inst = tmp_path / "inst"
    main(["generate", "--seed", "0", "--preset", "tiny", "--out", str(inst)])
    main(["run", "--seed", "0", "--preset", "tiny", "--out", str(inst)])
    name = "config-seed0.json" if kind == "config" else "online-report.json"
    payload = json.loads((inst / name).read_text())
    if kind == "report":
        plan = next(d["schedule"] for d in payload["decisions"]
                    if d["schedule"] is not None and d["schedule"]["energy_slots"])
    if defect == "vehicle_limit 2.5":
        payload["regions"][0]["vehicle_limit"][0] = 2.5
    elif defect == "edge (0,)":
        payload["edges"][0] = [0]
    elif defect == "t_plus + 0.5":
        plan["t_plus"] += 0.5
    elif defect == "energy slot of three":
        plan["energy_slots"][0].append(1.0)
    elif defect == "peak_utilization lots":
        payload["peak_utilization"]["cable"] = "lots"
    else:
        payload["peak_utilization"] = []
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload))
    capsys.readouterr()
    out = tmp_path / "out"
    if kind == "config":
        argv = ["run", "--config", str(bad), "--sessions",
                str(inst / "sessions-seed0.csv"), "--out", str(out)]
    else:
        argv = ["compare", "--reports", str(bad), "--ub", "1000.0", "--out", str(out)]
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith(f"error: {bad}: ")
    assert not out.exists()
