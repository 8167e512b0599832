"""Byte-identity of seeded artifacts against pinned digests.

Criterion 7 compares two runs of one build with each other; these tests
compare every run with the bytes the same commands wrote before the
resource families were folded into one table. The digests were taken on
x86-64 Linux with Python 3.11.7 and numpy 2.4.6. A change that moves any
float by one bit, or reorders any line, fails here.
"""

from __future__ import annotations

import dataclasses
import hashlib

import pytest

from evdispatch import cli
from evdispatch.baselines import run_threshold
from evdispatch.dispatcher import run_online
from evdispatch.harness import PRESETS, generate_scenario, read_report, write_report


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


CLI_RUNS = [
    (["run", "--seed", "0", "--preset", "desk"], {
        "online-report.json":
            "39f15f30cd933858c120ef1ea657b848ddd59e19ea9787dd473bbe413fef78a3",
        "online-decisions.csv":
            "dde2c7db4e6afa60a8202cc74797b3d61f82ee5bd8742842689b2f6bdf7f2a44",
    }),
    (["run-baseline", "--seed", "0", "--preset", "desk", "--threshold", "50"], {
        "threshold-50-report.json":
            "99fdd6f186ba7c951e819df4e72156beb60922eb2375635df062c82dc1e23d30",
        "threshold-50-decisions.csv":
            "0035e103f8b903581fddcff6cd1a765bd09aadb8ef6bd265ae360f69e413b9b4",
    }),
    (["offline-ub", "--seed", "0", "--preset", "desk"], {
        "upper-bound.json":
            "69be349ad1f61a144d80f588ca3ff2af982596d94466d8cb026b1ff7d93874f0",
    }),
    # the exhaustive search and a full day: the exact assignment and every
    # candidate order that the build's merge produces on many facilities
    (["offline-exact", "--seed", "0", "--preset", "tiny", "--max-candidates", "4"], {
        "exact-report.json":
            "ed12bddfcb6e1d0866839560f323f2e5a84cfa0319b27eccea7cb560d30c955a",
    }),
    (["run", "--seed", "0", "--preset", "full"], {
        "online-report.json":
            "f5bfa44ebff47ae45c2aeddd0c97dda999405bde84454598a53e532c2861327c",
        "online-decisions.csv":
            "00c4299a2f6c0fc5defc766d84fc1fb87b5104b3c451776681eb55bc9392d833",
    }),
]


@pytest.mark.parametrize("argv, digests", CLI_RUNS, ids=lambda v: (
    v[0] if isinstance(v, list) else None))
def test_cli_artifacts_are_byte_identical(argv, digests, tmp_path, capsys):
    assert cli.main(argv + ["--out", str(tmp_path)]) == 0
    capsys.readouterr()
    got = {name: _sha256(tmp_path / name) for name in digests}
    assert got == digests


def test_verify_output_is_byte_identical(capsys):
    # pinned when the verifier began reading each segment's grid at its two
    # ends: the worst margins of cases that hold with equality are rounding
    # noise, and moved; every PASS/FAIL stayed
    assert cli.main(["verify", "--seed", "0", "--preset", "desk"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == (
        "3a4fbeee1d9c43e4b7232ab73fa488cafbf80c12fe5f856beaec008e7f522180")


# the congested run of test_reference_equivalence.py: one facility of two
# EVSEs, Omega = 3 and I = 25; the out-of-service cap reaches 100 %
RUSH = dataclasses.replace(PRESETS["rush"], max_sessions=400)


@pytest.fixture(scope="module")
def congested_reports():
    config, sessions = generate_scenario(3, RUSH)
    return {
        "online": run_online(sessions, config),
        "threshold-50": run_threshold(sessions, config, 0.5),
    }


def test_congested_reports_are_byte_identical(congested_reports, tmp_path):
    got = {}
    for name, report in congested_reports.items():
        write_report(report, str(tmp_path / name))
        got[name] = _sha256(tmp_path / name)
    assert got == {
        "online": "89fbcb7ae7eab306e971ea2aa9454ac4ea54cd5e707176472755690e41428c53",
        "threshold-50":
            "061f3fbc99baaae6384cde687b2631586849a8d908b4151cd342387e3ba777e5",
    }


def test_congested_reports_round_trip(congested_reports, tmp_path):
    for name, report in congested_reports.items():
        path = str(tmp_path / name)
        write_report(report, path)
        assert read_report(path) == report, name
