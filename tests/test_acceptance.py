"""End-to-end acceptance checks.

Each test prints one `[criterion N] ...: PASS/FAIL` line with capture
suspended so the verdicts reach the real stdout, then asserts. The
expensive 100-day sweep is built once and shared by the criteria that
need it.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from evdispatch import economics, pricing
from evdispatch.baselines import run_threshold
from evdispatch.cli import main as cli_main
from evdispatch.dispatcher import run_online
from evdispatch.domain import ResourceLedger, recompute_ledger
from evdispatch.harness import generate_scenario
from evdispatch.offline import exact_offline, upper_bound
from evdispatch.pricing import PriceBounds
from evdispatch.schedules import GenerationPolicy

from conftest import build_mini_config

DESK_SEEDS = range(100)
TINY_SEEDS = range(60)


def _report(capfd, num: int, desc: str, ok: bool) -> bool:
    with capfd.disabled():
        print(f"\n[criterion {num}] {desc}: {'PASS' if ok else 'FAIL'}",
              flush=True)
    return ok


@pytest.fixture(scope="module")
def desk_sweep():
    """(seed, config, sessions, online report) for 100 generated days,
    plus the wall time spent inside the online runs alone."""
    runs = []
    online_time = 0.0
    for seed in DESK_SEEDS:
        config, sessions = generate_scenario(seed, "desk")
        t0 = time.perf_counter()
        report = run_online(sessions, config)
        online_time += time.perf_counter() - t0
        runs.append((seed, config, sessions, report))
    return runs, online_time


def test_criterion_1_capacity_safety(desk_sweep, capfd):
    runs, online_time = desk_sweep
    bad = []
    for seed, config, _, report in runs:
        ledger = recompute_ledger(report.decisions, config)
        if ledger.violations(config):
            bad.append(seed)
    ok = _report(
        capfd, 1,
        f"no capacity violation on {len(runs)} generated days, online "
        f"runs took {online_time:.1f}s (< 120s)",
        not bad and online_time < 120.0)
    assert ok, f"violating seeds: {bad}, online_time={online_time:.1f}s"


def test_criterion_2_boundary_identities(capfd):
    rng = np.random.default_rng(20260814)
    worst = 0.0
    for _ in range(1000):
        psi_ = int(rng.integers(2, 500))
        C = int(rng.integers(1, 51))
        E = float(rng.uniform(0.5, 200.0))
        omega = int(rng.integers(1, 51))
        I = int(rng.integers(1, 51))
        phi = float(rng.uniform(0.0, 3.0))
        pi = float(rng.uniform(0.01, 5.0))
        delta = float(rng.uniform(0.1, 50.0))
        mu = float(rng.uniform(0.0, 100.0))

        L_c = float(rng.uniform(0.01, 2.0))
        L_e = float(rng.uniform(0.01, 2.0))
        L_d = float(rng.uniform(0.01, 2.0))
        L_o = phi + float(rng.uniform(0.01, 2.0))
        L_g = pi * float(rng.uniform(1.001, 3.9))  # below 2*psi*pi
        lift = 10.0 ** rng.uniform(0.0, 2.0)
        bounds = PriceBounds(L_c=L_c, U_c=L_c * lift, L_e=L_e,
                             U_e=L_e * lift, L_g=L_g, U_g=L_g * lift,
                             L_d=L_d, U_d=L_d * lift, L_o=L_o,
                             U_o=L_o * lift)

        shape = pricing.cell_shape
        checks = [
            (shape(pricing.CABLE, C).price(C, bounds, psi_), bounds.U_c),
            (shape(pricing.ENERGY, E).price(E, bounds, psi_), bounds.U_e),
            (shape(pricing.DESTINATION, omega).price(omega, bounds, psi_),
             bounds.U_d),
            (shape(pricing.OUT_OF_SERVICE, I, phi).price(I, bounds, psi_),
             bounds.U_o),
            (shape(pricing.GENERATION, delta, mu, pi).price(delta * (1.0 - 1e-12),
                                                           bounds, psi_), pi),
        ]
        for got, want in checks:
            worst = max(worst, abs(got - want) / want)
    ok = _report(
        capfd, 2,
        f"price curves hit their bounds at capacity, worst relative "
        f"error {worst:.2e} over 1000 draws (<= 1e-9)",
        worst <= 1e-9)
    assert ok, f"worst relative boundary error {worst:.3e}"


def test_criterion_3_allocation_payment_inequality(capfd):
    cases = []
    for config in (generate_scenario(0, "desk")[0], build_mini_config()):
        psi_ = pricing.psi(config)
        bounds = pricing.estimate_bounds(config)
        per_family = pricing.alphas(bounds, psi_, config)
        family_alpha = {
            "cable": per_family.a1, "energy": per_family.a2,
            "generation": per_family.a3, "destination": per_family.a4,
            "out_of_service": per_family.a5}
        for family, params in pricing.dapr_cases(config, bounds, psi_):
            cases.append((family, params, family_alpha[family]))

    worst = float("inf")
    full_ok = True
    fail_at_half = {f: 0 for f in ("cable", "energy", "generation",
                                   "destination", "out_of_service")}
    for family, params, alpha in cases:
        rep = pricing.verify_dapr(family, params, alpha, 10_000)
        worst = min(worst, rep.worst_margin)
        full_ok = full_ok and rep.passed and rep.worst_margin >= -1e-9
        half = pricing.verify_dapr(family, params, alpha / 2.0, 10_000)
        if not half.passed:
            fail_at_half[family] += 1

    halves_ok = all(n >= 1 for n in fail_at_half.values())
    ok = _report(
        capfd, 3,
        f"allocation-payment inequality holds on {len(cases)} cases "
        f"(worst margin {worst:.2e} >= -1e-9) and breaks for every "
        f"family at half alpha",
        full_ok and halves_ok)
    assert ok, (f"full-alpha ok={full_ok} worst={worst:.3e}, "
                f"half-alpha failures per family={fail_at_half}")


def test_criterion_4_per_step_and_final_duality(desk_sweep, capfd):
    runs, _ = desk_sweep
    worst_step = float("inf")
    worst_gap = float("inf")
    for _, config, _, report in runs:
        alpha = report.alphas.alpha
        P, D = report.primal_trajectory, report.dual_trajectory
        for k in range(len(P) - 1):
            worst_step = min(worst_step,
                             (P[k + 1] - P[k]) - (D[k + 1] - D[k]) / alpha)
        base = economics.dual_objective([], ResourceLedger.zero(config),
                                        config, report.bounds, report.psi)
        worst_gap = min(worst_gap, (D[-1] + base) - P[-1])
    ok = _report(
        capfd, 4,
        f"every step gains at least the dual increment over alpha "
        f"(worst {worst_step:.2e} >= -1e-9) and the final dual "
        f"dominates the welfare (worst gap {worst_gap:.2e})",
        worst_step >= -1e-9 and worst_gap >= -1e-9)
    assert ok, f"worst_step={worst_step:.3e} worst_gap={worst_gap:.3e}"


def test_criterion_5_competitive_ratio_on_small_days(capfd):
    t0 = time.perf_counter()
    policy = GenerationPolicy(max_candidates_total=4)
    worst_slack = float("inf")
    oversized = 0
    for seed in TINY_SEEDS:
        config, sessions = generate_scenario(seed, "tiny")
        assert len(sessions) <= 6
        report, captured = run_online(sessions, config, policy,
                                      capture_candidates=True)
        oversized += sum(1 for c in captured.values() if len(c) > 8)
        opt = exact_offline(sessions, config, captured).welfare
        worst_slack = min(worst_slack,
                          report.alphas.alpha * report.welfare - opt)
    elapsed = time.perf_counter() - t0
    ok = _report(
        capfd, 5,
        f"alpha * online welfare covers the exact optimum on "
        f"{len(TINY_SEEDS)} small days (worst slack {worst_slack:.1f}) "
        f"in {elapsed:.1f}s (< 300s)",
        worst_slack >= -1e-9 and oversized == 0 and elapsed < 300.0)
    assert ok, (f"worst_slack={worst_slack:.3e} oversized_sets={oversized} "
                f"elapsed={elapsed:.1f}s")


def test_criterion_6_dominates_thresholds_under_the_bound(desk_sweep, capfd):
    runs, _ = desk_sweep
    wins = 0
    ub_ok = 0
    for _, config, sessions, report in runs:
        baselines = [run_threshold(sessions, config, th)
                     for th in (0.25, 0.50, 0.75)]
        if all(report.welfare >= b.welfare - 1e-9 for b in baselines):
            wins += 1
        if upper_bound(sessions, config) >= report.welfare - 1e-9:
            ub_ok += 1
    ok = _report(
        capfd, 6,
        f"online matches or beats all three threshold baselines on "
        f"{wins}/{len(runs)} days (>= 80) and stays under the upper "
        f"bound on {ub_ok}/{len(runs)}",
        wins >= 80 and ub_ok == len(runs))
    assert ok, f"wins={wins} ub_ok={ub_ok}"


def test_criterion_7_seeded_runs_are_byte_identical(tmp_path, capfd):
    a, b = tmp_path / "a", tmp_path / "b"
    assert cli_main(["run", "--seed", "0", "--out", str(a)]) == 0
    assert cli_main(["run", "--seed", "0", "--out", str(b)]) == 0
    same_report = ((a / "online-report.json").read_bytes()
                   == (b / "online-report.json").read_bytes())
    same_decisions = ((a / "online-decisions.csv").read_bytes()
                      == (b / "online-decisions.csv").read_bytes())
    ok = _report(
        capfd, 7,
        "two seeded runs write byte-identical reports and decision logs",
        same_report and same_decisions)
    assert ok
