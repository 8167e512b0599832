"""Benchmark whole simulated days of evdispatch.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {full,rush,tiny-exact} --seed N \
        --seconds S --trace {0,1}

One process, one thread, a closed loop: each day of the workload's day
set is evaluated (see ``evaluate.py``) and checked (see ``checks.py``)
before the next starts. The loop runs whole days until ``--seconds`` have
passed, every day of the set has run, one day has run twice (its outputs
must repeat exactly) and at least 1000 ``dispatch`` calls have been timed.
``dispatcher.dispatch_p99_ms`` is the median over blocks of 1000
consecutive calls of each block's 99th percentile, so that every
percentile has ten samples beyond it.

A shared virtual machine runs the same code at speeds that change within
a second and drift over minutes (README.md gives the measurements), so
every timing is reported at a nominal host speed: each day's timings are
scaled by the host speed sampled around and during that day, and set-up
times by the mean speed of the whole run (see ``speed.py``). The run's
mean speed sample and mean day scale are printed on standard error.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of a traced run with ``--trace 1``.
A day whose outputs fail a check, or whose evaluation raises, counts as
failed and adds nothing to the metrics. ``correct`` turns false when the
checks fail to reject a deliberately corrupted result.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
SETUP_SAMPLES = 5
#: dispatcher.dispatch_p99_ms is taken per block of this many consecutive
#: calls, so that each 99th percentile has ten samples beyond it.
P99_BLOCK = 1000
PROBE_TIMEOUT_S = 60
#: No day starts after this many seconds of the loop, so that a run ends
#: well within three minutes even when every day fails.
LOOP_LIMIT_S = 120

END_TO_END = {
    "setup_s": "s", "day_s": "s", "online_sessions_per_s": "1/s",
    "dispatch_p50_ms": "ms", "welfare": "USD",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "harness.generate_s": "s", "harness.report_io_s": "s",
    "harness.report_bytes": "bytes",
    "dispatcher.fresh_s": "s", "dispatcher.online_s": "s",
    "dispatcher.payment_s": "s", "dispatcher.payment_calls": "count",
    "dispatcher.commit_s": "s", "dispatcher.dispatch_p99_ms": "ms",
    "dispatcher.accepted": "count",
    "dispatcher.charged": "count", "dispatcher.depot": "count",
    "schedules.build_s": "s", "schedules.candidates_per_session": "count",
    "pricing.payment_calls": "count", "pricing.payment_calls_per_candidate": "ratio",
    "pricing.verify_s": "s", "pricing.verify_cases": "count",
    "economics.primal_increment_calls": "count",
    "domain.ledger_fits_calls": "count",
    "baselines.threshold_s": "s", "baselines.welfare_ratio": "ratio",
    "offline.upper_bound_s": "s", "offline.exact_s": "s",
    "offline.exact_nodes": "count", "offline.welfare_to_ub": "ratio",
    "offline.welfare_to_opt": "ratio", "traced.day_s": "s",
    "host.reference_s": "s",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_package() -> None:
    """Import evdispatch from this checkout's sources, and from nowhere else."""
    sys.path.insert(0, str(SRC))
    import evdispatch

    found = Path(evdispatch.__file__).resolve().parent
    if found != SRC / "evdispatch":
        raise ImportError(f"evdispatch imported from {found}, not from {SRC}")


def probe_setup(workload: str, seed: int) -> float:
    done = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
        capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def p99_ms(ok) -> float:
    samples = [x for r in ok for x in r["dispatch_ms"]]
    return statistics.median(
        statistics.quantiles(samples[i:i + P99_BLOCK], n=100)[98]
        for i in range(0, len(samples) - P99_BLOCK + 1, P99_BLOCK))


def end_to_end_metrics(setup, ok, welfare_by_day):
    return {
        "setup_s": statistics.median(setup),
        "day_s": statistics.median(r["day_s"] * r["scale"] for r in ok),
        "online_sessions_per_s": statistics.median(
            r["sessions"] / (r["step_s"]["online"] * r["scale"]) for r in ok),
        "dispatch_p50_ms": statistics.median(x for r in ok for x in r["dispatch_ms"]),
        "welfare": statistics.fmean(welfare_by_day.values()),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer_metrics(ok, first_by_day, reference_s):
    """Times are medians over every evaluated day, at the nominal host speed;
    counts and ratios, which repeat exactly for a given day, are means over
    the distinct days."""
    def med(f):
        return statistics.median(f(r) * r["scale"] for r in ok)

    days = list(first_by_day.values())

    def mean(f):
        return statistics.fmean(f(r) for r in days)

    def total(key):
        return sum(r["layers"].get(key, 0.0) for r in days)

    return {
        "harness.generate_s": med(lambda r: r["step_s"]["generate"]),
        "harness.report_io_s": med(lambda r: r["step_s"]["report_io"]),
        "harness.report_bytes": mean(lambda r: r["report_bytes"]),
        "dispatcher.fresh_s": med(lambda r: r["layers"]["fresh_s"]),
        "dispatcher.online_s": med(lambda r: r["step_s"]["online"]),
        "dispatcher.payment_s": med(lambda r: r["layers"].get("payment_s", 0.0)),
        "dispatcher.payment_calls": mean(lambda r: r["layers"].get("payment_calls", 0)),
        "dispatcher.commit_s": med(lambda r: sum(r["dispatch_s"])
                                   - r["layers"].get("build_s", 0.0)
                                   - r["layers"].get("payment_s", 0.0)),
        "dispatcher.dispatch_p99_ms": p99_ms(ok),
        "dispatcher.accepted": mean(lambda r: r["accepted"]),
        "dispatcher.charged": mean(lambda r: r["charged"]),
        "dispatcher.depot": mean(lambda r: r["sessions"] - r["accepted"]),
        "schedules.build_s": med(lambda r: r["layers"].get("build_s", 0.0)),
        "schedules.candidates_per_session":
            total("candidates") / max(1.0, total("build_calls")),
        "pricing.payment_calls": mean(lambda r: r["layers"].get("pricing_payment_calls", 0)),
        "pricing.payment_calls_per_candidate":
            total("pricing_payment_calls") / max(1.0, total("candidates")),
        "pricing.verify_s": med(lambda r: r["step_s"]["verify"]),
        "pricing.verify_cases": mean(lambda r: r["verify_cases"]),
        "economics.primal_increment_calls":
            mean(lambda r: r["layers"].get("primal_increment_calls", 0)),
        "domain.ledger_fits_calls": mean(lambda r: r["layers"].get("fits_calls", 0)),
        "baselines.threshold_s": med(lambda r: r["step_s"]["threshold"]),
        "baselines.welfare_ratio": mean(lambda r: r["welfare"] / r["best_threshold"]),
        "offline.upper_bound_s": med(lambda r: r["step_s"]["upper_bound"]),
        "offline.exact_s": med(lambda r: r["step_s"]["exact"]),
        "offline.exact_nodes": mean(lambda r: r["exact_nodes"]),
        "offline.welfare_to_ub": mean(lambda r: r["welfare"] / r["ub"]),
        # 0 on workloads that run no exact search
        "offline.welfare_to_opt": mean(lambda r: r["welfare"] / r["opt"] if r["opt"] else 0.0),
        "traced.day_s": med(lambda r: r["day_s"]),
        "host.reference_s": reference_s,
    }


def summarize(res):
    """The figures of one evaluated day that the metrics need; the day's
    full outputs are dropped so memory does not grow with the run."""
    report = res.report
    accepted = [d.schedule for d in report.decisions if d.schedule is not None]
    return {
        "day_s": res.day_s, "step_s": res.step_s, "dispatch_s": res.dispatch_s,
        "dispatch_speed": res.dispatch_speed,
        "sessions": len(res.sessions), "welfare": report.welfare,
        "accepted": len(accepted),
        "charged": sum(1 for s in accepted if s.facility_id is not None),
        "best_threshold": max(r.welfare for r in res.thresholds),
        "ub": res.ub,
        "opt": None if res.exact is None else res.exact.welfare,
        "exact_nodes": 0 if res.exact is None else res.exact.nodes_explored,
        "verify_cases": len(res.verification.cases),
        "report_bytes": os.path.getsize(res.report_path),
        "layers": res.layers,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        import_package()
    except ImportError as exc:
        print(f"perfbench: cannot import evdispatch: {exc}", file=sys.stderr)
        return 2
    import checks
    from evaluate import Tracer, evaluate_day
    from speed import REFERENCE_S, HostSpeed
    from workloads import WORKLOADS, day_seeds

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    setup = [probe_setup(workload.name, args.seed)
             for _ in range(0 if args.trace else SETUP_SAMPLES)]
    speed = HostSpeed()

    OUT.mkdir(exist_ok=True)
    report_path = str(OUT / f"online-report-{os.getpid()}.json")
    seeds = day_seeds(workload, args.seed)
    tracer = Tracer() if args.trace else None
    ok, first_by_day, digests = [], {}, {}
    attempted = failed = dispatch_samples = 0
    missed, corrupted = [], False
    if tracer is not None:
        tracer.install()
    speed.sample()
    start = time.perf_counter()
    try:
        while ((attempted <= len(seeds) or time.perf_counter() - start < args.seconds
                or dispatch_samples < P99_BLOCK)
               and time.perf_counter() - start < LOOP_LIMIT_S):
            k = attempted % len(seeds)
            attempted += 1
            speed.poll()
            first = len(speed.samples) - 1
            try:
                res = evaluate_day(workload, seeds[k], report_path, speed, tracer)
                problems = checks.day_problems(res)
                fingerprint = checks.digest(res)
                if digests.setdefault(k, fingerprint) != fingerprint:
                    problems.append("a second evaluation differs from the first")
                if not problems and not corrupted and res.report.accepted:
                    missed, corrupted = checks.corruption_problems(res), True
            except Exception:
                problems = [traceback.format_exc()]
            if problems:
                failed += 1
                print(f"perfbench: day seed {seeds[k]} failed: "
                      + "; ".join(problems[:5]), file=sys.stderr)
                continue
            summary = summarize(res)
            # the day ran between sample `first` and the next sample taken
            summary["speed"] = (first, len(speed.samples))
            ok.append(summary)
            first_by_day.setdefault(k, summary)
            dispatch_samples += len(res.dispatch_s)
            del res
        speed.sample()
    finally:
        if tracer is not None:
            tracer.close()
        if os.path.exists(report_path):
            os.remove(report_path)

    if not corrupted:
        missed = ["no day with an accepted plan to corrupt"]
    if missed:
        print("perfbench: checks accepted " + "; ".join(missed), file=sys.stderr)
    if not ok:
        print("perfbench: no day passed its checks", file=sys.stderr)
        return 1
    for r in ok:
        r["scale"] = speed.scale(*r["speed"])
        # each call at the speed sampled just before and just after it
        r["dispatch_ms"] = [1e3 * x * speed.scale(i - 1, i)
                            for x, i in zip(r["dispatch_s"], r["dispatch_speed"])]
    reference_s = statistics.fmean(speed.samples)
    # set-up runs in child processes, so it is scaled by the whole run's speed
    setup = [x * REFERENCE_S / reference_s for x in setup]
    print(f"perfbench: {len(speed.samples)} reference_work calls, mean "
          f"{1e3 * reference_s:.3f} ms, nominal {1e3 * REFERENCE_S:.3f} ms; mean day "
          f"scale {statistics.fmean(r['scale'] for r in ok):.6f}", file=sys.stderr)
    if dispatch_samples < P99_BLOCK:
        print(f"perfbench: only {dispatch_samples} dispatch calls timed",
              file=sys.stderr)
        return 1
    if args.trace:
        values = per_layer_metrics(ok, first_by_day, reference_s)
        units = PER_LAYER
    else:
        welfare_by_day = {k: r["welfare"] for k, r in first_by_day.items()}
        values = end_to_end_metrics(setup, ok, welfare_by_day)
        units = END_TO_END
    print(json.dumps({
        "correct": not missed, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
