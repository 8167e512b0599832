"""One benchmark operation: the evaluation of one simulated day.

The steps run in a fixed order and each is timed on its own:

1. generate the instance;
2. run the online dispatcher, timing each ``dispatch`` call;
3. run the three threshold baselines;
4. compute the capacity-free upper bound;
5. run the exact offline search over the captured candidate sets, on
   workloads that ask for it;
6. run the pricing verifier on the day's config, as ``evdispatch verify``
   does;
7. write the online report and read it back.

Only the package's public functions are called. The per-``dispatch``
timer is the one wrapper installed in every run; it also lets the host
speed be sampled between calls (see ``speed.py``). The per-layer spans of
a traced run come from :class:`Tracer`.
"""

from __future__ import annotations

import time
from collections import Counter
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from evdispatch import (
    DispatcherState, ResourceLedger, RunReport, exact_offline, generate_scenario,
    read_report, run_online, run_threshold, upper_bound, write_report,
)
from evdispatch import baselines, dispatcher, economics, offline, pricing
from speed import HostSpeed

THRESHOLDS = (0.25, 0.50, 0.75)
VERIFY_GRID = 10_000  # the default of `evdispatch verify`
FAMILIES = ("cable", "energy", "generation", "destination", "out_of_service")


@dataclass
class Verification:
    psi: int
    bounds: pricing.PriceBounds
    alphas: pricing.Alphas
    #: (family, params, family alpha, report at that alpha)
    cases: List[Tuple[str, dict, float, pricing.DaprReport]]


@dataclass
class DayResult:
    day_seed: int
    config: object
    sessions: tuple
    step_s: Dict[str, float]
    dispatch_s: List[float]
    #: for each dispatch call, the index of the first speed sample after it
    dispatch_speed: List[int]
    report: RunReport
    captured: Optional[dict]
    thresholds: List[RunReport]
    ub: float
    exact: Optional[offline.OfflineResult]
    verification: Verification
    readback: RunReport
    report_path: str
    layers: Dict[str, float]

    @property
    def day_s(self) -> float:
        return sum(self.step_s.values())


@contextmanager
def patched(owner, name: str, value):
    """Replace ``owner.name`` for the duration of the block."""
    original = owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)
    setattr(owner, name, value)
    try:
        yield
    finally:
        setattr(owner, name, original)


def _timed_dispatch(samples: List[float], after: List[int], speed: HostSpeed):
    inner = dispatcher.dispatch
    perf = time.perf_counter

    def dispatch(session, state):
        t0 = perf()
        decision = inner(session, state)
        samples.append(perf() - t0)
        after.append(len(speed.samples))
        speed.poll()
        return decision
    return dispatch


def run_verifier(config) -> Verification:
    psi_ = pricing.psi(config)
    bounds = pricing.estimate_bounds(config)
    alphas = pricing.alphas(bounds, psi_, config)
    per_family = dict(zip(FAMILIES, (alphas.a1, alphas.a2, alphas.a3, alphas.a4,
                                     alphas.a5)))
    cases = []
    for family, params in pricing.dapr_cases(config, bounds, psi_):
        alpha = per_family[family]
        cases.append((family, params, alpha,
                      pricing.verify_dapr(family, params, alpha, VERIFY_GRID)))
    return Verification(psi_, bounds, alphas, cases)


def evaluate_day(workload, day_seed: int, report_path: str, speed: HostSpeed,
                 tracer: Optional["Tracer"] = None) -> DayResult:
    """Evaluate one day. The time ``speed`` spends sampling between steps
    and between ``dispatch`` calls is left out of every step's time."""
    perf = time.perf_counter
    step_s: Dict[str, float] = {}

    def step(name, fn, *args, **kwargs):
        speed.poll()
        spent, t0 = speed.spent, perf()
        out = fn(*args, **kwargs)
        step_s[name] = perf() - t0 - (speed.spent - spent)
        return out

    if tracer is not None:
        tracer.take()
    config, sessions = step("generate", generate_scenario, day_seed, workload.params)

    samples: List[float] = []
    after: List[int] = []
    with patched(dispatcher, "dispatch", _timed_dispatch(samples, after, speed)):
        if workload.exact:
            report, captured = step("online", run_online, sessions, config,
                                    workload.policy, capture_candidates=True)
        else:
            report = step("online", run_online, sessions, config, workload.policy)
            captured = None

    thresholds = step("threshold", lambda: [run_threshold(sessions, config, th)
                                            for th in THRESHOLDS])
    ub = step("upper_bound", upper_bound, sessions, config)
    exact = step("exact", lambda: exact_offline(sessions, config, captured,
                                                space_limit=workload.space_limit)
                 if workload.exact else None)
    verification = step("verify", run_verifier, config)

    def report_io():
        write_report(report, report_path)
        return read_report(report_path)
    readback = step("report_io", report_io)

    layers = tracer.take() if tracer is not None else {}
    return DayResult(day_seed, config, sessions, step_s, samples, after, report, captured,
                     thresholds, ub, exact, verification, readback, report_path,
                     layers)


class Tracer:
    """Per-layer spans and counts, wrapped around calls into each module.

    ``install`` replaces module and class attributes that the package looks
    up at call time; ``close`` restores them. Counts accumulate until
    :meth:`take`, which returns and resets them.
    """

    PAYMENTS = ("cable_payment", "energy_payment", "generation_payment",
                "destination_payment", "out_of_service_payment")

    def __init__(self) -> None:
        self.counts: Counter = Counter()
        self._stack = ExitStack()

    def take(self) -> Dict[str, float]:
        out = dict(self.counts)
        self.counts.clear()
        return out

    def _span(self, key: str, fn, size_key: Optional[str] = None):
        counts, perf = self.counts, time.perf_counter

        def wrapper(*args, **kwargs):
            t0 = perf()
            out = fn(*args, **kwargs)
            counts[key + "_s"] += perf() - t0
            counts[key + "_calls"] += 1
            if size_key is not None:
                counts[size_key] += len(out)
            return out
        return wrapper

    def _count(self, key: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    def install(self) -> None:
        def patch(owner, name, value):
            self._stack.enter_context(patched(owner, name, value))

        fresh = DispatcherState.__dict__["fresh"].__func__
        patch(DispatcherState, "fresh", classmethod(self._span("fresh", fresh)))
        patch(dispatcher, "feasible_schedules",
              self._span("build", dispatcher.feasible_schedules, "candidates"))
        patch(dispatcher, "utility_breakdown",
              self._span("payment", dispatcher.utility_breakdown))
        for name in self.PAYMENTS:
            patch(pricing, name, self._count("pricing_payment_calls",
                                             getattr(pricing, name)))
        patch(ResourceLedger, "fits", self._count("fits_calls", ResourceLedger.fits))
        # offline and baselines import primal_increment by name
        increment = self._count("primal_increment_calls", economics.primal_increment)
        for module in (economics, offline, baselines):
            patch(module, "primal_increment", increment)

    def close(self) -> None:
        self._stack.close()
