"""Online charge scheduling and dispatch for an autonomous electric fleet.

The package simulates a fleet operator that must decide, one idle vehicle
at a time, where to charge and which pickup to serve next, against shared
charger, energy, generation, fleet-downtime, and arrival capacities. The
core dispatcher prices every resource with an exponential marginal-price
curve and accepts the highest-utility plan; offline bounds, exhaustive
search, and threshold baselines provide the reference points, and a
verification harness checks the pricing machinery numerically.
"""

from .domain import (
    MONEY_ATOL, CapacityError, DispatchDecision, Facility, PriceBreakdown, Region,
    ResourceLedger, RunReport, ScenarioConfig, Schedule, Session, Violation,
    instance_hash, recompute_ledger, schedule_violations, validate,
    validate_sessions,
)
from .economics import INFEASIBLE, dual_objective, primal_increment, primal_objective
from .pricing import (
    Alphas, DaprReport, PriceBounds, alphas, dapr_cases, default_charge_targets,
    estimate_bounds, psi, validate_bounds, verify_dapr,
)
from .schedules import (
    DEFAULT_POLICY, GenerationPolicy, feasible_schedules, ranked, rebalances,
    validate_policy,
)
from .dispatcher import DispatcherState, dispatch, run_online
from .offline import OfflineResult, exact_offline, search_space_size, upper_bound
from .baselines import run_threshold, threshold_dispatch
from .harness import (
    ComparisonTable, GeneratorParams, PRESETS, compare, generate_scenario,
    read_config, read_report, read_sessions, write_config,
    write_report, write_sessions,
)

__version__ = "0.1.0"

__all__ = [
    "MONEY_ATOL", "CapacityError", "DispatchDecision", "Facility",
    "PriceBreakdown", "Region", "ResourceLedger", "RunReport",
    "ScenarioConfig", "Schedule", "Session", "Violation",
    "instance_hash", "recompute_ledger", "schedule_violations",
    "validate", "validate_sessions", "INFEASIBLE", "dual_objective",
    "primal_increment", "primal_objective", "Alphas", "DaprReport",
    "PriceBounds", "alphas", "dapr_cases", "default_charge_targets",
    "estimate_bounds", "psi", "validate_bounds", "verify_dapr",
    "DEFAULT_POLICY", "GenerationPolicy", "feasible_schedules", "ranked",
    "rebalances", "validate_policy", "DispatcherState", "dispatch",
    "run_online", "OfflineResult", "exact_offline",
    "search_space_size", "upper_bound", "run_threshold", "threshold_dispatch",
    "ComparisonTable", "GeneratorParams", "PRESETS",
    "compare", "generate_scenario", "read_config",
    "read_report", "read_sessions", "write_config",
    "write_report", "write_sessions", "__version__",
]
