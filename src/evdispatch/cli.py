"""Command-line front end.

Subcommands mirror the library: generate an instance, run the online
dispatcher or a threshold baseline on it, compute offline bounds, check
the allocation-payment inequality of every price curve, and compare
finished reports. Instances come either from files (--config/--sessions)
or from a seed, and every artifact is written with canonical formatting
so repeated runs of the same seed are byte-identical.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import astuple
from typing import List, Optional, Tuple

from . import harness, offline, pricing
from .baselines import run_threshold
from .dispatcher import run_online
from .domain import ScenarioConfig, Session, as_plain, instance_hash
from .schedules import DEFAULT_POLICY, GenerationPolicy


def _add_instance_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="instance config JSON")
    parser.add_argument("--sessions", help="session stream CSV")
    parser.add_argument("--seed", type=int, help="generate the instance from this seed")
    parser.add_argument("--preset", default="desk", choices=sorted(harness.PRESETS),
                        help="generator preset used with --seed (default: desk)")


def _load_instance(args) -> Tuple[ScenarioConfig, Tuple[Session, ...]]:
    if args.config is not None or args.sessions is not None:
        if args.config is None or args.sessions is None:
            raise SystemExit("error: --config and --sessions must be given together")
        if args.seed is not None:
            raise SystemExit("error: give either --seed or --config/--sessions, not both")
        return harness.read_config(args.config), harness.read_sessions(args.sessions)
    if args.seed is None:
        raise SystemExit("error: need --seed or --config/--sessions")
    return harness.generate_scenario(args.seed, args.preset)


def _load_config(args) -> ScenarioConfig:
    if args.config is not None:
        if args.seed is not None:
            raise SystemExit("error: give either --seed or --config, not both")
        return harness.read_config(args.config)
    if args.seed is None:
        raise SystemExit("error: need --seed or --config")
    config, _ = harness.generate_scenario(args.seed, args.preset)
    return config


def _policy(args) -> GenerationPolicy:
    if getattr(args, "max_candidates", None) is None:
        return DEFAULT_POLICY
    return GenerationPolicy(max_candidates_total=args.max_candidates)


def _emit(payload: dict, out_dir: Optional[str], filename: str) -> None:
    if out_dir is None:
        json.dump(payload, sys.stdout, sort_keys=True, indent=2)
        sys.stdout.write("\n")
        return
    os.makedirs(out_dir, exist_ok=True)
    harness._dump_json(payload, os.path.join(out_dir, filename))


def _write_run(report, out_dir: Optional[str], stem: str) -> None:
    _emit(harness.report_to_dict(report), out_dir, f"{stem}-report.json")
    if out_dir is None:
        return
    harness.write_decisions_csv(report, os.path.join(out_dir, f"{stem}-decisions.csv"))
    print(f"{stem}: welfare={report.welfare:.6f} accepted={report.accepted}/"
          f"{len(report.decisions)} instance={report.instance_hash[:12]}")


def _cmd_generate(args) -> int:
    config, sessions = harness.generate_scenario(args.seed, args.preset)
    os.makedirs(args.out, exist_ok=True)
    config_path = os.path.join(args.out, f"config-seed{args.seed}.json")
    sessions_path = os.path.join(args.out, f"sessions-seed{args.seed}.csv")
    harness.write_config(config, config_path)
    harness.write_sessions(sessions, sessions_path)
    print(f"wrote {config_path} and {sessions_path} "
          f"({len(sessions)} sessions, instance={instance_hash(config, sessions)[:12]})")
    return 0


def _cmd_run(args) -> int:
    config, sessions = _load_instance(args)
    report = run_online(sessions, config, policy=_policy(args))
    _write_run(report, args.out, "online")
    return 0


def _cmd_run_baseline(args) -> int:
    config, sessions = _load_instance(args)
    report = run_threshold(sessions, config, threshold=args.threshold / 100.0)
    _write_run(report, args.out, report.algorithm)
    return 0


def _cmd_offline_ub(args) -> int:
    config, sessions = _load_instance(args)
    ub = offline.upper_bound(sessions, config)
    payload = {"instance_hash": instance_hash(config, sessions),
               "upper_bound": ub, "sessions": len(sessions)}
    _emit(payload, args.out, "upper-bound.json")
    if args.out is not None:
        print(f"upper bound: {ub:.6f}")
    return 0


def _cmd_offline_exact(args) -> int:
    config, sessions = _load_instance(args)
    _, candidate_sets = run_online(sessions, config, policy=_policy(args),
                                   capture_candidates=True)
    result = offline.exact_offline(sessions, config, candidate_sets,
                                   space_limit=args.space_limit)
    payload = {
        "instance_hash": instance_hash(config, sessions),
        "welfare": result.welfare,
        "search_space": result.search_space,
        "nodes_explored": result.nodes_explored,
        "assignment": [as_plain(s) for s in result.assignment],
    }
    _emit(payload, args.out, "exact-report.json")
    if args.out is not None:
        print(f"exact offline welfare: {result.welfare:.6f} "
              f"({result.nodes_explored} nodes of {result.search_space})")
    return 0


def _cmd_verify(args) -> int:
    config = _load_config(args)
    psi_ = pricing.psi(config)
    bounds = pricing.estimate_bounds(config)
    alphas = pricing.alphas(bounds, psi_, config)
    print(f"psi={psi_} alpha={alphas.alpha:.6f} "
          + " ".join(f"{k}={v:.4f}" for k, v in as_plain(alphas).items()))
    per_family = dict(zip(pricing.NAMES, astuple(alphas)))
    ok = True
    for family, params in pricing.dapr_cases(config, bounds, psi_):
        if args.family is not None and family != args.family:
            continue
        alpha = per_family[family] * args.alpha_scale
        rep = pricing.verify_dapr(family, params, alpha)
        status = "PASS" if rep.passed else "FAIL"
        ok = ok and rep.passed
        print(f"{status} family={family} alpha={alpha:.6f} "
              f"worst_margin={rep.worst_margin:.3e} at y={rep.worst_y:.6f} "
              f"grid={rep.grid_points}")
    print("verification " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def _cmd_compare(args) -> int:
    reports = [harness.read_report(p) for p in args.reports]
    if args.ub is not None:
        ub = args.ub
    else:
        config, sessions = _load_instance(args)
        if instance_hash(config, sessions) != reports[0].instance_hash:
            raise SystemExit("error: supplied instance does not match the reports")
        ub = offline.upper_bound(sessions, config)
    table = harness.compare(reports, ub, opt=args.opt)
    out_dir = args.out or "."
    os.makedirs(out_dir, exist_ok=True)
    csv_path = os.path.join(out_dir, "comparison.csv")
    plot_path = os.path.join(out_dir, "plot-data.json")
    harness.write_comparison(table, csv_path, plot_path)
    for row in table.rows:
        ratio = "" if row.ratio_to_ub is None else f" ratio={row.ratio_to_ub:.4f}"
        print(f"{row.algorithm}: welfare={row.welfare:.6f}{ratio}")
    print(f"upper bound: {table.upper_bound:.6f}")
    if table.ratio_guarantee_met is not None:
        print("alpha * online >= opt: "
              + ("yes" if table.ratio_guarantee_met else "NO"))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="evdispatch",
        description="Online charge scheduling and dispatch simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write a synthetic instance to disk")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--preset", default="desk", choices=sorted(harness.PRESETS))
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("run", help="run the online dispatcher")
    _add_instance_flags(p)
    p.add_argument("--out", help="output directory (default: stdout)")
    p.add_argument("--max-candidates", type=int,
                   help="cap on candidate schedules per session")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("run-baseline", help="run a threshold baseline")
    _add_instance_flags(p)
    p.add_argument("--threshold", type=int, required=True, choices=(25, 50, 75),
                   help="state-of-charge threshold in percent")
    p.add_argument("--out", help="output directory (default: stdout)")
    p.set_defaults(func=_cmd_run_baseline)

    p = sub.add_parser("offline-ub", help="capacity-free welfare upper bound")
    _add_instance_flags(p)
    p.add_argument("--out", help="output directory (default: stdout)")
    p.set_defaults(func=_cmd_offline_ub)

    p = sub.add_parser("offline-exact",
                       help="exact optimum over the online candidate sets")
    _add_instance_flags(p)
    p.add_argument("--out", help="output directory (default: stdout)")
    p.add_argument("--max-candidates", type=int,
                   help="cap on candidate schedules per session")
    p.add_argument("--space-limit", type=int, default=10_000_000,
                   help="refuse search spaces larger than this")
    p.set_defaults(func=_cmd_offline_exact)

    p = sub.add_parser("verify",
                       help="check the allocation-payment inequality of every price curve")
    p.add_argument("--config", help="instance config JSON")
    p.add_argument("--seed", type=int, help="generate the config from this seed")
    p.add_argument("--preset", default="desk", choices=sorted(harness.PRESETS),
                   help="generator preset used with --seed (default: desk)")
    p.add_argument("--family", choices=pricing.NAMES)
    p.add_argument("--alpha-scale", type=float, default=1.0,
                   help="scale every alpha before checking (sanity tests)")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("compare", help="compare finished run reports")
    p.add_argument("--reports", nargs="+", required=True,
                   help="report JSON files from the same instance")
    p.add_argument("--ub", type=float,
                   help="precomputed upper bound (default: recompute)")
    p.add_argument("--opt", type=float, help="exact offline optimum, if known")
    _add_instance_flags(p)
    p.add_argument("--out", help="output directory (default: current)")
    p.set_defaults(func=_cmd_compare)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
