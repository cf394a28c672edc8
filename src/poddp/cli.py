"""Command-line entry point: single solves and benchmark batches.

Outputs are CSV/JSON files; plotting is left to external tooling. Every
output embeds the config hash and the fully resolved parameter set so a run
can be reconstructed from its files alone.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .baselines import PlannerKind, plan
from .harness import (
    run_batch,
    summary_rows,
    welch_t,
    write_episodes_csv,
    write_summary_json,
)
from .scenarios import EXPERIMENTS, SCENARIOS, build_scenario
from .scenarios.config import (
    ConfigError,
    apply_overrides,
    config_hash,
    default_config,
    load_config,
)
from .solver import SolverConfig
from .tree import tree_to_dict

OUT_DIR_ENV = "PODDP_OUT_DIR"

# config key of the prior probability of the first latent value, per experiment
PRIOR_KEYS = {name: config_class.prior_key for name, (config_class, _) in SCENARIOS.items()}

# the thirteen observation-uncertainty levels of the T-maze sweep
SIGMA_LEVELS = tuple(round(0.1 + i, 1) for i in range(13))

# single solves run to tight convergence; benchmark batches use a relaxed
# budget so large paired comparisons stay fast
SOLVE_BUDGET = {"max_iterations": 200, "cost_tolerance": 1e-4}
BENCH_BUDGET = {"max_iterations": 20, "cost_tolerance": 3e-5}


class CliError(Exception):
    """A bad run specification; maps to exit code 1."""


def _parse_planner(name: str) -> PlannerKind:
    try:
        return PlannerKind(name.strip().lower())
    except ValueError:
        valid = ", ".join(k.value for k in PlannerKind)
        raise CliError(f"unknown planner {name!r}; expected one of: {valid}")


def _resolve_config(args) -> dict:
    if args.experiment not in EXPERIMENTS:
        raise CliError(
            f"unknown experiment {args.experiment!r}; "
            f"expected one of: {', '.join(EXPERIMENTS)}"
        )
    if args.config is not None:
        path = Path(args.config)
        if not path.is_file():
            raise CliError(f"config file not found: {path}")
        cfg = load_config(path)
    else:
        cfg = default_config(args.experiment)

    overrides = {}
    for item in args.set or []:
        if "=" not in item:
            raise CliError(f"bad --set override {item!r}; expected key=value")
        key, _, value = item.partition("=")
        overrides[key.strip()] = value.strip()
    if args.horizon is not None:
        overrides["horizon"] = str(args.horizon)
    if args.segments is not None:
        overrides["segments"] = str(args.segments)
    if args.sigma_level is not None:
        overrides["sigma_level"] = str(args.sigma_level)
    if args.prior is not None:
        overrides[PRIOR_KEYS[args.experiment]] = str(args.prior)
    try:
        return apply_overrides(cfg, overrides)
    except ConfigError as exc:
        raise CliError(str(exc))


def _out_dir(args) -> Path:
    out = args.out or os.environ.get(OUT_DIR_ENV) or "."
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _solver_config(scenario, budget) -> SolverConfig:
    return SolverConfig(
        horizon=scenario.horizon, segments=scenario.segments, **budget
    )


def cmd_solve(args) -> int:
    cfg = _resolve_config(args)
    kind = _parse_planner(args.planner)
    scenario = build_scenario(args.experiment, cfg)
    solver_cfg = _solver_config(scenario, SOLVE_BUDGET)
    result = plan(
        kind, scenario.model, scenario.initial_state, scenario.prior, solver_cfg
    )
    payload = {
        "experiment": args.experiment,
        "planner": kind.value,
        "config_hash": config_hash(cfg),
        "config": cfg,
        "converged": result.converged,
        "planned_cost": result.result.cost,
        "iterations": result.result.iterations,
        "tree": tree_to_dict(result.result.tree),
    }
    out = _out_dir(args) / f"solve_{args.experiment}_{kind.value}.json"
    out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    status = "converged" if result.converged else "did not converge"
    print(
        f"{args.experiment}/{kind.value}: {status} "
        f"(cost {result.result.cost:.6g}, "
        f"{len(result.result.iterations)} iterations) -> {out}"
    )
    return 0 if result.converged else 2


def _run_benchmark(scenario, planners, n, seed):
    solver_cfg = _solver_config(scenario, BENCH_BUDGET)
    stats = []
    for kind in planners:
        stats.append(
            run_batch(
                kind,
                scenario.model,
                scenario.initial_state,
                scenario.prior,
                n,
                seed,
                solver_cfg,
                scenario.control_low,
                scenario.control_high,
            )
        )
    comparisons = []
    if n >= 2:
        for i in range(len(stats)):
            for j in range(i + 1, len(stats)):
                t, p = welch_t(stats[i].costs, stats[j].costs)
                comparisons.append(
                    {
                        "a": stats[i].planner.value,
                        "b": stats[j].planner.value,
                        "t": t,
                        "p": p,
                    }
                )
    return stats, comparisons


def cmd_benchmark(args) -> int:
    cfg = _resolve_config(args)
    planners = [_parse_planner(p) for p in args.planners.split(",")]
    if len(set(planners)) != len(planners):
        raise CliError("duplicate planner in --planners")
    out_dir = _out_dir(args)

    if args.sweep:
        if args.experiment != "tmaze":
            raise CliError("--sweep is only defined for the tmaze experiment")
        levels = []
        for level in SIGMA_LEVELS:
            level_cfg = apply_overrides(cfg, {"sigma_level": str(level)})
            scenario = build_scenario(args.experiment, level_cfg)
            stats, comparisons = _run_benchmark(
                scenario, planners, args.n, args.seed
            )
            tag = f"{args.experiment}_sigma_{level}"
            traces = [tr for s in stats for tr in s.traces]
            write_episodes_csv(traces, out_dir / f"{tag}_episodes.csv")
            levels.append(
                {
                    "sigma_level": level,
                    "summaries": summary_rows(stats),
                    "comparisons": comparisons,
                }
            )
        payload = {
            "experiment": args.experiment,
            "config_hash": config_hash(cfg),
            "config": cfg,
            "base_seed": args.seed,
            "n": args.n,
            "levels": levels,
        }
        out = out_dir / f"{args.experiment}_sweep_summary.json"
        out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        print(f"{len(SIGMA_LEVELS)}-level sweep complete -> {out}")
        return 0

    scenario = build_scenario(args.experiment, cfg)
    stats, comparisons = _run_benchmark(scenario, planners, args.n, args.seed)
    traces = [tr for s in stats for tr in s.traces]
    write_episodes_csv(traces, out_dir / f"{args.experiment}_episodes.csv")
    write_summary_json(
        stats,
        config_hash(cfg),
        out_dir / f"{args.experiment}_summary.json",
        extra={
            "experiment": args.experiment,
            "config": cfg,
            "base_seed": args.seed,
            "comparisons": comparisons,
        },
    )
    for s in stats:
        flag = " (stderr undefined at n=1)" if s.stderr_flag else ""
        print(
            f"{s.planner.value}: n={s.n} mean={s.mean:.6g} "
            f"stderr={s.stderr:.6g}{flag}"
        )
    for c in comparisons:
        print(f"welch {c['a']} vs {c['b']}: t={c['t']:.4g} p={c['p']:.4g}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--experiment", required=True, help="tmaze | terrain | lanechange")
    common.add_argument("--config", help="path to a config file (defaults to the shipped one)")
    common.add_argument("--set", action="append", metavar="KEY=VALUE",
                        help="override a config key (repeatable)")
    common.add_argument("--out", help=f"output directory (default ${OUT_DIR_ENV} or .)")
    common.add_argument("--seed", type=int, default=0, help="base seed")
    common.add_argument("--horizon", type=int, help="override the planning horizon")
    common.add_argument("--segments", type=int, help="override the segment count")
    common.add_argument("--sigma-level", type=float,
                        help="observation uncertainty level (tmaze)")
    common.add_argument("--prior", type=float,
                        help="prior probability of the first latent value")

    parser = argparse.ArgumentParser(
        prog="poddp", description="Belief-space trajectory optimization benchmarks"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", parents=[common],
                             help="run a single solve and write the trajectory tree")
    p_solve.add_argument("--planner", default="poddp", help="poddp | mlddp | pwddp")
    p_solve.set_defaults(func=cmd_solve)

    p_bench = sub.add_parser("benchmark", parents=[common],
                             help="run seeded closed-loop episode batches")
    p_bench.add_argument("--planners", default="poddp,mlddp,pwddp",
                         help="comma-separated planner list")
    p_bench.add_argument("--n", type=int, default=100, help="episodes per planner")
    p_bench.add_argument("--sweep", action="store_true",
                         help="run the 13-level observation-uncertainty sweep (tmaze)")
    p_bench.set_defaults(func=cmd_benchmark)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (CliError, ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
