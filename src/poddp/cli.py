"""Command-line entry point: single solves and benchmark batches.

Outputs are CSV/JSON files; plotting is left to external tooling. Every
output embeds the config hash and the fully resolved parameter set so a run
can be reconstructed from its files alone.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from pathlib import Path

from .baselines import PlannerKind, plan
from .harness import run_batch, summarize
from .scenarios import EXPERIMENTS, build_scenario
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

# the thirteen observation-uncertainty levels of the T-maze sweep
SIGMA_LEVELS = tuple(round(0.1 + i, 1) for i in range(13))

# Single solves run up to 200 iterations, to a relative cost tolerance of 1e-4.
# Benchmark batches stop at 20 iterations or at a tighter 3e-5. This budget is
# not the faster one: in 40-episode batches no PODDP plan converged under it,
# and PODDP batches ran slower than under SOLVE_BUDGET on tmaze and lane change.
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
    try:
        return apply_overrides(cfg, overrides)
    except ConfigError as exc:
        raise CliError(str(exc))


def _out_dir(args) -> Path:
    out = args.out or os.environ.get(OUT_DIR_ENV) or "."
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def write_episodes_csv(traces, path: Path) -> None:
    """One row per episode, sorted by planner and seed; costs at full precision."""
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["seed", "planner", "true_z", "cumulative_cost", "replans", "converged"]
        )
        for tr in sorted(traces, key=lambda t: (t.planner.value, t.seed)):
            writer.writerow(
                [
                    tr.seed,
                    tr.planner.value,
                    tr.true_z,
                    repr(tr.cumulative_cost),
                    tr.replans,
                    tr.converged,
                ]
            )


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
    _write_json(out, payload)
    status = "converged" if result.converged else "did not converge"
    print(
        f"{args.experiment}/{kind.value}: {status} "
        f"(cost {result.result.cost:.6g}, "
        f"{len(result.result.iterations)} iterations) -> {out}"
    )
    return 0 if result.converged else 2


def _run_benchmark(scenario, planners, args, out_dir: Path, tag: str) -> dict:
    """One batch per planner at `BENCH_BUDGET`; writes `<tag>_episodes.csv`
    and returns the batches' `summarize`."""
    solver_cfg = _solver_config(scenario, BENCH_BUDGET)
    stats = [
        run_batch(
            kind,
            scenario.model,
            scenario.initial_state,
            scenario.prior,
            args.n,
            args.seed,
            solver_cfg,
            scenario.control_low,
            scenario.control_high,
        )
        for kind in planners
    ]
    traces = [tr for s in stats for tr in s.traces]
    write_episodes_csv(traces, out_dir / f"{tag}_episodes.csv")
    return summarize(stats)


def cmd_benchmark(args) -> int:
    cfg = _resolve_config(args)
    planners = [_parse_planner(p) for p in args.planners.split(",")]
    if len(set(planners)) != len(planners):
        raise CliError("duplicate planner in --planners")
    if args.sweep and args.experiment != "tmaze":
        raise CliError("--sweep is only defined for the tmaze experiment")
    if args.n < 1:
        raise CliError(f"--n must be at least 1, got {args.n}")
    if args.seed < 0:
        raise CliError(f"--seed must be non-negative, got {args.seed}")
    out_dir = _out_dir(args)
    header = {
        "experiment": args.experiment,
        "config_hash": config_hash(cfg),
        "config": cfg,
        "base_seed": args.seed,
    }

    if args.sweep:
        levels = []
        for level in SIGMA_LEVELS:
            level_cfg = apply_overrides(cfg, {"sigma_level": str(level)})
            scenario = build_scenario(args.experiment, level_cfg)
            tag = f"{args.experiment}_sigma_{level}"
            summary = _run_benchmark(scenario, planners, args, out_dir, tag)
            levels.append({"sigma_level": level, **summary})
        out = out_dir / f"{args.experiment}_sweep_summary.json"
        _write_json(out, {**header, "n": args.n, "levels": levels})
        print(f"{len(SIGMA_LEVELS)}-level sweep complete -> {out}")
        return 0

    scenario = build_scenario(args.experiment, cfg)
    summary = _run_benchmark(scenario, planners, args, out_dir, args.experiment)
    _write_json(out_dir / f"{args.experiment}_summary.json", {**header, **summary})
    for row in summary["summaries"]:
        flag = " (stderr undefined at n=1)" if row["stderr_flag"] else ""
        print(
            f"{row['planner']}: n={row['n']} mean={row['mean']:.6g} "
            f"stderr={row['stderr']:.6g}{flag}"
        )
    for c in summary["comparisons"]:
        print(f"welch {c['a']} vs {c['b']}: t={c['t']:.4g} p={c['p']:.4g}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--experiment", required=True, help="tmaze | terrain | lanechange")
    common.add_argument("--config", help="path to a config file (defaults to the shipped one)")
    common.add_argument("--set", action="append", metavar="KEY=VALUE",
                        help="override a config key (repeatable)")
    common.add_argument("--out", help=f"output directory (default ${OUT_DIR_ENV} or .)")

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
    p_bench.add_argument("--seed", type=int, default=0, help="base seed")
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
