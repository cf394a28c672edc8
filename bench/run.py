"""Benchmark of the poddp package: one cold solve and closed-loop batches.

Usage, from the root of a checkout:

    python3 bench/run.py --workload tmaze --seed 0 --seconds 60 --trace 0

A run repeats rounds of identical work; a round starts only if it is
expected to end within `--seconds`. Each round makes

1. fresh set-ups: new interpreters import `poddp.cli` and build the
   workload's scenario from its shipped config;
2. one cold PODDP solve at the CLI's `SOLVE_BUDGET`, as `poddp solve` runs it;
3. one `harness.run_batch` per planner at `BENCH_BUDGET`, as
   `poddp benchmark` runs it,

and then checks every plan it made apart from the program (`checks.py`).
Timings are medians over the run's samples; every output must repeat
exactly. With `--trace 1` the rounds come in pairs, one plain and one traced,
and the run reports the per-layer metrics of the traced rounds (`layers.py`)
and the tracing overhead. The last line of standard output is the JSON
result; the full record goes to `bench/results/`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

WORKLOADS = ("tmaze", "lanechange")
# Episodes per planner batch. The episode seeds are the same in every run:
# closed-loop costs are heavy-tailed (a few episodes cost over 4x the
# median), so the mean over any affordable block of seeds would move with
# the block by far more than a usable bound. The seeds start at 0, as in the
# acceptance gates.
EPISODES = 4
BASE_SEED = 0
# Batches run more than once per round, spread over it. On tmaze the
# baselines' batches take well under a second, and one span that short
# moved by a quarter from run to run on a 2-core host.
BATCH_REPEATS = {"tmaze": {"mlddp": 3, "pwddp": 3}}
# Fresh-interpreter set-ups made at the start of every round, so that the
# set-up samples spread over the run like the others.
SETUPS_PER_ROUND = 2

# Runs in a fresh interpreter: import the CLI, build the scenario, report.
SETUP_PROBE = """
import sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import poddp.cli
imported = time.perf_counter()
from poddp.scenarios import build_scenario
build_scenario(sys.argv[2])
print(imported - start, time.perf_counter() - imported, flush=True)
"""

# Thread variables of the BLAS libraries numpy and scipy can load; the first
# three are set to 1 unless the caller set them.
PINNED_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_THREAD_VARS = PINNED_THREAD_VARS + (
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def fresh_setup(workload: str) -> dict:
    """Wall time of one fresh interpreter from spawn to a built scenario."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-c", SETUP_PROBE, str(SRC), workload],
        stdout=subprocess.PIPE,
        text=True,
        cwd=ROOT,
    )
    try:
        line = proc.stdout.readline()
        wall = time.perf_counter() - start
        proc.stdout.close()
        code = proc.wait(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if code != 0 or not line.strip():
        raise RuntimeError(f"set-up probe exited with code {code}")
    import_s, build_s = (float(v) for v in line.split())
    return {"setup_s": wall, "import_s": import_s, "build_s": build_s}


def run_metadata() -> dict:
    import numpy

    revision = None
    if (ROOT / ".git").exists():
        try:
            out = subprocess.run(
                ["git", "rev-parse", "HEAD"],
                cwd=ROOT, capture_output=True, text=True, timeout=30,
            )
            revision = out.stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_revision": revision,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_thread_vars": {k: os.environ[k] for k in BLAS_THREAD_VARS if k in os.environ},
    }


class PlanLog:
    """Every planning call of a round: an operation, failed when its tree
    lacks a value model for some node."""

    def __init__(self):
        self.plans = []  # (label, kind, b0 probs, ExecutablePlan)

    def record(self, label, kind, b0, executable):
        self.plans.append((label, kind, b0.probs.copy(), executable))

    def hook(self, plan):
        def planned(kind, model, x0, b0, config, u_init=None):
            executable = plan(kind, model, x0, b0, config, u_init=u_init)
            self.record(f"{kind.value} plan", kind, b0, executable)
            return executable

        return planned


class Workload:
    """The scenario, budgets and round of one workload."""

    def __init__(self, name: str):
        from poddp.cli import BENCH_BUDGET, SOLVE_BUDGET
        from poddp.scenarios import build_scenario
        from poddp.solver import SolverConfig

        self.name = name
        self.scenario = build_scenario(name)
        sc = self.scenario
        self.solve_config = SolverConfig(
            horizon=sc.horizon, segments=sc.segments, **SOLVE_BUDGET
        )
        self.bench_config = SolverConfig(
            horizon=sc.horizon, segments=sc.segments, **BENCH_BUDGET
        )

    def batches(self, order):
        """The round's batch sequence: every planner in `order`, then the
        repeats of the planners listed in `BATCH_REPEATS`."""
        repeats = BATCH_REPEATS.get(self.name, {})
        for rep in range(max(repeats.values(), default=1)):
            for kind in order:
                if rep < repeats.get(kind.value, 1):
                    yield kind

    def round(self, model, order, log: PlanLog) -> dict:
        """One cold solve and the batches of every planner; returns timings
        and outputs. Plans made inside the batches reach `log` through the
        hook on `poddp.harness.plan`."""
        from poddp.baselines import PlannerKind, plan
        from poddp.harness import run_batch

        sc = self.scenario
        began = start = time.perf_counter()
        cold = plan(PlannerKind.PODDP, model, sc.initial_state, sc.prior, self.solve_config)
        solve_s = time.perf_counter() - start
        log.record("cold solve", PlannerKind.PODDP, sc.prior, cold)
        out = {
            "solve_s": solve_s,
            "solve": cold,
            "batch_s": {},
            "costs": {},
        }
        for kind in self.batches(order):
            start = time.perf_counter()
            stats = run_batch(
                kind, model, sc.initial_state, sc.prior, EPISODES, BASE_SEED,
                self.bench_config, sc.control_low, sc.control_high,
            )
            out["batch_s"].setdefault(kind.value, []).append(time.perf_counter() - start)
            out["costs"].setdefault(kind.value, []).append(stats.costs.tolist())
        out["wall_s"] = time.perf_counter() - began
        return out


def check_round(workload: Workload, rnd: dict, log: PlanLog, first: dict) -> list:
    """Independent checks of one round; `first` is the first round's record."""
    import checks

    sc = workload.scenario
    errors = []
    cold = rnd["solve"]
    if not cold.converged:
        errors.append("cold solve at SOLVE_BUDGET did not converge")
    errors += checks.check_contingency(workload.name, cold.result.tree, sc.config)
    for label, kind, b0, executable in log.plans:
        view = checks.PlanView(kind, sc.model, b0)
        errors += checks.check_plan(view, executable, label)
    means = {k: statistics.fmean(v[0]) for k, v in rnd["costs"].items()}
    errors += checks.check_ordering(workload.name, means)
    reference = (first or rnd)["costs"]
    for kind, batches in rnd["costs"].items():
        if any(costs != reference[kind][0] for costs in batches):
            errors.append(f"{kind} closed-loop costs differ between batches")
    if first is not None:
        if cold.result.cost != first["solve"].result.cost:
            errors.append("cold solve cost differs from the first round")
    return errors


def failed_plans(log: PlanLog) -> int:
    import checks

    return sum(1 for *_, ex in log.plans if checks.missing_value_models(ex.result.tree))


def planner_order(seed: int, index: int):
    """The planners' batch order in round `index`, rotated by the seed so
    that drift during a run does not always fall on the same planner."""
    from poddp.baselines import PlannerKind

    kinds = list(PlannerKind)
    shift = (seed + index) % len(kinds)
    return kinds[shift:] + kinds[:shift]


def end_to_end(setups, rounds) -> dict:
    first = rounds[0]
    metrics = {
        "setup_s": median(s["setup_s"] for s in setups),
        "solve_s": median(r["solve_s"] for r in rounds),
        "solve_iterations": len(first["solve"].result.iterations),
        "solve_cost": first["solve"].result.cost,
        "episode_cost.poddp": statistics.fmean(first["costs"]["poddp"][0]),
    }
    for kind in first["batch_s"]:
        samples = [t for r in rounds for t in r["batch_s"][kind]]
        metrics[f"episode_s.{kind}"] = median(samples) / EPISODES
    return metrics


def per_layer(setups, plain_rounds, traced_rounds, snapshots) -> dict:
    """Per-layer values of the traced rounds: counts from the first (every
    traced round repeats them), times as medians over the traced rounds."""
    first = snapshots[0]
    metrics = {
        "cli.import_s": median(s["import_s"] for s in setups),
        "scenarios.build_s": median(s["build_s"] for s in setups),
        "trace.overhead_pct": 100.0
        * (
            median(r["wall_s"] for r in traced_rounds)
            / median(r["wall_s"] for r in plain_rounds)
            - 1.0
        ),
        **first["counts"],
    }
    for name, st in first["layers"].items():
        metrics[f"{name}.calls"] = st["calls"]
        metrics[f"{name}.failed"] = st["failed"]
        for field in ("s", "self_s"):
            metrics[f"{name}.{field}"] = median(s["layers"][name][field] for s in snapshots)
    for name in first["latencies"]:
        metrics[f"{name}.p50_s"] = median(t for s in snapshots for t in s["latencies"][name])
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "poddp" / "__init__.py").is_file():
        print(f"error: no package source at {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    # One thread per BLAS library unless the caller chose otherwise: the
    # package's matrices are at most 13x13, and idle BLAS workers would
    # take the process past one thread per core.
    for var in PINNED_THREAD_VARS:
        os.environ.setdefault(var, "1")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH_DIR))
    import poddp
    import poddp.harness

    if Path(poddp.__file__).resolve().parent != SRC / "poddp":
        print(f"error: poddp imported from {poddp.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import layers

    workload = Workload(args.workload)
    model = workload.scenario.model
    setups, plain, traced, snapshots, errors = [], [], [], [], []
    attempted = failed = 0
    first = None

    def one_round(index, tracer):
        nonlocal attempted, failed, first
        log = PlanLog()
        order = planner_order(args.seed, index)
        with layers.patched([(poddp.harness, "plan", log.hook(poddp.harness.plan))]):
            if tracer is None:
                rnd = workload.round(model, order, log)
            else:
                with layers.traced(tracer, model) as traced_model:
                    rnd = workload.round(traced_model, order, log)
        attempted += len(log.plans)
        failed += failed_plans(log)
        errors.extend(check_round(workload, rnd, log, first))
        first = first or rnd
        return rnd

    # A round starts only if it is expected to end within --seconds.
    start = time.perf_counter()
    index = 0
    longest = 0.0
    while index == 0 or time.perf_counter() - start + longest <= args.seconds:
        began = time.perf_counter()
        setups.extend(fresh_setup(args.workload) for _ in range(SETUPS_PER_ROUND))
        plain.append(one_round(index, None))
        if args.trace:
            tracer = layers.Tracer()
            traced.append(one_round(index, tracer))
            snapshots.append(tracer.snapshot())
        longest = max(longest, time.perf_counter() - began)
        index += 1

    if args.trace:
        values = per_layer(setups, plain, traced, snapshots)
    else:
        values = end_to_end(setups, plain)
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"error: metrics not measured: {', '.join(missing)}", file=sys.stderr)
        return 2

    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted
        },
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "metadata": run_metadata(),
        "rounds": len(plain),
        "episodes": EPISODES,
        "base_seed": BASE_SEED,
        "errors": errors,
        "setups": setups,
        "round_timings": [
            {"solve_s": r["solve_s"], "batch_s": r["batch_s"], "wall_s": r["wall_s"]}
            for r in plain
        ],
        "traced_round_timings": [
            {"solve_s": r["solve_s"], "batch_s": r["batch_s"], "wall_s": r["wall_s"]}
            for r in traced
        ],
        "closed_loop_costs": {k: v[0] for k, v in plain[0]["costs"].items()},
        "all_values": values,
        "spans": snapshots,
        "result": result,
    }
    out_dir = BENCH_DIR / "results"
    out_dir.mkdir(exist_ok=True)
    out = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    for message in errors:
        print(f"check failed: {message}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
