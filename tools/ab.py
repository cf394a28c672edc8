"""In-process A/B timing of one layer or one job against a git revision.

Usage, from the root of a checkout:

    python3 tools/ab.py backward_pass --workload tmaze --base HEAD --pairs 20

The revision's `src/poddp` is exported with `git archive` into a temporary
directory as the package `poddp_base`, and imported beside the working
tree's `src/poddp`, so both run in one process pinned to one core. Each side
builds the workload's scenario and its own inputs, and the two must return
equal results (arrays compared bit for bit) before anything is timed. Then
the pairs alternate which side goes first; a sample is the wall time of
10 consecutive calls of a layer, or of one call of a job. The report gives
each side's median time per call, the median and interquartile range of the
paired ratio working tree / base, and the number of pairs the working tree
won.

Targets:

- layers, on the tree of a `BENCH_BUDGET` solve: `forward_pass` (a line
  search trial at alpha 1/2 with the tree's gains), `evaluate_tree_cost`,
  `linearize` (its result compared through a sweep) and `backward_pass`
  (at the first lambda from `REGULARIZATION_INIT` up that sweeps);
- jobs: `solve`, the cold solve at `SOLVE_BUDGET`, and `batch.<planner>`,
  one `harness.run_batch` of episode seeds 0-3 at `BENCH_BUDGET`, as the
  benchmark runs them.

A revision older than the one that made `scenarios/config.py` load its
configs through `resources.files(__package__)` reads the shipped configs of
the working tree, not its own; the tool says so when it exports one.
"""

from __future__ import annotations

import argparse
import dataclasses
import enum
import importlib
import io
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

# One BLAS thread, as the benchmark runs: the matrices are at most 13x13.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
BASE_PACKAGE = "poddp_base"
LAYERS = ("forward_pass", "evaluate_tree_cost", "linearize", "backward_pass")
JOBS = ("solve", "batch.poddp", "batch.mlddp", "batch.pwddp")
EPISODES, BASE_SEED = 4, 0


def export_base(rev: str, into: Path) -> None:
    """Write `src/poddp` of git revision `rev` to `into/poddp_base`."""
    archive = subprocess.run(
        ["git", "archive", "--format=tar", rev, "src/poddp"],
        cwd=ROOT, check=True, capture_output=True,
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        # Extraction filters came with Python 3.11.4 and 3.10.12.
        safe = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
        tar.extractall(into, **safe)
    (into / "src" / "poddp").rename(into / BASE_PACKAGE)
    config = (into / BASE_PACKAGE / "scenarios" / "config.py").read_text()
    if '"poddp.scenarios"' in config:
        print(
            f"note: {rev} loads the working tree's shipped configs "
            "(resources.files(\"poddp.scenarios\"))",
            file=sys.stderr,
        )


class Side:
    """One package's scenario, inputs and the call under test."""

    def __init__(self, package: str, workload: str, target: str):
        self.result_of = None
        mod = lambda name: importlib.import_module(f"{package}.{name}")  # noqa: E731
        solver, cli, harness = mod("solver"), mod("cli"), mod("harness")
        sc = mod("scenarios").build_scenario(workload)
        model, x0, prior = sc.model, sc.initial_state, sc.prior

        def config(budget):
            return solver.SolverConfig(horizon=sc.horizon, segments=sc.segments, **budget)

        if target == "solve":
            self.call = lambda: solver.solve(model, x0, prior, config(cli.SOLVE_BUDGET))
            return
        if target.startswith("batch."):
            kind = mod("baselines").PlannerKind(target.split(".", 1)[1])
            self.call = lambda: harness.run_batch(
                kind, model, x0, prior, EPISODES, BASE_SEED, config(cli.BENCH_BUDGET),
                sc.control_low, sc.control_high,
            )
            return
        tree = solver.solve(model, x0, prior, config(cli.BENCH_BUDGET)).tree
        lin = solver.linearize(model, tree)
        lam = solver.REGULARIZATION_INIT
        while True:
            try:
                solver.backward_pass(lin, lam)
                break
            except solver.BackwardFailureError:
                lam *= solver.REGULARIZATION_FACTOR
        seg = tree.segment_lengths
        self.call = {
            "forward_pass": lambda: solver.forward_pass(
                model, x0, prior, tree.controls, tree, tree.gains, 0.5, seg
            ),
            "evaluate_tree_cost": lambda: solver.evaluate_tree_cost(model, tree),
            "linearize": lambda: solver.linearize(model, tree),
            "backward_pass": lambda: solver.backward_pass(lin, lam),
        }[target]
        if target == "linearize":
            # A linearization's layout is the solver's own: compare its sweep.
            self.result_of = lambda out: solver.backward_pass(out, lam)

    def result(self):
        out = self.call()
        return self.result_of(out) if self.result_of else out


def canonical(obj):
    """A comparable form of a result, the same for both packages: arrays and
    numbers by their bytes, dataclasses by their fields, enums by value."""
    if isinstance(obj, (np.ndarray, np.generic, float, int, bool)):
        a = np.asarray(obj)
        return ("array", a.shape, a.dtype.str, a.tobytes())
    if isinstance(obj, enum.Enum):
        return ("enum", obj.value)
    if dataclasses.is_dataclass(obj):
        return tuple((f.name, canonical(getattr(obj, f.name))) for f in dataclasses.fields(obj))
    if isinstance(obj, dict):
        return ("dict",) + tuple(sorted((repr(k), canonical(v)) for k, v in obj.items()))
    if isinstance(obj, (list, tuple)):
        return ("seq",) + tuple(canonical(v) for v in obj)
    if obj is None or isinstance(obj, str):
        return obj
    raise TypeError(f"no comparable form for {type(obj).__name__}")


def timed(call, calls: int) -> float:
    start = time.perf_counter()
    for _ in range(calls):
        call()
    return (time.perf_counter() - start) / calls


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("target", choices=LAYERS + JOBS)
    parser.add_argument("--workload", default="tmaze")
    parser.add_argument("--base", default="HEAD", help="git revision to compare against")
    parser.add_argument("--pairs", type=int, default=20)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2: the ratios' quartiles need two pairs")
    resolved = subprocess.run(
        ["git", "rev-parse", "--verify", "--quiet", f"{args.base}^{{commit}}"],
        cwd=ROOT, capture_output=True,
    )
    if resolved.returncode != 0:
        parser.error(f"--base {args.base!r} is not a commit of a git checkout at {ROOT}")
    sys.path.insert(0, str(ROOT / "src"))
    from poddp.scenarios import EXPERIMENTS

    if args.workload not in EXPERIMENTS:
        parser.error(f"--workload {args.workload!r} is not one of: {', '.join(EXPERIMENTS)}")
    calls = 10 if args.target in LAYERS else 1  # per sample
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})

    with tempfile.TemporaryDirectory() as tmp:
        export_base(args.base, Path(tmp))
        sys.path.append(tmp)
        sides = {
            "base": Side(BASE_PACKAGE, args.workload, args.target),
            "new": Side("poddp", args.workload, args.target),
        }
        if canonical(sides["base"].result()) != canonical(sides["new"].result()):
            print(f"error: {args.target} returns different results", file=sys.stderr)
            return 1
        samples = {"base": [], "new": []}
        for i in range(args.pairs):
            for name in ("base", "new") if i % 2 == 0 else ("new", "base"):
                samples[name].append(timed(sides[name].call, calls))

    ratios = [n / b for n, b in zip(samples["new"], samples["base"])]
    q1, _, q3 = statistics.quantiles(ratios, n=4)
    print(
        f"{args.target} on {args.workload}, {args.pairs} pairs of {calls} calls on core "
        f"{cpu}; base {args.base}, new the working tree; results equal"
    )
    for name in ("base", "new"):
        print(f"  {name:4s} median {statistics.median(samples[name]) * 1e6:12.1f} us/call")
    print(
        f"  new/base ratio median {statistics.median(ratios):.3f}, IQR {q3 - q1:.3f} "
        f"({q1:.3f} .. {q3:.3f}); new faster in {sum(r < 1 for r in ratios)}/{len(ratios)}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
