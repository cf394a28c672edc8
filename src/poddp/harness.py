"""Closed-loop Monte-Carlo evaluation with replanning at observation points.

Each episode samples a ground-truth latent value, then alternates planning
and execution: the current plan's first segment runs with feedback on the
realized state, process noise is applied at every timestep, and at each
segment boundary an observation is sampled, the belief is updated, and the
planner is invoked again over the remaining horizon. Costs accumulate under
the true latent value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .baselines import PlannerKind, plan
from .belief import Belief, DegenerateEvidenceError, bayes_update
from .model import ProblemModel
from .solver import SolverConfig


@dataclass
class EpisodeTrace:
    seed: int
    planner: PlannerKind
    true_z: int
    final_state: np.ndarray
    cumulative_cost: float
    replans: int
    converged: bool  # every planning solve converged


@dataclass
class BatchStats:
    planner: PlannerKind
    n: int
    mean: float
    stderr: float  # 0 when n == 1
    costs: np.ndarray
    traces: List[EpisodeTrace]


def episode_streams(seed: int):
    """(ground truth, process noise, observation noise) generators."""
    gt, proc, obs = np.random.SeedSequence(seed).spawn(3)
    return (
        np.random.default_rng(gt),
        np.random.default_rng(proc),
        np.random.default_rng(obs),
    )


def _sample(mean, var, rng) -> np.ndarray:
    """A draw around `mean` with independent coordinates of variances `var`;
    ``None`` (deterministic dynamics) gives `mean` itself."""
    if var is None:
        return mean
    return mean + rng.standard_normal(np.shape(mean)) * np.sqrt(var)


def execute_episode(
    planner: PlannerKind,
    model: ProblemModel,
    x0,
    b0: Belief,
    true_z: int,
    seed: int,
    config: SolverConfig,
    control_low,
    control_high,
    _plan_cache: Optional[dict] = None,
) -> EpisodeTrace:
    """One closed-loop episode under latent value `true_z`; controls are
    clipped to [control_low, control_high].

    Plans are pure functions of (x, b, schedule, warm start). `_plan_cache`
    shares them across the episodes of a batch, so identical prefixes
    (always the initial solve) are planned once per batch.
    """
    if not 0 <= true_z < model.num_latents:
        raise ValueError("true_z outside the latent set")
    _, proc_rng, obs_rng = episode_streams(seed)

    x = np.asarray(x0, dtype=float).copy()
    b = b0
    cumulative = 0.0
    replans = 0
    converged = True
    warm = None  # next plan is seeded from the current plan's unexecuted tail
    remaining_segments = list(config.segment_lengths())
    # The key holds the remaining segment count, so it never repeats within
    # one episode.
    cache = {} if _plan_cache is None else _plan_cache

    while remaining_segments:
        # The equal split of the remaining horizon is the tail of the first
        # plan's schedule.
        seg_cfg = replace(
            config,
            horizon=sum(remaining_segments),
            segments=len(remaining_segments),
        )
        warm_key = None if warm is None else tuple(
            (h, u.tobytes()) for h, u in sorted(warm.items())
        )
        cache_key = (x.tobytes(), b.probs.tobytes(), len(remaining_segments), warm_key)
        current = cache.get(cache_key)
        if current is None:
            current = plan(planner, model, x, b, seg_cfg, u_init=warm)
            cache[cache_key] = current
        converged = converged and current.converged
        seg_len = remaining_segments.pop(0)
        for t in range(seg_len):
            u = np.clip(current.control(t, x, b), control_low, control_high)
            cumulative += float(model.running_cost(x, u, true_z))
            x_prev, u_prev = x, u
            x = _sample(
                model.dynamics_mean(x, u, true_z), model.dynamics_noise_for(true_z), proc_rng
            )
        if remaining_segments:
            o = _sample(
                model.observation_mean(x, true_z), model.observation_noise(x, true_z), obs_rng
            )
            # Predict: every latent's transition mean from the last step.
            latents = range(model.num_latents)
            means = np.array([model.dynamics_mean(x_prev, u_prev, z) for z in latents], float)
            try:
                b = bayes_update(o, x, means, b, model)
            except DegenerateEvidenceError:
                pass  # keep the prior belief when no hypothesis explains the data
            replans += 1
            warm = current.warm_start(seg_len, b)

    cumulative += float(model.final_cost(x, true_z))
    return EpisodeTrace(
        seed=seed,
        planner=planner,
        true_z=true_z,
        final_state=x,
        cumulative_cost=cumulative,
        replans=replans,
        converged=converged,
    )


def run_batch(
    planner: PlannerKind,
    model: ProblemModel,
    x0,
    prior: Belief,
    n: int,
    base_seed: int,
    config: SolverConfig,
    control_low,
    control_high,
) -> BatchStats:
    if n < 1:
        raise ValueError("n must be at least 1")
    traces = []
    cache: dict = {}
    for seed in range(base_seed, base_seed + n):
        gt_rng, _, _ = episode_streams(seed)
        true_z = int(gt_rng.choice(model.num_latents, p=prior.probs))
        traces.append(
            execute_episode(
                planner,
                model,
                x0,
                prior,
                true_z,
                seed,
                config,
                control_low,
                control_high,
                _plan_cache=cache,
            )
        )
    costs = np.array([tr.cumulative_cost for tr in traces])
    mean = float(np.mean(costs))
    stderr = 0.0 if n == 1 else float(np.std(costs, ddof=1) / math.sqrt(n))
    return BatchStats(
        planner=planner,
        n=n,
        mean=mean,
        stderr=stderr,
        costs=costs,
        traces=traces,
    )


def welch_t(a: Sequence[float], b: Sequence[float]) -> Tuple[float, float]:
    """Welch's two-sample t statistic and two-sided p value."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if len(a) < 2 or len(b) < 2:
        raise ValueError("each sample needs at least two observations")
    va, vb = np.var(a, ddof=1), np.var(b, ddof=1)
    se2 = va / len(a) + vb / len(b)
    diff = float(np.mean(a) - np.mean(b))
    if se2 == 0.0:
        return (0.0, 1.0) if diff == 0.0 else (math.copysign(math.inf, diff), 0.0)
    t = diff / math.sqrt(se2)
    df = se2 ** 2 / (
        (va / len(a)) ** 2 / (len(a) - 1) + (vb / len(b)) ** 2 / (len(b) - 1)
    )
    # Imported here: scipy takes most of a second to load, and nothing else
    # in the package needs it.
    from scipy import stats

    p = 2.0 * float(stats.t.sf(abs(t), df))
    return float(t), p


def summarize(stats: Sequence[BatchStats]) -> dict:
    """One row of batch statistics per planner, and a Welch comparison of
    each pair of batches in the order given when there are n >= 2 episodes."""
    rows = [
        {
            "planner": s.planner.value,
            "n": s.n,
            "mean": s.mean,
            "stderr": s.stderr,
            "stderr_flag": s.n == 1,  # the stderr is reported as 0
        }
        for s in stats
    ]
    comparisons = []
    for i, a in enumerate(stats):
        for b in stats[i + 1 :]:
            if a.n >= 2 and b.n >= 2:
                t, p = welch_t(a.costs, b.costs)
                comparisons.append(
                    {"a": a.planner.value, "b": b.planner.value, "t": t, "p": p}
                )
    return {"summaries": rows, "comparisons": comparisons}
