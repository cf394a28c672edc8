"""Outside-in tracing of the package's layers.

Every layer is measured at its boundary, from outside the package: the
benchmark replaces the module attributes through which one layer calls the
next (`poddp.solver`, `poddp.baselines`, `poddp.harness`) and wraps the
scenario's model callbacks with `dataclasses.replace`. No file of the package
changes, and `traced()` restores every attribute it replaced.

Spans are aggregated in memory as they close: per layer the calls, inclusive
time and self time (inclusive time minus the time of traced spans it caused),
and per (caller, callee) edge the calls and time. A traced round makes on the
order of a million callback calls, so individual spans are not kept.
"""

from __future__ import annotations

import contextlib
import dataclasses
import time
from collections import defaultdict

import poddp.baselines
import poddp.harness
import poddp.solver

# Model callbacks that belong to the scenario layer.
CALLBACKS = (
    "dynamics_mean",
    "observation_mean",
    "observation_noise",
    "running_cost",
    "final_cost",
    "dynamics_jacobians",
    "running_cost_derivatives",
    "final_cost_derivatives",
)

# (module, attribute, layer name) of the calls wrapped as plain spans. The
# package imports these names into the calling module, so each is replaced
# where it is called from.
PLAIN_SPANS = (
    (poddp.solver, "evaluate_tree_cost", "solver.evaluate_tree_cost"),
    (poddp.solver, "optimize_control", "solver.optimize_control"),
    (poddp.solver, "_insegment_step", "solver.insegment_step"),
    (poddp.solver, "terminal_value_model", "solver.terminal_value_model"),
    (poddp.solver, "numerical_jacobian", "model.numerical_jacobian"),
    (poddp.solver, "bayes_update", "belief.bayes_update"),
    (poddp.harness, "bayes_update", "belief.bayes_update"),
)


@dataclasses.dataclass
class LayerStats:
    calls: int = 0
    s: float = 0.0
    self_s: float = 0.0
    failed: int = 0


class Tracer:
    """Aggregated spans and counters of one traced stretch of work."""

    def __init__(self):
        self.layers = defaultdict(LayerStats)
        self.edges = defaultdict(lambda: [0, 0.0])  # (caller, callee) -> [calls, s]
        self.counts = defaultdict(int)
        self.latencies = defaultdict(list)
        self._stack = []  # open spans: [name, time of traced children]

    def span(self, name, fn, failure=(), latency=False):
        """`fn` wrapped in a span; `name` may be a function of the call's
        arguments. Exceptions of the `failure` types count as failed calls."""
        name_of = name if callable(name) else (lambda args, kwargs: name)
        stack = self._stack

        def wrapper(*args, **kwargs):
            label = name_of(args, kwargs)
            frame = [label, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except failure:
                self.layers[label].failed += 1
                raise
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                st = self.layers[label]
                st.calls += 1
                st.s += elapsed
                st.self_s += elapsed - frame[1]
                caller = stack[-1][0] if stack else None
                edge = self.edges[(caller, label)]
                edge[0] += 1
                edge[1] += elapsed
                if stack:
                    stack[-1][1] += elapsed
                if latency:
                    self.latencies[label].append(elapsed)

        return wrapper

    def snapshot(self) -> dict:
        return {
            "layers": {k: dataclasses.asdict(v) for k, v in sorted(self.layers.items())},
            "counts": dict(sorted(self.counts.items())),
            "latencies": {k: list(v) for k, v in sorted(self.latencies.items())},
            "edges": [
                {"caller": a, "callee": b, "calls": c, "s": s}
                for (a, b), (c, s) in sorted(
                    self.edges.items(), key=lambda kv: (str(kv[0][0]), kv[0][1])
                )
            ],
        }


class _CountingCache:
    """The harness's plan cache, counting lookups that hit."""

    def __init__(self, inner: dict, tracer: Tracer):
        self._inner = inner
        self._tracer = tracer

    def get(self, key):
        value = self._inner.get(key)
        if value is not None:
            self._tracer.counts["harness.plan_cache.hits"] += 1
        return value

    def __setitem__(self, key, value):
        self._inner[key] = value


@contextlib.contextmanager
def patched(replacements):
    """Set (module, attribute, value) triples; restore the originals on exit."""
    saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in replacements]
    try:
        for mod, attr, value in replacements:
            setattr(mod, attr, value)
        yield
    finally:
        for mod, attr, value in reversed(saved):
            setattr(mod, attr, value)


@contextlib.contextmanager
def traced(tracer: Tracer, model):
    """Install the tracer's wrappers; yields the model with wrapped callbacks."""
    wrapped_model = dataclasses.replace(
        model,
        **{
            cb: tracer.span(f"scenarios.{cb}", getattr(model, cb))
            for cb in CALLBACKS
            if getattr(model, cb) is not None
        },
    )
    forward_span = tracer.span("solver.forward_pass", poddp.solver.forward_pass)

    def forward_pass(model, x0, b0, u_nom, s_nom, gains, *rest, **kwargs):
        if gains is not None:  # a candidate of the line search
            tracer.counts["solver.line_search.trials"] += 1
        return forward_span(model, x0, b0, u_nom, s_nom, gains, *rest, **kwargs)

    solve_span = tracer.span("solver.solve", poddp.solver.solve)

    def solve(*args, **kwargs):
        result = solve_span(*args, **kwargs)
        tracer.counts["solver.iterations"] += len(result.iterations)
        tracer.counts["solver.line_search.accepted"] += sum(
            1 for row in result.iterations if row["alpha"] > 0
        )
        return result

    episode_span = tracer.span("harness.execute_episode", poddp.harness.execute_episode)

    def execute_episode(*args, _plan_cache=None, **kwargs):
        if _plan_cache is not None:
            _plan_cache = _CountingCache(_plan_cache, tracer)
        return episode_span(*args, _plan_cache=_plan_cache, **kwargs)

    replacements = [
        (mod, attr, tracer.span(name, getattr(mod, attr))) for mod, attr, name in PLAIN_SPANS
    ] + [
        (poddp.solver, "forward_pass", forward_pass),
        (
            poddp.solver,
            "backward_pass",
            tracer.span(
                "solver.backward_pass",
                poddp.solver.backward_pass,
                failure=(poddp.solver.BackwardFailureError,),
            ),
        ),
        (poddp.baselines, "solve", solve),
        (
            poddp.harness,
            "plan",
            tracer.span(
                lambda args, kwargs: f"baselines.plan.{args[0].value}",
                poddp.harness.plan,
                latency=True,
            ),
        ),
        (poddp.harness, "execute_episode", execute_episode),
    ]
    with patched(replacements):
        yield wrapped_model
