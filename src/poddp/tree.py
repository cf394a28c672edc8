"""History-indexed trajectory tree.

A tree node is identified by its history: the tuple of latent indices taken
at successive branch points (the empty tuple is the root). Branching happens
only at segment ends, so a solve with k segments stores histories of
length < k. Each node carries the controls and belief states of one segment;
the backward pass attaches per-step gains and one quadratic value model per
node.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import numpy as np

HistoryPath = Tuple[int, ...]


def history_string(h: HistoryPath) -> str:
    return "".join(str(z) for z in h)


@dataclass(frozen=True)
class QuadraticValueModel:
    """Local quadratic model of the cost-to-go over belief-state perturbations.

    `dv` is the predicted cost change of the control update, `cost_to_go`
    the nominal expected cost-to-go at the node (the value level, which the
    belief-weighted expansion needs alongside the derivatives).
    """

    dv: float
    v_s: np.ndarray
    v_ss: np.ndarray
    cost_to_go: float


@dataclass
class TrajectoryTree:
    """Storage for one forward-pass rollout over all latent-outcome histories.

    For a node h owning segment d = len(h): `controls[h]` has one row per
    step; `xs[h]` / `betas[h]` hold the belief states at which those controls
    are applied. Leaf nodes store one extra terminal state. `beliefs[h]` is
    the node's entering belief (constant within the segment).
    """

    num_latents: int
    segment_lengths: Tuple[int, ...]
    controls: Dict[HistoryPath, np.ndarray] = field(default_factory=dict)
    xs: Dict[HistoryPath, np.ndarray] = field(default_factory=dict)
    betas: Dict[HistoryPath, np.ndarray] = field(default_factory=dict)
    beliefs: Dict[HistoryPath, np.ndarray] = field(default_factory=dict)
    gains_open: Dict[Tuple[HistoryPath, int], np.ndarray] = field(default_factory=dict)
    gains_feedback: Dict[Tuple[HistoryPath, int], np.ndarray] = field(default_factory=dict)
    value_models: Dict[HistoryPath, QuadraticValueModel] = field(default_factory=dict)

    @property
    def num_segments(self) -> int:
        return len(self.segment_lengths)

    def is_leaf(self, h: HistoryPath) -> bool:
        return len(h) == self.num_segments - 1

    def histories(self) -> List[HistoryPath]:
        return sorted(self.controls.keys(), key=lambda h: (len(h), h))

    def terminal_state(self, h: HistoryPath) -> Tuple[np.ndarray, np.ndarray]:
        """Terminal (x, beta) of a leaf node."""
        if not self.is_leaf(h):
            raise ValueError("terminal state only exists at leaf nodes")
        return self.xs[h][-1], self.betas[h][-1]


def tree_to_dict(tree: TrajectoryTree) -> dict:
    """JSON-serializable layout: nodes keyed by history string, root is ''."""
    nodes = {}
    for h in tree.histories():
        key = history_string(h)
        node = {
            "controls": np.asarray(tree.controls[h]).tolist(),
            "states": np.asarray(tree.xs[h]).tolist(),
            "state_logits": np.asarray(tree.betas[h]).tolist(),
            "belief": np.asarray(tree.beliefs[h]).tolist(),
        }
        gains_k = {}
        gains_K = {}
        for (hh, step), k in sorted(tree.gains_open.items()):
            if hh == h:
                gains_k[str(step)] = np.asarray(k).tolist()
        for (hh, step), K in sorted(tree.gains_feedback.items()):
            if hh == h:
                gains_K[str(step)] = np.asarray(K).tolist()
        if gains_k:
            node["gains_open"] = gains_k
        if gains_K:
            node["gains_feedback"] = gains_K
        nodes[key] = node
    return {
        "num_latents": tree.num_latents,
        "segment_lengths": list(tree.segment_lengths),
        "nodes": nodes,
    }
