"""Trajectory-tree structure and serialization."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poddp.belief import Belief
from poddp.solver import SolverConfig, forward_pass, solve
from poddp.tree import histories_by_level, history_string, tree_to_dict

from conftest import make_latent_linear_model


def _history_from_string(s):
    return tuple(int(c) for c in s)


def test_history_string_round_trip():
    for h in [(), (0,), (1, 0), (2, 1, 0)]:
        assert _history_from_string(history_string(h)) == h
    assert history_string(()) == ""
    assert history_string((2, 1, 0)) == "210"


@given(st.lists(st.integers(min_value=0, max_value=9), max_size=5).map(tuple))
@settings(max_examples=30, deadline=None)
def test_history_string_round_trip_property(h):
    assert _history_from_string(history_string(h)) == h


def _rolled_tree(nz: int, segments: int):
    model = make_latent_linear_model(nz)
    lengths = (2,) * segments
    u_nom = {}

    def fill(h, depth):
        u_nom[h] = np.zeros((lengths[depth], model.control_dim))
        if depth < segments - 1:
            for z in range(nz):
                fill(h + (z,), depth + 1)

    fill((), 0)
    b0 = Belief(np.full(nz, 1.0 / nz))
    return forward_pass(model, np.array([1.0, -0.5]), b0, u_nom, None, None, 1.0, lengths)


def _histories(nz: int, levels: int):
    """Every history of a complete tree with `levels` branch levels."""
    histories = {()}
    frontier = [()]
    for _ in range(levels):
        frontier = [h + (z,) for h in frontier for z in range(nz)]
        histories.update(frontier)
    return histories


def test_node_count_examples():
    assert len(_rolled_tree(2, 3).controls) == 7
    assert len(_rolled_tree(1, 6).controls) == 6
    assert len(_rolled_tree(3, 3).controls) == 13


def test_node_count_matches_enumeration():
    # The forward pass rolls out exactly the histories up to the branch depth.
    for nz in (1, 2, 3):
        for levels in (0, 1, 2, 3):
            assert set(_rolled_tree(nz, levels + 1).controls) == _histories(nz, levels)


def test_forward_pass_node_counts():
    # A complete tree of L branch levels has (|Z|^(L+1) - 1) / (|Z| - 1)
    # nodes, and a chain of L + 1 nodes when |Z| = 1.
    for nz in (1, 2, 3):
        for segments in (1, 2, 3):
            tree = _rolled_tree(nz, segments)
            expected = segments if nz == 1 else (nz ** segments - 1) // (nz - 1)
            assert len(tree.controls) == expected


@pytest.mark.parametrize("nz", [1, 2, 4])
@pytest.mark.parametrize("segments", [1, 2, 3])
def test_histories_by_level_enumerates_the_rolled_nodes(nz, segments):
    # One level per segment, each level's histories sorted: together exactly
    # the nodes the forward pass rolls, in (length, history) order.
    levels = histories_by_level(nz, segments)
    assert [{len(h) for h in hs} for hs in levels] == [{d} for d in range(segments)]
    flat = [h for hs in levels for h in hs]
    rolled = _rolled_tree(nz, segments).controls
    assert flat == sorted(rolled, key=lambda h: (len(h), h))


def test_serialization_round_trip_bit_exact(tmaze_scenario):
    # The CLI writes trees through tree_to_dict and json; every float must
    # come back bit for bit.
    sc = tmaze_scenario
    config = SolverConfig(horizon=sc.horizon, segments=sc.segments, max_iterations=3)
    result = solve(sc.model, sc.initial_state, sc.prior, config)
    tree = result.tree
    back = json.loads(json.dumps(tree_to_dict(tree)))
    assert back["num_latents"] == tree.num_latents
    assert tuple(back["segment_lengths"]) == tree.segment_lengths
    assert set(back["nodes"]) == {history_string(h) for h in tree.controls}
    for h in tree.controls:
        node = back["nodes"][history_string(h)]
        np.testing.assert_array_equal(node["controls"], tree.controls[h])
        np.testing.assert_array_equal(node["states"], tree.xs[h])
        # One row of logits per state, each the node's one logit vector.
        assert len(node["state_logits"]) == len(tree.xs[h])
        for row in node["state_logits"]:
            np.testing.assert_array_equal(row, tree.betas[h])
        np.testing.assert_array_equal(node["belief"], tree.beliefs[h])
    assert tree.gains.keys() == tree.controls.keys()
    for h, (k, K) in tree.gains.items():
        node = back["nodes"][history_string(h)]
        steps = [str(j) for j in range(len(tree.controls[h]))]
        assert sorted(node["gains_open"]) == sorted(node["gains_feedback"]) == sorted(steps)
        np.testing.assert_array_equal([node["gains_open"][j] for j in steps], k)
        np.testing.assert_array_equal([node["gains_feedback"][j] for j in steps], K)


def test_tree_dict_layout(tmaze_scenario):
    sc = tmaze_scenario
    config = SolverConfig(horizon=sc.horizon, segments=sc.segments, max_iterations=2)
    result = solve(sc.model, sc.initial_state, sc.prior, config)
    data = tree_to_dict(result.tree)
    assert "" in data["nodes"]  # root keyed by the empty history string
    assert set(data["nodes"]) == {"", "0", "1", "00", "01", "10", "11"}
    root = data["nodes"][""]
    for field in ("controls", "states", "state_logits", "belief"):
        assert field in root
