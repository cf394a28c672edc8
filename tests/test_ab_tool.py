"""The A/B timing tool's argument checks and targets."""

import importlib.util
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

AB = Path(__file__).resolve().parent.parent / "tools" / "ab.py"


def _load_ab():
    spec = importlib.util.spec_from_file_location("ab", AB)
    ab = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(ab)
    return ab


def test_one_pair_is_rejected_before_any_work():
    # The ratios' quartiles need two pairs; one is refused at parse time,
    # before the base revision is exported or anything is timed.
    proc = subprocess.run(
        [sys.executable, str(AB), "solve", "--pairs", "1"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 2
    assert "--pairs" in proc.stderr


def test_an_unknown_workload_is_rejected_before_any_work():
    # The working tree's experiment names are the valid workloads; another
    # is refused before a core is pinned or the base revision is exported.
    proc = subprocess.run(
        [sys.executable, str(AB), "solve", "--workload", "nosuch", "--pairs", "2"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 2
    assert "--workload" in proc.stderr and "lanechange" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


@pytest.mark.parametrize("base, outside", [("no-such-revision", False), ("HEAD", True)],
                         ids=["unresolvable_revision", "outside_a_checkout"])
def test_a_base_git_cannot_resolve_is_rejected_before_any_work(base, outside, tmp_path):
    tool = AB
    if outside:  # a copy of the tool in a directory no git checkout contains
        (tmp_path / "tools").mkdir()
        tool = shutil.copy(AB, tmp_path / "tools" / "ab.py")
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(tmp_path.parent))
    proc = subprocess.run(
        [sys.executable, str(tool), "solve", "--base", base, "--pairs", "2"],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert proc.returncode == 2
    assert "--base" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_every_target_runs_on_the_working_tree():
    # Each layer and job builds its inputs from the package's own names, so
    # a rename the tool misses fails here rather than at timing time.
    ab = _load_ab()
    for target in ab.LAYERS + ab.JOBS:
        side = ab.Side("poddp", "terrain", target)
        assert ab.canonical(side.result()) is not None, target
