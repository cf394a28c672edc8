"""Command-line interface: solve and benchmark subcommands."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import poddp
import poddp.cli
from poddp.baselines import PlannerKind
from poddp.cli import main, write_episodes_csv
from poddp.harness import run_batch
from poddp.scenarios import build_scenario
from poddp.scenarios.config import config_hash
from poddp.solver import SolverConfig


def test_solve_tmaze_default_seven_node_tree(tmp_path, capsys):
    rc = main(["solve", "--experiment", "tmaze", "--out", str(tmp_path)])
    assert rc == 0
    payload = json.loads((tmp_path / "solve_tmaze_poddp.json").read_text())
    assert payload["experiment"] == "tmaze"
    assert payload["planner"] == "poddp"
    assert len(payload["tree"]["nodes"]) == 7
    assert payload["config_hash"]
    assert payload["config"]  # run is reconstructible from its outputs


def test_solve_unconverged_exits_2_and_says_so(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(poddp.cli, "SOLVE_BUDGET", {"max_iterations": 1, "cost_tolerance": 0.0})
    rc = main(["solve", "--experiment", "tmaze", "--out", str(tmp_path)])
    assert rc == 2
    assert "did not converge" in capsys.readouterr().out
    payload = json.loads((tmp_path / "solve_tmaze_poddp.json").read_text())
    assert payload["converged"] is False
    assert len(payload["iterations"]) == 1


def test_solve_unknown_experiment_lists_valid_names(tmp_path, capsys):
    rc = main(["solve", "--experiment", "zmaze", "--out", str(tmp_path)])
    assert rc == 1
    err = capsys.readouterr().err
    for name in ("tmaze", "terrain", "lanechange"):
        assert name in err


def test_solve_single_segment_single_node(tmp_path):
    rc = main(
        ["solve", "--experiment", "tmaze", "--set", "segments=1", "--out", str(tmp_path)]
    )
    assert rc == 0
    payload = json.loads((tmp_path / "solve_tmaze_poddp.json").read_text())
    assert set(payload["tree"]["nodes"]) == {""}


def test_solve_unknown_override_key_fails(tmp_path):
    rc = main(
        ["solve", "--experiment", "tmaze", "--set", "bogus=1", "--out", str(tmp_path)]
    )
    assert rc == 1


def test_benchmark_rerun_byte_identical(tmp_path):
    args = [
        "benchmark", "--experiment", "tmaze", "--planners", "poddp,mlddp",
        "--n", "2", "--seed", "0",
    ]
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    for name in ("tmaze_episodes.csv", "tmaze_summary.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_episode_csv_layout_and_determinism(tmp_path):
    sc = build_scenario("terrain")
    config = SolverConfig(horizon=sc.horizon, segments=sc.segments, max_iterations=5)
    batch = run_batch(PlannerKind.MLDDP, sc.model, sc.initial_state, sc.prior, 2, 0,
                      config, sc.control_low, sc.control_high)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_episodes_csv(batch.traces, p1)
    write_episodes_csv(batch.traces, p2)
    assert p1.read_bytes() == p2.read_bytes()
    header = p1.read_text().splitlines()[0]
    assert header == "seed,planner,true_z,cumulative_cost,replans,converged"
    # Full-precision costs: parsing the written value round-trips exactly.
    row = p1.read_text().splitlines()[1].split(",")
    assert float(row[3]) == batch.traces[0].cumulative_cost


# SHA-256 of the CLI's output files for a fixed run. Criterion 10 compares
# two runs of the same code; these pins catch an output change between
# revisions of the program.
CLI_OUTPUTS = {
    ("benchmark", "--experiment", "tmaze", "--n", "2", "--seed", "4"): {
        "tmaze_episodes.csv": "2b7a9d6cf27863ef10b6dd36c10488d477e662dd6e1d8018a2038461ac6f8876",
        "tmaze_summary.json": "30fbca2c203eec08e588dc7cb02c711e838d18db9dffb4746402272e85551646",
    },
    ("solve", "--experiment", "terrain", "--planner", "mlddp"): {
        "solve_terrain_mlddp.json": "e5ed3cbede4b2b984dfabdffab082bd1914a7ea4482328570c70d4dcce4a8211",
    },
}


@pytest.mark.parametrize("args", sorted(CLI_OUTPUTS), ids=lambda a: a[0] + "_" + a[2])
def test_cli_output_bytes_are_pinned(args, tmp_path):
    assert main(list(args) + ["--out", str(tmp_path)]) == 0
    for name, digest in CLI_OUTPUTS[args].items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name


def test_benchmark_summary_contents(tmp_path):
    rc = main(
        [
            "benchmark", "--experiment", "tmaze", "--planners", "poddp,mlddp",
            "--n", "2", "--out", str(tmp_path),
        ]
    )
    assert rc == 0
    payload = json.loads((tmp_path / "tmaze_summary.json").read_text())
    assert {s["planner"] for s in payload["summaries"]} == {"poddp", "mlddp"}
    assert payload["comparisons"]  # pairwise tests present at n >= 2
    assert payload["config_hash"] == config_hash(payload["config"])
    assert payload["base_seed"] == 0
    row = payload["summaries"][0]
    assert set(row) == {"planner", "n", "mean", "stderr", "stderr_flag"}


def test_benchmark_single_episode_stderr_flag(tmp_path):
    rc = main(
        [
            "benchmark", "--experiment", "tmaze", "--planners", "mlddp",
            "--n", "1", "--out", str(tmp_path),
        ]
    )
    assert rc == 0
    payload = json.loads((tmp_path / "tmaze_summary.json").read_text())
    assert payload["summaries"][0]["stderr_flag"] is True


def test_sweep_rejected_outside_tmaze(tmp_path):
    out = tmp_path / "not_yet"
    rc = main(
        [
            "benchmark", "--experiment", "terrain", "--planners", "mlddp",
            "--n", "1", "--sweep", "--out", str(out),
        ]
    )
    assert rc == 1
    assert not out.exists()  # a rejected run leaves no output directory behind


@pytest.mark.parametrize("flag, value", [("--n", "0"), ("--seed", "-1")])
def test_bad_benchmark_count_or_seed_names_its_flag(flag, value, tmp_path, capsys):
    out = tmp_path / "not_yet"
    args = ["benchmark", "--experiment", "tmaze", "--planners", "mlddp", "--n", "1"]
    rc = main(args + [flag, value, "--out", str(out)])
    assert rc == 1
    assert flag in capsys.readouterr().err
    assert not out.exists()  # rejected before the output directory is made


def test_solve_rejects_the_benchmark_seed(tmp_path, capsys):
    # A solve draws no random numbers; the seed is a benchmark flag.
    out = tmp_path / "not_yet"
    args = ["solve", "--experiment", "terrain", "--planner", "mlddp", "--seed", "0"]
    with pytest.raises(SystemExit) as exc:
        main(args + ["--out", str(out)])
    assert exc.value.code == 2
    assert "--seed" in capsys.readouterr().err
    assert not out.exists()


def test_out_dir_environment_variable(tmp_path, monkeypatch):
    monkeypatch.setenv("PODDP_OUT_DIR", str(tmp_path))
    rc = main(["solve", "--experiment", "terrain", "--planner", "mlddp"])
    assert rc == 0
    assert (tmp_path / "solve_terrain_mlddp.json").exists()


def test_sigma_level_override_changes_config_hash(tmp_path):
    rc = main(
        ["solve", "--experiment", "tmaze", "--set", "sigma_level=1.1", "--out", str(tmp_path)]
    )
    assert rc == 0
    payload = json.loads((tmp_path / "solve_tmaze_poddp.json").read_text())
    assert payload["config"]["sigma_level"] == 1.1


def test_zero_observation_variance_is_an_error(tmp_path, capsys):
    args = ["solve", "--experiment", "tmaze", "--set", "sigma_level=0"]
    assert main(args + ["--out", str(tmp_path)]) == 1
    assert "variances must be positive" in capsys.readouterr().err
    assert not (tmp_path / "solve_tmaze_poddp.json").exists()


def test_cli_import_leaves_scipy_unloaded():
    # scipy serves only the Welch test's p value and takes most of a second
    # to import, so starting the CLI must not load it.
    src = str(Path(poddp.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = "import sys, poddp.cli; print('scipy' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"


def _tmaze_config_file(tmp_path, edit):
    """The shipped tmaze config, changed by `edit`, written to a file."""
    from poddp.scenarios.config import default_config

    cfg = edit(default_config("tmaze"))
    path = tmp_path / "tmaze.cfg"
    path.write_text("".join(f"{k} = {v!r}\n" for k, v in cfg.items()))
    return path


def test_config_file_missing_key_is_an_error(tmp_path, capsys):
    def drop(cfg):
        del cfg["goal_forward"]
        return cfg

    path = _tmaze_config_file(tmp_path, drop)
    rc = main(["solve", "--experiment", "tmaze", "--config", str(path), "--out", str(tmp_path)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "goal_forward" in err
    assert not (tmp_path / "solve_tmaze_poddp.json").exists()


def test_config_file_unknown_key_is_an_error(tmp_path, capsys):
    path = _tmaze_config_file(tmp_path, lambda cfg: dict(cfg, goal_fowrard=99))
    rc = main(["solve", "--experiment", "tmaze", "--config", str(path), "--out", str(tmp_path)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "goal_fowrard" in err
    assert not (tmp_path / "solve_tmaze_poddp.json").exists()


@pytest.mark.parametrize(
    "key, value",
    [("dt", "abc"), ("horizon", "inf"), ("horizon", "40.7"), ("segments", "2.9")],
)
def test_config_value_of_the_wrong_type_names_its_key(key, value, tmp_path, capsys):
    args = ["solve", "--experiment", "tmaze", "--set", f"{key}={value}"]
    rc = main(args + ["--out", str(tmp_path)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and repr(key) in err and value in err


def test_sweep_levels_match_plain_benchmarks(tmp_path, monkeypatch):
    # Each sweep level reports the summary rows that a plain benchmark run
    # at that sigma level and seed writes.
    import poddp.cli

    levels = (0.1, 9.1)
    monkeypatch.setattr(poddp.cli, "SIGMA_LEVELS", levels)
    common = ["benchmark", "--experiment", "tmaze", "--planners", "mlddp,pwddp",
              "--n", "2", "--seed", "0"]
    assert main(common + ["--sweep", "--out", str(tmp_path / "sweep")]) == 0
    sweep = json.loads((tmp_path / "sweep" / "tmaze_sweep_summary.json").read_text())
    assert [level["sigma_level"] for level in sweep["levels"]] == list(levels)
    for level in sweep["levels"]:
        out = tmp_path / f"plain_{level['sigma_level']}"
        args = common + ["--set", f"sigma_level={level['sigma_level']}", "--out", str(out)]
        assert main(args) == 0
        plain = json.loads((out / "tmaze_summary.json").read_text())
        assert level["summaries"] == plain["summaries"]
        assert level["comparisons"] == plain["comparisons"]
