"""CLI contract: exit codes, output files, reproducibility, compare."""

from __future__ import annotations

import csv
import dataclasses
import json
import math
from pathlib import Path

import pytest

from safeshift import cli
from safeshift.cli import EPISODE_COLUMNS, config_from_dict, config_to_dict, main
from safeshift.dynamics import SimulationDiverged
from safeshift.explore import ExperimentConfig, default_config

SMALL_PENDULUM = {
    "task": "pendulum",
    "episodes": 2,
    "horizon": 2.0,
    "sample_hz": 25.0,
    "pool": {"amplitudes": [0.3, 0.5]},
    "train": {"epochs": 40},
    "first_fit_epochs": 60,
    "max_train_points": 200,
}

SMALL_LANDING = {
    "task": "landing",
    "episodes": 1,
    "horizon": 2.0,
    "sample_hz": 25.0,
    "pool": {"rates": [0.5], "hovers": [0.5]},
    "model_kind": "gp_rbf",
}


def write_config(path: Path, payload: dict) -> Path:
    path.write_text(json.dumps(payload))
    return path


@pytest.fixture(scope="module")
def small_runs(tmp_path_factory):
    """Three finished pendulum runs: seeds 1, 2, and a rerun of seed 1."""
    root = tmp_path_factory.mktemp("runs")
    cfg = write_config(root / "cfg.json", SMALL_PENDULUM)
    dirs = {}
    for name, seed in [("run_a", 1), ("run_b", 2), ("run_c", 1)]:
        out = root / name
        code = main(["run", "--config", str(cfg), "--out", str(out), "--seed", str(seed)])
        assert code == 0
        dirs[name] = out
    return dirs


def test_run_writes_all_outputs(small_runs):
    out = small_runs["run_a"]
    for fname in ("episodes.csv", "trajectories.csv", "summary.json", "manifest.json"):
        assert (out / fname).exists(), fname
    with open(out / "episodes.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == EPISODE_COLUMNS
    assert len(rows) == 1 + 2
    assert [r[0] for r in rows[1:]] == ["1", "2"]
    assert all(r[1] == "ok" for r in rows[1:])


def test_summary_contents(small_runs):
    summary = json.loads((small_runs["run_a"] / "summary.json").read_text())
    assert summary["task"] == "pendulum"
    assert summary["model"] == "robust"
    assert summary["seed"] == 1
    assert summary["episodes"] == 2 and summary["tracked_episodes"] == 2
    assert summary["violations"] == 0 and summary["no_safe_candidates"] == 0
    assert summary["final_cost"] < 0  # pendulum cost is -max excursion


def test_manifest_reflects_seed_override_and_resolved_defaults(small_runs):
    manifest = json.loads((small_runs["run_a"] / "manifest.json").read_text())
    assert manifest["seed"] == 1
    assert manifest["task"] == "pendulum"
    assert manifest["pool"] == {"amplitudes": [0.3, 0.5]}
    assert manifest["train"]["epochs"] == 40
    assert manifest["safety"] == {"q_abs_max": 1.5}
    assert "gains" in manifest and "ratio" in manifest


def test_trajectories_schema(small_runs):
    with open(small_runs["run_a"] / "trajectories.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == [
        "episode", "t", "q_des", "qdot_des", "q_act", "qdot_act", "tube_lo", "tube_hi",
    ]
    assert len(rows) > 1
    for row in rows[1:]:
        vals = [float(v) for v in row[1:]]
        assert row[0] in ("1", "2")
        assert vals[5] <= vals[6]  # tube_lo <= tube_hi


def test_identical_config_and_seed_reproduce_bytes(small_runs):
    for fname in ("episodes.csv", "trajectories.csv", "summary.json", "manifest.json"):
        a = (small_runs["run_a"] / fname).read_bytes()
        c = (small_runs["run_c"] / fname).read_bytes()
        assert a == c, f"{fname} differs between identical runs"


def test_different_seed_changes_episodes(small_runs):
    a = (small_runs["run_a"] / "episodes.csv").read_bytes()
    b = (small_runs["run_b"] / "episodes.csv").read_bytes()
    assert a != b


def test_missing_config_file(tmp_path, capsys):
    code = main(["run", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path / "o")])
    assert code == 1
    assert "config" in capsys.readouterr().err


def test_invalid_json_config(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text("{not json")
    code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == 1
    assert "invalid JSON" in capsys.readouterr().err


def test_unknown_field_named_in_diagnostic(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.json", {"task": "pendulum", "episods": 3})
    code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == 1
    assert "episods" in capsys.readouterr().err


def test_invalid_value_names_field(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.json", {"task": "pendulum", "beta": -1.0})
    code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == 1
    assert "beta" in capsys.readouterr().err


def test_missing_task_rejected(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.json", {"episodes": 2})
    code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == 1
    assert "task" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["gains", "plant", "ratio", "train", "gp", "pool", "safety"])
@pytest.mark.parametrize("value", [5, [1]])
def test_nested_field_must_be_object(key, value, tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.json", {"task": "pendulum", key: value})
    code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == 1
    assert capsys.readouterr().err == f"invalid configuration: {key}: expected a JSON object\n"


@pytest.mark.parametrize(
    "extra, field_name",
    [
        ({"pool": {"amplitudes": ["0.5"]}}, "pool: amplitudes"),
        ({"pool": {"amplitudes": 0.5}}, "pool: amplitudes"),
        ({"pool": {"amplitudes": [1.5]}}, "pool"),
        ({"safety": {"q_abs_max": "wide"}}, "safety"),
        ({"safety": {"q_abs_max": -1.0}}, "safety"),
        ({"episodes": "3"}, "episodes: expected int"),
        ({"cert_stride": 1.5}, "cert_stride: expected int"),
        ({"beta": "0.5"}, "beta: expected float"),
        ({"w_max": True}, "w_max: expected float"),
        ({"train": {"epochs": 1.5}}, "train: epochs: expected int"),
        ({"train": {"lr": "fast"}}, "train: lr: expected float"),
        ({"gp": {"kernel": 3}}, "gp: kernel: expected str"),
        ({"w_max": math.nan}, "w_max: expected a finite number"),
        ({"beta": math.nan}, "beta: expected a finite number"),
        ({"horizon": math.inf}, "horizon: expected a finite number"),
        ({"sigma0_sq": -math.inf}, "sigma0_sq: expected a finite number"),
        ({"train": {"lr": math.nan}}, "train: lr: expected a finite number"),
        ({"pool": {"amplitudes": [0.3, math.inf]}}, "pool: amplitudes: expected a finite"),
        ({"seed": -1}, "seed: must be >= 0"),
        ({"safety": {"q_abs_max": True}}, "safety: q_abs_max: expected float"),
    ],
)
def test_malformed_field_value_names_field(extra, field_name, tmp_path, capsys):
    payload = {**SMALL_PENDULUM, **extra}
    cfg = write_config(tmp_path / "cfg.json", payload)
    code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith(f"invalid configuration: {field_name}")
    assert err.count("\n") == 1


def test_negative_seed_flag_rejected(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.json", SMALL_PENDULUM)
    code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "o"), "--seed", "-1"])
    assert code == 1
    assert capsys.readouterr().err == "invalid configuration: seed: must be >= 0\n"
    assert not (tmp_path / "o").exists()


def test_uncreatable_output_dir_names_path(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.json", SMALL_PENDULUM)
    blocker = tmp_path / "file"
    blocker.write_text("")
    out = blocker / "out"
    code = main(["run", "--config", str(cfg), "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith(f"output: cannot create {out}")
    assert err.count("\n") == 1


def test_runtime_divergence_exit_code(tmp_path, capsys, monkeypatch):
    import safeshift.cli as cli_mod

    def boom(config):
        raise SimulationDiverged("state norm exceeded bound")

    monkeypatch.setattr(cli_mod, "run_experiment", boom)
    cfg = write_config(tmp_path / "cfg.json", SMALL_PENDULUM)
    code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == 2
    assert "runtime failure" in capsys.readouterr().err


def test_model_override_flag(tmp_path):
    cfg = write_config(tmp_path / "cfg.json", SMALL_PENDULUM)
    out = tmp_path / "gp"
    assert main(["run", "--config", str(cfg), "--out", str(out), "--model", "gp_rbf"]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["model"] == "gp_rbf"
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["model_kind"] == "gp_rbf"


# -- compare -----------------------------------------------------------------


def test_compare_aligns_costs_on_stdout(small_runs, capsys):
    code = main(["compare", str(small_runs["run_a"]), str(small_runs["run_b"])])
    captured = capsys.readouterr()
    assert code == 0
    rows = list(csv.reader(captured.out.splitlines()))
    assert rows[0] == [
        "episode",
        "cost[robust@run_a]",
        "violation[robust@run_a]",
        "cost[robust@run_b]",
        "violation[robust@run_b]",
    ]
    assert [r[0] for r in rows[1:]] == ["1", "2"]
    with open(small_runs["run_a"] / "episodes.csv", newline="") as fh:
        eps = list(csv.DictReader(fh))
    assert [r[1] for r in rows[1:]] == [e["cost"] for e in eps]
    assert [r[2] for r in rows[1:]] == [e["violation"] for e in eps]
    assert "median final cost [robust]" in captured.err


def test_compare_identical_runs_have_identical_columns(small_runs, capsys):
    code = main(["compare", str(small_runs["run_a"]), str(small_runs["run_c"])])
    rows = list(csv.reader(capsys.readouterr().out.splitlines()))
    assert code == 0
    for row in rows[1:]:
        assert row[1] == row[3] and row[2] == row[4]


def test_compare_needs_two_dirs(small_runs, capsys):
    code = main(["compare", str(small_runs["run_a"])])
    assert code == 2
    assert "at least two" in capsys.readouterr().err


def test_compare_missing_dir(small_runs, tmp_path, capsys):
    code = main(["compare", str(small_runs["run_a"]), str(tmp_path / "ghost")])
    assert code == 1
    assert "cannot read" in capsys.readouterr().err


def test_compare_summary_not_an_object(small_runs, tmp_path, capsys):
    bad = tmp_path / "bad"
    bad.mkdir()
    (bad / "summary.json").write_text("[1, 2]\n")
    (bad / "episodes.csv").write_bytes((small_runs["run_a"] / "episodes.csv").read_bytes())
    code = main(["compare", str(small_runs["run_a"]), str(bad)])
    err = capsys.readouterr().err
    assert code == 1
    assert err == f"invalid summary in {bad / 'summary.json'}: expected a JSON object\n"


@pytest.mark.parametrize("column", ["cost", "violation"])
def test_compare_episodes_missing_column(column, small_runs, tmp_path, capsys):
    bad = tmp_path / "bad"
    bad.mkdir()
    (bad / "summary.json").write_bytes((small_runs["run_a"] / "summary.json").read_bytes())
    with open(small_runs["run_a"] / "episodes.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    keep = [i for i, name in enumerate(rows[0]) if name != column]
    with open(bad / "episodes.csv", "w", newline="") as fh:
        csv.writer(fh).writerows([[row[i] for i in keep] for row in rows])
    code = main(["compare", str(small_runs["run_a"]), str(bad)])
    err = capsys.readouterr().err
    assert code == 1
    assert err == f"invalid episodes in {bad / 'episodes.csv'}: no column(s) ['{column}']\n"


def test_compare_mismatched_tasks(small_runs, tmp_path, capsys):
    cfg = write_config(tmp_path / "landing.json", SMALL_LANDING)
    out = tmp_path / "landing_run"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    code = main(["compare", str(small_runs["run_a"]), str(out)])
    assert code == 1
    assert "mismatched tasks" in capsys.readouterr().err


# -- config (de)serialization -------------------------------------------------


@pytest.mark.parametrize("task", ["pendulum", "landing"])
def test_config_roundtrip_of_defaults(task):
    # defaults keep the pool fields empty (resolved lazily), while the
    # manifest view spells the pool out, so the roundtrip contract lives
    # at the dict level: loading a resolved view is a fixed point
    cfg = default_config(task)
    resolved = config_to_dict(cfg)
    loaded = config_from_dict(resolved)
    assert config_to_dict(loaded) == resolved
    assert config_from_dict(config_to_dict(loaded)) == loaded


def test_config_roundtrip_of_customized():
    raw = {
        "task": "pendulum",
        "beta": 0.7,
        "episodes": 4,
        "gains": {"k": 2.5, "lam": 1.5},
        "pool": {"amplitudes": [0.2, 0.4]},
        "safety": {"q_abs_max": 1.2},
        "train": {"epochs": 77, "lam": 5e-4},
    }
    cfg = config_from_dict(raw)
    assert cfg.beta == 0.7 and cfg.episodes == 4
    assert (cfg.gains.k, cfg.gains.lam) == (2.5, 1.5)
    assert cfg.amplitudes == (0.2, 0.4)
    assert cfg.q_abs_max == 1.2
    assert cfg.train.epochs == 77 and cfg.train.lam == 5e-4
    assert config_from_dict(config_to_dict(cfg)) == cfg


# the ExperimentConfig fields each nested JSON section sets
SECTION_FIELDS = {
    "gains": {"gains"},
    "plant": {"plant_pendulum", "plant_drone"},
    "ratio": {"ratio"},
    "train": {"train"},
    "gp": {"gp"},
    "pool": {"amplitudes", "rates", "hovers"},
    "safety": {"q_abs_max", "qdot_min_at_ground", "ground"},
}


def test_cli_keys_set_every_config_field():
    assert set(cli._NESTED_KEYS) == set(SECTION_FIELDS)
    from_sections = set().union(*SECTION_FIELDS.values())
    assert not from_sections & set(cli._SCALAR_KEYS)
    assert len(set(cli._SCALAR_KEYS)) == len(cli._SCALAR_KEYS)
    fields = {f.name for f in dataclasses.fields(ExperimentConfig)}
    assert set(cli._SCALAR_KEYS) | from_sections == fields


def test_pool_key_validation():
    from safeshift.explore import ConfigError

    with pytest.raises(ConfigError, match="pool"):
        config_from_dict({"task": "pendulum", "pool": {"rates": [0.5]}})
    with pytest.raises(ConfigError, match="pool"):
        config_from_dict({"task": "landing", "pool": {"amplitudes": [0.5]}})


def test_safety_key_validation():
    from safeshift.explore import ConfigError

    with pytest.raises(ConfigError, match="safety"):
        config_from_dict({"task": "pendulum", "safety": {"ground": 0.0}})
