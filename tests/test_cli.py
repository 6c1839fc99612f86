"""CLI contract: exit codes, output files, reproducibility, compare."""

from __future__ import annotations

import csv
import dataclasses
import json
import math
import re
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from safeshift import cli
from safeshift import robust_regression as rr
from safeshift.cli import config_from_dict, config_to_dict, main
from safeshift.controller import ControllerGains
from safeshift.core import Dataset, LandingPool
from safeshift.dynamics import SimulationDiverged
from safeshift.explore import ExperimentConfig, default_config

SMALL_PENDULUM = {
    "task": "pendulum",
    "episodes": 2,
    "horizon": 2.0,
    "pool": {"amplitudes": [0.3, 0.5]},
    "train": {"epochs": 40},
    "first_fit_epochs": 60,
}

SMALL_LANDING = {
    "task": "landing",
    "episodes": 1,
    "horizon": 2.0,
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
    assert rows[0] == [
        "episode",
        "status",
        "params",
        "cost",
        "realized_cost",
        "sigma_max",
        "eps_m",
        "tube_radius",
        "n_certified",
        "n_train",
        "rms_tracking",
        "rms_residual_error",
        "w_hat",
        "moment_residual",
        "violation",
    ]
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
    assert "gains" in manifest and "gp" in manifest


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
    # not JSON, not UTF-8, and nested deeper than the parser recurses: each
    # is one line naming the file, before the output directory exists
    deep = b"[" * 100_000 + b"]" * 100_000
    for text in (b"{not json", b"\xff{", deep):
        cfg = tmp_path / "bad.json"
        cfg.write_bytes(text)
        code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith(f"config: invalid JSON in {cfg}: ")
        assert err.count("\n") == 1
        assert not (tmp_path / "o").exists()


def test_unknown_field_named_in_diagnostic(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.json", {"task": "pendulum", "episods": 3})
    code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == 1
    assert "episods" in capsys.readouterr().err


# settings that became module constants (among them the ratio clip and
# the zero prior mean), the GP kernel, which the learner kind sets, the
# plant, which the task fixes, and the output count (the residual is one
# output): a config that still sets one is rejected like any other
# unknown key
REMOVED_KEYS = [
    "sim_dt", "traj_dt", "sample_hz", "max_train_points", "kde_src_max", "kde_trg_max",
    "w_max", "d_hat_hold_steps", "mu0", "output_dim",
]
REMOVED_TRAIN_KEYS = ["seed", "lr", "clip_norm", "theta_y_floor", "theta_y_lr_mult"]


@pytest.mark.parametrize(
    "extra, message",
    [({key: 1}, f"config: unknown field(s) ['{key}']") for key in REMOVED_KEYS]
    + [({"train": {key: 1}}, f"train: unknown key(s) ['{key}']") for key in REMOVED_TRAIN_KEYS]
    + [({"gp": {"kernel": "matern52"}}, "gp: unknown key(s) ['kernel']")]
    + [({"ratio": {"r_lo": 0.1}}, "config: unknown field(s) ['ratio']")]
    + [({"plant": {"m": 1.0}}, "config: unknown field(s) ['plant']")],
    ids=REMOVED_KEYS
    + [f"train.{key}" for key in REMOVED_TRAIN_KEYS]
    + ["gp.kernel", "ratio", "plant"],
)
def test_removed_key_rejected(extra, message, tmp_path, capsys):
    with pytest.raises(cli.ConfigError, match=re.escape(message)):
        config_from_dict({"task": "pendulum", **extra})
    cfg = write_config(tmp_path / "cfg.json", {"task": "pendulum", **extra})
    code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == 1
    assert capsys.readouterr().err == f"invalid configuration: {message}\n"
    assert not (tmp_path / "o").exists()


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


@pytest.mark.parametrize("key", ["gains", "train", "gp", "pool", "safety"])
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
        ({"first_fit_epochs": 1.5}, "first_fit_epochs: expected int"),
        ({"beta": "0.5"}, "beta: expected float"),
        ({"horizon": True}, "horizon: expected float"),
        ({"train": {"epochs": 1.5}}, "train: epochs: expected int"),
        ({"train": {"lam": "fast"}}, "train: lam: expected float"),
        ({"gp": {"ell": "wide"}}, "gp: ell: expected float"),
        ({"task": "landing", "pool": {"hovers": [1.5]}}, "pool: hover altitude"),
        ({"beta": math.nan}, "beta: expected a finite number"),
        ({"horizon": math.inf}, "horizon: expected a finite number"),
        ({"sigma0_sq": -math.inf}, "sigma0_sq: expected a finite number"),
        ({"train": {"lam": math.nan}}, "train: lam: expected a finite number"),
        ({"pool": {"amplitudes": [0.3, math.inf]}}, "pool: amplitudes: expected a finite"),
        ({"seed": -1}, "seed: must be >= 0"),
        ({"safety": {"q_abs_max": True}}, "safety: q_abs_max: expected float"),
        ({"gains": {"k": True, "lam": 2.0}}, "gains: k: expected float"),
        ({"gains": {"k": "1", "lam": 2.0}}, "gains: k: expected float"),
        ({"horizon": 2.005}, "horizon: must be a multiple of the grid step 0.01"),
        ({"pool": {"amplitudes": []}}, "pool: amplitudes must not be empty"),
        ({"horizon": 1e308}, "horizon: too long for the grid step 0.01"),
        ({"task": "landing", "pool": {"rates": [1e160]}}, "pool: descent rate 1e+160 too large"),
        ({"task": "landing", "pool": {"rates": [1e154]}}, "pool: descent rate 1e+154 too large"),
        ({"gains": {"lam": 1e-155}}, "gains: the tube gain gamma is not positive"),
        ({"gains": {"k": 5e-324}}, "gains: the tube gain gamma is not"),
        ({"gains": {"k": 1e-308, "lam": 1e-3}}, "gains: the tube gain gamma is not"),
        # the start altitude has already reached such a ground
        ({"task": "landing", "pool": {"rates": [1.0]}, "safety": {"ground": 5.0}}, "safety: ground"),
        ({"task": "landing", "pool": {"rates": [1.0]}, "safety": {"ground": 1.495}}, "safety: ground"),
        # integers beyond the float range
        ({"beta": 10**400}, "beta: expected a finite number"),
        ({"safety": {"q_abs_max": 10**400}}, "safety: q_abs_max: expected a finite number"),
        ({"pool": {"amplitudes": [10**400]}}, "pool: amplitudes: expected a finite number"),
        # more grid steps than an array index holds, though 1e19 * 0.01 rounds back to 1e17
        ({"horizon": 1e17}, "horizon: too long for the grid step 0.01"),
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
    assert not (tmp_path / "o").exists()


def test_config_and_old_manifest_setting_cert_stride_fail_loudly(tmp_path, capsys):
    # the certificate reads every grid row, so the row stride it once took
    # is no setting: a config, or a manifest written while it was one,
    # that still sets it is rejected like any other unknown key
    manifest = tmp_path / "manifest.json"
    cli._write_manifest(manifest, SimpleNamespace(config=default_config("landing")))
    old_manifest = {**json.loads(manifest.read_text()), "cert_stride": 6}
    for name, payload in [("cfg.json", {**SMALL_PENDULUM, "cert_stride": 4}), ("manifest.json", old_manifest)]:
        path = write_config(tmp_path / name, payload)
        out = tmp_path / f"out_{name}"
        assert main(["run", "--config", str(path), "--out", str(out)]) == 1
        assert capsys.readouterr().err == "invalid configuration: config: unknown field(s) ['cert_stride']\n"
        assert not out.exists()


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


def test_unwritable_output_file_names_path(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.json", SMALL_PENDULUM)
    out = tmp_path / "out"
    (out / "episodes.csv").mkdir(parents=True)
    code = main(["run", "--config", str(cfg), "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith(f"output: cannot write {out / 'episodes.csv'}: ")
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


def test_training_divergence_exit_code(tmp_path, capsys, monkeypatch):
    # the first fit sees one non-finite target, written in after Dataset's
    # check, so its first step's gradient norm is not finite
    fit = rr.fit

    def fit_on_a_nan_target(dataset, *args, **kwargs):
        targets = dataset.targets.copy()
        bad = Dataset(dataset.inputs, targets)
        targets[0] = math.nan
        return fit(bad, *args, **kwargs)

    monkeypatch.setattr(rr, "fit", fit_on_a_nan_target)
    cfg = write_config(tmp_path / "cfg.json", SMALL_PENDULUM)
    code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == 2
    assert capsys.readouterr().err == "runtime failure: non-finite gradient norm at epoch 0\n"


def test_flight_that_blows_up_within_a_step_ends_diverged(tmp_path, capsys):
    # K = 1e300 sends a stage state of the first RK4 step to infinity, where
    # the pendulum's gravity takes math.sin(inf)
    payload = {"task": "pendulum", "gains": {"k": 1e300}, "episodes": 1, "horizon": 1.0}
    cfg = write_config(tmp_path / "cfg.json", payload)
    out = tmp_path / "o"
    code = main(["run", "--config", str(cfg), "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err == "runtime failure: 1 episode(s) diverged\n"
    for name in ("episodes.csv", "trajectories.csv", "summary.json", "manifest.json"):
        assert (out / name).is_file()
    with open(out / "episodes.csv", newline="") as fh:
        assert [row["status"] for row in csv.DictReader(fh)] == ["diverged"]
    assert json.loads((out / "summary.json").read_text())["diverged"] == 1


def test_landing_ground_just_below_the_start_runs(tmp_path):
    payload = {"task": "landing", "episodes": 1, "horizon": 2.0, "safety": {"ground": 1.48}}
    cfg = write_config(tmp_path / "cfg.json", {**payload, "pool": {"rates": [1.0]}})
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0


def _assert_one_runtime_failure_line(payload, model, tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.json", payload)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy warning would be a second line
        code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "o"), "--model", model])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("runtime failure: ") and err.count("\n") == 1


def test_non_finite_gp_kernel_is_a_runtime_failure(tmp_path, capsys):
    # 2 ell^2 underflows to 0, so the kernel matrix is NaN on its diagonal
    payload = {**SMALL_PENDULUM, "gp": {"ell": 1e-170}}
    _assert_one_runtime_failure_line(payload, "gp_rbf", tmp_path, capsys)


def test_unfactorizable_gp_kernel_is_a_runtime_failure(tmp_path, capsys, monkeypatch):
    def never(a):
        raise np.linalg.LinAlgError("not positive definite")

    monkeypatch.setattr(np.linalg, "cholesky", never)
    _assert_one_runtime_failure_line(SMALL_PENDULUM, "gp_rbf", tmp_path, capsys)


@pytest.mark.parametrize("bad", ["huge", "inf"])
def test_diverging_robust_fit_is_a_runtime_failure(bad, tmp_path, capsys, monkeypatch):
    # targets scaled by 1e300 overflow in the first step, and one infinite
    # target (written in after Dataset's check) makes inf - inf there: the
    # first gradient norm is not finite, and no numpy warning precedes
    # the diagnostic
    fit = rr.fit

    def fit_on_bad_targets(dataset, *args, **kwargs):
        targets = dataset.targets * 1e300 if bad == "huge" else dataset.targets.copy()
        diverging = Dataset(dataset.inputs, targets)
        if bad == "inf":
            targets[0] = math.inf
        return fit(diverging, *args, **kwargs)

    monkeypatch.setattr(rr, "fit", fit_on_bad_targets)
    _assert_one_runtime_failure_line(SMALL_PENDULUM, "robust", tmp_path, capsys)


# The size is beyond a 47-bit address space, so numpy refuses it at once
# without touching memory: a 1e14-point grid (728 TiB).
@pytest.mark.parametrize("update", [{"episodes": 1, "horizon": 1e12}])
def test_unallocatable_size_is_a_runtime_failure(update, tmp_path, capsys):
    _assert_one_runtime_failure_line({**SMALL_PENDULUM, **update}, "robust", tmp_path, capsys)


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


@pytest.mark.parametrize("cost", ["fast", [1.0], True])
def test_compare_final_cost_not_a_number(cost, small_runs, tmp_path, capsys):
    bad = tmp_path / "bad"
    bad.mkdir()
    summary = json.loads((small_runs["run_a"] / "summary.json").read_text())
    (bad / "summary.json").write_text(json.dumps({**summary, "final_cost": cost}))
    (bad / "episodes.csv").write_bytes((small_runs["run_a"] / "episodes.csv").read_bytes())
    code = main(["compare", str(small_runs["run_a"]), str(bad)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    expected = f"invalid summary in {bad / 'summary.json'}: final_cost: expected a number\n"
    assert captured.err == expected


def test_compare_final_cost_too_large_for_a_float(small_runs, tmp_path, capsys):
    # a JSON integer parses exactly, so 10**400 only fails on conversion
    bad = tmp_path / "bad"
    bad.mkdir()
    summary = json.loads((small_runs["run_a"] / "summary.json").read_text())
    (bad / "summary.json").write_text(json.dumps({**summary, "final_cost": 10**400}))
    (bad / "episodes.csv").write_bytes((small_runs["run_a"] / "episodes.csv").read_bytes())
    code = main(["compare", str(small_runs["run_a"]), str(bad)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith(f"invalid summary in {bad / 'summary.json'}: final_cost: ")


@pytest.mark.parametrize("key", ["model", "task"])
@pytest.mark.parametrize("value", [["robust"], 3, None])
def test_compare_model_or_task_not_a_string(key, value, small_runs, tmp_path, capsys):
    bad = tmp_path / "bad"
    bad.mkdir()
    summary = json.loads((small_runs["run_a"] / "summary.json").read_text())
    (bad / "summary.json").write_text(json.dumps({**summary, key: value}))
    (bad / "episodes.csv").write_bytes((small_runs["run_a"] / "episodes.csv").read_bytes())
    code = main(["compare", str(small_runs["run_a"]), str(bad)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == f"invalid summary in {bad / 'summary.json'}: {key}: expected a string\n"


@pytest.mark.parametrize(
    "name, text, problem",
    [
        ("summary.json", b"\xff{", "invalid JSON"),
        ("summary.json", b"[" * 100_000 + b"]" * 100_000, "invalid JSON"),
        ("episodes.csv", b"cost,violation\n\xff,0\n", "invalid episodes"),
        ("episodes.csv", b"cost,violation\n" + b"9" * 200_000 + b",0\n", "invalid episodes"),
        ("episodes.csv", b"episode,cost,violation\n1,0.5\n", "invalid episodes"),
        ("episodes.csv", b"episode,cost,violation\n1,0.5,0,7\n", "invalid episodes"),
    ],
    ids=[
        "summary-not-utf8",
        "summary-too-deep",
        "episodes-not-utf8",
        "episodes-huge-field",
        "episodes-short-row",
        "episodes-long-row",
    ],
)
def test_compare_undecodable_run_file(name, text, problem, small_runs, tmp_path, capsys):
    bad = tmp_path / "bad"
    bad.mkdir()
    for other in ("summary.json", "episodes.csv"):
        (bad / other).write_bytes((small_runs["run_a"] / other).read_bytes())
    (bad / name).write_bytes(text)
    code = main(["compare", str(small_runs["run_a"]), str(bad)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith(f"{problem} in {bad / name}: ")
    assert captured.err.count("\n") == 1


def test_compare_null_final_cost_is_inf(small_runs, tmp_path, capsys):
    unfinished = tmp_path / "unfinished"
    unfinished.mkdir()
    summary = json.loads((small_runs["run_a"] / "summary.json").read_text())
    (unfinished / "summary.json").write_text(json.dumps({**summary, "final_cost": None}))
    (unfinished / "episodes.csv").write_bytes(
        (small_runs["run_a"] / "episodes.csv").read_bytes()
    )
    code = main(["compare", str(unfinished), str(unfinished)])
    assert code == 0
    assert "over 2 run(s): inf\n" in capsys.readouterr().err


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
    cfg = default_config(task)
    assert config_from_dict(config_to_dict(cfg)) == cfg


# the ExperimentConfig fields each task calibrates
CALIBRATED = (
    "candidates", "safety", "beta", "sigma0_sq", "gains", "horizon", "train",
    "first_fit_epochs",
)


@pytest.mark.parametrize("task", ["pendulum", "landing"])
def test_task_defaults_have_one_source(task):
    # a config built in Python and one the CLI reads are the same config,
    # because the calibrated fields have no class default to disagree with
    assert config_from_dict({"task": task}) == default_config(task)
    fields = {f.name: f for f in dataclasses.fields(ExperimentConfig)}
    for name in CALIBRATED:
        assert fields[name].default is dataclasses.MISSING, name
        assert fields[name].default_factory is dataclasses.MISSING, name


@pytest.mark.parametrize(
    "task, model_kind",
    [("pendulum", "robust"), ("landing", "robust"), ("landing", "gp_rbf"),
     ("landing", "gp_matern")],
)
def test_manifest_loads_back_to_the_config_that_ran(task, model_kind, tmp_path):
    cfg = dataclasses.replace(default_config(task), model_kind=model_kind)
    cli._write_manifest(tmp_path / "manifest.json", SimpleNamespace(config=cfg))
    assert config_from_dict(json.loads((tmp_path / "manifest.json").read_text())) == cfg


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
    assert cfg.candidates.amplitudes == (0.2, 0.4)
    assert cfg.safety.q_abs_max == 1.2
    assert cfg.train.epochs == 77 and cfg.train.lam == 5e-4
    assert config_from_dict(config_to_dict(cfg)) == cfg


def test_partial_section_keeps_task_defaults():
    cfg = config_from_dict({"task": "pendulum", "gains": {"k": 2.0}})
    assert cfg.gains == ControllerGains(2.0, default_config("pendulum").gains.lam)
    cfg = config_from_dict({"task": "landing", "pool": {"rates": [0.5]}})
    assert cfg.candidates == LandingPool(rates=(0.5,), hovers=LandingPool().hovers)


def test_cli_keys_set_every_config_field():
    # one JSON key per ExperimentConfig field, each section included
    fields = [f.name for f in dataclasses.fields(ExperimentConfig)]
    assert sorted(cli._KEYS) == sorted(fields)
    assert len(set(cli._KEYS.values())) == len(fields)
    for task in ("pendulum", "landing"):
        assert set(config_to_dict(default_config(task))) == set(cli._KEYS.values())


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
