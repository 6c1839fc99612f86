"""Output check and fingerprint comparator."""

from __future__ import annotations

import copy
import csv
import dataclasses
import json
import shutil
from pathlib import Path

import numpy as np
import pytest

import check

REFERENCE_DIR = Path(check.__file__).resolve().parent / "reference"
REFERENCES = sorted(REFERENCE_DIR.glob("*.json"))


def test_tiny_run_passes_the_check(tiny_run):
    out, code, rollouts = tiny_run
    result = check.check_run(out, code, rollouts, episodes=3)
    assert result.ok, result.problems
    assert result.episodes == 3 and len(result.fingerprint["episodes"]) == 3


def test_check_flags_a_violation_column_the_audit_disagrees_with(tiny_run, tmp_path):
    out, code, rollouts = tiny_run
    tampered = tmp_path / "run"
    shutil.copytree(out, tampered)
    with (tampered / "episodes.csv").open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    rows[1]["violation"] = "1"
    with (tampered / "episodes.csv").open("w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]), lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
    result = check.check_run(tampered, code, rollouts, episodes=3)
    assert any("episode 2: violation column 1, re-audit says 0" in p for p in result.problems)


@pytest.mark.parametrize("code", [1, 2])
def test_check_flags_exit_code_and_missing_files(tmp_path, code):
    result = check.check_run(tmp_path, code, [], episodes=3)
    assert not result.ok
    assert result.problems[0] == f"exit code {code}"
    assert "unreadable run output" in result.problems[1]


def test_check_flags_exit_code_2_without_a_diverged_episode(tiny_run):
    out, _, rollouts = tiny_run
    result = check.check_run(out, 2, rollouts, episodes=3)
    assert result.problems == ["exit code 2 with 0 diverged episodes"]


def _diverge_episode_2(out, rollouts, tmp_path, summary_count=1):
    """A copy of the run in which episode 2 is recorded as diverged."""
    tampered = tmp_path / "run"
    shutil.copytree(out, tampered)
    with (tampered / "episodes.csv").open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    rows[1]["status"] = "diverged"
    with (tampered / "episodes.csv").open("w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]), lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
    summary = json.loads((tampered / "summary.json").read_text())
    summary["diverged"] = summary_count
    (tampered / "summary.json").write_text(json.dumps(summary))
    rollouts = list(rollouts)
    rollouts[1] = dataclasses.replace(rollouts[1], status="diverged")
    return tampered, rollouts


def test_a_diverged_run_that_exits_2_passes_and_counts_as_unsafe(tiny_run, tmp_path):
    out, _, rollouts = tiny_run
    tampered, diverged_rollouts = _diverge_episode_2(out, rollouts, tmp_path)
    result = check.check_run(tampered, 2, diverged_rollouts, episodes=3)
    assert result.ok, result.problems
    assert (result.diverged, result.unsafe) == (1, 1)

    assert check.check_run(tampered, 0, diverged_rollouts, episodes=3).problems == [
        "exit code 0 with 1 diverged episodes"
    ]
    assert check.check_run(tampered, 2, rollouts, episodes=3).problems == [
        "episode 2: status diverged, flown rollout status ok"
    ]


def test_check_flags_a_diverged_count_the_summary_disagrees_with(tiny_run, tmp_path):
    out, _, rollouts = tiny_run
    tampered, diverged_rollouts = _diverge_episode_2(out, rollouts, tmp_path, summary_count=0)
    result = check.check_run(tampered, 2, diverged_rollouts, episodes=3)
    assert result.problems == ["episodes.csv has 1 diverged episodes, summary.json says 0"]


def test_check_flags_a_short_run(tiny_run):
    out, code, rollouts = tiny_run
    result = check.check_run(out, code, rollouts, episodes=15)
    assert any("expected 15 episodes" in p for p in result.problems)


def test_audit_is_strict_like_the_safety_sets():
    box = {"q_abs_max": 1.5}
    assert not check.audit(np.array([[1.49, 0.0], [-1.49, 3.0]]), "pendulum", box)
    assert check.audit(np.array([[0.0, 0.0], [-1.5, 0.0]]), "pendulum", box)
    ground = {"ground": 0.0, "qdot_min_at_ground": -1.0}
    assert not check.audit(np.array([[0.5, -3.0], [0.0, -0.9]]), "landing", ground)
    assert check.audit(np.array([[0.5, -3.0], [0.0, -1.0]]), "landing", ground)


@pytest.mark.parametrize("path", REFERENCES, ids=lambda p: p.stem)
def test_unchanged_reference_matches(path):
    ref = json.loads(path.read_text())
    assert check.compare(ref, copy.deepcopy(ref)) == []


@pytest.mark.parametrize("path", REFERENCES, ids=lambda p: p.stem)
def test_one_changed_choice_is_flagged(path, tmp_path):
    ref = json.loads(path.read_text())
    new = copy.deepcopy(ref)
    flown = next(e for e in new["episodes"] if e["params"])
    flown["params"] += "0"
    diffs = check.compare(ref, new)
    assert len(diffs) == 1 and diffs[0].startswith(f"decision: episode {flown['episode']} params")

    (tmp_path / "new.json").write_text(json.dumps(new))
    assert check.main([str(path), str(tmp_path / "new.json")]) == 1
    (tmp_path / "same.json").write_text(json.dumps(ref))
    assert check.main([str(path), str(tmp_path / "same.json")]) == 0


def test_values_compare_to_the_stated_tolerance(tiny_run):
    out, code, rollouts = tiny_run
    ref = check.check_run(out, code, rollouts, episodes=3).fingerprint
    near, far = copy.deepcopy(ref), copy.deepcopy(ref)
    sigma = float(ref["episodes"][0]["sigma_max"])
    near["episodes"][0]["sigma_max"] = repr(sigma * (1 + check.RTOL / 2))
    far["episodes"][0]["sigma_max"] = repr(sigma * (1 + check.RTOL * 2))
    assert check.compare(ref, near) == []
    assert [d.split(" sigma_max")[0] for d in check.compare(ref, far)] == ["value: episode 1"]


def test_there_is_a_reference_per_workload():
    import run

    assert [p.stem for p in REFERENCES] == sorted(f"{w}-seed0" for w in run.WORKLOADS)
