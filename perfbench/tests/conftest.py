"""Self-tests of the benchmark: `python3 -m pytest -q perfbench/tests` from the repo root."""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH_DIR), str(BENCH_DIR.parent / "src")]

# three short pendulum episodes: a full run of the loop in about a second
TINY_CONFIG = {
    "task": "pendulum",
    "episodes": 3,
    "horizon": 2.0,
    "first_fit_epochs": 20,
    "train": {"epochs": 10},
}


@pytest.fixture(scope="session")
def tiny_config(tmp_path_factory) -> Path:
    path = tmp_path_factory.mktemp("config") / "tiny.json"
    path.write_text(json.dumps(TINY_CONFIG))
    return path


@pytest.fixture(scope="session")
def tiny_run(tiny_config, tmp_path_factory):
    """(out_dir, exit code, rollouts) of one untraced tiny run."""
    import run
    from safeshift import cli

    out = tmp_path_factory.mktemp("tiny") / "run"
    _, code, rollouts = run.run_once(cli, ["run", "--config", str(tiny_config),
                                           "--out", str(out)], out)
    return out, code, rollouts
