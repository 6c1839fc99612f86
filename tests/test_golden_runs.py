"""Byte-for-byte guard for changes that must not move a float.

Four short seed-0 runs, 3 episodes each, of pendulum, landing, and landing
with the RBF and the Matern GP must reproduce every output file committed
under tests/golden/: `episodes.csv`, `summary.json` and `manifest.json`
byte for byte, and `trajectories.csv` (about 400 KB for the pendulum) by
its SHA-256 digest in `trajectories.csv.sha256`.  Every value is
written at 17 significant digits, so a one-ulp drift upstream shows as a
changed value even where it changes no decision.

The files hold only under the conditions they were made in: the same
numpy and BLAS build, and 1 BLAS thread, which the child interpreters
pin: the thread count alone moves the low bits of the GP runs.  The
robust runs are made a second time at 2 BLAS threads and must reproduce
the same files.  A change that alters decisions on purpose regenerates
them with

    python tests/test_golden_runs.py

and gives the reason in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"
FILES = ("episodes.csv", "summary.json", "manifest.json")
# compared by the SHA-256 digest kept in <file>.sha256
DIGESTED = ("trajectories.csv",)
# run name -> (task, extra CLI arguments)
RUNS = {
    "pendulum": ("pendulum", []),
    "landing": ("landing", []),
    "landing_gp_rbf": ("landing", ["--model", "gp_rbf"]),
    "landing_gp_matern": ("landing", ["--model", "gp_matern"]),
}
# two child interpreters run concurrently, each making its runs in turn
CHILDREN = (("pendulum", "landing_gp_matern"), ("landing", "landing_gp_rbf"))
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# the runs whose files do not depend on the BLAS thread count
ROBUST_RUNS = ("pendulum", "landing")


def _run_all(out_root: Path, names=tuple(RUNS), threads: int = 1) -> None:
    """Make the named runs of RUNS into out_root/<name> at `threads` BLAS threads."""
    blas = {var: str(threads) for var in BLAS_THREAD_VARS}
    children = []
    for group in CHILDREN:
        argvs = []
        for name in (name for name in group if name in names):
            task, extra = RUNS[name]
            cfg = out_root / f"{name}.json"
            cfg.write_text(json.dumps({"task": task, "episodes": 3, "seed": 0}))
            argvs.append(["run", "--config", str(cfg), "--out", str(out_root / name), *extra])
        code = (
            f"import sys; sys.path.insert(0, {str(ROOT / 'src')!r})\n"
            "from safeshift.cli import main\n"
            f"for argv in {argvs!r}:\n"
            "    if main(argv) != 0:\n"
            "        sys.exit(1)\n"
        )
        children.append(subprocess.Popen(
            [sys.executable, "-c", code], env={**os.environ, **blas},
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        ))
    try:
        for child in children:
            _, err = child.communicate(timeout=300)
            assert child.returncode == 0, err
    finally:
        for child in children:
            child.kill()


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest() + "\n"


def _changed(out_root: Path, names) -> list[str]:
    """The files of the named runs in out_root that differ from tests/golden/."""
    return [
        f"{name}/{file}"
        for name in names
        for file in FILES
        if (out_root / name / file).read_bytes() != (GOLDEN / name / file).read_bytes()
    ] + [
        f"{name}/{file}"
        for name in names
        for file in DIGESTED
        if _digest(out_root / name / file) != (GOLDEN / name / f"{file}.sha256").read_text()
    ]


def test_seed0_runs_match_the_committed_outputs(tmp_path):
    _run_all(tmp_path)
    assert _changed(tmp_path, RUNS) == []


def test_robust_runs_at_two_blas_threads_match_the_committed_outputs(tmp_path):
    _run_all(tmp_path, ROBUST_RUNS, threads=2)
    assert _changed(tmp_path, ROBUST_RUNS) == []


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        _run_all(Path(tmp))
        for name in RUNS:
            (GOLDEN / name).mkdir(parents=True, exist_ok=True)
            for file in FILES:
                shutil.copyfile(Path(tmp) / name / file, GOLDEN / name / file)
            for file in DIGESTED:
                (GOLDEN / name / f"{file}.sha256").write_text(_digest(Path(tmp) / name / file))
