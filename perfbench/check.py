"""Output check and behaviour fingerprint of one `safeshift run`.

`check_run` verifies a finished run from the benchmark side: all four run
files parse, `episodes.csv` has one row per episode, and an independent
re-audit of every flown rollout against the task's safety set (read from
`manifest.json`) agrees with the `violation` column and with `summary.json`
`violations`.  The exit code must be the CLI's documented one: 0, or 2 when
episodes diverged, in which case `episodes.csv`, `summary.json` `diverged`
and the flown rollouts must agree on which ones.  A diverged flight is
behaviour, like a violation: it counts in `unsafe`, not as a bad output.

`fingerprint` condenses a run into its decisions (per episode: status,
chosen params, violation) plus `sigma_max`, `realized_cost` and the final
cost, which are compared to a relative tolerance RTOL.

Check mode compares a fingerprint against a reference:

    python3 perfbench/check.py REFERENCE.json CANDIDATE.json

It prints every difference and exits 1 when any decision differs or a
value moves by more than RTOL, else 0.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

RUN_FILES = ("episodes.csv", "trajectories.csv", "summary.json", "manifest.json")
EPISODE_FIELDS = ("episode", "status", "params", "sigma_max", "realized_cost", "violation")
TRAJECTORY_FIELDS = ("episode", "t", "q_des", "qdot_des", "q_act", "qdot_act")
DECISION_KEYS = ("status", "params", "violation")
VALUE_KEYS = ("sigma_max", "realized_cost")

# The BLAS thread count alone moves the pendulum's final cost by 5e-4
# relative (-1.00229 vs -1.00180) without changing any decision.
RTOL = 1e-3


@dataclass
class RunCheck:
    problems: list = field(default_factory=list)
    episodes: int = 0
    violations: int = 0
    diverged: int = 0
    unsafe: int = 0
    final_cost: float = math.nan
    fingerprint: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.problems


def _read_csv(path: Path) -> list[dict]:
    with path.open(newline="") as fh:
        return list(csv.DictReader(fh))


def audit(states: np.ndarray, task: str, safety: dict) -> bool:
    """True when any state leaves the task's (strict) safety set."""
    q, qdot = states[:, 0], states[:, 1]
    if task == "pendulum":
        inside = np.abs(q) < safety["q_abs_max"]
    else:
        inside = (q > safety["ground"]) | (qdot > safety["qdot_min_at_ground"])
    return not bool(np.all(inside))


def check_run(out_dir: Path, exit_code: int, rollouts, episodes: int) -> RunCheck:
    """Check one finished run; `rollouts` are the flown rollouts (None if not flown)."""
    check = RunCheck()
    if exit_code not in (0, 2):
        check.problems.append(f"exit code {exit_code}")
    try:
        rows = _read_csv(out_dir / "episodes.csv")
        traj_rows = _read_csv(out_dir / "trajectories.csv")
        summary = json.loads((out_dir / "summary.json").read_text())
        manifest = json.loads((out_dir / "manifest.json").read_text())
    except (OSError, ValueError, csv.Error) as exc:
        if exit_code == 2:
            check.problems.append("exit code 2")
        check.problems.append(f"unreadable run output: {exc}")
        return check

    missing = [f for f in EPISODE_FIELDS if rows and f not in rows[0]]
    missing += [f for f in TRAJECTORY_FIELDS if traj_rows and f not in traj_rows[0]]
    if missing:
        check.problems.append(f"missing columns {missing}")
        return check
    if len(rows) != episodes or summary.get("episodes") != episodes:
        check.problems.append(
            f"expected {episodes} episodes, episodes.csv has {len(rows)}, "
            f"summary.json says {summary.get('episodes')}"
        )
    if [r["episode"] for r in rows] != [str(i) for i in range(1, len(rows) + 1)]:
        check.problems.append("episodes.csv episode numbers are not 1..n")
    if len(rollouts) != len(rows):
        check.problems.append(f"{len(rollouts)} rollouts for {len(rows)} episodes")

    flown = 0
    for row, rollout in zip(rows, rollouts):
        violated = False
        if rollout is not None:
            flown += 1
            violated = audit(rollout.states, manifest["task"], manifest["safety"])
        if (row["status"] == "diverged") != (rollout is not None and rollout.status == "diverged"):
            check.problems.append(
                f"episode {row['episode']}: status {row['status']}, flown rollout status "
                f"{rollout.status if rollout is not None else 'none'}"
            )
        check.violations += violated
        if row["violation"] != ("1" if violated else "0"):
            check.problems.append(
                f"episode {row['episode']}: violation column {row['violation']}, "
                f"re-audit says {int(violated)}"
            )
    if check.violations != summary.get("violations"):
        check.problems.append(
            f"re-audit counts {check.violations} violations, "
            f"summary.json says {summary.get('violations')}"
        )
    if flown and not traj_rows:
        check.problems.append("trajectories.csv is empty")
    diverged = sum(1 for r in rows if r["status"] == "diverged")
    if diverged != summary.get("diverged"):
        check.problems.append(
            f"episodes.csv has {diverged} diverged episodes, "
            f"summary.json says {summary.get('diverged')}"
        )
    if exit_code in (0, 2) and exit_code != (2 if diverged else 0):
        check.problems.append(f"exit code {exit_code} with {diverged} diverged episodes")

    check.episodes = len(rows)
    check.diverged = diverged
    check.unsafe = check.violations + diverged
    cost = summary.get("final_cost")
    check.final_cost = math.inf if cost is None else float(cost)
    check.fingerprint = fingerprint(rows, summary)
    return check


def fingerprint(rows: list[dict], summary: dict) -> dict:
    return {
        "rtol": RTOL,
        "final_cost": summary.get("final_cost"),
        "episodes": [
            {
                "episode": int(r["episode"]),
                "status": r["status"],
                "params": r["params"],
                "violation": int(r["violation"]),
                "sigma_max": r["sigma_max"],
                "realized_cost": r["realized_cost"],
            }
            for r in rows
        ],
    }


def decision_digest(fp: dict) -> str:
    """Short hash of the decisions alone (status, params, violation)."""
    decisions = [[e["episode"]] + [e[k] for k in DECISION_KEYS] for e in fp["episodes"]]
    return hashlib.sha256(json.dumps(decisions).encode()).hexdigest()[:16]


def _close(a, b, rtol: float) -> bool:
    if a is None or b is None:
        return a is None and b is None
    a, b = float(a), float(b)
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return a == b or math.isclose(a, b, rel_tol=rtol, abs_tol=0.0)


def compare(ref: dict, new: dict) -> list[str]:
    """Differences between two fingerprints; empty when they match."""
    rtol = ref.get("rtol", RTOL)
    diffs = []
    for key in ("workload", "seed"):
        if ref.get(key) != new.get(key):
            diffs.append(f"identity: {key} {ref.get(key)!r} -> {new.get(key)!r}")
    ref_eps, new_eps = ref["episodes"], new["episodes"]
    if len(ref_eps) != len(new_eps):
        diffs.append(f"decision: {len(ref_eps)} episodes -> {len(new_eps)}")
    for a, b in zip(ref_eps, new_eps):
        for key in DECISION_KEYS:
            if a[key] != b[key]:
                diffs.append(f"decision: episode {a['episode']} {key} {a[key]!r} -> {b[key]!r}")
        for key in VALUE_KEYS:
            if not _close(a[key], b[key], rtol):
                diffs.append(
                    f"value: episode {a['episode']} {key} {a[key]} -> {b[key]} (rtol {rtol:g})"
                )
    if not _close(ref.get("final_cost"), new.get("final_cost"), rtol):
        diffs.append(f"value: final_cost {ref.get('final_cost')} -> {new.get('final_cost')}")
    return diffs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Compare two behaviour fingerprints.")
    parser.add_argument("reference", type=Path)
    parser.add_argument("candidate", type=Path)
    args = parser.parse_args(argv)
    ref = json.loads(args.reference.read_text())
    new = json.loads(args.candidate.read_text())
    diffs = compare(ref, new)
    for line in diffs:
        print(line)
    if diffs:
        print(f"fingerprint differs from {args.reference}: {len(diffs)} difference(s)")
        return 1
    print(f"fingerprint matches {args.reference} ({len(ref['episodes'])} episodes, "
          f"rtol {ref.get('rtol', RTOL):g})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
