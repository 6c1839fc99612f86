"""Command-line front end: seeded experiment runs and cross-run comparison.

`safeshift run --config cfg.json --seed 3 --out results/run3 --model robust`
writes episodes.csv, trajectories.csv, summary.json, and manifest.json into
the output directory.  Exit codes: 0 on success, 1 on a configuration
problem (a one-line diagnostic names the offending field) or an output
directory or file that cannot be created or written (the diagnostic,
`output: cannot create <dir>: ...` or `output: cannot write <file>: ...`,
names the path), 2 on a runtime failure such as a diverged rollout or an
array too large to allocate (an absurd `horizon`).

A config is a JSON object with one key per `ExperimentConfig` field (the
`candidates` field's key is `pool`).  `task` is required and picks the
defaults, `default_config(task)`.  A number or string replaces its field;
a section (`gains`, `pool`, `safety`, `train`, `gp`) replaces only
the keys it gives in the task's default, so `{"gains": {"k": 2.0}}`
keeps the default `lam`.  manifest.json holds the resolved config in the
same form and loads back to the config that ran.

`safeshift compare results/run1 results/run2 ...` emits a per-episode CSV
(cost and violation columns aligned across runs) on stdout and per-model
medians on stderr.  All runs must be of the same task; a run file that is
missing or malformed exits 1 with one line naming it.

All emitted numbers go through one formatter (%.17g) and the experiment
itself is deterministic, so rerunning with the same config and seed on
the same numpy and BLAS build reproduces the output files byte for byte.
For the GP models the BLAS thread count must match too: landing runs with
gp_rbf at seeds 0 and 1000, at 1 and 2 OpenBLAS threads (OpenBLAS 0.3.31,
2-CPU x86-64), flew the same candidates, but episodes.csv, trajectories.csv
and summary.json differ in low bits.  Robust runs of both tasks at the same
seeds wrote byte-identical files at 1 and 2 threads, and
tests/test_golden_runs.py checks the seed-0 ones at 2 threads.  The
densities and ratios use no BLAS call.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import sys
from pathlib import Path

import numpy as np

from .core import EpisodeRecord
from .dynamics import SimulationDiverged
from .explore import (
    MODEL_KINDS,
    SAMPLE_STRIDE,
    ConfigError,
    ExperimentConfig,
    default_config,
    run_experiment,
)
from .gp_baseline import HyperparameterError
from .robust_regression import TrainingDiverged

__all__ = ["main", "config_from_dict", "config_to_dict", "run_cmd", "compare_cmd"]


def _fmt(value) -> str:
    if isinstance(value, dict):
        return ";".join(f"{k}={_fmt(v)}" for k, v in sorted(value.items()))
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    return str(value)


# -- config (de)serialization ------------------------------------------------

# JSON key of each ExperimentConfig field: its name, except the pool's
# (`ExperimentConfig.pool()` builds the candidate trajectories)
_KEYS = {f.name: f.name for f in dataclasses.fields(ExperimentConfig)} | {"candidates": "pool"}

# JSON value types accepted for a field of the named type
_KINDS = {"int": (int,), "float": (int, float), "str": (str,)}


def _fits(value, kind: str) -> bool:
    return not isinstance(value, bool) and isinstance(value, _KINDS[kind])


def _finite(name: str, value) -> float:
    try:
        value = float(value)
    except OverflowError:  # an integer beyond the float range
        value = math.inf
    if not math.isfinite(value):
        raise ConfigError(f"{name}: expected a finite number")
    return value


def _checked(name: str, value, kind: str):
    """value, if its JSON type fits the field's type name.

    A number fills a `float` field and a list (or tuple) of numbers a
    `tuple[float, ...]` field, as finite floats.
    """
    if kind == "tuple[float, ...]":
        if not (isinstance(value, (list, tuple)) and all(_fits(v, "float") for v in value)):
            raise ConfigError(f"{name}: expected a list of numbers")
        return tuple(_finite(name, v) for v in value)
    if kind in _KINDS and not _fits(value, kind):
        raise ConfigError(f"{name}: expected {kind}")
    return _finite(name, value) if kind == "float" else value


def _section(key: str, default, payload):
    """`default` with the keys of a JSON section replaced, each type-checked."""
    if not isinstance(payload, dict):
        raise ConfigError(f"{key}: expected a JSON object")
    types = {f.name: f.type for f in dataclasses.fields(default)}
    unknown = set(payload) - set(types)
    if unknown:
        raise ConfigError(f"{key}: unknown key(s) {sorted(unknown)}")
    values = {name: _checked(f"{key}: {name}", v, types[name]) for name, v in payload.items()}
    try:
        return dataclasses.replace(default, **values)
    except ValueError as exc:
        raise ConfigError(f"{key}: {exc}") from exc


def config_from_dict(raw: dict) -> ExperimentConfig:
    """Build a fully resolved config from a JSON payload.

    The only required key is `task`; it picks the defaults, which are
    `default_config(task)`.  Each other key sets one config field: a
    number or string is type-checked against the field, and a section
    (an object such as `gains` or `pool`) is the task default
    with the keys it gives replaced, so a partial section keeps the rest.
    Unknown keys are rejected so typos fail loudly instead of silently
    running defaults.
    """
    if not isinstance(raw, dict):
        raise ConfigError("config: expected a JSON object")
    if "task" not in raw:
        raise ConfigError("task: missing required field")
    unknown = set(raw) - set(_KEYS.values())
    if unknown:
        raise ConfigError(f"config: unknown field(s) {sorted(unknown)}")

    base = default_config(_checked("task", raw["task"], "str"))
    updates = {}
    for f in dataclasses.fields(base):
        key = _KEYS[f.name]
        if key not in raw:
            continue
        default = getattr(base, f.name)
        if dataclasses.is_dataclass(default):
            updates[f.name] = _section(key, default, raw[key])
        else:
            updates[f.name] = _checked(key, raw[key], f.type)
    return dataclasses.replace(base, **updates)


def config_to_dict(config: ExperimentConfig) -> dict:
    """Resolved, JSON-ready view of a config (defaults made explicit)."""
    return {_KEYS[name]: value for name, value in dataclasses.asdict(config).items()}


# -- output writers ----------------------------------------------------------


def _write_episodes_csv(path: Path, result) -> None:
    """One column per `EpisodeRecord` field, in field order."""
    names = [f.name for f in dataclasses.fields(EpisodeRecord)]
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(names)
        for rec in result.records:
            writer.writerow([_fmt(getattr(rec, name)) for name in names])


def _write_trajectories_csv(path: Path, result) -> None:
    """Desired vs actual states the loop recorded plus the certified tube,
    sampled at the collection rate (every `SAMPLE_STRIDE` steps)."""
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(
            ["episode", "t", "q_des", "qdot_des", "q_act", "qdot_act", "tube_lo", "tube_hi"]
        )
        for rec in result.records:
            rollout, rho = rec.rollout, rec.tube_radius
            if rollout is None:
                continue
            for i in range(0, len(rollout.times), SAMPLE_STRIDE):
                q_g, qdot_g = rollout.desired[i].tolist()
                q, qdot = rollout.states[i].tolist()
                values = (rollout.times[i], q_g, qdot_g, q, qdot, q_g - rho, q_g + rho)
                writer.writerow([rec.episode] + [_fmt(v) for v in values])


def _jsonable(value):
    if isinstance(value, (float, np.floating)):
        v = float(value)
        return v if math.isfinite(v) else None
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def _write_summary(path: Path, result) -> None:
    records, tracked = result.records, result.tracked
    summary = {
        "task": result.config.task,
        "model": result.config.model_kind,
        "seed": result.config.seed,
        "episodes": len(records),
        "tracked_episodes": len(tracked),
        "no_safe_candidates": sum(1 for r in records if r.status == "no_safe_candidate"),
        "diverged": result.diverged,
        "violations": result.violations,
        "final_cost": result.final_cost,
        "first_rms_tracking": tracked[0].rms_tracking if tracked else math.nan,
        "final_rms_tracking": tracked[-1].rms_tracking if tracked else math.nan,
        "max_w_hat": max((r.w_hat for r in tracked), default=math.nan),
        "final_sigma_max": records[-1].sigma_max if records else math.nan,
    }
    path.write_text(json.dumps(_jsonable(summary), indent=2, sort_keys=True) + "\n")


def _write_manifest(path: Path, result) -> None:
    payload = _jsonable(config_to_dict(result.config))
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


# -- subcommands ---------------------------------------------------------------


def run_cmd(args) -> int:
    try:
        raw = json.loads(Path(args.config).read_text(encoding="utf-8"))
    except OSError as exc:
        print(f"config: cannot read {args.config}: {exc}", file=sys.stderr)
        return 1
    except (ValueError, RecursionError) as exc:
        # not JSON, not UTF-8, or nested deeper than the parser recurses
        print(f"config: invalid JSON in {args.config}: {exc}", file=sys.stderr)
        return 1

    try:
        config = config_from_dict(raw)
        overrides: dict = {}
        if args.seed is not None:
            overrides["seed"] = args.seed
        if args.model is not None:
            overrides["model_kind"] = args.model
        if overrides:
            config = dataclasses.replace(config, **overrides)
    except (ConfigError, ValueError) as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return 1

    out_dir = Path(args.out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"output: cannot create {out_dir}: {exc}", file=sys.stderr)
        return 1

    try:
        result = run_experiment(config)
    except (SimulationDiverged, TrainingDiverged, HyperparameterError, MemoryError) as exc:
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 2

    for name, write in (
        ("episodes.csv", _write_episodes_csv),
        ("trajectories.csv", _write_trajectories_csv),
        ("summary.json", _write_summary),
        ("manifest.json", _write_manifest),
    ):
        try:
            write(out_dir / name, result)
        except OSError as exc:
            print(f"output: cannot write {out_dir / name}: {exc}", file=sys.stderr)
            return 1

    if result.diverged:
        print(f"runtime failure: {result.diverged} episode(s) diverged", file=sys.stderr)
        return 2
    print(f"wrote {out_dir} (final cost {_fmt(result.final_cost)})")
    return 0


def _load_run(base: Path):
    """(base, summary, episodes) of a run directory; ValueError names a bad file.

    The summary's final_cost comes back as a float, inf where it is null.
    """
    summary_path = base / "summary.json"
    try:
        summary = json.loads(summary_path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise ValueError(f"cannot read {summary_path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        raise ValueError(f"invalid JSON in {summary_path}: {exc}") from exc
    if not isinstance(summary, dict):
        raise ValueError(f"invalid summary in {summary_path}: expected a JSON object")
    cost = summary.get("final_cost")
    if cost is not None and (isinstance(cost, bool) or not isinstance(cost, (int, float))):
        raise ValueError(f"invalid summary in {summary_path}: final_cost: expected a number")
    try:
        summary["final_cost"] = math.inf if cost is None else float(cost)
    except OverflowError as exc:
        raise ValueError(f"invalid summary in {summary_path}: final_cost: {exc}") from exc
    for key in ("model", "task"):
        if not isinstance(summary.get(key, ""), str):
            raise ValueError(f"invalid summary in {summary_path}: {key}: expected a string")
    episodes_path = base / "episodes.csv"
    try:
        with open(episodes_path, newline="", encoding="utf-8") as fh:
            reader = csv.DictReader(fh)
            episodes = list(reader)
    except OSError as exc:
        raise ValueError(f"cannot read {episodes_path}: {exc}") from exc
    except (ValueError, csv.Error) as exc:
        raise ValueError(f"invalid episodes in {episodes_path}: {exc}") from exc
    missing = sorted({"cost", "violation"} - set(reader.fieldnames or ()))
    if missing:
        raise ValueError(f"invalid episodes in {episodes_path}: no column(s) {missing}")
    # DictReader keys a long row's extra cells by None and fills a short row's with None
    if any(None in row or None in row.values() for row in episodes):
        raise ValueError(f"invalid episodes in {episodes_path}: row width differs from header")
    return base, summary, episodes


def compare_cmd(args) -> int:
    if len(args.dirs) < 2:
        print(
            "usage: safeshift compare <dir> <dir> [...] -- needs at least two run directories",
            file=sys.stderr,
        )
        return 2

    try:
        runs = [_load_run(Path(d)) for d in args.dirs]
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 1

    tasks = {str(s.get("task")) for _, s, _ in runs}
    if len(tasks) != 1:
        print(f"mismatched tasks across runs: {sorted(tasks)}", file=sys.stderr)
        return 1

    writer = csv.writer(sys.stdout, lineterminator="\n")
    header = ["episode"]
    for base, summary, _ in runs:
        tag = f"{summary.get('model', '?')}@{base.name}"
        header += [f"cost[{tag}]", f"violation[{tag}]"]
    writer.writerow(header)
    for i in range(max(len(eps) for _, _, eps in runs)):
        row = [str(i + 1)]
        for _, _, eps in runs:
            if i < len(eps):
                row += [eps[i]["cost"], eps[i]["violation"]]
            else:
                row += ["", ""]
        writer.writerow(row)

    by_model: dict = {}
    for _, s, _ in runs:
        by_model.setdefault(s.get("model", "?"), []).append(s["final_cost"])
    for model, costs in sorted(by_model.items()):
        med = float(np.median(costs))
        med_s = "inf" if math.isinf(med) else format(med, ".6g")
        print(f"median final cost [{model}] over {len(costs)} run(s): {med_s}", file=sys.stderr)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="safeshift",
        description="Safe episodic exploration with certified tracking tubes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one seeded experiment")
    run_p.add_argument("--config", required=True, help="path to a JSON config")
    run_p.add_argument("--seed", type=int, default=None, help="override the config seed")
    run_p.add_argument("--out", required=True, help="output directory")
    run_p.add_argument(
        "--model",
        choices=list(MODEL_KINDS),
        default=None,
        help="override the learner (default: config's model_kind)",
    )
    run_p.set_defaults(fn=run_cmd)

    cmp_p = sub.add_parser("compare", help="align finished runs of one task as CSV")
    cmp_p.add_argument("dirs", nargs="+", help="two or more output directories from `run`")
    cmp_p.set_defaults(fn=compare_cmd)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
