"""Command-line front end: seeded experiment runs and cross-run comparison.

`safeshift run --config cfg.json --seed 3 --out results/run3 --model robust`
writes episodes.csv, trajectories.csv, summary.json, and manifest.json into
the output directory.  Exit codes: 0 on success, 1 on a configuration
problem (a one-line diagnostic names the offending field) or an output
directory that cannot be created (the diagnostic names the path), 2 on a
runtime failure such as a diverged rollout.

`safeshift compare results/run1 results/run2 ...` emits a per-episode CSV
(cost and violation columns aligned across runs) on stdout and per-model
medians on stderr.  All runs must be of the same task; a run file that is
missing or malformed exits 1 with one line naming it.

All emitted numbers go through one formatter (%.17g) and the experiment
itself is deterministic, so rerunning with the same config and seed
reproduces the output files byte for byte, provided the BLAS library runs
with the same thread count (e.g. OPENBLAS_NUM_THREADS=1 for both runs):
a different thread count changes the low bits of the linear algebra, which
can move printed values and, through the fit, later decisions.
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

from .controller import ControllerGains
from .core import RejectedCandidate, default_landing_params, default_pendulum_amplitudes
from .density_ratio import RatioConfig
from .dynamics import DroneParams, PendulumParams, SimulationDiverged
from .explore import (
    MODEL_KINDS,
    ConfigError,
    ExperimentConfig,
    default_config,
    run_experiment,
)
from .gp_baseline import GpHyper
from .robust_regression import TrainConfig, TrainingDiverged

__all__ = ["main", "config_from_dict", "config_to_dict", "run_cmd", "compare_cmd"]

EPISODE_COLUMNS = [
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


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    return str(value)


def _fmt_params(params: dict) -> str:
    return ";".join(f"{k}={_fmt(v)}" for k, v in sorted(params.items()))


# -- config (de)serialization ------------------------------------------------

_NESTED_KEYS = ("gains", "plant", "ratio", "train", "gp", "pool", "safety")
_SCALAR_KEYS = (
    "task",
    "episodes",
    "seed",
    "beta",
    "mu0",
    "sigma0_sq",
    "sim_dt",
    "traj_dt",
    "horizon",
    "w_max",
    "sample_hz",
    "output_dim",
    "max_train_points",
    "kde_src_max",
    "kde_trg_max",
    "cert_stride",
    "d_hat_hold_steps",
    "first_fit_epochs",
    "model_kind",
)


# JSON value types accepted for a field whose default has the key's type
_KINDS = {int: (int,), float: (int, float), str: (str,)}


def _check_kind(name: str, value, default) -> None:
    """Reject a value whose JSON type does not fit the field's default."""
    kind = type(default)
    if kind in _KINDS and (isinstance(value, bool) or not isinstance(value, _KINDS[kind])):
        raise ConfigError(f"{name}: expected {kind.__name__}")


def _check_finite(name: str, value) -> None:
    """Reject NaN and +-Infinity anywhere in a JSON value; name is its key path."""
    if isinstance(value, float) and not math.isfinite(value):
        raise ConfigError(f"{name}: expected a finite number")
    if isinstance(value, dict):
        for key, item in value.items():
            _check_finite(f"{name}: {key}", item)
    if isinstance(value, list):
        for item in value:
            _check_finite(name, item)


def _build_nested(cls, payload: dict, field_name: str):
    allowed = {f.name for f in dataclasses.fields(cls)}
    unknown = set(payload) - allowed
    if unknown:
        raise ConfigError(f"{field_name}: unknown key(s) {sorted(unknown)}")
    for f in dataclasses.fields(cls):
        if f.name in payload:
            _check_kind(f"{field_name}: {f.name}", payload[f.name], f.default)
    try:
        return cls(**payload)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{field_name}: {exc}") from exc


def _numbers(pool: dict, key: str) -> tuple:
    values = pool[key]
    if not isinstance(values, list) or not all(
        isinstance(v, (int, float)) and not isinstance(v, bool) for v in values
    ):
        raise ConfigError(f"pool: {key}: expected a list of numbers")
    return tuple(values)


def config_from_dict(raw: dict) -> ExperimentConfig:
    """Build a fully resolved config from a JSON payload.

    The only required key is `task`; everything else falls back to the
    task's calibrated defaults.  Unknown keys are rejected so typos fail
    loudly instead of silently running defaults.
    """
    if not isinstance(raw, dict):
        raise ConfigError("config: expected a JSON object")
    if "task" not in raw:
        raise ConfigError("task: missing required field")
    unknown = set(raw) - set(_SCALAR_KEYS) - set(_NESTED_KEYS)
    if unknown:
        raise ConfigError(f"config: unknown field(s) {sorted(unknown)}")
    for key in _NESTED_KEYS:
        if key in raw and not isinstance(raw[key], dict):
            raise ConfigError(f"{key}: expected a JSON object")
    for key, value in raw.items():
        _check_finite(key, value)

    task = raw["task"]
    base = default_config(task)
    updates: dict = {k: raw[k] for k in _SCALAR_KEYS if k in raw}
    for key, value in updates.items():
        _check_kind(key, value, getattr(base, key))

    if "gains" in raw:
        updates["gains"] = _build_nested(ControllerGains, raw["gains"], "gains")
    if "ratio" in raw:
        updates["ratio"] = _build_nested(RatioConfig, raw["ratio"], "ratio")
    if "train" in raw:
        merged = {**dataclasses.asdict(base.train), **raw["train"]}
        updates["train"] = _build_nested(TrainConfig, merged, "train")
    if "gp" in raw:
        merged = {**dataclasses.asdict(base.gp), **raw["gp"]}
        updates["gp"] = _build_nested(GpHyper, merged, "gp")
    if "plant" in raw:
        cls = PendulumParams if task == "pendulum" else DroneParams
        updates_key = "plant_pendulum" if task == "pendulum" else "plant_drone"
        updates[updates_key] = _build_nested(cls, raw["plant"], "plant")
    if "pool" in raw:
        pool = raw["pool"]
        if task == "pendulum":
            if set(pool) != {"amplitudes"}:
                raise ConfigError("pool: pendulum pool needs exactly {'amplitudes'}")
            updates["amplitudes"] = _numbers(pool, "amplitudes")
        else:
            if set(pool) != {"rates", "hovers"}:
                raise ConfigError("pool: landing pool needs exactly {'rates', 'hovers'}")
            updates["rates"] = _numbers(pool, "rates")
            updates["hovers"] = _numbers(pool, "hovers")
    if "safety" in raw:
        safety = raw["safety"]
        keys = {"q_abs_max"} if task == "pendulum" else {"qdot_min_at_ground", "ground"}
        if not set(safety) <= keys:
            raise ConfigError(f"safety: allowed keys for {task} are {sorted(keys)}")
        for key, value in safety.items():
            _check_kind(f"safety: {key}", value, getattr(base, key))
        updates.update(safety)

    try:
        return dataclasses.replace(base, **updates)
    except (TypeError, ValueError) as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(str(exc)) from exc


def _resolved_pool(config: ExperimentConfig) -> dict:
    if config.task == "pendulum":
        amps = config.amplitudes or tuple(default_pendulum_amplitudes())
        return {"amplitudes": [float(a) for a in amps]}
    if config.rates and config.hovers:
        rates, hovers = config.rates, config.hovers
    else:
        pairs = default_landing_params()
        rates = sorted({c for c, _ in pairs})
        hovers = sorted({h for _, h in pairs})
    return {"rates": [float(c) for c in rates], "hovers": [float(h) for h in hovers]}


def config_to_dict(config: ExperimentConfig) -> dict:
    """Resolved, JSON-ready view of a config (defaults made explicit)."""
    out = {k: getattr(config, k) for k in _SCALAR_KEYS}
    out["gains"] = dataclasses.asdict(config.gains)
    out["ratio"] = dataclasses.asdict(config.ratio)
    out["train"] = dataclasses.asdict(config.train)
    out["gp"] = dataclasses.asdict(config.gp)
    out["pool"] = _resolved_pool(config)
    if config.task == "pendulum":
        out["plant"] = dataclasses.asdict(config.plant_pendulum)
        out["safety"] = {"q_abs_max": config.q_abs_max}
    else:
        out["plant"] = dataclasses.asdict(config.plant_drone)
        out["safety"] = {
            "qdot_min_at_ground": config.qdot_min_at_ground,
            "ground": config.ground,
        }
    return out


# -- output writers ----------------------------------------------------------


def _write_episodes_csv(path: Path, records) -> None:
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(EPISODE_COLUMNS)
        for rec in records:
            writer.writerow(
                [
                    rec.episode,
                    rec.status,
                    _fmt_params(rec.params),
                    _fmt(rec.cost),
                    _fmt(rec.realized_cost),
                    _fmt(rec.sigma_max),
                    _fmt(rec.eps_m),
                    _fmt(rec.tube_radius),
                    rec.n_certified,
                    rec.n_train,
                    _fmt(rec.rms_tracking),
                    _fmt(rec.rms_residual_error),
                    _fmt(rec.w_hat),
                    _fmt(rec.moment_residual),
                    _fmt(rec.violation),
                ]
            )


def _write_trajectories_csv(path: Path, result) -> None:
    """Desired vs actual positions plus the certified tube, sampled at 50 Hz."""
    stride = max(1, int(round(1.0 / (50.0 * result.config.sim_dt))))
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(
            ["episode", "t", "q_des", "qdot_des", "q_act", "qdot_act", "tube_lo", "tube_hi"]
        )
        for rec, traj, rollout in zip(result.records, result.trajs, result.rollouts):
            if rollout is None or traj is None:
                continue
            rho = rec.tube_radius
            for i in range(0, len(rollout.times), stride):
                t = float(rollout.times[i])
                des = traj.at(t)
                writer.writerow(
                    [
                        rec.episode,
                        _fmt(t),
                        _fmt(des.q_g),
                        _fmt(des.qdot_g),
                        _fmt(float(rollout.states[i, 0])),
                        _fmt(float(rollout.states[i, 1])),
                        _fmt(des.q_g - rho),
                        _fmt(des.q_g + rho),
                    ]
                )


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
    records = result.records
    tracked = [r for r in records if r.status in ("ok", "touchdown")]
    summary = {
        "task": result.config.task,
        "model": result.config.model_kind,
        "seed": result.config.seed,
        "episodes": len(records),
        "tracked_episodes": len(tracked),
        "no_safe_candidates": sum(1 for r in records if r.status == "no_safe_candidate"),
        "diverged": sum(1 for r in records if r.status == "diverged"),
        "violations": result.violations,
        "final_cost": result.final_cost,
        "final_realized_cost": tracked[-1].realized_cost if tracked else math.nan,
        "first_rms_tracking": tracked[0].rms_tracking if tracked else math.nan,
        "final_rms_tracking": tracked[-1].rms_tracking if tracked else math.nan,
        "max_w_hat": max((r.w_hat for r in tracked), default=math.nan),
        "final_sigma_max": records[-1].sigma_max if records else math.nan,
    }
    path.write_text(json.dumps(_jsonable(summary), indent=2, sort_keys=True) + "\n")


def _write_manifest(path: Path, config: ExperimentConfig) -> None:
    payload = _jsonable(config_to_dict(config))
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


# -- subcommands ---------------------------------------------------------------


def run_cmd(args) -> int:
    try:
        raw = json.loads(Path(args.config).read_text())
    except OSError as exc:
        print(f"config: cannot read {args.config}: {exc}", file=sys.stderr)
        return 1
    except json.JSONDecodeError as exc:
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
    except RejectedCandidate as exc:
        print(f"invalid configuration: pool: {exc}", file=sys.stderr)
        return 1
    except (SimulationDiverged, TrainingDiverged) as exc:
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 2

    _write_episodes_csv(out_dir / "episodes.csv", result.records)
    _write_trajectories_csv(out_dir / "trajectories.csv", result)
    _write_summary(out_dir / "summary.json", result)
    _write_manifest(out_dir / "manifest.json", config)

    n_diverged = sum(1 for r in result.records if r.status == "diverged")
    if n_diverged:
        print(f"runtime failure: {n_diverged} episode(s) diverged", file=sys.stderr)
        return 2
    print(f"wrote {out_dir} (final cost {_fmt(result.final_cost)})")
    return 0


def compare_cmd(args) -> int:
    if len(args.dirs) < 2:
        print(
            "usage: safeshift compare <dir> <dir> [...] -- needs at least two run directories",
            file=sys.stderr,
        )
        return 2

    runs = []
    for d in args.dirs:
        base = Path(d)
        summary_path = base / "summary.json"
        try:
            summary = json.loads(summary_path.read_text())
        except OSError as exc:
            print(f"cannot read {summary_path}: {exc}", file=sys.stderr)
            return 1
        except json.JSONDecodeError as exc:
            print(f"invalid JSON in {summary_path}: {exc}", file=sys.stderr)
            return 1
        if not isinstance(summary, dict):
            print(f"invalid summary in {summary_path}: expected a JSON object", file=sys.stderr)
            return 1
        episodes_path = base / "episodes.csv"
        try:
            with open(episodes_path, newline="") as fh:
                reader = csv.DictReader(fh)
                episodes = list(reader)
        except OSError as exc:
            print(f"cannot read {episodes_path}: {exc}", file=sys.stderr)
            return 1
        missing = sorted({"cost", "violation"} - set(reader.fieldnames or ()))
        if missing:
            print(f"invalid episodes in {episodes_path}: no column(s) {missing}", file=sys.stderr)
            return 1
        runs.append((base, summary, episodes))

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
        cost = s.get("final_cost")
        cost_v = math.inf if cost is None else float(cost)
        by_model.setdefault(s.get("model", "?"), []).append(cost_v)
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
