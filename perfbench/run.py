"""End-to-end and per-layer benchmark of `safeshift run`.

    python3 perfbench/run.py --workload landing --seed 0 --seconds 34 --trace 0

Run it from the root of a source checkout; it imports `safeshift` from
`src/` and reads `configs/`.  BLAS is pinned to one thread before numpy
loads, in this process and in the cold-start subprocesses.

`--trace 0` measures the end-to-end metrics with tracing off: `run_s` (one
`safeshift.cli.main(["run", ...])` call, median over the runs made),
`setup_s` (median of several cold starts in fresh interpreters) and
`peak_rss_mb`.  The workload runs as many times as fit in `--seconds` at
its nominal run time, at least once; run i uses program seed
`seed + i * SEED_STRIDE`.

`--trace 1` makes one untraced and one traced run of the workload seed
and reports the per-layer metrics of `tracer.py`, the setup breakdown and
the tracing overhead.

Every run is checked (`check.check_run`) and fingerprinted; a run that
fails the check counts as failed and stays in the medians.  A run whose
flights diverged exits 2 by the CLI's contract; if its outputs agree on
that, it passes the check and the divergence shows in `unsafe_share`.  Behaviour
(`unsafe_share`, `final_cost`, the fingerprint) is reported next to the
metrics; `check.py` compares a fingerprint with a reference.
`--workload all` runs every workload in its own process.

The last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stdout
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"
RUN_FILES = ("episodes.csv", "trajectories.csv", "summary.json", "manifest.json")

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
COLD_STARTS = 5
SEED_STRIDE = 1000
WORKLOAD_TIMEOUT_S = 300

# nominal_s: median time of one run at 1 BLAS thread on a 2-vCPU x86-64
# VM; it only sets how many runs fit in --seconds.  The landing time
# depends on the seed (some seeds take 20 % less), so the default
# --seconds fits two landing runs, which average two seeds.
WORKLOADS = {
    "pendulum": {"config": "configs/pendulum.json", "model": None, "nominal_s": 12.0},
    "landing": {"config": "configs/landing.json", "model": None, "nominal_s": 17.0},
    "landing_gp": {"config": "configs/landing.json", "model": "gp_rbf", "nominal_s": 19.0},
}

END_TO_END_UNITS = {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def pin_threads() -> dict:
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    return {var: os.environ[var] for var in BLAS_THREAD_VARS}


# -- set-up ----------------------------------------------------------------------


def _scipy_import_s(importtime_log: str) -> float:
    """Cumulative `-X importtime` seconds of the outermost scipy imports."""
    entries = []
    for line in importtime_log.splitlines():
        parts = line.split("|")
        if not line.startswith("import time:") or len(parts) != 3:
            continue
        try:
            cumulative_us = int(parts[1])
        except ValueError:
            continue  # the header line
        raw = parts[2].rstrip()
        entries.append((len(raw) - len(raw.lstrip()), raw.strip(), cumulative_us))

    def is_scipy(name: str) -> bool:
        return name == "scipy" or name.startswith("scipy.")

    # a module is printed after the modules it imports, so walking the
    # log backwards meets every parent before its children
    total_us, stack = 0, []
    for depth, name, cumulative_us in reversed(entries):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        if is_scipy(name) and not (stack and is_scipy(stack[-1][1])):
            total_us += cumulative_us
        stack.append((depth, name))
    return total_us / 1e6


def cold_start(workload: str, seed: int, importtime: bool = False) -> dict:
    wl = WORKLOADS[workload]
    cmd = [sys.executable] + (["-X", "importtime"] if importtime else [])
    cmd += [str(BENCH_DIR / "coldstart.py"), str(SRC), str(ROOT / wl["config"]), str(seed)]
    if wl["model"]:
        cmd.append(wl["model"])
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"cold start failed: {proc.stderr.strip()[-2000:]}")
    result = json.loads(proc.stdout.splitlines()[-1])
    if importtime:
        result["import_scipy_s"] = _scipy_import_s(proc.stderr)
    return result


# -- runs ----------------------------------------------------------------------------


def run_argv(workload: str, seed: int, out_dir: Path) -> list[str]:
    wl = WORKLOADS[workload]
    argv = ["run", "--config", str(ROOT / wl["config"]), "--seed", str(seed),
            "--out", str(out_dir)]
    return argv + (["--model", wl["model"]] if wl["model"] else [])


def run_once(cli, argv: list[str], out_dir: Path):
    """One timed `cli.main(argv)`; returns (run_s, exit code, flown rollouts)."""
    shutil.rmtree(out_dir, ignore_errors=True)

    # keep the experiment result, whose rollouts the output check re-audits
    results = []
    run_experiment = cli.run_experiment

    def capturing(*args, **kwargs):
        results.append(run_experiment(*args, **kwargs))
        return results[-1]

    cli.run_experiment = capturing
    gc.collect()
    try:
        with redirect_stdout(sys.stderr):
            start = time.perf_counter()
            try:
                code = cli.main(argv)
            except Exception:  # a crash is a failed run, not a crashed benchmark
                traceback.print_exc()
                code = -1
            run_s = time.perf_counter() - start
    finally:
        cli.run_experiment = run_experiment
    return run_s, code, (results[0].rollouts if results else [])


def measured_run(cli, check, workload: str, seed: int, out_dir: Path, episodes: int) -> dict:
    run_s, code, rollouts = run_once(cli, run_argv(workload, seed, out_dir), out_dir)
    result = check.check_run(out_dir, code, rollouts, episodes)
    fp = dict(result.fingerprint, workload=workload, seed=seed)
    if result.fingerprint:
        (out_dir / "fingerprint.json").write_text(json.dumps(fp, indent=1) + "\n")
    return {
        "seed": seed,
        "run_s": run_s,
        "exit_code": code,
        "check": result,
        "fingerprint": fp,
        "digest": check.decision_digest(fp) if result.fingerprint else "none",
        "out_dir": out_dir,
    }


def describe_run(label: str, run: dict) -> str:
    c = run["check"]
    status = "ok" if c.ok else "FAILED: " + "; ".join(c.problems)
    return (f"  {label} seed {run['seed']}: run_s {run['run_s']:.3f} s, exit {run['exit_code']}, "
            f"check {status}, unsafe {c.unsafe}/{c.episodes} ({c.diverged} diverged), "
            f"final_cost {c.final_cost:.6g}, "
            f"decisions {run['digest']}")


# -- environment ---------------------------------------------------------------


def _git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(threads: dict) -> dict:
    import numpy  # after pin_threads()

    scipy = sys.modules.get("scipy")
    return {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__ if scipy is not None else "not imported",
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": threads,
        "src_lines": sum(
            len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py"))
        ),
    }


# -- modes -----------------------------------------------------------------------


def untraced(cli, check, args, episodes: int, setups: list, runs: list) -> dict:
    n_runs = max(1, int(args.seconds // WORKLOADS[args.workload]["nominal_s"]))
    for i in range(n_runs):
        seed = args.seed + i * SEED_STRIDE
        out_dir = OUT / f"{args.workload}-seed{args.seed}" / f"run{i}"
        runs.append(measured_run(cli, check, args.workload, seed, out_dir, episodes))
        print(describe_run(f"run {i}", runs[-1]))

    unsafe = sum(r["check"].unsafe for r in runs)
    attempted = sum(r["check"].episodes for r in runs)
    costs = [r["check"].final_cost for r in runs]
    metrics = {
        "run_s": statistics.median([r["run_s"] for r in runs]),
        "setup_s": statistics.median([s["setup_s"] for s in setups]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    print(f"run_s        {metrics['run_s']:.4f} s      median of {len(runs)} run(s)")
    print(f"setup_s      {metrics['setup_s']:.4f} s      median of {len(setups)} cold starts")
    print(f"peak_rss_mb  {metrics['peak_rss_mb']:.1f} MB")
    print(f"unsafe_share {unsafe / max(attempted, 1):.4f} ratio  "
          f"{unsafe} of {attempted} episodes violated the safety set or diverged")
    print(f"final_cost   {statistics.median(costs):.6g} task unit  median over runs "
          f"(pendulum: -max|q| in rad; landing: time to touchdown in s)")
    return {name: {"value": value, "unit": END_TO_END_UNITS[name]}
            for name, value in metrics.items()}


def traced(cli, check, args, episodes: int, setups: list, runs: list) -> dict:
    base = OUT / f"{args.workload}-seed{args.seed}"
    runs.append(measured_run(cli, check, args.workload, args.seed, base / "untraced", episodes))
    print(describe_run("untraced", runs[-1]))

    import tracer  # only the traced run loads the tracer

    spans = tracer.Tracer()
    with spans.installed():
        runs.append(measured_run(cli, check, args.workload, args.seed, base / "traced", episodes))
    print(describe_run("traced", runs[-1]))
    if runs[0]["digest"] != runs[1]["digest"]:
        runs[1]["check"].problems.append("tracing changed the run's decisions")

    untraced_s, traced_s = runs[0]["run_s"], runs[1]["run_s"]
    metrics = spans.metrics()
    unattributed = traced_s - spans.self_time_total()
    if unattributed < -1e-6:
        runs[1]["check"].problems.append(f"span self times exceed run_s by {-unattributed:g} s")
    importtime = cold_start(args.workload, args.seed, importtime=True)
    metrics.update({
        "cli.output_bytes": sum((base / "traced" / f).stat().st_size for f in RUN_FILES
                                if (base / "traced" / f).is_file()),
        "setup.import_s": statistics.median([s["import_s"] for s in setups]),
        "setup.import_scipy_s": importtime["import_scipy_s"],
        "setup.pool_s": statistics.median([s["pool_s"] for s in setups]),
        "setup.learner_s": statistics.median([s["learner_s"] for s in setups]),
        "trace.run_s": traced_s,
        "trace.untraced_run_s": untraced_s,
        "trace.overhead_s": traced_s - untraced_s,
        "trace.unattributed_s": unattributed,
    })
    (base / "trace.json").write_text(json.dumps(spans.to_json(), indent=1) + "\n")

    print("self time by span (traced run):")
    for name in sorted(tracer.span_names(), key=lambda n: -metrics[f"{n}.self_s"]):
        print(f"  {name:40s} {metrics[f'{name}.self_s']:9.4f} s  "
              f"({metrics[f'{name}.calls']} calls, {metrics[f'{name}.s']:.4f} s total)")
    print(f"  {'unattributed (argument parsing, capture)':40s} {unattributed:9.4f} s")
    print(f"  {'= traced run_s':40s} {traced_s:9.4f} s; untraced {untraced_s:.4f} s, "
          f"overhead {traced_s - untraced_s:+.4f} s")

    units = {name: unit for name, unit, _ in per_layer_specs(tracer)}
    return {name: {"value": value, "unit": units[name]} for name, value in metrics.items()}


def per_layer_specs(tracer) -> list[tuple[str, str, str]]:
    """(name, unit, better) of every metric `--trace 1` reports."""
    return tracer.metric_specs() + [
        ("cli.output_bytes", "bytes", "lower"),
        ("setup.import_s", "s", "lower"),
        ("setup.import_scipy_s", "s", "lower"),
        ("setup.pool_s", "s", "lower"),
        ("setup.learner_s", "s", "lower"),
        ("trace.run_s", "s", "lower"),
        ("trace.untraced_run_s", "s", "lower"),
        ("trace.overhead_s", "s", "lower"),
        ("trace.unattributed_s", "s", "lower"),
    ]


def run_all(args) -> int:
    """Each workload in its own interpreter; prints a combined result."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=WORKLOAD_TIMEOUT_S)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        print(f"== {workload}")
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"workload {workload} exited {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(combined))
    return 0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=34.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "safeshift" / "__init__.py").is_file():
        print(f"no safeshift sources in {SRC}: run from the root of a source checkout",
              file=sys.stderr)
        return 2
    threads = pin_threads()
    if args.workload == "all":
        return run_all(args)

    cold_start(args.workload, args.seed)  # warm-up: writes bytecode, fills the page cache
    setups = [cold_start(args.workload, args.seed) for _ in range(COLD_STARTS)]

    sys.path.insert(0, str(SRC))
    import check
    from safeshift import cli

    if SRC.resolve() not in Path(cli.__file__).resolve().parents:
        print(f"imported safeshift from {cli.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    env = environment(threads)
    episodes = json.loads((ROOT / WORKLOADS[args.workload]["config"]).read_text())["episodes"]
    out_root = OUT / f"{args.workload}-seed{args.seed}"
    shutil.rmtree(out_root, ignore_errors=True)
    out_root.mkdir(parents=True)

    print(f"perfbench {args.workload} seed {args.seed} trace {args.trace}")
    runs: list = []
    mode = traced if args.trace else untraced
    metrics = mode(cli, check, args, episodes, setups, runs)

    first = runs[0]
    fingerprint_path = (first["out_dir"] / "fingerprint.json").relative_to(ROOT)
    print(f"fingerprint  {fingerprint_path} decisions {first['digest']}")
    print("env " + json.dumps(env, sort_keys=True))
    failed = sum(1 for r in runs if not r["check"].ok)
    result = {"correct": failed == 0, "attempted": len(runs), "failed": failed,
              "metrics": metrics}
    (out_root / "env.json").write_text(json.dumps(env, indent=1) + "\n")
    (out_root / "result.json").write_text(json.dumps(result, indent=1) + "\n")

    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
