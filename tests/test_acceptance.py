"""Acceptance: the certificate's promise, across seeds, on both tasks.

Runs each task at seeds 0-4 at its default config, 15 episodes each, on
two worker processes (1 BLAS thread each), and asserts that no flight
leaves the safety set, no episode diverges, no robust fit ends
unconverged and no flight breaks the control half of the certificate:
of episodes 2-15, none whose peak residual error |d - d_hat| stays
within eps_m has a peak tracking-error norm ||x_tilde|| above rho.  It
reports that count, and, without asserting, per task:

  * peak tube coverage: flights of episodes 2-15 whose peak ||x_tilde||
    stays within the certified radius rho;
  * peak eps coverage: flights of episodes 2-15 whose peak |d - d_hat|
    stays within eps_m;
  * clamped flights: flights of episodes 2-15 whose thrust clamps
    (`clamp_count` > 0);
  * the first episode that flies the cheapest candidate of the pool;
  * the final cost (`ExperimentResult.final_cost`).

The lines print in the terminal summary under "acceptance criteria".
"""

from __future__ import annotations

import math
import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace

import numpy as np

from safeshift.explore import RobustLearner, default_config, run_experiment

TASKS = ("pendulum", "landing")
SEEDS = range(5)
WORKERS = 2
TIMEOUT_S = 900  # for all runs; they take about a minute on two workers
ONE_BLAS_THREAD = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class CountingLearner(RobustLearner):
    """The robust learner, counting the fits that end unconverged."""

    def __init__(self, config, rng):
        super().__init__(config, rng)
        self.unconverged = 0

    def retrain(self, dataset, src_kde, trg_kde):
        residual = super().retrain(dataset, src_kde, trg_kde)
        self.unconverged += not self.model.converged
        return residual


def measure(task: str, seed: int) -> dict:
    """One default-config run of `task` at `seed`, reduced to the figures above."""
    config = replace(default_config(task), seed=seed)
    learner = CountingLearner(config, np.random.default_rng(seed))
    result = run_experiment(config, learner=learner)
    cheapest = min(traj.cost for traj in config.pool())
    flights = [r for r in result.records if r.rollout is not None]
    later = [r for r in flights if r.episode >= 2]
    peak_x = [float(np.max(np.hypot(*r.rollout.x_tilde.T))) for r in later]
    in_tube = [x <= r.tube_radius for x, r in zip(peak_x, later)]
    in_eps = [float(np.max(np.abs(r.rollout.eps))) <= r.eps_m for r in later]
    return {
        "violations": result.violations,
        "diverged": result.diverged,
        "fits": learner.fits,
        "unconverged": learner.unconverged,
        "eps_not_tube": sum(e and not t for e, t in zip(in_eps, in_tube)),
        "later_flights": len(later),
        "in_tube": sum(in_tube),
        "worst_tube": max((x / r.tube_radius for x, r in zip(peak_x, later)), default=math.nan),
        "in_eps": sum(in_eps),
        "clamped": sum(r.rollout.clamp_count > 0 for r in later),
        "first_cheapest": next((r.episode for r in flights if r.cost == cheapest), None),
        "final_cost": result.final_cost,
    }


def _report(task: str, runs: list) -> str:
    total = {key: sum(run[key] for run in runs) for key in
             ("violations", "diverged", "fits", "unconverged", "eps_not_tube", "later_flights",
              "in_tube", "in_eps", "clamped")}
    firsts = ", ".join(str(run["first_cheapest"] or "never") for run in runs)
    costs = ", ".join(f"{run['final_cost']:.3g}" for run in runs)
    worst = max(run["worst_tube"] for run in runs)
    return (
        f"{task}, seeds {SEEDS.start}-{SEEDS.stop - 1}: "
        f"{total['violations']} violations, {total['diverged']} diverged, "
        f"{total['unconverged']} / {total['fits']} fits unconverged, "
        f"{total['eps_not_tube']} / {total['later_flights']} within eps_m but out of rho | "
        f"peak tube coverage {total['in_tube']} / {total['later_flights']} (worst {worst:.3g} rho), "
        f"peak eps coverage {total['in_eps']} / {total['later_flights']}, "
        f"clamped {total['clamped']} / {total['later_flights']} | "
        f"first episode at the cheapest candidate {firsts} | final cost {costs}"
    )


def test_no_violation_divergence_or_unconverged_fit_at_default_config(
    acceptance_lines, monkeypatch
):
    for name in ONE_BLAS_THREAD:
        monkeypatch.setenv(name, "1")  # read by the spawned workers as numpy loads
    jobs = [(task, seed) for task in TASKS for seed in SEEDS]
    context = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(max_workers=WORKERS, mp_context=context) as pool:
        runs = dict(zip(jobs, pool.map(measure, *zip(*jobs), timeout=TIMEOUT_S)))
    for task in TASKS:
        acceptance_lines.append(_report(task, [runs[task, seed] for seed in SEEDS]))
    failing = {
        job: {key: run[key] for key in ("violations", "diverged", "unconverged", "eps_not_tube")
              if run[key]}
        for job, run in runs.items()
    }
    assert {job: bad for job, bad in failing.items() if bad} == {}
