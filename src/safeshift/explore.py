"""Episodic safe exploration with certified tracking tubes.

Each episode walks the candidate desired trajectories from the cheapest
up and `check`s each one, which gives one `CandidateCheck`: it screens
it by its worst estimated density ratio w_hat (at most W_MAX), scores
one the screen lets through with the current model (sigma_max ->
residual-error budget eps_m = beta * sigma_max -> tube radius gamma *
eps_m) and certifies its worst-case tube against the safety set.  The
episode flies the first candidate admitted, audits its flight, collects
(state, residual) data along the actual rollout, and retrains.
The robust learner's sigma_max is the closed form (1/sigma0_sq + 2
theta_y r_min)^(-1/2) at the candidate's smallest clipped density ratio
r_min over every grid row, exactly.  The GP's is the max posterior std on
the candidate's target sample, the at most 250 rows (`KDE_TRG_MAX`) its
target KDE is fit on: at landing seeds 0 and 1000 it understated the
grid's max by up to 7.5 % (rbf) and 25.7 % (Matern).  The whole grid
would cost about 0.15 s per landing GP run.
Episode 1 runs on the untrained base model, so its tube is driven purely
by sigma0 and the loop starts conservative by construction.

The learner is pluggable: the robust covariate-shift regressor or a GP
baseline.  Each is a thin adapter over the formulas its model's module
owns (`robust_regression.std_at` and `mean_fn`, `gp_baseline.gp_mean_fn`,
`density_ratio.point_ratio`).  Both expose the same surface, and the
densities each call needs are passed in, not bound to the model:

  eval_candidate(cand, r_min)        max predictive std on the `Candidate`
                                     cand, whose grid ratios are >= r_min
  d_hat_fn(src_kde, trg_kde)         the controller's compensation d_hat(q, qdot)
  retrain(dataset, src_kde, trg_kde) refits, and returns the fit's signed
                                     theta_y root residual (NaN for the GP)

Scoring does each piece of work once, at the level where its inputs
change.  The pool is fixed, so its selection order is computed once per
experiment.  The pool holds each grid; the target KDE and p_trg are
built when the walk first reads them (`Candidate`), at most once, and a
candidate no walk reaches gets neither.
The source density changes only when the dataset grows: it is fit once
for the retrain and reused by the next episode, which evaluates p_src on
the grid of each candidate it checks, and of no other, block by block
until the W_MAX screen stops it.  So a candidate's r_min and w_hat
depend only on its own grid and the source KDE.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Optional

import numpy as np

from . import robust_regression as rr
from .bounds import certify_trajectory, gamma
from .controller import ControllerGains, Rollout, simulate_closed_loop
from .core import (
    CONTACT_TOL,
    LANDING_START,
    Dataset,
    DesiredTrajectory,
    EpisodeRecord,
    LandingPool,
    PendulumPool,
    SafetySet,
    StateBox,
    TouchdownSpeed,
    contact_time,
    grid_steps,
    landing_pool,
    pendulum_pool,
    safety_contains,
    subsample_rows,
)
from .density_ratio import KdeModel, clipped_ratio, kde_density, kde_fit, max_ratio, point_ratio
from .dynamics import DRONE, PENDULUM, Plant
from .gp_baseline import GpHyper, GpModel, gp_fit, gp_mean_fn, gp_predict

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "ExperimentResult",
    "EpisodeOutcome",
    "CandidateCheck",
    "RobustLearner",
    "GpLearner",
    "Candidate",
    "build_pool_cache",
    "check",
    "make_learner",
    "default_config",
    "run_episode",
    "run_experiment",
]

MODEL_KINDS = ("robust", "gp_rbf", "gp_matern")

# Each task's calibrated setting, one value per task-calibrated
# ExperimentConfig field; `default_config` builds a config from it, and
# the types of its pool and safety set are the ones the task accepts.
# The gains are chosen so the tube gain gamma makes certification a real
# constraint at the base-model uncertainty (episode 1 must not already
# certify the most aggressive candidate), while the closed loop stays
# well damped and the steady tracking offset under the unlearned
# residual stays small: pendulum gamma ~ 2.06, drone gamma ~ 0.64.
# Landing has a weaker L1 than the pendulum: near the ground the lift
# term is steep and the head norms it needs are large, so a stronger
# penalty visibly biases the mean and stalls the landing frontier.
TASKS = {
    "pendulum": dict(
        candidates=PendulumPool(), safety=StateBox(),
        beta=0.5, sigma0_sq=0.5, gains=ControllerGains(1.0, 2.0), horizon=20.0,
        train=rr.TrainConfig(epochs=300, lam=1e-3), first_fit_epochs=1500,
    ),
    "landing": dict(
        candidates=LandingPool(), safety=TouchdownSpeed(),
        beta=1.0, sigma0_sq=1.0, gains=ControllerGains(3.2, 2.0), horizon=10.0,
        train=rr.TrainConfig(epochs=500, lam=1e-4), first_fit_epochs=2000,
    ),
}

# Each task's plant; nothing varies it, so it is not a config field
PLANTS = {"pendulum": PENDULUM, "landing": DRONE}

# Fixed settings of the loop (no workload varies them).  The simulator
# integrates at SIM_DT on desired trajectories gridded at TRAJ_DT, and
# data is collected from each rollout every SAMPLE_STRIDE integrator
# steps (50 Hz), the rate trajectories.csv is written at.  The learned
# compensation d_hat is refreshed every D_HAT_HOLD_STEPS integrator steps
# and held in between, while the feedback terms update every step: a
# documented deviation from the idealized loop (1 is exact).  A fit sees
# at most MAX_TRAIN_POINTS rows, the source KDE at most KDE_SRC_MAX and
# each target KDE at most KDE_TRG_MAX samples, all thinned by even
# stride.  Both learners train on the one capped set.  300 rows is the
# knee: against 600, at seeds 0-19 the robust fit took 30-40 % less
# time with no violation, divergence or unconverged fit, and eps coverage
# moved within rounding noise (pendulum 169 of 280 flights against 177,
# landing 80 against 78); 200 rows left a landing fit unconverged.  A
# candidate's target sample is also the GP's certificate sample:
# predicting on every grid row would cost the GP a measurable share of
# its run.  W_MAX bounds the density ratio `check` admits.
SIM_DT = 0.001
TRAJ_DT = 0.01
SAMPLE_STRIDE = 20
D_HAT_HOLD_STEPS = 20
MAX_TRAIN_POINTS = 300
KDE_SRC_MAX = 500
KDE_TRG_MAX = 250
W_MAX = 50.0


class ConfigError(ValueError):
    """Invalid experiment configuration; message names the field."""


@dataclass(frozen=True, kw_only=True)
class ExperimentConfig:
    """Everything a seeded experiment needs.

    The task-calibrated fields have no class default: `default_config`
    fills them from the task's row of `TASKS`, which also fixes the types
    of `candidates` and `safety` (a pendulum's `PendulumPool` of swing
    amplitudes and `StateBox`, or a drone's `LandingPool` of rates x
    hovers and `TouchdownSpeed`).  The task also fixes the `plant`.

    The robust certificate reads every grid row, the GP's its target
    sample; the d_hat hold, fixed at D_HAT_HOLD_STEPS, is the robust
    loop's one documented deviation from the idealized loop.  The
    simulation and collection rates, the data and KDE caps and the W_MAX
    screen are module constants, as is the ratio's upper clip
    `density_ratio.R_HI`, since no workload varies them; the robust prior is N(0, sigma0_sq), with
    zero mean like the GP's.  `horizon` must be a multiple of TRAJ_DT
    whose step count an array index can hold (each candidate's grid has a
    row per TRAJ_DT step), 1.5 C^2 horizon finite for each landing rate C, the landing ground below
    LANDING_START - CONTACT_TOL (the start is not landed), and `gamma()` positive and finite.
    Every robust fit warm-starts from the learner's current model, and an
    episode with no admissible candidate flies nothing.
    """

    task: str
    episodes: int = 15
    seed: int = 0
    beta: float
    sigma0_sq: float
    gains: ControllerGains
    horizon: float
    candidates: PendulumPool | LandingPool
    safety: SafetySet
    train: rr.TrainConfig
    first_fit_epochs: int
    model_kind: str = "robust"
    gp: GpHyper = field(default_factory=GpHyper)

    def __post_init__(self):
        if self.task not in TASKS:
            raise ConfigError(f"task: unknown task {self.task!r}")
        for name in ("candidates", "safety"):
            cls = type(TASKS[self.task][name])
            if not isinstance(getattr(self, name), cls):
                raise ConfigError(f"{name}: the {self.task} task needs a {cls.__name__}")
        if self.episodes < 1:
            raise ConfigError("episodes: must be >= 1")
        if self.seed < 0:
            raise ConfigError("seed: must be >= 0")
        if self.beta <= 0:
            raise ConfigError("beta: must be positive")
        if self.sigma0_sq <= 0:
            raise ConfigError("sigma0_sq: must be positive")
        try:
            grid_steps(self.horizon, TRAJ_DT)
        except ValueError as exc:
            raise ConfigError(f"horizon: {exc}") from exc
        if self.task == "landing":
            if not self.safety.ground + CONTACT_TOL < LANDING_START:
                raise ConfigError(f"safety: ground must lie below {LANDING_START - CONTACT_TOL}")
            c = max(self.candidates.rates)
            if not math.isfinite(LANDING_START * c * c * self.horizon):
                raise ConfigError(f"pool: descent rate {c} too large: 1.5 C^2 horizon overflows")
        try:  # (1/lam)^2 can overflow (gamma raises) or 1/k overflow to inf
            if not 0.0 < self.gamma() < math.inf:
                raise ArithmeticError
        except ArithmeticError as exc:
            raise ConfigError("gains: the tube gain gamma is not positive and finite") from exc
        if self.model_kind not in MODEL_KINDS:
            raise ConfigError(f"model_kind: must be one of {MODEL_KINDS}")
        if self.first_fit_epochs < 1:
            raise ConfigError("first_fit_epochs: must be >= 1")

    def pool(self) -> list[DesiredTrajectory]:
        c = self.candidates
        if self.task == "pendulum":
            return pendulum_pool(c.amplitudes, TRAJ_DT, self.horizon)
        pairs = [(rate, hover) for rate in c.rates for hover in c.hovers]
        return landing_pool(pairs, TRAJ_DT, self.horizon, self.safety.ground)

    def gamma(self) -> float:
        """The tube gain `bounds.gamma` of these gains."""
        return gamma(self.gains.k, self.gains.lam)

    @property
    def plant(self) -> Plant:
        """The task's plant, from `PLANTS`."""
        return PLANTS[self.task]


def default_config(task: str) -> ExperimentConfig:
    """The task's calibrated config: its row of `TASKS`, seed 0, the robust learner."""
    if task not in TASKS:
        raise ConfigError(f"task: unknown task {task!r}")
    return ExperimentConfig(task=task, **TASKS[task])


def _selection_key(traj: DesiredTrajectory):
    """Cost argmin with a deterministic tie-break.

    Ties (common early on the landing task, where no certified candidate
    reaches the ground within the horizon) prefer the lowest hover
    altitude, then the most aggressive rate: the most informative safe
    candidate.
    """
    return (traj.cost, traj.params.get("h_g", 0.0), -traj.params.get("C", 0.0))


@dataclass(frozen=True, eq=False)
class Candidate:
    """One pool candidate and its scoring state, each part computed when first read.

    The target KDE (fit on at most KDE_TRG_MAX evenly spaced rows of
    `traj.grid`, both ends included) and its density p_trg on the grid
    are each built on first read and kept for the experiment.
    `run_episode` reads them only for the candidates its walk reaches,
    and p_trg only once a source KDE exists, so a candidate no walk
    reaches costs nothing beyond its grid.  The GP learner scores on the
    target KDE's samples once it has a model, by which time the walk has
    built them.
    """

    traj: DesiredTrajectory

    @cached_property
    def trg_kde(self) -> KdeModel:
        return kde_fit(subsample_rows(self.traj.grid, KDE_TRG_MAX))

    @cached_property
    def p_trg(self) -> np.ndarray:
        """(n,) target density on the grid."""
        return kde_density(self.trg_kde, self.traj.grid)


def build_pool_cache(pool: list[DesiredTrajectory]) -> tuple[Candidate, ...]:
    """The pool sorted by `_selection_key`, one `Candidate` each, nothing computed yet.

    The sort is stable, so candidates with equal keys keep pool order.
    """
    return tuple(Candidate(traj) for traj in sorted(pool, key=_selection_key))


class RobustLearner:
    """Covariate-shift robust regressor: an adapter over `rr.std_at`, `rr.mean_fn` and `rr.fit`."""

    def __init__(self, config: ExperimentConfig, rng: np.random.Generator):
        self.cfg = config
        self.fits = 0
        self.model = rr.initial_model(config.sigma0_sq, net=rr.feature_net_init(rng))

    def eval_candidate(self, cand, r_min):
        """Max predictive std on cand's grid: `rr.std_at` its smallest ratio."""
        return rr.std_at(self.model, r_min)

    def d_hat_fn(self, src_kde, trg_kde):
        """`rr.mean_fn` at the `point_ratio` of the KDEs; r = 1 without them."""
        both = src_kde is not None and trg_kde is not None
        return rr.mean_fn(self.model, point_ratio(src_kde, trg_kde) if both else None)

    def retrain(self, dataset: Dataset, src_kde, trg_kde) -> float:
        train = self.cfg.train
        if self.fits == 0:
            # the first fit starts from random features and has its own
            # schedule; later fits only track slow data drift
            train = replace(train, epochs=self.cfg.first_fit_epochs)
        self.model = rr.fit(dataset, src_kde, trg_kde, train, init=self.model)
        self.fits += 1
        return self.model.moment_residual


class GpLearner:
    """Exact-GP drop-in: an adapter over `gp_predict`, `gp_mean_fn` and `gp_fit`."""

    def __init__(self, config: ExperimentConfig, kernel: str):
        self.cfg = config
        self.kernel = kernel
        self.model: Optional[GpModel] = None

    def eval_candidate(self, cand, r_min):
        """Max posterior std on cand's target sample, at most 250 grid rows, so it can
        understate the grid's max (module docstring); the prior std before any data."""
        if self.model is None:
            return math.sqrt(self.cfg.gp.sigma_f_sq)
        _, var = gp_predict(self.model, cand.trg_kde.samples)
        return float(np.sqrt(np.max(var)))

    def d_hat_fn(self, src_kde, trg_kde):
        """`gp_mean_fn` of the model; 0 before any data."""
        return (lambda q, qdot: 0.0) if self.model is None else gp_mean_fn(self.model)

    def retrain(self, dataset: Dataset, src_kde, trg_kde) -> float:
        self.model = None  # release the old n x n factor before fitting
        self.model = gp_fit(dataset.inputs, dataset.targets, self.cfg.gp, self.kernel)
        return math.nan


def make_learner(config: ExperimentConfig, rng: np.random.Generator):
    if config.model_kind == "robust":
        return RobustLearner(config, rng)
    return GpLearner(config, "rbf" if config.model_kind == "gp_rbf" else "matern52")


@dataclass(frozen=True)
class CandidateCheck:
    """One candidate's admission check by `check`: outcome "admitted", "rejected"
    (the certificate failed) or "screened" (w_hat above W_MAX, or NaN), which
    is neither scored nor certified, so every field after w_hat is NaN."""

    outcome: str
    # largest estimated p_trg / p_src on the grid (1 without data); of a
    # screened candidate, on the rows up to the first block above W_MAX
    w_hat: float
    r_min: float = math.nan  # smallest clipped ratio p_src / p_trg on the grid
    sigma_max: float = math.nan  # `eval_candidate` at r_min
    eps_m: float = math.nan  # beta * sigma_max
    tube_radius: float = math.nan  # rho = gamma * eps_m
    margin: float = math.nan  # the certificate's `Certification.margin`


@dataclass
class EpisodeOutcome(EpisodeRecord):
    """One episode's record, with the rollout it flew and that candidate's target KDE.

    An episode that flies nothing sets only `status` and `checks`.
    """

    rollout: Optional[Rollout] = None
    trg_kde: Optional[KdeModel] = None
    checks: tuple[CandidateCheck, ...] = ()  # one per candidate walked, in walk order


def _audit(rollout: Rollout, safe_set: SafetySet) -> bool:
    """True when any recorded state leaves the safety set."""
    states = rollout.states
    return not np.all(safety_contains(safe_set, states[:, 0], states[:, 1]))


def _realized_cost(config: ExperimentConfig, rollout: Rollout) -> float:
    if config.task == "pendulum":
        return -float(np.max(np.abs(rollout.states[:, 0])))
    return contact_time(rollout.times, rollout.states[:, 0], config.safety.ground)


def _collect(config: ExperimentConfig, rollout: Rollout) -> Dataset:
    states = rollout.states[::SAMPLE_STRIDE]
    res = config.plant.residual
    return Dataset(states, np.array([res(q, qdot) for q, qdot in states.tolist()]))


def check(cand: Candidate, learner, src_kde, config: ExperimentConfig) -> CandidateCheck:
    """Admit cand when its worst estimated density ratio against the data
    stays within W_MAX AND its tube certificate passes.

    The learning guarantee underlying the tube degrades with the
    worst-case ratio, so a proposal that strays past W_MAX is outside the
    regime where the certificate means anything, however small its
    predicted variance looks.  This is also what keeps exploration
    stepping outward gradually instead of leaping to the most aggressive
    candidate the moment the fit tightens.

    src_kde is the KDE of all previously collected inputs; None means
    episode 1, where the source density is undefined and r = 1 everywhere.
    Otherwise p_src is evaluated on cand's grid one `kde_density` block of
    rows at a time, in grid order, and the W_MAX screen comes first: the
    first block whose largest p_trg / p_src is above W_MAX (or NaN)
    screens cand, which then gets no `eval_candidate` and no
    `certify_trajectory` call, and no p_src on the rows after that block.
    A candidate the screen lets through has p_src on every row, the floats
    of one pass over the grid (`kde_density` is row-independent), so its
    w_hat (the largest p_trg / p_src on the grid) and r_min (the smallest
    clipped ratio there) depend only on that grid and the source KDE.
    """
    r_min = w_hat = 1.0
    if src_kde is not None:
        grid, p_trg = cand.traj.grid, cand.p_trg
        p_src = np.empty(len(grid))
        block = src_kde.block_rows
        w_hat = -math.inf
        for lo in range(0, len(grid), block):
            rows = slice(lo, lo + block)
            p_src[rows] = kde_density(src_kde, grid[rows])
            w = max_ratio(p_trg[rows], p_src[rows])
            if not w <= W_MAX:  # a NaN is screened out too
                # every earlier block is within W_MAX, so w is the max so far
                return CandidateCheck("screened", w)
            w_hat = max(w_hat, w)
        r_min = float(np.min(clipped_ratio(p_src, p_trg)))
    sigma_max = learner.eval_candidate(cand, r_min)
    eps_m = config.beta * sigma_max
    rho = config.gamma() * eps_m
    cert = certify_trajectory(cand.traj, rho, config.safety)
    outcome = "admitted" if cert.safe else "rejected"
    return CandidateCheck(outcome, w_hat, r_min, sigma_max, eps_m, rho, cert.margin)


def run_episode(
    pool: tuple[Candidate, ...],
    learner,
    src_kde: Optional[KdeModel],
    config: ExperimentConfig,
) -> EpisodeOutcome:
    """One episode: `check` the pool in selection order, fly the first admitted candidate, audit.

    The pool is sorted by `_selection_key`, so the first admitted
    candidate is the cost argmin of the admissible set, ties going to
    pool order, and no candidate after it is checked.
    `n_certified` is 1 when the episode flies and 0 when it does not.
    Returns the episode's record, flight audit and checks included, with
    status "ok", "touchdown" (landing reached the ground, still a
    success), "no_safe_candidate", or "diverged"; `run_experiment`
    numbers it and fills in the retrain's fields.
    """
    checks = []
    for cand in pool:
        checks.append(check(cand, learner, src_kde, config))
        if checks[-1].outcome == "admitted":
            break
    else:
        return EpisodeOutcome(episode=0, status="no_safe_candidate", checks=tuple(checks))

    admitted = checks[-1]
    traj, trg_kde = cand.traj, cand.trg_kde
    rollout = simulate_closed_loop(
        config.plant,
        config.gains,
        learner.d_hat_fn(src_kde, trg_kde),
        traj,
        SIM_DT,
        traj.grid[0],  # the flight starts on the trajectory, s(0) = 0, as the tube bound assumes
        ground=config.safety.ground if config.task == "landing" else None,
        d_hat_hold_steps=D_HAT_HOLD_STEPS,
    )
    return EpisodeOutcome(
        episode=0,  # numbered by run_experiment
        status=rollout.status,
        params=dict(traj.params),
        cost=traj.cost,
        realized_cost=_realized_cost(config, rollout),
        sigma_max=admitted.sigma_max,
        eps_m=admitted.eps_m,
        tube_radius=admitted.tube_radius,
        n_certified=1,
        rms_tracking=rollout.rms_tracking(),
        rms_residual_error=float(np.sqrt(np.mean(rollout.eps ** 2))),
        w_hat=admitted.w_hat,
        violation=_audit(rollout, config.safety),
        rollout=rollout,
        trg_kde=trg_kde,
        checks=tuple(checks),
    )


@dataclass
class ExperimentResult:
    """Each episode's record, an `EpisodeOutcome` (its rollout is None if it flew nothing)."""

    config: ExperimentConfig
    records: list

    @property
    def rollouts(self) -> list:
        return [r.rollout for r in self.records]

    @property
    def violations(self) -> int:
        return sum(1 for r in self.records if r.violation)

    @property
    def diverged(self) -> int:
        return sum(1 for r in self.records if r.status == "diverged")

    @property
    def tracked(self) -> list:
        """The records of the episodes that flew to the end or touched down."""
        return [r for r in self.records if r.status in ("ok", "touchdown")]

    @property
    def final_cost(self) -> float:
        tracked = self.tracked
        return tracked[-1].realized_cost if tracked else math.nan


def run_experiment(config: ExperimentConfig, learner=None) -> ExperimentResult:
    """Run the full episodic loop; deterministic given config + seed.

    The seed draws the robust learner's initial feature net and nothing
    else; everything after it is deterministic, so identical config +
    seed reproduce the run bit for bit.
    """
    if learner is None:
        learner = make_learner(config, np.random.default_rng(config.seed))
    pool = build_pool_cache(config.pool())

    dataset = Dataset.empty()
    src_kde = None
    records: list[EpisodeOutcome] = []

    for episode in range(1, config.episodes + 1):
        rec = run_episode(pool, learner, src_kde, config)
        rec.episode = episode
        rec.n_train = len(dataset)
        # a diverged flight collects nothing
        if rec.status in ("ok", "touchdown"):
            dataset = dataset.concat(_collect(config, rec.rollout))
            # training ratios: source = everything collected so far,
            # target = the trajectory just tracked; the next episode
            # scores against the same source KDE
            src_kde = kde_fit(subsample_rows(dataset.inputs, KDE_SRC_MAX))
            train_set = dataset.subsample(MAX_TRAIN_POINTS)
            rec.moment_residual = learner.retrain(train_set, src_kde, rec.trg_kde)
            rec.n_train = len(train_set)
        records.append(rec)

    return ExperimentResult(config=config, records=records)
