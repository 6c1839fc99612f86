"""Episodic safe exploration with certified tracking tubes.

Each episode: score every candidate desired trajectory with the current
model (max predictive deviation along it -> residual-error budget eps_m =
beta * sigma_max -> tube radius gamma * eps_m), certify the worst-case
tube against the safety set, track the cheapest certified candidate,
collect (state, residual) data along the actual rollout, and retrain.
Episode 1 runs on the untrained base model, so its tube is driven purely
by sigma0 and the loop starts conservative by construction.

The learner is pluggable: the robust covariate-shift regressor or a GP
baseline.  Both expose the same surface, and the densities each call
needs are passed in, not bound to the model:

  eval_candidate(traj, pts, ratios)  max predictive std on the candidate's
                                     certification points (ratios None
                                     means r = 1)
  d_hat_fn(src_kde, trg_kde)         the controller's compensation d_hat(q, qdot)
  retrain(dataset, src_kde, trg_kde)
  moment_residual_max()              the fit's stationarity residual

Scoring does each piece of work once, at the level where its inputs
change.  The pool is fixed, so each candidate's grid, certification
stride, target KDE and p_trg on its grid are computed once per experiment
(`PoolCache`).  The source density changes only when the dataset grows:
it is fit once for the retrain and reused by the next episode, where one
p_src pass over all grids together gives every candidate's clipped
ratios and its w_hat screen value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from . import robust_regression as rr
from .bounds import Certification, TubeParams, certify_trajectory, eps_m_from_sigma, gamma
from .controller import ControllerGains, Rollout, simulate_closed_loop, x0_on_trajectory
from .core import (
    Dataset,
    DesiredTrajectory,
    EpisodeRecord,
    SafetySet,
    StateBox,
    TouchdownSpeed,
    default_landing_params,
    default_pendulum_amplitudes,
    landing_pool,
    pendulum_pool,
    safety_contains,
    subsample_rows,
)
from .density_ratio import (
    DENSITY_FLOOR,
    KdeModel,
    RatioConfig,
    clipped_ratio,
    kde_density,
    kde_fit,
    max_ratio,
)
from .dynamics import (
    DroneParams,
    PendulumParams,
    drone_mixed_model,
    drone_residual_fn,
    pendulum_mixed_model,
    pendulum_residual_fn,
)
from .gp_baseline import GpHyper, GpModel, gp_fit, gp_predict, kernel_matrix

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "ExperimentResult",
    "EpisodeOutcome",
    "RobustLearner",
    "GpLearner",
    "PoolCache",
    "build_pool_cache",
    "make_learner",
    "default_config",
    "run_episode",
    "run_experiment",
]

MODEL_KINDS = ("robust", "gp_rbf", "gp_matern")


class ConfigError(ValueError):
    """Invalid experiment configuration; message names the field."""


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a seeded experiment needs.

    Pool parameters: `amplitudes` for the pendulum task; `rates` x
    `hovers` (cartesian product) for the landing task.  `output_dim` > 1
    appends zero-mean nuisance residual dimensions, exercising the
    multi-output learner; certification always uses dimension 0.

    Runtime knobs (documented deviations from the idealized loop, all
    revert to exact behavior when set to 1): `cert_stride` scans sigma on
    every k-th grid point; `d_hat_hold_steps` refreshes the learned
    compensation every k integrator steps while the feedback terms update
    every step.  Every robust fit warm-starts from the learner's current
    model, and an episode with no admissible candidate flies nothing.
    """

    task: str = "pendulum"
    episodes: int = 15
    seed: int = 0
    beta: float = 0.5
    mu0: float = 0.0
    sigma0_sq: float = 0.5
    gains: ControllerGains = field(default_factory=lambda: ControllerGains(1.0, 1.0))
    sim_dt: float = 0.001
    traj_dt: float = 0.01
    horizon: float = 20.0
    amplitudes: tuple = ()
    rates: tuple = ()
    hovers: tuple = ()
    q_abs_max: float = 1.5
    qdot_min_at_ground: float = -1.0
    ground: float = 0.0
    plant_pendulum: PendulumParams = field(default_factory=PendulumParams)
    plant_drone: DroneParams = field(default_factory=DroneParams)
    ratio: RatioConfig = field(default_factory=RatioConfig)
    w_max: float = 50.0
    sample_hz: float = 50.0
    output_dim: int = 1
    train: rr.TrainConfig = field(default_factory=lambda: rr.TrainConfig(epochs=300))
    max_train_points: int = 600
    kde_src_max: int = 500
    kde_trg_max: int = 250
    cert_stride: int = 4
    d_hat_hold_steps: int = 20
    first_fit_epochs: int = 1500
    model_kind: str = "robust"
    gp: GpHyper = field(default_factory=GpHyper)

    def __post_init__(self):
        if self.task not in ("pendulum", "landing"):
            raise ConfigError(f"task: unknown task {self.task!r}")
        if self.episodes < 1:
            raise ConfigError("episodes: must be >= 1")
        if self.seed < 0:
            raise ConfigError("seed: must be >= 0")
        if self.beta <= 0:
            raise ConfigError("beta: must be positive")
        if self.sigma0_sq <= 0:
            raise ConfigError("sigma0_sq: must be positive")
        if self.sim_dt <= 0 or self.traj_dt <= 0 or self.horizon <= 0:
            raise ConfigError("sim_dt/traj_dt/horizon: must be positive")
        if self.sample_hz <= 0:
            raise ConfigError("sample_hz: must be positive")
        if self.output_dim < 1:
            raise ConfigError("output_dim: must be >= 1")
        if self.model_kind not in MODEL_KINDS:
            raise ConfigError(f"model_kind: must be one of {MODEL_KINDS}")
        if min(self.max_train_points, self.kde_src_max, self.kde_trg_max) < 1:
            raise ConfigError("max_train_points/kde_src_max/kde_trg_max: must be >= 1")
        if self.cert_stride < 1 or self.d_hat_hold_steps < 1:
            raise ConfigError("cert_stride/d_hat_hold_steps: must be >= 1")
        if self.first_fit_epochs < 1:
            raise ConfigError("first_fit_epochs: must be >= 1")
        if self.w_max <= 0:
            raise ConfigError("w_max: must be positive")
        try:
            self.safety_set()
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"safety: {exc}") from exc

    def pool(self) -> list[DesiredTrajectory]:
        if self.task == "pendulum":
            amps = self.amplitudes or tuple(default_pendulum_amplitudes())
            return pendulum_pool(amps, dt=self.traj_dt, horizon=self.horizon)
        params = (
            [(c, h) for c in self.rates for h in self.hovers]
            if self.rates and self.hovers
            else default_landing_params()
        )
        return landing_pool(
            params, dt=self.traj_dt, horizon=self.horizon, ground=self.ground
        )

    def safety_set(self) -> SafetySet:
        if self.task == "pendulum":
            return StateBox(q_abs_max=self.q_abs_max)
        return TouchdownSpeed(qdot_min_at_ground=self.qdot_min_at_ground, ground=self.ground)

    def mixed_model(self):
        if self.task == "pendulum":
            return pendulum_mixed_model(self.plant_pendulum)
        return drone_mixed_model(self.plant_drone)

    def residual_fn(self):
        if self.task == "pendulum":
            return pendulum_residual_fn(self.plant_pendulum)
        return drone_residual_fn(self.plant_drone)

    def tube(self) -> TubeParams:
        # both plants have configuration-independent inertia
        m = self.mixed_model().mass_matrix(0.0)
        return TubeParams.scalar(m, self.gains.k, self.gains.lam)

    def rollout_ground(self) -> Optional[float]:
        return self.ground if self.task == "landing" else None


def default_config(task: str, seed: int = 0, model_kind: str = "robust") -> ExperimentConfig:
    """Calibrated per-task defaults.

    The gains are chosen so the tube gain gamma makes certification a real
    constraint at the base-model uncertainty (episode 1 must not already
    certify the most aggressive candidate), while the closed loop stays
    well damped and the steady tracking offset under the unlearned
    residual stays small: pendulum gamma ~ 2.06, drone gamma ~ 0.64.
    """
    if task == "pendulum":
        return ExperimentConfig(
            task="pendulum",
            seed=seed,
            beta=0.5,
            sigma0_sq=0.5,
            gains=ControllerGains(1.0, 2.0),
            horizon=20.0,
            output_dim=1,
            model_kind=model_kind,
        )
    if task == "landing":
        # Weaker L1 than the pendulum: near the ground the lift term is
        # steep and the head norms it needs are large, so the default
        # penalty visibly biases the mean and stalls the landing frontier.
        return ExperimentConfig(
            task="landing",
            seed=seed,
            beta=1.0,
            sigma0_sq=1.0,
            gains=ControllerGains(3.2, 2.0),
            horizon=10.0,
            output_dim=3,
            cert_stride=6,
            train=rr.TrainConfig(epochs=500, lam=1e-4),
            first_fit_epochs=2000,
            model_kind=model_kind,
        )
    raise ConfigError(f"task: unknown task {task!r}")


def _stride_index(n: int, stride: int) -> np.ndarray:
    """Every stride-th grid index, always ending at the last grid point."""
    if stride <= 1 or n <= 2:
        return np.arange(n)
    idx = list(range(0, n, stride))
    if idx[-1] != n - 1:
        idx.append(n - 1)
    return np.array(idx)


@dataclass(frozen=True)
class PoolCache:
    """Per-experiment scoring state of a fixed candidate pool.

    `grids` stacks every candidate's full (q, qdot) grid; candidate k owns
    rows `spans[k]`, certifies on the subset `cert_idx[k]` of them, and
    has target KDE `trg_kdes[k]` with density `p_trg` on its own rows.
    """

    grids: np.ndarray  # (sum of grid lengths, 2)
    spans: tuple  # slice into grids per candidate
    cert_idx: tuple  # strided indices into each candidate's grid
    trg_kdes: tuple  # KdeModel per candidate
    p_trg: np.ndarray  # (len(grids),)

    def episode_inputs(self, src_kde: Optional[KdeModel], cfg: RatioConfig):
        """(certification points, clipped ratios, w_hat) per candidate.

        One p_src pass over all grids.  Without a source density (episode
        1) the ratios are None, meaning r = 1, and w_hat is 1.
        """
        p_src = None if src_kde is None else kde_density(src_kde, self.grids)
        out = []
        for span, idx in zip(self.spans, self.cert_idx):
            pts = self.grids[span][idx]
            if p_src is None:
                out.append((pts, None, 1.0))
                continue
            p_s, p_t = p_src[span], self.p_trg[span]
            out.append((pts, clipped_ratio(p_s[idx], p_t[idx], cfg), max_ratio(p_t, p_s)))
        return out


def build_pool_cache(pool: list[DesiredTrajectory], config: ExperimentConfig) -> PoolCache:
    """Fit every candidate's target KDE and evaluate it on its grid, once."""
    grids = [traj.grid_xy() for traj in pool]
    ends = np.cumsum([len(g) for g in grids])
    trg_kdes = tuple(kde_fit(subsample_rows(g, config.kde_trg_max)) for g in grids)
    return PoolCache(
        grids=np.concatenate(grids),
        spans=tuple(slice(end - len(g), end) for g, end in zip(grids, ends)),
        cert_idx=tuple(_stride_index(len(g), config.cert_stride) for g in grids),
        trg_kdes=trg_kdes,
        p_trg=np.concatenate([kde_density(kde, g) for kde, g in zip(trg_kdes, grids)]),
    )


def _fast_ratio_point(src: KdeModel, trg: KdeModel, cfg: RatioConfig):
    """Single-point clipped density ratio, tuned for the rollout hot path.

    Sums the kernels directly where `kde_density` expands the squared
    distance for one BLAS product; the two differ in the last bits.
    """
    sx, sh = src.samples, src.bandwidth
    tx, th = trg.samples, trg.bandwidth
    s_norm = len(sx) * float(np.prod(sh)) * (2.0 * math.pi) ** (src.dim / 2.0)
    t_norm = len(tx) * float(np.prod(th)) * (2.0 * math.pi) ** (trg.dim / 2.0)
    r_lo, r_hi = cfg.r_lo, cfg.r_hi

    def ratio(q: float, qdot: float) -> float:
        zs = (np.array((q, qdot)) - sx) / sh
        p_s = float(np.exp(-0.5 * (zs * zs).sum(axis=1)).sum()) / s_norm
        zt = (np.array((q, qdot)) - tx) / th
        p_t = float(np.exp(-0.5 * (zt * zt).sum(axis=1)).sum()) / t_norm
        r = p_s / max(p_t, DENSITY_FLOOR)
        return r_lo if r < r_lo else (r_hi if r > r_hi else r)

    return ratio


class RobustLearner:
    """Covariate-shift robust regressor wired into the episode loop."""

    kind = "robust"

    def __init__(self, config: ExperimentConfig, rng: np.random.Generator):
        self.cfg = config
        self.fits = 0
        net = rr.feature_net_init(rng)
        self.model = rr.initial_model(
            config.mu0,
            config.sigma0_sq,
            dim_out=config.output_dim,
            lam=config.train.lam,
            theta_y_floor=config.train.theta_y_floor,
            net=net,
        )

    def eval_candidate(self, traj, pts, ratios):
        """Max predictive std of dimension 0 on pts; ratios None means r = 1."""
        return rr.sigma_max_on_traj(self.model, pts, ratios)

    def d_hat_fn(self, src_kde, trg_kde):
        """Predicted mean of dimension 0 at one state; r = 1 without KDEs.

        The same value as `rr.predict` with `density_ratio`, but rounded
        differently in the last bit (see `_fast_ratio_point`): routing the
        closure through them changes landing decisions at seed 0.
        """
        m = self.model
        head = m.theta_phi[0]
        theta_y0 = float(m.theta_y[0])
        inv_s0 = 1.0 / m.sigma0_sq
        base = m.mu0 * inv_s0
        ratio = (
            _fast_ratio_point(src_kde, trg_kde, self.cfg.ratio)
            if (src_kde is not None and trg_kde is not None)
            else None
        )

        def d_hat(q: float, qdot: float) -> float:
            r = 1.0 if ratio is None else ratio(q, qdot)
            a = float(m.net.forward(np.array((q, qdot))) @ head)
            return (base + r * a) / (inv_s0 + 2.0 * r * theta_y0)

        return d_hat

    def retrain(self, dataset: Dataset, src_kde, trg_kde):
        train = self.cfg.train
        if self.fits == 0 and self.cfg.first_fit_epochs > train.epochs:
            # the first fit starts from random features and needs the
            # longest schedule; later fits only track slow data drift
            train = replace(train, epochs=self.cfg.first_fit_epochs)
        self.model = rr.fit(
            dataset,
            src_kde,
            trg_kde,
            train,
            mu0=self.cfg.mu0,
            sigma0_sq=self.cfg.sigma0_sq,
            ratio_cfg=self.cfg.ratio,
            init=self.model,
        )
        self.fits += 1

    def moment_residual_max(self) -> float:
        if self.model.moment_residuals is None:
            return math.nan
        return float(np.max(np.abs(self.model.moment_residuals)))


class GpLearner:
    """Exact-GP drop-in with the same episode-loop surface."""

    def __init__(self, config: ExperimentConfig, hyper: GpHyper):
        self.cfg = config
        self.hyper = hyper
        self.model: Optional[GpModel] = None
        self.kind = "gp_" + ("rbf" if hyper.kernel == "rbf" else "matern")

    def eval_candidate(self, traj, pts, ratios):
        if self.model is None:
            return math.sqrt(self.hyper.sigma_f_sq)
        _, var = gp_predict(self.model, pts)
        return float(np.sqrt(np.max(var)))

    def d_hat_fn(self, src_kde, trg_kde):
        """Posterior mean of dimension 0 at one state; 0 before any data."""
        if self.model is None:
            return lambda q, qdot: 0.0
        m = self.model
        h = m.hyper
        alpha0 = np.ascontiguousarray(m.alpha[:, 0])

        def d_hat(q: float, qdot: float) -> float:
            k_star = kernel_matrix(h.kernel, m.x_train, ((q, qdot),), h.sigma_f_sq, h.ell)
            return float(k_star[:, 0] @ alpha0)

        return d_hat

    def retrain(self, dataset: Dataset, src_kde, trg_kde):
        self.model = None  # release the old n x n factor before fitting
        self.model = gp_fit(dataset.inputs, dataset.targets, self.hyper)

    def moment_residual_max(self) -> float:
        return math.nan


def make_learner(config: ExperimentConfig, rng: np.random.Generator):
    if config.model_kind == "robust":
        return RobustLearner(config, rng)
    kernel = "rbf" if config.model_kind == "gp_rbf" else "matern52"
    return GpLearner(config, replace(config.gp, kernel=kernel))


@dataclass
class EpisodeOutcome:
    """What one episode chose and flew, and the data it collected."""

    status: str
    chosen: Optional[DesiredTrajectory]
    rollout: Optional[Rollout]
    new_data: Optional[Dataset]
    sigma_max: float
    eps_m: float
    certification: Optional[Certification]
    n_certified: int
    w_hat: float
    trg_kde: Optional[KdeModel]


def _selection_key(traj: DesiredTrajectory):
    """Cost argmin with a deterministic tie-break.

    Ties (common early on the landing task, where no certified candidate
    reaches the ground within the horizon) prefer the lowest hover
    altitude, then the most aggressive rate: the most informative safe
    candidate.
    """
    return (traj.cost, traj.params.get("h_g", 0.0), -traj.params.get("C", 0.0))


def _audit(rollout: Rollout, safe_set: SafetySet) -> bool:
    """True when any recorded state leaves the safety set."""
    states = rollout.states
    return not np.all(safety_contains(safe_set, (rollout.times, states[:, 0], states[:, 1])))


def _realized_cost(config: ExperimentConfig, rollout: Rollout) -> float:
    if config.task == "pendulum":
        return -float(np.max(np.abs(rollout.states[:, 0])))
    reached = np.nonzero(rollout.states[:, 0] <= config.ground + 0.01)[0]
    if len(reached) == 0:
        return math.inf
    return float(rollout.times[reached[0]])


def _collect(config: ExperimentConfig, rollout: Rollout) -> Dataset:
    stride = max(1, int(round(1.0 / (config.sample_hz * config.sim_dt))))
    idx = np.arange(0, len(rollout.times), stride)
    states = rollout.states[idx]
    res = config.residual_fn()
    targets = np.zeros((len(idx), config.output_dim))
    for row, (t_i, (q, qdot)) in enumerate(zip(rollout.times[idx], states)):
        targets[row, 0] = res(float(t_i), float(q), float(qdot))
    return Dataset(states.copy(), targets)


def run_episode(
    pool: list[DesiredTrajectory],
    learner,
    src_kde: Optional[KdeModel],
    config: ExperimentConfig,
    cache: Optional[PoolCache] = None,
) -> EpisodeOutcome:
    """One episode: score, certify, select, track, collect.

    src_kde is the KDE of all previously collected inputs; None means
    episode 1, where the source density is undefined and r = 1 everywhere.
    cache is the pool's `build_pool_cache`; it is built here when not given.
    A candidate is admissible when its tube certificate passes AND its
    worst estimated density ratio against the data stays within w_max;
    the chosen candidate is the cost argmin of that admissible set.
    Returns an outcome with status "ok", "touchdown" (landing reached the
    ground, still a success), "no_safe_candidate", or "diverged".
    """
    if not pool:
        raise ValueError("empty candidate pool")
    if cache is None:
        cache = build_pool_cache(pool, config)
    elif len(cache.spans) != len(pool):
        raise ValueError("cache was built for a different pool")
    gamma_val = gamma(config.tube())
    safe_set = config.safety_set()

    evals = []
    inputs = cache.episode_inputs(src_kde, config.ratio)
    for traj, trg_kde, (pts, ratios, w_hat_k) in zip(pool, cache.trg_kdes, inputs):
        sigma_max = learner.eval_candidate(traj, pts, ratios)
        eps_m = eps_m_from_sigma(sigma_max, config.beta)
        cert = certify_trajectory(traj, gamma_val, eps_m, safe_set)
        evals.append((traj, trg_kde, sigma_max, eps_m, cert, w_hat_k))

    # admission requires both the tracking-tube certificate and a bounded
    # estimated density ratio: the learning guarantee underlying the tube
    # degrades with the worst-case ratio, so a proposal that strays past
    # w_max is outside the regime where the certificate means anything,
    # however small its predicted variance looks.  This is also what keeps
    # exploration stepping outward gradually instead of leaping to the
    # most aggressive candidate the moment the fit tightens.
    certified = [ev for ev in evals if ev[4].safe and ev[5] <= config.w_max]
    n_certified = len(certified)
    if not certified:
        return EpisodeOutcome(
            status="no_safe_candidate",
            chosen=None,
            rollout=None,
            new_data=None,
            sigma_max=math.nan,
            eps_m=math.nan,
            certification=None,
            n_certified=0,
            w_hat=math.nan,
            trg_kde=None,
        )

    traj, trg_kde, sigma_max, eps_m, cert, w_hat = min(
        certified, key=lambda ev: _selection_key(ev[0])
    )
    rollout = simulate_closed_loop(
        config.mixed_model(),
        config.gains,
        learner.d_hat_fn(src_kde, trg_kde),
        config.residual_fn(),
        traj,
        config.sim_dt,
        x0_on_trajectory(traj),
        ground=config.rollout_ground(),
        d_hat_hold_steps=config.d_hat_hold_steps,
    )
    if rollout.status == "diverged":
        return EpisodeOutcome(
            status="diverged",
            chosen=traj,
            rollout=rollout,
            new_data=None,
            sigma_max=sigma_max,
            eps_m=eps_m,
            certification=cert,
            n_certified=n_certified,
            w_hat=w_hat,
            trg_kde=trg_kde,
        )

    new_data = _collect(config, rollout)
    return EpisodeOutcome(
        status="touchdown" if rollout.status == "touchdown" else "ok",
        chosen=traj,
        rollout=rollout,
        new_data=new_data,
        sigma_max=sigma_max,
        eps_m=eps_m,
        certification=cert,
        n_certified=n_certified,
        w_hat=w_hat,
        trg_kde=trg_kde,
    )


@dataclass
class ExperimentResult:
    config: ExperimentConfig
    records: list
    learner: object
    rollouts: list
    trajs: list

    @property
    def violations(self) -> int:
        return sum(1 for r in self.records if r.violation)

    @property
    def final_cost(self) -> float:
        tracked = [r.realized_cost for r in self.records if r.status in ("ok", "touchdown")]
        return tracked[-1] if tracked else math.nan


def run_experiment(config: ExperimentConfig, learner=None) -> ExperimentResult:
    """Run the full episodic loop; deterministic given config + seed.

    The seed draws the robust learner's initial feature net and nothing
    else; everything after it is deterministic, so identical config +
    seed reproduce the run bit for bit.
    """
    if learner is None:
        learner = make_learner(config, np.random.default_rng(config.seed))
    pool = config.pool()
    cache = build_pool_cache(pool, config)
    safe_set = config.safety_set()

    dataset = Dataset.empty(config.output_dim)
    src_kde = None
    records: list[EpisodeRecord] = []
    rollouts: list[Optional[Rollout]] = []
    trajs: list[Optional[DesiredTrajectory]] = []

    for episode in range(1, config.episodes + 1):
        out = run_episode(pool, learner, src_kde, config, cache=cache)
        rec = EpisodeRecord(episode=episode, status=out.status)
        rec.sigma_max = out.sigma_max
        rec.eps_m = out.eps_m
        rec.n_certified = out.n_certified
        rec.w_hat = out.w_hat
        rec.n_train = len(dataset)
        if out.chosen is not None:
            rec.params = dict(out.chosen.params)
            rec.cost = out.chosen.cost
            rec.tube_radius = out.certification.rho if out.certification else math.nan
        if out.rollout is not None:
            rec.rms_tracking = out.rollout.rms_tracking()
            rec.violation = _audit(out.rollout, safe_set)
            rec.realized_cost = _realized_cost(config, out.rollout)
            rec.rms_residual_error = float(np.sqrt(np.mean(out.rollout.eps ** 2)))
        rollouts.append(out.rollout)
        trajs.append(out.chosen)

        if out.new_data is not None and len(out.new_data):
            dataset = dataset.concat(out.new_data)
            # training ratios: source = everything collected so far,
            # target = the trajectory just tracked; the next episode
            # scores against the same source KDE
            src_kde = kde_fit(subsample_rows(dataset.inputs, config.kde_src_max))
            train_set = dataset.subsample(config.max_train_points)
            learner.retrain(train_set, src_kde, out.trg_kde)
            rec.n_train = len(train_set)
            rec.moment_residual = learner.moment_residual_max()
        records.append(rec)

    return ExperimentResult(
        config=config,
        records=records,
        learner=learner,
        rollouts=rollouts,
        trajs=trajs,
    )
