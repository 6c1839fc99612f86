"""Shared data types for episodic safe exploration.

Desired trajectories, candidate pools, safety sets, and the dataset /
episode bookkeeping containers used by the exploration loop.  A desired
trajectory is its (q_g, qdot_g) rows on a uniform time grid, and it also
carries its closed-form expression (task name + parameters);
`desired_values` is the one implementation of each, used by the pool
builders and by the simulator on its own step grid, which records the
values it tracked.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Union

import numpy as np

__all__ = [
    "DesiredTrajectory",
    "StateBox",
    "TouchdownSpeed",
    "SafetySet",
    "Dataset",
    "EpisodeRecord",
    "CONTACT_TOL",
    "LANDING_START",
    "contact_time",
    "desired_values",
    "grid_steps",
    "PendulumPool",
    "LandingPool",
    "pendulum_pool",
    "landing_pool",
    "safety_contains",
    "subsample_rows",
]


# a landing altitude within CONTACT_TOL of the ground has reached it
CONTACT_TOL = 0.01
# the altitude every landing candidate descends from
LANDING_START = 1.5


def contact_time(times: np.ndarray, q: np.ndarray, ground: float) -> float:
    """First of `times` at which altitude q has reached the ground; +inf if never."""
    reached = np.nonzero(q <= ground + CONTACT_TOL)[0]
    return float(times[reached[0]]) if len(reached) else math.inf


def desired_values(task: str, params: dict, t):
    """Closed-form desired (q_g, qdot_g, qddot_g) of `task` at time(s) t.

    t is a scalar or an array; the three values have its shape.  A Python
    scalar is evaluated with `math`, an array with numpy: numpy's vectorised
    exp differs from math.exp in the last bit on about 5% of the landing
    step grid, and the landing loop amplifies that into other decisions.

    Tasks:
      "pendulum": q_g = C sin t, a swing of amplitude C.
      "landing":  q_g = (1.5 - h_g) exp(-C t)(1 + C t) + h_g, a critically
                  damped descent from LANDING_START = 1.5 to hover altitude h_g.
    """
    lib = math if isinstance(t, (int, float)) else np
    if task == "pendulum":
        c = params["C"]
        st = lib.sin(t)
        return c * st, c * lib.cos(t), -c * st
    if task == "landing":
        c = params["C"]
        h_g = params["h_g"]
        a = LANDING_START - h_g
        e = lib.exp(-c * t)
        return (
            a * e * (1.0 + c * t) + h_g,
            -a * c * c * t * e,
            -a * c * c * e * (1.0 - c * t),
        )
    raise ValueError(f"unknown task {task!r}")


@dataclass(frozen=True)
class DesiredTrajectory:
    """A candidate desired trajectory on the uniform time grid 0, dt, ..., horizon.

    `grid` is the (n, 2) array of desired (q_g, qdot_g) rows on that
    grid: column 0 the position, column 1 the velocity (`desired_values`
    gives the acceleration at any time).  The certificate checks it row
    by row, and the learner reads the same rows as its target sample.
    `cost` is the scalar exploration objective of the candidate (lower
    is better), +inf when the candidate does not achieve its goal within
    the horizon.
    """

    task: str
    params: dict
    grid: np.ndarray
    horizon: float
    cost: float


@dataclass(frozen=True)
class StateBox:
    """Safety set { |q| < q_abs_max }.  Membership is strict."""

    q_abs_max: float = 1.5

    def __post_init__(self):
        if not self.q_abs_max > 0:
            raise ValueError("q_abs_max must be positive")


@dataclass(frozen=True)
class TouchdownSpeed:
    """Safety set { q > ground or qdot > qdot_min_at_ground }.

    A state violates only when it is at/below ground level AND descending
    at or faster than the threshold speed (which is negative: descending).
    """

    qdot_min_at_ground: float = -1.0
    ground: float = 0.0

    def __post_init__(self):
        if not self.qdot_min_at_ground < 0:
            raise ValueError("qdot_min_at_ground must be negative")


SafetySet = Union[StateBox, TouchdownSpeed]


def safety_contains(safe_set: SafetySet, q, qdot):
    """Strict membership test for the state (q, qdot) in the safety set.

    q and qdot are scalars or equal-shape arrays; arrays are tested
    elementwise and give a boolean array.
    """
    if isinstance(safe_set, StateBox):
        return abs(q) < safe_set.q_abs_max
    if isinstance(safe_set, TouchdownSpeed):
        return (q > safe_set.ground) | (qdot > safe_set.qdot_min_at_ground)
    raise TypeError(f"unknown safety set {type(safe_set).__name__}")


def grid_steps(horizon: float, dt: float) -> int:
    """Number of dt steps in horizon; ValueError unless dt divides it."""
    if not (dt > 0 and 0 < horizon < math.inf):
        raise ValueError("must be positive and finite")
    # np.arange cannot hold more steps than an intp counts
    if not horizon / dt < np.iinfo(np.intp).max:
        raise ValueError(f"too long for the grid step {dt}")
    n = int(round(horizon / dt))
    if abs(n * dt - horizon) > 1e-9:
        raise ValueError(f"must be a multiple of the grid step {dt}")
    return n


def _uniform_grid(horizon: float, dt: float) -> np.ndarray:
    return np.arange(grid_steps(horizon, dt) + 1) * dt


@dataclass(frozen=True)
class PendulumPool:
    """Swing amplitudes C of the pendulum candidates (see `pendulum_pool`).

    Amplitudes outside (0, 1] are rejected: the swing must be a genuine
    excursion but stay clear of gimbal limits on the rig this models.
    """

    amplitudes: tuple[float, ...] = tuple(round(0.1 * k, 10) for k in range(1, 11))

    def __post_init__(self):
        if not self.amplitudes:
            raise ValueError("amplitudes must not be empty")
        for c in self.amplitudes:
            if not 0.0 < c <= 1.0:
                raise ValueError(f"pendulum amplitude {c} outside (0, 1]")


@dataclass(frozen=True)
class LandingPool:
    """Descent rates C x hover altitudes h_g of the landing candidates.

    Every (C, h_g) pair is one candidate (see `landing_pool`), ordered by
    rate, then by hover altitude.  Rates must be positive (the config
    bounds them by the horizon, see `ExperimentConfig`), and hover
    altitudes lie in [0, 1.5), below the start altitude.
    """

    rates: tuple[float, ...] = tuple(round(0.25 * k, 10) for k in range(1, 13))
    hovers: tuple[float, ...] = (0.0, 0.25, 0.5, 0.75, 1.0)

    def __post_init__(self):
        if not (self.rates and self.hovers):
            raise ValueError("rates and hovers must not be empty")
        for c in self.rates:
            if not c > 0:
                raise ValueError(f"descent rate {c} must be positive")
        for h_g in self.hovers:
            if not 0.0 <= h_g < LANDING_START:
                raise ValueError(f"hover altitude {h_g} outside [0, {LANDING_START})")


def pendulum_pool(amplitudes, dt: float, horizon: float) -> list[DesiredTrajectory]:
    """Sinusoidal swing candidates q_g = C sin t with cost -C.

    The amplitudes are those of a `PendulumPool`, which checks their range.
    """
    times = _uniform_grid(horizon, dt)
    pool = []
    for c in amplitudes:
        c = float(c)
        params = {"C": c}
        q, qd, _ = desired_values("pendulum", params, times)
        pool.append(
            DesiredTrajectory(
                task="pendulum",
                params=params,
                grid=np.column_stack([q, qd]),
                horizon=float(times[-1]),
                cost=-c,
            )
        )
    return pool


def landing_pool(param_pairs, dt: float, horizon: float, ground: float) -> list[DesiredTrajectory]:
    """Descent candidates parameterized by rate C and hover altitude h_g.

    q_g = (1.5 - h_g) exp(-C t)(1 + C t) + h_g descends monotonically from
    1.5 toward h_g.  Cost is the `contact_time` of q_g on the grid (+inf if
    the candidate never gets that low), so faster descents to lower hover
    altitudes are preferred.  The (C, h_g) pairs
    are those of a `LandingPool`, which checks their range.
    """
    times = _uniform_grid(horizon, dt)
    pool = []
    for c, h_g in param_pairs:
        c, h_g = float(c), float(h_g)
        params = {"C": c, "h_g": h_g}
        q, qd, _ = desired_values("landing", params, times)
        pool.append(
            DesiredTrajectory(
                task="landing",
                params=params,
                grid=np.column_stack([q, qd]),
                horizon=float(times[-1]),
                cost=contact_time(times, q, ground),
            )
        )
    return pool


def subsample_rows(x: np.ndarray, max_rows: int) -> np.ndarray:
    """Deterministic even-stride thinning of x to at most max_rows rows."""
    if len(x) <= max_rows:
        return x
    return x[np.linspace(0, len(x) - 1, max_rows).round().astype(int)]


@dataclass(frozen=True)
class Dataset:
    """Immutable buffer of (state, residual) training pairs.

    inputs: (n, 2) actual states (q, qdot); targets: (n,) measured
    residual force values.  Episodes grow the buffer via `concat`.
    """

    inputs: np.ndarray
    targets: np.ndarray

    def __post_init__(self):
        if self.inputs.ndim != 2 or self.inputs.shape[1] != 2:
            raise ValueError("inputs must be (n, 2)")
        if self.targets.shape != (self.inputs.shape[0],):
            raise ValueError("targets must be (n,)")
        if len(self.inputs) and not (
            np.all(np.isfinite(self.inputs)) and np.all(np.isfinite(self.targets))
        ):
            raise ValueError("dataset entries must be finite")

    def __len__(self) -> int:
        return self.inputs.shape[0]

    @classmethod
    def empty(cls) -> "Dataset":
        return cls(np.zeros((0, 2)), np.zeros(0))

    def concat(self, other: "Dataset") -> "Dataset":
        return Dataset(
            np.concatenate([self.inputs, other.inputs]),
            np.concatenate([self.targets, other.targets]),
        )

    def subsample(self, max_points: int) -> "Dataset":
        """`subsample_rows` of inputs and targets alike."""
        return Dataset(
            subsample_rows(self.inputs, max_points), subsample_rows(self.targets, max_points)
        )


@dataclass
class EpisodeRecord:
    """One `episodes.csv` row; an episode that flies nothing keeps the defaults."""

    episode: int  # 1-based episode number
    status: str  # "ok", "touchdown", "no_safe_candidate", "diverged"
    params: dict = field(default_factory=dict)  # the flown candidate's parameters
    cost: float = math.nan  # candidate cost at selection time
    realized_cost: float = math.nan  # cost realized by the tracked rollout
    sigma_max: float = math.nan  # the learner's largest predictive std on the candidate
    eps_m: float = math.nan  # residual-error budget beta * sigma_max
    tube_radius: float = math.nan  # certified tube radius rho = gamma * eps_m
    n_certified: int = 0  # 1 when the episode flies a certified candidate, else 0
    n_train: int = 0  # rows the episode's retrain fit on (rows held, if no retrain)
    rms_tracking: float = math.nan  # RMS of the tracking error ||x_tilde|| over the flight
    rms_residual_error: float = math.nan  # RMS of d - d_hat over the flight
    w_hat: float = math.nan  # largest estimated p_trg / p_src on the candidate's grid
    # the retrain's theta_y first-order residual mean(r (y^2 - mu^2 - sigma^2)) + lam:
    # ~0 at a root, >= 0 when theta_y's floor binds, < 0 at its ceiling; NaN for a GP
    moment_residual: float = math.nan
    violation: bool = False  # the flight left the safety set
