"""Composite-variable tracking controller and closed-loop simulation.

The controller drives the composite variable s = (qdot - qdot_g) + lam*(q - q_g)
to zero; with the learned residual compensation d_hat the closed loop of
the unit-inertia plant qddot + G(q) = u + d obeys

    sdot + K s = d - d_hat

so the tracking error is driven entirely by the residual prediction error.
The rollout integrates the true plant, qddot = u + d - G(q) from the
plant's `gravity` and true `residual`, with the scalar RK4 step of
`dynamics`, while the controller uses the same G(q) plus d_hat.

Each formula has one implementation: every step evaluates
`core.desired_values` at its time, G(q) once (shared by `control_law`
and the first RK4 stage) and the true residual at the recorded state,
then calls `control_law` and `dynamics.step_rk4`.  The rollout records
the state and the desired (q_g, qdot_g) the controller tracked at every
step; the tracking error x_tilde = states - desired is derived from
those rows, not stored.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .core import DesiredTrajectory, desired_values
from .dynamics import Plant, SimulationDiverged, step_rk4

__all__ = [
    "ControllerGains",
    "Rollout",
    "control_law",
    "simulate_closed_loop",
]


@dataclass(frozen=True)
class ControllerGains:
    """Scalar gains K (composite-variable feedback) and lam (error mixing)."""

    k: float
    lam: float

    def __post_init__(self):
        if self.k <= 0 or self.lam <= 0:
            raise ValueError("gains must be strictly positive")


def control_law(
    gains: ControllerGains,
    q: float,
    qdot: float,
    q_g: float,
    qdot_g: float,
    qddot_g: float,
    g_q: float,
    d_hat: float,
) -> float:
    """Feedback-linearizing tracking control, linear in d_hat.

    g_q is the plant's G(q) at q.  With q_tilde = q - q_g and
    qdot_tilde = qdot - qdot_g:

        s       = qdot_tilde + lam * q_tilde
        qddot_r = qddot_g - lam * qdot_tilde
        u       = qddot_r - K s + G(q) - d_hat

    For force-input plants the returned value is the commanded force,
    which the simulator clamps at zero.
    """
    lam = gains.lam
    q_t = q - q_g
    qd_t = qdot - qdot_g
    s = qd_t + lam * q_t
    qddot_r = qddot_g - lam * qd_t
    return qddot_r - gains.k * s + g_q - d_hat


@dataclass
class Rollout:
    """Closed-loop simulation record, one row per integrator step.

    states holds the actual (q, qdot) and desired the (q_g, qdot_g) the
    controller tracked at each step; eps holds the residual prediction
    error d - d_hat evaluated at each recorded state (ground truth is
    evaluated exactly there).  The tracking error is derived from these
    rows.  A touchdown rollout's last row is the contact state, so its
    time and speed are times[-1] and states[-1, 1].
    """

    times: np.ndarray
    states: np.ndarray
    desired: np.ndarray
    eps: np.ndarray
    status: str = "ok"
    clamp_count: int = 0

    @property
    def x_tilde(self) -> np.ndarray:
        """Tracking error x - x_d on every recorded row."""
        return self.states - self.desired

    def rms_tracking(self) -> float:
        """RMS of the tracking-error norm ||x_tilde|| over the rollout (never empty)."""
        sq = self.x_tilde
        sq *= sq
        return float(np.sqrt(np.mean(sq[:, 0] + sq[:, 1])))


def simulate_closed_loop(
    plant: Plant,
    gains: ControllerGains,
    d_hat_fn: Callable[[float, float], float],
    traj: DesiredTrajectory,
    dt: float,
    x0,
    *,
    ground: Optional[float] = None,
    d_hat_hold_steps: int = 1,
) -> Rollout:
    """Track `traj` in closed loop against the true residual dynamics.

    d_hat_fn(q, qdot) is the learned compensation queried at the actual
    state; `plant.residual` is the true residual.  The control is
    recomputed every integrator step and held across the RK4 substeps;
    d_hat itself is refreshed every d_hat_hold_steps steps and held in
    between, which leaves the feedback terms untouched.

    The desired values are `desired_values` at each of the simulator's
    own steps; of `traj`'s grid only its horizon is read.  Truncates with
    status "touchdown" when `ground` is given and the altitude reaches
    it; status "diverged" when the state leaves the +-DIVERGENCE_LIMIT
    box.  Otherwise runs to the trajectory horizon.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    if d_hat_hold_steps < 1:
        raise ValueError("d_hat_hold_steps must be >= 1")

    q, qdot = float(x0[0]), float(x0[1])
    if not (math.isfinite(q) and math.isfinite(qdot)):
        raise ValueError("x0 must be finite")

    n_steps = int(round(traj.horizon / dt))
    times = np.arange(n_steps + 1) * dt
    t_all = times.tolist()

    states = np.empty((n_steps + 1, 2))
    desired = np.empty((n_steps + 1, 2))
    eps = np.empty(n_steps + 1)
    # flat views of the buffers: a row's floats are stored without a
    # numpy scalar store each
    states_f, desired_f, eps_f = (memoryview(a.reshape(-1)) for a in (states, desired, eps))

    task, params = traj.task, traj.params
    force_input = plant.force_input
    gravity, residual_fn = plant.gravity, plant.residual

    def deriv(t, q, qdot, u):
        return u + residual_fn(q, qdot) - gravity(q)

    status = "ok"
    clamp_count = 0
    d_hat = 0.0
    contact = False
    for i in range(n_steps + 1):
        t = t_all[i]
        # scalar t: Python floats with math's bits (see desired_values)
        q_g, qdot_g, qddot_g = desired_values(task, params, t)
        # the contact row keeps the d_hat held over the step that reached
        # it, and no control is computed there
        if not contact:
            if i % d_hat_hold_steps == 0:
                d_hat = d_hat_fn(q, qdot)
            g_q = gravity(q)  # shared by the control law and the first stage
            force = control_law(gains, q, qdot, q_g, qdot_g, qddot_g, g_q, d_hat)
            if force_input:
                # thrust cannot pull: a negative demand is clamped to zero
                applied = force if force > 0.0 else 0.0
                clamp_count += force < 0.0
            else:
                applied = force

        j = 2 * i
        states_f[j] = q
        states_f[j + 1] = qdot
        desired_f[j] = q_g
        desired_f[j + 1] = qdot_g
        d = residual_fn(q, qdot)
        eps_f[i] = d - d_hat
        if contact or i == n_steps:
            break

        try:
            # the first stage reuses the residual just recorded
            q, qdot = step_rk4(deriv, t, q, qdot, applied, dt, applied + d - g_q)
        except SimulationDiverged:
            status = "diverged"
            break
        contact = ground is not None and q <= ground

    if contact:
        status = "touchdown"
    n_rec = i + 1
    if n_rec < len(times):
        # a flight cut short keeps only its rows, not the full-horizon buffers
        times, states, desired, eps = (a[:n_rec].copy() for a in (times, states, desired, eps))
    return Rollout(times, states, desired, eps, status=status, clamp_count=clamp_count)
