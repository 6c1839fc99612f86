"""The closed-loop simulator before the lean step, kept as a test reference.

A copy of `controller.simulate_closed_loop` as it stood before each step
shared one G(q) between the control law and the first RK4 stage and
wrote its rows through flat memoryviews: it evaluates G(q) twice per
step, once inside `_control_law` (the control law of that time, which
took the plant) and once for k1, and stores each of a row's five floats
with a numpy scalar store.  `desired_values` and `step_rk4` are imported
from the package.  The shipped simulator must reproduce it bit for bit,
in every array, the status and the clamp count; see test_controller.py.
"""

from __future__ import annotations

import math
from typing import Callable, Optional

import numpy as np

from safeshift.controller import ControllerGains, Rollout
from safeshift.core import DesiredTrajectory, desired_values
from safeshift.dynamics import Plant, SimulationDiverged, step_rk4


def _control_law(plant, gains, q, qdot, q_g, qdot_g, qddot_g, d_hat):
    lam = gains.lam
    q_t = q - q_g
    qd_t = qdot - qdot_g
    s = qd_t + lam * q_t
    qddot_r = qddot_g - lam * qd_t
    return qddot_r - gains.k * s + plant.gravity(q) - d_hat


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

    force_input = plant.force_input
    gravity, residual_fn = plant.gravity, plant.residual

    def deriv(t, q, qdot, u):
        return u + residual_fn(q, qdot) - gravity(q)

    status = "ok"
    clamp_count = 0
    d_hat = 0.0
    n_rec = 0
    contact = False
    for i in range(n_steps + 1):
        t = t_all[i]
        q_g, qdot_g, qddot_g = desired_values(traj.task, traj.params, t)
        if not contact:
            if i % d_hat_hold_steps == 0:
                d_hat = d_hat_fn(q, qdot)
            force = _control_law(plant, gains, q, qdot, q_g, qdot_g, qddot_g, d_hat)
            if force_input:
                applied = force if force > 0.0 else 0.0
                clamp_count += force < 0.0
            else:
                applied = force

        states[i, 0] = q
        states[i, 1] = qdot
        desired[i, 0] = q_g
        desired[i, 1] = qdot_g
        d = residual_fn(q, qdot)
        eps[i] = d - d_hat
        n_rec = i + 1
        if contact or i == n_steps:
            break

        try:
            k1 = applied + d - gravity(q)
            q, qdot = step_rk4(deriv, t, q, qdot, applied, dt, k1)
        except SimulationDiverged:
            status = "diverged"
            break
        contact = ground is not None and q <= ground

    if contact:
        status = "touchdown"
    if n_rec < len(times):
        times, states, desired, eps = (a[:n_rec].copy() for a in (times, states, desired, eps))
    return Rollout(times, states, desired, eps, status=status, clamp_count=clamp_count)
