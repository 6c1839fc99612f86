"""Rigid body dynamics with an unknown additive residual force.

Both task plants have a one dimensional configuration and a directly
actuated coordinate, at unit inertia: the pendulum's m l^2 and the
drone's m are both 1.  Per unit inertia the model is

    qddot + G(q) = u + d(q, qdot)

the manipulator equation M(q) qddot + C(q, qdot) qdot + G(q) = B u + d
with M = 1, C = 0 and B = 1.  d is the residual the learner has
to identify: aerodynamic drag under a crosswind for the pendulum, ground
effect for the drone.  Each task's plant is one fixed `Plant`, `PENDULUM`
or `DRONE`, with its true residual.  The integrator is a fixed-step
classical RK4 with the control held constant across the step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

__all__ = [
    "Plant",
    "PENDULUM",
    "DRONE",
    "step_rk4",
    "SimulationDiverged",
    "DIVERGENCE_LIMIT",
]

DIVERGENCE_LIMIT = 1e6


class SimulationDiverged(RuntimeError):
    """State magnitude exceeded the divergence limit during integration."""


@dataclass(frozen=True)
class Plant:
    """A unit-inertia plant qddot + G(q) = u + d and its true residual d.

    `gravity(q)` is the force G(q) and `residual(q, qdot)` the true d;
    the simulator integrates the acceleration u + d - G(q) from them.
    `force_input` marks a plant driven by a force that cannot pull (the
    drone's thrust): the simulator applies max(command, 0) and counts the
    steps that clamp.
    """

    gravity: Callable[[float], float]
    residual: Callable[[float, float], float]
    force_input: bool = False


def _pendulum() -> Plant:
    """Torque-driven pendulum in a crosswind, m l^2 qddot - m g l sin q = u + d.

    m = l = 1, so the inertia m l^2 is 1, and g = 9.8.  The gravity
    convention is the inverted one (G(q) = -m g l sin q), so the unforced
    upright q = 0 is an equilibrium.  d is the quadratic drag torque on
    the bob in a horizontal wind of speed v_w = 2: the relative air speed
    is the tip speed l*qdot minus v_w, and drag opposes it with magnitude
    c_d * speed^2 (c_d = 0.1) acting at arm l.
    """
    m, l, g, c_d, v_w = 1.0, 1.0, 9.8, 0.1, 2.0
    mgl = m * g * l
    cdl = c_d * l

    def residual(q: float, qdot: float) -> float:
        rel = l * qdot - v_w
        return -cdl * rel * abs(rel)

    return Plant(gravity=lambda q: -mgl * math.sin(q), residual=residual)


def _drone() -> Plant:
    """Vertical-axis drone in ground effect, m qddot + m g = F + d with thrust F >= 0.

    m = 1, the unit inertia, and g = 9.8.  d is an altitude-decaying lift
    plus damping, (a - c qdot) exp(-b q) with a = 2, b = 3 and c = 0.5.
    The altitude is clamped below at 0.05 so the exponential stays bounded
    if the simulator momentarily pushes the drone through the ground plane.
    """
    m, g, ge_a, ge_b, ge_c, floor = 1.0, 9.8, 2.0, 3.0, 0.5, 0.05
    mg = m * g

    def residual(q: float, qdot: float) -> float:
        return (ge_a - ge_c * qdot) * math.exp(-ge_b * (q if q > floor else floor))

    return Plant(gravity=lambda q: mg, residual=residual, force_input=True)


PENDULUM = _pendulum()
DRONE = _drone()


def step_rk4(
    accel: Callable[[float, float, float, float], float],
    t: float,
    q: float,
    qdot: float,
    u: float,
    dt: float,
    k1: float,
) -> tuple[float, float]:
    """One classical RK4 step of (q, qdot)' = (qdot, accel(t, q, qdot, u)).

    u is held constant across the step; k1 is the first stage
    accel(t, q, qdot, u), which the caller evaluates, so the step calls
    accel for the other three.  Raises
    SimulationDiverged when the new state is non-finite or leaves the
    |x| <= DIVERGENCE_LIMIT box, or when accel raises at a stage state
    that is no longer finite (the pendulum's math.sin(inf)); a raise at
    finite stage states propagates.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    half = 0.5 * dt
    try:
        q2, qd2 = q + half * qdot, qdot + half * k1
        k2 = accel(t + half, q2, qd2, u)
        q3, qd3 = q + half * qd2, qdot + half * k2
        k3 = accel(t + half, q3, qd3, u)
        q4, qd4 = q + dt * qd3, qdot + dt * k3
        k4 = accel(t + dt, q4, qd4, u)
    except (ArithmeticError, ValueError) as exc:
        # a stage the step did not reach is unbound and counts as finite
        stage = locals()
        for name in ("q", "qdot", "q2", "qd2", "q3", "qd3", "q4", "qd4"):
            if not math.isfinite(stage.get(name, 0.0)):
                raise SimulationDiverged(f"state diverged within the step at t={t:.6f}") from exc
        raise
    sixth = dt / 6.0
    q = q + sixth * (qdot + 2.0 * qd2 + 2.0 * qd3 + qd4)
    qdot = qdot + sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    lim = DIVERGENCE_LIMIT
    if not (-lim <= q <= lim and -lim <= qdot <= lim):  # a NaN fails every comparison
        raise SimulationDiverged(f"state diverged at t={t + dt:.6f}")
    return q, qdot
