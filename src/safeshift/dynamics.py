"""Rigid body dynamics with an unknown additive residual force.

Both benchmark plants have a one dimensional configuration, a constant
inertia m and a directly actuated coordinate:

    m qddot + G(q) = u + d(q, qdot)

This is the manipulator equation M(q) qddot + C(q, qdot) qdot + G(q) =
B u + d with M = m, C = 0 and B = 1.  d is the residual the learner has
to identify: aerodynamic drag under a crosswind for the pendulum, ground
effect for the drone.  Each plant's parameters build its known part
(`mixed_model`) and its true residual (`residual_fn`).  The integrator is
a fixed-step classical RK4 with the control held constant across the step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

__all__ = [
    "MixedModelParams",
    "PendulumParams",
    "DroneParams",
    "step_rk4",
    "SimulationDiverged",
    "DIVERGENCE_LIMIT",
]

DIVERGENCE_LIMIT = 1e6


class SimulationDiverged(RuntimeError):
    """State magnitude exceeded the divergence limit during integration."""


@dataclass(frozen=True)
class MixedModelParams:
    """Known part of the dynamics m qddot + G(q) = u + d.

    `inertia` is the constant m and `gravity(q)` the force G(q).
    `accel(q, qdot, u, d)` is the acceleration (u + d - G(q)) / m with
    the plant's constants folded in; the simulator integrates it.
    `force_input` marks a plant driven by a force that cannot pull (the
    drone's thrust): the simulator applies max(command, 0) and counts
    the steps that clamp.
    """

    inertia: float
    gravity: Callable[[float], float]
    accel: Callable[[float, float, float, float], float]
    force_input: bool = False


@dataclass(frozen=True)
class PendulumParams:
    m: float = 1.0
    l: float = 1.0
    g: float = 9.8
    c_d: float = 0.1
    v_w: float = 2.0

    def __post_init__(self):
        if min(self.m, self.l, self.g) <= 0 or self.c_d < 0:
            raise ValueError("m, l, g must be positive and c_d nonnegative")

    def mixed_model(self) -> MixedModelParams:
        """Torque-driven pendulum, m l^2 qddot - m g l sin q = u + d.

        The gravity convention is the inverted one (G(q) = -m g l sin q),
        so the unforced upright q = 0 is an equilibrium.
        """
        ml2 = self.m * self.l * self.l
        mgl = self.m * self.g * self.l
        return MixedModelParams(
            inertia=ml2,
            gravity=lambda q: -mgl * math.sin(q),
            accel=lambda q, qdot, u, d: (u + d + mgl * math.sin(q)) / ml2,
        )

    def residual_fn(self) -> Callable[[float, float], float]:
        """Quadratic drag torque on the bob in a horizontal wind, as d(q, qdot).

        The relative air speed is the tip speed l*qdot minus the wind
        speed; drag opposes it with magnitude c_d * speed^2 acting at arm l.
        """
        cdl, l, v_w = self.c_d * self.l, self.l, self.v_w

        def fn(q: float, qdot: float) -> float:
            rel = l * qdot - v_w
            return -cdl * rel * abs(rel)

        return fn


@dataclass(frozen=True)
class DroneParams:
    m: float = 1.0
    g: float = 9.8
    ge_a: float = 2.0
    ge_b: float = 3.0
    ge_c: float = 0.5
    altitude_floor: float = 0.05

    def __post_init__(self):
        if min(self.m, self.g) <= 0 or self.ge_b <= 0:
            raise ValueError("m, g, ge_b must be positive")

    def mixed_model(self) -> MixedModelParams:
        """Vertical-axis drone, m qddot + m g = F + d with thrust F >= 0."""
        mg = self.m * self.g
        mass = self.m
        return MixedModelParams(
            inertia=mass,
            gravity=lambda q: mg,
            accel=lambda q, qdot, u, d: (u + d - mg) / mass,
            force_input=True,
        )

    def residual_fn(self) -> Callable[[float, float], float]:
        """Ground effect as d(q, qdot): altitude-decaying lift plus damping.

        The altitude is clamped below at altitude_floor so the exponential
        stays bounded if the simulator momentarily pushes the drone
        through the ground plane.
        """
        ge_a, ge_b, ge_c, floor = self.ge_a, self.ge_b, self.ge_c, self.altitude_floor

        def fn(q: float, qdot: float) -> float:
            return (ge_a - ge_c * qdot) * math.exp(-ge_b * (q if q > floor else floor))

        return fn


def step_rk4(
    accel: Callable[[float, float, float, float], float],
    t: float,
    q: float,
    qdot: float,
    u: float,
    dt: float,
    k1: float | None = None,
) -> tuple[float, float]:
    """One classical RK4 step of (q, qdot)' = (qdot, accel(t, q, qdot, u)).

    u is held constant across the step; k1, when given, is the caller's
    accel(t, q, qdot, u), which the first stage then reuses.  Raises
    SimulationDiverged when the new state is non-finite or leaves the
    |x| <= DIVERGENCE_LIMIT box, or when accel raises at a stage state
    that is no longer finite (the pendulum's math.sin(inf)); a raise at
    finite stage states propagates.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    half = 0.5 * dt
    try:
        if k1 is None:
            k1 = accel(t, q, qdot, u)
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
    if not (math.isfinite(q) and math.isfinite(qdot)) or max(abs(q), abs(qdot)) > DIVERGENCE_LIMIT:
        raise SimulationDiverged(f"state diverged at t={t + dt:.6f}")
    return q, qdot
