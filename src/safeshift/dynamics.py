"""Rigid body dynamics with an unknown additive residual force.

Both benchmark plants share the manipulator-equation structure

    M(q) qddot + C(q, qdot) qdot + G(q) = B u + d(q, qdot)

with a one dimensional configuration.  d is the residual the learner has
to identify: aerodynamic drag under a crosswind for the pendulum, ground
effect for the drone.  The integrator is a fixed-step classical RK4 with
the control held constant across the step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

__all__ = [
    "MixedModelParams",
    "PendulumParams",
    "DroneParams",
    "pendulum_mixed_model",
    "drone_mixed_model",
    "drone_actuator_invert",
    "pendulum_residual_fn",
    "drone_residual_fn",
    "forward_dynamics",
    "step_rk4",
    "skew_check",
    "SimulationDiverged",
    "DIVERGENCE_LIMIT",
]

DIVERGENCE_LIMIT = 1e6


class SimulationDiverged(RuntimeError):
    """State magnitude exceeded the divergence limit during integration."""


def _unpack(state) -> tuple[float, float]:
    if hasattr(state, "q"):
        return float(state.q), float(state.qdot)
    q, qdot = state
    return float(q), float(qdot)


@dataclass(frozen=True)
class MixedModelParams:
    """Known part of the dynamics: inertia, Coriolis, gravity, actuation.

    Scalar (1-DOF) system, so the callables return floats and `actuation`
    is the scalar B.  `actuator_invert`, when set, maps a commanded force
    to the physical actuator command (the drone's thrust map) and reports
    whether an unreachable demand was clamped; the applied force is then
    clamped to be nonnegative.  None means the command is applied as-is.
    """

    mass_matrix: Callable[[float], float]
    coriolis: Callable[[float, float], float]
    gravity: Callable[[float], float]
    actuation: float
    actuator_invert: Optional[Callable[[float], tuple[float, bool]]] = None
    # optional fused acceleration (q, qdot, bu, d) -> qddot, equal to
    # forward_dynamics but one call instead of three; the simulator's
    # hot loop uses it when present
    accel: Optional[Callable[[float, float, float, float], float]] = None

    @property
    def force_input(self) -> bool:
        return self.actuator_invert is not None


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


@dataclass(frozen=True)
class DroneParams:
    m: float = 1.0
    g: float = 9.8
    c_t: float = 1.0
    ge_a: float = 2.0
    ge_b: float = 3.0
    ge_c: float = 0.5
    altitude_floor: float = 0.05

    def __post_init__(self):
        if min(self.m, self.g, self.c_t) <= 0 or self.ge_b <= 0:
            raise ValueError("m, g, c_t, ge_b must be positive")


def pendulum_mixed_model(p: PendulumParams = PendulumParams()) -> MixedModelParams:
    """Torque-driven pendulum, m l^2 qddot - m g l sin q = u + d.

    The gravity convention is the inverted one (G(q) = -m g l sin q), so
    the unforced upright q = 0 is an equilibrium.
    """
    ml2 = p.m * p.l * p.l
    mgl = p.m * p.g * p.l
    return MixedModelParams(
        mass_matrix=lambda q: ml2,
        coriolis=lambda q, qdot: 0.0,
        gravity=lambda q: -mgl * math.sin(q),
        actuation=1.0,
        accel=lambda q, qdot, bu, d: (bu + d + mgl * math.sin(q)) / ml2,
    )


def drone_actuator_invert(force: float, c_t: float) -> tuple[float, bool]:
    """Motor command for a requested vertical force, thrust = c_t * u^2.

    Negative force demands are physically unreachable and clamp to u = 0;
    the second return value flags that the clamp engaged.
    """
    if c_t <= 0:
        raise ValueError("c_t must be positive")
    if force < 0:
        return 0.0, True
    return math.sqrt(force / c_t), False


def drone_mixed_model(p: DroneParams = DroneParams()) -> MixedModelParams:
    """Vertical-axis drone, m qddot + m g = F + d with thrust F = c_t u^2."""
    mg = p.m * p.g
    c_t = p.c_t
    mass = p.m
    return MixedModelParams(
        mass_matrix=lambda q: mass,
        coriolis=lambda q, qdot: 0.0,
        gravity=lambda q: mg,
        actuation=1.0,
        actuator_invert=lambda force: drone_actuator_invert(force, c_t),
        accel=lambda q, qdot, bu, d: (bu + d - mg) / mass,
    )


def pendulum_residual_fn(p: PendulumParams) -> Callable[[float, float, float], float]:
    """Quadratic drag torque on the bob in a horizontal wind, as d(t, q, qdot).

    The relative air speed is the tip speed l*qdot minus the wind speed;
    drag opposes it with magnitude c_d * speed^2 acting at arm l.
    """
    cdl, l, v_w = p.c_d * p.l, p.l, p.v_w

    def fn(t: float, q: float, qdot: float) -> float:
        rel = l * qdot - v_w
        return -cdl * rel * abs(rel)

    return fn


def drone_residual_fn(p: DroneParams) -> Callable[[float, float, float], float]:
    """Ground effect as d(t, q, qdot): altitude-decaying lift plus damping.

    The altitude is clamped below at altitude_floor so the exponential
    stays bounded if the simulator momentarily pushes the drone through
    the ground plane.
    """
    ge_a, ge_b, ge_c, floor = p.ge_a, p.ge_b, p.ge_c, p.altitude_floor

    def fn(t: float, q: float, qdot: float) -> float:
        return (ge_a - ge_c * qdot) * math.exp(-ge_b * (q if q > floor else floor))

    return fn


def forward_dynamics(model: MixedModelParams, state, u: float, d: float) -> float:
    """Acceleration qddot = M(q)^-1 (B u - C(q,qdot) qdot - G(q) + d)."""
    q, qdot = _unpack(state)
    m = model.mass_matrix(q)
    if m == 0:
        raise ValueError("singular mass matrix")
    rhs = model.actuation * u - model.coriolis(q, qdot) * qdot - model.gravity(q) + d
    return rhs / m


def step_rk4(
    accel: Callable[[float, float, float, float], float],
    t: float,
    q: float,
    qdot: float,
    u: float,
    dt: float,
) -> tuple[float, float]:
    """One classical RK4 step of (q, qdot)' = (qdot, accel(t, q, qdot, u)).

    u is held constant across the step.  Raises SimulationDiverged when
    the new state is non-finite or leaves the |x| <= DIVERGENCE_LIMIT box.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    half = 0.5 * dt
    k1 = accel(t, q, qdot, u)
    q2, qd2 = q + half * qdot, qdot + half * k1
    k2 = accel(t + half, q2, qd2, u)
    q3, qd3 = q + half * qd2, qdot + half * k2
    k3 = accel(t + half, q3, qd3, u)
    q4, qd4 = q + dt * qd3, qdot + dt * k3
    k4 = accel(t + dt, q4, qd4, u)
    sixth = dt / 6.0
    q = q + sixth * (qdot + 2.0 * qd2 + 2.0 * qd3 + qd4)
    qdot = qdot + sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    if not (math.isfinite(q) and math.isfinite(qdot)) or max(abs(q), abs(qdot)) > DIVERGENCE_LIMIT:
        raise SimulationDiverged(f"state diverged at t={t + dt:.6f}")
    return q, qdot


def skew_check(
    model: MixedModelParams, q: float, qdot: float, tol: float = 1e-6
) -> bool:
    """True when Mdot - 2C is skew-symmetric (within tol) along the flow.

    Mdot is obtained by central differencing M in the direction of qdot.
    The check is that S + S^T has max-abs entry <= tol for S = Mdot - 2C;
    in the scalar case S + S^T = 2S.
    """
    h = 1e-6
    m_plus = model.mass_matrix(q + qdot * h)
    m_minus = model.mass_matrix(q - qdot * h)
    mdot = (m_plus - m_minus) / (2.0 * h)
    s = mdot - 2.0 * model.coriolis(q, qdot)
    return abs(2.0 * s) <= tol
