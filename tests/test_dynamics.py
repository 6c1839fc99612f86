"""Plant models, ground-truth residuals, RK4, structural checks."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from safeshift.dynamics import (
    DroneParams,
    MixedModelParams,
    PendulumParams,
    SimulationDiverged,
    drone_mixed_model,
    drone_residual_fn,
    forward_dynamics,
    pendulum_mixed_model,
    pendulum_residual_fn,
    step_rk4,
)


# -- ground-truth residuals -----------------------------------------------------


def test_pendulum_residual_zero_at_matched_wind():
    p = PendulumParams()
    assert pendulum_residual_fn(p)(0.0, 0.3, p.v_w / p.l) == pytest.approx(0.0, abs=1e-15)


def test_pendulum_residual_example_value():
    p = PendulumParams(v_w=1.0)
    # relative tip speed 3 - 1 = 2, drag -0.1 * 2 * |2| = -0.4
    assert pendulum_residual_fn(p)(0.0, 0.0, 3.0) == pytest.approx(-0.4, rel=1e-12)


@given(qdot=st.floats(-5.0, 5.0))
def test_pendulum_residual_opposes_relative_motion(qdot):
    p = PendulumParams()
    rel = p.l * qdot - p.v_w
    d = pendulum_residual_fn(p)(0.0, 0.1, qdot)
    if rel > 0:
        assert d < 0
    elif rel < 0:
        assert d > 0


def test_drone_residual_example_value():
    d = drone_residual_fn(DroneParams())
    # (2 + 0.5) * exp(-1.5)
    assert d(0.0, 0.5, -1.0) == pytest.approx(2.5 * math.exp(-1.5), rel=1e-12)
    assert d(0.0, 0.5, -1.0) == pytest.approx(0.55783, rel=1e-4)


def test_drone_residual_vanishes_at_altitude():
    assert drone_residual_fn(DroneParams())(0.0, 50.0, 0.0) == pytest.approx(0.0, abs=1e-12)


def test_drone_residual_clamps_below_altitude_floor():
    p = DroneParams()
    d = drone_residual_fn(p)
    at_floor = d(0.0, p.altitude_floor, 0.0)
    assert d(0.0, 0.0, 0.0) == at_floor
    assert d(0.0, -0.3, 0.0) == at_floor


def test_drone_residual_monotone_decreasing_in_altitude():
    p = DroneParams()
    res = drone_residual_fn(p)
    q = np.linspace(p.altitude_floor, 2.0, 200)
    d = np.array([res(0.0, qi, 0.0) for qi in q])
    assert np.all(np.diff(d) < 0)


# -- forward dynamics -----------------------------------------------------------


def test_pendulum_upright_equilibrium():
    model = pendulum_mixed_model()
    assert forward_dynamics(model, (0.0, 0.0), 0.0, 0.0) == pytest.approx(0.0)


def test_pendulum_horizontal_acceleration_is_g():
    model = pendulum_mixed_model()
    assert forward_dynamics(model, (math.pi / 2, 0.0), 0.0, 0.0) == pytest.approx(9.8)


def test_pendulum_forward_dynamics_identity(rng):
    # qddot = (u + d + m g l sin q) / (m l^2) for the inverted-sign gravity
    p = PendulumParams(m=1.3, l=0.8)
    model = pendulum_mixed_model(p)
    for _ in range(50):
        q, qdot, u, d = rng.uniform(-3, 3, 4)
        expect = (u + d + p.m * p.g * p.l * math.sin(q)) / (p.m * p.l * p.l)
        assert forward_dynamics(model, (q, qdot), u, d) == pytest.approx(expect, rel=1e-12)


def test_drone_hover_thrust_balances_gravity():
    p = DroneParams()
    model = drone_mixed_model(p)
    thrust = p.m * p.g
    assert forward_dynamics(model, (1.0, 0.0), thrust, 0.0) == 0.0
    assert model.accel(1.0, 0.0, thrust, 0.0) == 0.0


def test_fused_accel_matches_forward_dynamics(rng):
    for model in (pendulum_mixed_model(), drone_mixed_model()):
        for _ in range(50):
            q, qdot, u, d = rng.uniform(-2, 2, 4)
            assert model.accel(q, qdot, model.actuation * u, d) == pytest.approx(
                forward_dynamics(model, (q, qdot), u, d), rel=1e-12, abs=1e-12
            )


# -- integrator -----------------------------------------------------------------


def _oscillator(t, q, qdot, u):
    return -q


def test_rk4_fixed_point():
    assert step_rk4(lambda t, q, qdot, u: 0.0, 0.0, 0.4, 0.0, 0.0, 0.01) == (0.4, 0.0)


def test_rk4_harmonic_oscillator_one_step():
    dt = 0.01
    q, qdot = step_rk4(_oscillator, 0.0, 1.0, 0.0, 0.0, dt)
    assert q == pytest.approx(math.cos(dt), abs=1e-9)
    assert qdot == pytest.approx(-math.sin(dt), abs=1e-9)


def _oscillator_error(dt: float) -> float:
    q, qdot = 1.0, 0.0
    n = int(round(1.0 / dt))
    for i in range(n):
        q, qdot = step_rk4(_oscillator, i * dt, q, qdot, 0.0, dt)
    return abs(q - math.cos(1.0))


def test_rk4_is_fourth_order():
    ratio = _oscillator_error(0.02) / _oscillator_error(0.01)
    assert 14.0 <= ratio <= 18.0


def test_rk4_raises_on_divergence():
    grow = lambda t, q, qdot, u: 100.0 * q  # noqa: E731
    q, qdot = 1e5, 1e5
    with pytest.raises(SimulationDiverged):
        for i in range(100):
            q, qdot = step_rk4(grow, 0.0, q, qdot, 0.0, 0.5)


def test_pendulum_energy_conservation_without_wind():
    """Unforced, undamped pendulum holds total energy to 1e-6 relative."""
    p = PendulumParams(c_d=0.0)
    model = pendulum_mixed_model(p)

    def accel(t, q, qdot, u):
        return forward_dynamics(model, (q, qdot), u, 0.0)

    def energy(q, qdot):
        # inverted-sign gravity: V(q) = -m g l (1 - cos q)
        return 0.5 * p.m * p.l ** 2 * qdot ** 2 - p.m * p.g * p.l * (1 - math.cos(q))

    q, qdot = 0.4, 0.0
    e0 = energy(q, qdot)
    dt = 0.001
    for i in range(10_000):
        q, qdot = step_rk4(accel, i * dt, q, qdot, 0.0, dt)
    scale = abs(e0) + p.m * p.g * p.l
    assert abs(energy(q, qdot) - e0) / scale < 1e-6


# -- structure ------------------------------------------------------------------


def skew_check(model: MixedModelParams, q: float, qdot: float, tol: float = 1e-6) -> bool:
    """True when Mdot - 2C is skew-symmetric (within tol) along the flow.

    Mdot is obtained by central differencing M in the direction of qdot.
    In the scalar case S + S^T = 2S for S = Mdot - 2C.
    """
    h = 1e-6
    mdot = (model.mass_matrix(q + qdot * h) - model.mass_matrix(q - qdot * h)) / (2.0 * h)
    return abs(2.0 * (mdot - 2.0 * model.coriolis(q, qdot))) <= tol


def test_skew_check_holds_for_both_plants():
    assert skew_check(pendulum_mixed_model(), 0.7, 1.3)
    assert skew_check(drone_mixed_model(), 0.7, -0.4)


def test_skew_check_fails_for_inconsistent_coriolis():
    bogus = MixedModelParams(
        mass_matrix=lambda q: 1.0,
        coriolis=lambda q, qdot: 1.0,
        gravity=lambda q: 0.0,
        actuation=1.0,
        accel=lambda q, qdot, bu, d: bu + d - qdot,
    )
    assert not skew_check(bogus, 0.0, 1.0)
