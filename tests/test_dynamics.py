"""Plant models, ground-truth residuals, RK4."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from safeshift.dynamics import DRONE, PENDULUM, SimulationDiverged, step_rk4


def forward_dynamics(plant, q: float, u: float, d: float) -> float:
    """Textbook qddot = (u + d - G(q)) / m of either task plant.

    The pendulum (m = l = 1, g = 9.8) has inertia m l^2 and the
    inverted-sign gravity G(q) = -m g l sin q; the drone (m = 1, g = 9.8)
    has inertia m and G = m g.  Both inertias are 1.
    """
    if plant is PENDULUM:
        m, l, g = 1.0, 1.0, 9.8
        return (u + d + m * g * l * math.sin(q)) / (m * l ** 2)
    m, g = 1.0, 9.8
    return (u + d - m * g) / m


# -- ground-truth residuals -----------------------------------------------------


def test_pendulum_residual_zero_at_matched_wind():
    # tip speed l qdot = 2 matches the wind speed v_w = 2
    assert PENDULUM.residual(0.3, 2.0) == pytest.approx(0.0, abs=1e-15)


def test_pendulum_residual_example_value():
    # relative tip speed 4 - 2 = 2, drag -0.1 * 2 * |2| = -0.4
    assert PENDULUM.residual(0.0, 4.0) == pytest.approx(-0.4, rel=1e-12)


@given(qdot=st.floats(-5.0, 5.0))
def test_pendulum_residual_opposes_relative_motion(qdot):
    rel = qdot - 2.0
    d = PENDULUM.residual(0.1, qdot)
    if rel > 0:
        assert d < 0
    elif rel < 0:
        assert d > 0


def test_drone_residual_example_value():
    d = DRONE.residual
    # (2 + 0.5) * exp(-1.5)
    assert d(0.5, -1.0) == pytest.approx(2.5 * math.exp(-1.5), rel=1e-12)
    assert d(0.5, -1.0) == pytest.approx(0.55783, rel=1e-4)


def test_drone_residual_vanishes_at_altitude():
    assert DRONE.residual(50.0, 0.0) == pytest.approx(0.0, abs=1e-12)


def test_drone_residual_clamps_below_altitude_floor():
    d = DRONE.residual
    at_floor = d(0.05, 0.0)
    assert d(0.0, 0.0) == at_floor
    assert d(-0.3, 0.0) == at_floor
    assert d(0.06, 0.0) < at_floor


def test_drone_residual_monotone_decreasing_in_altitude():
    q = np.linspace(0.05, 2.0, 200)
    d = np.array([DRONE.residual(qi, 0.0) for qi in q])
    assert np.all(np.diff(d) < 0)


# -- forward dynamics -----------------------------------------------------------


def test_pendulum_upright_equilibrium():
    assert -PENDULUM.gravity(0.0) == pytest.approx(0.0)


def test_pendulum_horizontal_acceleration_is_g():
    assert -PENDULUM.gravity(math.pi / 2) == pytest.approx(9.8)


def test_pendulum_forward_dynamics_identity(rng):
    # the plant's gravity, which the control law uses, satisfies the
    # unit-inertia qddot + G(q) = u + d at the textbook acceleration
    for _ in range(50):
        q, qdot, u, d = rng.uniform(-3, 3, 4)
        qddot = forward_dynamics(PENDULUM, q, u, d)
        assert qddot + PENDULUM.gravity(q) == pytest.approx(u + d, rel=1e-12)


def test_drone_hover_thrust_balances_gravity():
    thrust = 1.0 * 9.8
    assert forward_dynamics(DRONE, 1.0, thrust, 0.0) == 0.0
    assert thrust - DRONE.gravity(1.0) == 0.0
    assert DRONE.gravity(1.0) == thrust
    assert DRONE.force_input and not PENDULUM.force_input


# -- integrator -----------------------------------------------------------------


def _oscillator(t, q, qdot, u):
    return -q


def _step(accel, t, q, qdot, u, dt):
    """`step_rk4` given the first stage accel(t, q, qdot, u), as the simulator gives it."""
    return step_rk4(accel, t, q, qdot, u, dt, accel(t, q, qdot, u))


def test_rk4_fixed_point():
    assert _step(lambda t, q, qdot, u: 0.0, 0.0, 0.4, 0.0, 0.0, 0.01) == (0.4, 0.0)


def test_rk4_harmonic_oscillator_one_step():
    dt = 0.01
    q, qdot = _step(_oscillator, 0.0, 1.0, 0.0, 0.0, dt)
    assert q == pytest.approx(math.cos(dt), abs=1e-9)
    assert qdot == pytest.approx(-math.sin(dt), abs=1e-9)


def test_rk4_given_k1_skips_the_first_stage():
    calls = []

    def accel(t, q, qdot, u):
        calls.append((t, q, qdot))
        return -q + 0.3 * qdot + u

    k1 = accel(0.2, 1.0, -0.5, 0.1)
    calls.clear()
    step_rk4(accel, 0.2, 1.0, -0.5, 0.1, 0.01, k1)
    assert len(calls) == 3


def _oscillator_error(dt: float) -> float:
    q, qdot = 1.0, 0.0
    n = int(round(1.0 / dt))
    for i in range(n):
        q, qdot = _step(_oscillator, i * dt, q, qdot, 0.0, dt)
    return abs(q - math.cos(1.0))


def test_rk4_is_fourth_order():
    ratio = _oscillator_error(0.02) / _oscillator_error(0.01)
    assert 14.0 <= ratio <= 18.0


def test_rk4_raises_on_divergence():
    grow = lambda t, q, qdot, u: 100.0 * q  # noqa: E731
    q, qdot = 1e5, 1e5
    with pytest.raises(SimulationDiverged):
        for i in range(100):
            q, qdot = _step(grow, 0.0, q, qdot, 0.0, 0.5)


@pytest.mark.parametrize("accel", [math.nan, math.inf, -math.inf, 2e9, -2e9])
def test_rk4_raises_on_a_new_state_that_is_not_finite_or_leaves_the_box(accel):
    # accel never raises, so the check of the new state catches a velocity
    # that is NaN, infinite or past DIVERGENCE_LIMIT = 1e6 (2e9 * 0.001)
    with pytest.raises(SimulationDiverged, match=r"^state diverged at t=0\.001000$"):
        step_rk4(lambda t, q, qdot, u: accel, 0.0, 0.0, 0.0, 0.0, 0.001, accel)
    # a new state just inside the box is kept
    assert step_rk4(lambda t, q, qdot, u: 9e8, 0.0, 0.0, 0.0, 0.0, 0.001, 9e8)[1] == 9e5


def test_rk4_step_whose_stage_state_blows_up_diverges():
    # an overflowed control sends the second stage's velocity to inf, and
    # the third stage evaluates the pendulum's math.sin at q = inf
    accel = lambda t, q, qdot, u: u - PENDULUM.gravity(q)  # noqa: E731
    with pytest.raises(SimulationDiverged) as info:
        _step(accel, 0.0, 0.0, 0.0, math.inf, 0.001)
    assert isinstance(info.value.__cause__, ValueError)


def test_rk4_raise_at_a_finite_stage_state_propagates():
    def accel(t, q, qdot, u):
        raise ValueError("fault in the plant")

    with pytest.raises(ValueError, match="fault in the plant"):
        step_rk4(accel, 0.0, 0.1, 0.0, 0.0, 0.001, 0.0)


def test_pendulum_energy_conservation_without_wind():
    """Unforced, undamped pendulum holds total energy to 1e-6 relative."""

    def accel(t, q, qdot, u):
        return forward_dynamics(PENDULUM, q, u, 0.0)

    def energy(q, qdot):
        # m = l = 1, inverted-sign gravity: V(q) = -m g l (1 - cos q)
        return 0.5 * qdot ** 2 - 9.8 * (1 - math.cos(q))

    q, qdot = 0.4, 0.0
    e0 = energy(q, qdot)
    dt = 0.001
    for i in range(10_000):
        q, qdot = _step(accel, i * dt, q, qdot, 0.0, dt)
    scale = abs(e0) + 9.8
    assert abs(energy(q, qdot) - e0) / scale < 1e-6

