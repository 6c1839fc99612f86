"""Tracking controller and closed-loop simulator."""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest
import reference_rollout

from safeshift.controller import (
    ControllerGains,
    control_law,
    simulate_closed_loop,
)
from safeshift.core import desired_values
from safeshift.dynamics import DRONE, PENDULUM
from safeshift.core import landing_pool, pendulum_pool

ZERO = lambda q, qdot: 0.0  # noqa: E731


def composite(roll, lam):
    """s = qdot_tilde + lam * q_tilde on every recorded row."""
    return roll.x_tilde[:, 1] + lam * roll.x_tilde[:, 0]


def test_control_law_composite_variables():
    # q_tilde = 0.1, qdot_tilde = 0.4, s = 0.4 + 2 * 0.1 = 0.6, qddot_r =
    # -0.1 - 2 * 0.4 = -0.9; at unit inertia with G = 0, K = 5
    # u = qddot_r - 5 s = -0.9 - 3.0
    u = control_law(ControllerGains(5.0, 2.0), 0.3, 0.9, 0.2, 0.5, -0.1, 0.0, 0.0)
    assert u == pytest.approx(-3.9)


def test_control_law_equals_the_manipulator_form(rng):
    # (M qddot_r + C qdot_r - K s + G - d_hat) / B with M = 1, C = 0 and
    # B = 1 gives the same bits as the control law on both plants
    gains = ControllerGains(3.2, 2.0)
    for plant in (PENDULUM, DRONE):
        for _ in range(200):
            q, qdot, q_g, qdot_g, qddot_g, d_hat = rng.uniform(-3, 3, 6).tolist()
            q_t, qd_t = q - q_g, qdot - qdot_g
            s = qd_t + gains.lam * q_t
            qdot_r = qdot_g - gains.lam * q_t
            qddot_r = qddot_g - gains.lam * qd_t
            manipulator = (
                1.0 * qddot_r
                + 0.0 * qdot_r
                - gains.k * s
                + plant.gravity(q)
                - d_hat
            ) / 1.0
            u = control_law(gains, q, qdot, q_g, qdot_g, qddot_g, plant.gravity(q), d_hat)
            assert u == manipulator


def test_rollout_records_tracking_error_and_composite_variable():
    # desired is desired_values at every recorded time, the touchdown row
    # included, and x_tilde = states - desired
    (traj,) = landing_pool([(3.0, 0.0)], 0.01, 10.0, 0.0)
    lam = 2.0
    roll = simulate_closed_loop(
        replace(DRONE, residual=lambda q, qdot: -0.5),
        ControllerGains(3.2, lam),
        ZERO,
        traj,
        0.001,
        traj.grid[0],
        ground=0.0,
    )
    assert roll.status == "touchdown"
    for t, row in zip(roll.times.tolist(), roll.desired.tolist()):
        assert tuple(row) == desired_values(traj.task, traj.params, t)[:2]
    np.testing.assert_array_equal(roll.x_tilde, roll.states - roll.desired)
    # the last row is the contact state: the first at or below the ground
    assert roll.states[-1, 0] <= 0.0 < np.min(roll.states[:-1, 0])


def test_control_law_pendulum_gravity_term():
    # s = 0, qddot_r = 0, d_hat = 0 at q = pi/2 leaves only -G = -9.8
    q = math.pi / 2
    u = control_law(ControllerGains(10.0, 5.0), q, 0.0, q, 0.0, 0.0, PENDULUM.gravity(q), 0.0)
    assert u == pytest.approx(-9.8)


def test_control_law_drone_hover_force():
    force = control_law(ControllerGains(10.0, 5.0), 1.0, 0.0, 1.0, 0.0, 0.0, DRONE.gravity(1.0), 0.0)
    assert force == pytest.approx(9.8)


def test_control_law_linear_in_d_hat(rng):
    gains = ControllerGains(7.0, 3.0)
    desired = (0.2, 0.1, -0.3)
    for _ in range(25):
        q, qdot, d0, delta = rng.uniform(-2, 2, 4)
        g_q = PENDULUM.gravity(q)
        u0 = control_law(gains, q, qdot, *desired, g_q, d0)
        u1 = control_law(gains, q, qdot, *desired, g_q, d0 + delta)
        # u is exactly linear in d_hat with slope -1
        assert u1 - u0 == pytest.approx(-delta, rel=1e-12, abs=1e-12)


def test_perfect_model_keeps_s_near_zero():
    # u is held over each integrator step, so even a perfect d_hat leaves an
    # O(dt) composite error; it must be tiny and shrink linearly with dt.
    (traj,) = pendulum_pool([0.8], 0.01, 5.0)

    def run(dt):
        return simulate_closed_loop(
            PENDULUM,
            ControllerGains(10.0, 5.0),
            PENDULUM.residual,
            traj,
            dt,
            traj.grid[0],
        )

    roll = run(0.001)
    assert roll.status == "ok"
    assert np.max(np.abs(composite(roll, 5.0))) <= 1e-3
    np.testing.assert_allclose(roll.eps, 0.0, atol=1e-12)
    fine = run(0.0005)
    ratio = np.max(np.abs(composite(roll, 5.0))) / np.max(np.abs(composite(fine, 5.0)))
    assert 1.5 < ratio < 2.5


def test_nominal_loop_tracks_tightly_without_residual():
    (traj,) = pendulum_pool([0.5], 0.01, 8.0)
    roll = simulate_closed_loop(
        replace(PENDULUM, residual=ZERO),
        ControllerGains(10.0, 5.0),
        ZERO,
        traj,
        0.001,
        traj.grid[0],
    )
    assert np.max(np.abs(roll.x_tilde[:, 0])) < 1e-3


def test_s_norm_decays_monotonically_after_transient():
    """Lyapunov decrease of ||s|| with no disturbance and an off-trajectory start."""
    (traj,) = pendulum_pool([0.5], 0.01, 4.0)
    roll = simulate_closed_loop(
        replace(PENDULUM, residual=ZERO),
        ControllerGains(10.0, 5.0),
        ZERO,
        traj,
        0.001,
        (0.3, 0.0),
    )
    s = np.abs(composite(roll, 5.0))
    assert s[0] > 1e-2
    # strict decrease holds until |s| reaches the O(dt) held-input ripple
    settled = s < 1e-3
    head = int(np.argmax(settled)) if settled.any() else len(s)
    assert head > 100
    assert np.all(np.diff(s[:head]) < 0)
    assert np.max(s[head:]) < 1e-3 if settled.any() else True


def test_disturbed_rollout_respects_time_envelope():
    """|s(t)| stays within the comparison-lemma envelope (2% slack).

    For sup|eps| <= eps_m, |s(t)| <= e^(-k t) s0 + (1 - e^(-k t)) eps_m / k
    at unit inertia.
    """
    k, lam, eps_m = 6.0, 2.0, 0.4
    (traj,) = pendulum_pool([0.5], 0.01, 6.0)
    roll = simulate_closed_loop(
        replace(PENDULUM, residual=lambda q, qdot: eps_m * math.sin(3.0 * q)),
        ControllerGains(k, lam),
        ZERO,
        traj,
        0.001,
        (0.4, 0.3),
    )
    s_values = composite(roll, lam)
    s0 = abs(s_values[0])
    decay = np.exp(-k * roll.times)
    envelope = decay * s0 + (1.0 - decay) * eps_m / k
    assert np.all(np.abs(s_values) <= envelope * 1.02 + 1e-12)


def test_touchdown_truncates_landing_rollout():
    # a constant uncompensated downward force drags the actual altitude
    # through the ground while the reference is still (barely) above it
    (traj,) = landing_pool([(3.0, 0.0)], 0.01, 10.0, 0.0)
    roll = simulate_closed_loop(
        replace(DRONE, residual=lambda q, qdot: -0.5),
        ControllerGains(3.2, 2.0),
        ZERO,
        traj,
        0.001,
        traj.grid[0],
        ground=0.0,
    )
    assert roll.status == "touchdown"
    # touchdown time and speed are the last row's
    assert roll.times[-1] < 10.0 and roll.states[-1, 1] < 0.0
    # nothing recorded past contact
    assert roll.states[-1, 0] <= 0.0 + 1e-9


def test_thrust_clamp_is_counted():
    # an absurd downward reference forces negative thrust demands
    (traj,) = landing_pool([(3.0, 0.0)], 0.01, 10.0, 0.0)
    roll = simulate_closed_loop(
        replace(DRONE, residual=ZERO),
        ControllerGains(60.0, 10.0),
        ZERO,
        traj,
        0.001,
        (1.5, 2.0),  # fast upward start, controller wants to brake hard
        ground=0.0,
    )
    assert roll.clamp_count > 0


def test_contact_row_keeps_the_held_d_hat_and_computes_no_control():
    # d_hat is refreshed every step, so every row but the contact row
    # queries it once; the contact row records the value held over the
    # step that reached the ground
    (traj,) = landing_pool([(3.0, 0.0)], 0.01, 10.0, 0.0)
    queried = []

    def d_hat(q, qdot):
        queried.append(1e-6 * len(queried))
        return queried[-1]

    residual = lambda q, qdot: -0.5  # noqa: E731
    roll = simulate_closed_loop(
        replace(DRONE, residual=residual),
        ControllerGains(3.2, 2.0),
        d_hat,
        traj,
        0.001,
        traj.grid[0],
        ground=0.0,
    )
    assert roll.status == "touchdown"
    assert len(queried) == len(roll.times) - 1
    np.testing.assert_array_equal(roll.eps, -0.5 - np.array(queried + queried[-1:]))


def test_residual_is_evaluated_once_per_row_and_stage():
    # each row records eps at its state, the first RK4 stage reuses that
    # value and the other three stages evaluate their own; the contact row
    # takes no step
    (traj,) = landing_pool([(3.0, 0.0)], 0.01, 10.0, 0.0)
    points = []

    def residual(q, qdot):
        points.append((q, qdot))
        return -0.5

    roll = simulate_closed_loop(
        replace(DRONE, residual=residual),
        ControllerGains(3.2, 2.0),
        ZERO,
        traj,
        0.001,
        traj.grid[0],
        ground=0.0,
    )
    rows = len(roll.times)
    assert roll.status == "touchdown"
    assert len(points) == rows + 3 * (rows - 1)


def test_a_flight_cut_short_keeps_only_its_rows():
    # the arrays of a touchdown rollout are not views of the full-horizon
    # buffers the simulator filled
    (traj,) = landing_pool([(3.0, 0.0)], 0.01, 10.0, 0.0)
    roll = simulate_closed_loop(
        replace(DRONE, residual=lambda q, qdot: -0.5),
        ControllerGains(3.2, 2.0),
        ZERO,
        traj,
        0.001,
        traj.grid[0],
        ground=0.0,
    )
    assert roll.status == "touchdown" and len(roll.times) < 10001
    for rows in (roll.times, roll.states, roll.desired, roll.eps):
        assert rows.base is None and len(rows) == len(roll.times)


def _learned(q, qdot):
    """A smooth stand-in for a learned d_hat."""
    return 0.3 * math.sin(3.0 * q) - 0.1 * qdot


@pytest.mark.parametrize("flight", ["pendulum", "landing_clamps", "box_exit", "stage_blow_up"])
def test_rollout_matches_the_reference_simulator_bit_for_bit(flight):
    # the shipped simulator gives the pre-change simulator's floats in
    # every array, its status and its clamp count: a pendulum flight to
    # the horizon, a landing that clamps thrust and touches down, and two
    # pendulum flights that diverge, one leaving the DIVERGENCE_LIMIT box
    # and one whose first step reaches math.sin(inf) at a stage state
    (pend,) = pendulum_pool([1.0], 0.01, 2.0)
    (land,) = landing_pool([(3.0, 0.0)], 0.01, 10.0, 0.0)
    plant, gains, traj, x0, ground, status = {
        "pendulum": (PENDULUM, (1.0, 2.0), pend, pend.grid[0], None, "ok"),
        "landing_clamps": (replace(DRONE, residual=lambda q, qdot: -0.5), (60.0, 10.0), land,
                           (1.5, 2.0), 0.0, "touchdown"),
        "box_exit": (PENDULUM, (1e4, 2.0), pend, pend.grid[0], None, "diverged"),
        "stage_blow_up": (PENDULUM, (1e300, 2.0), pend, pend.grid[0], None, "diverged"),
    }[flight]
    args = (plant, ControllerGains(*gains), _learned, traj, 0.001, x0)
    got = simulate_closed_loop(*args, ground=ground, d_hat_hold_steps=20)
    want = reference_rollout.simulate_closed_loop(*args, ground=ground, d_hat_hold_steps=20)
    assert (got.status, got.clamp_count) == (want.status, want.clamp_count)
    # every flight takes steps, and only the one that runs to the horizon is full length
    assert got.status == status and len(got.times) > 1
    assert (len(got.times) == round(traj.horizon / 0.001) + 1) == (status == "ok")
    assert (got.clamp_count > 0) == (flight == "landing_clamps")
    for name in ("times", "states", "desired", "eps"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.shape == b.shape and a.tobytes() == b.tobytes(), name


def test_a_raise_at_a_finite_state_propagates_from_the_rollout():
    # only a raise at a non-finite stage state is a divergence
    def residual(q, qdot):
        if q > 0.01:
            raise ValueError("fault in the plant")
        return 0.0

    (traj,) = pendulum_pool([1.0], 0.01, 2.0)
    with pytest.raises(ValueError, match="fault in the plant"):
        simulate_closed_loop(replace(PENDULUM, residual=residual), ControllerGains(1.0, 2.0), ZERO,
                             traj, 0.001, traj.grid[0])
