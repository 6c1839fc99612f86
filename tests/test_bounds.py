"""The tracking-tube gain and certification."""

from __future__ import annotations

import math

import numpy as np
import pytest

from safeshift.bounds import certify_trajectory, gamma
from safeshift.controller import simulate_closed_loop
from safeshift.core import StateBox, TouchdownSpeed, landing_pool, pendulum_pool
from safeshift.explore import SIM_DT, default_config


# -- Theorem 2 gain ------------------------------------------------------------


def test_gamma_unit_scalars():
    assert gamma(1.0, 1.0) == pytest.approx(math.sqrt(5.0), rel=1e-15)


def test_gamma_scales_inversely_with_k():
    base = gamma(2.0, 3.0)
    for c in (0.5, 2.0, 10.0):
        assert gamma(2.0 * c, 3.0) == pytest.approx(base / c, rel=1e-12)


def test_gamma_of_the_default_tasks():
    """The tube gains the default configs certify with, to the last bit."""
    assert default_config("pendulum").gamma() == 2.0615528128088303
    assert default_config("landing").gamma() == 0.6442352540027595


@pytest.mark.parametrize("task", ["pendulum", "landing"])
def test_gamma_bounds_every_pool_flight_whose_thrust_never_clamps(task):
    # the control half of the certificate: with a constant residual error
    # 0.99 eps_m (d_hat refreshed every step, x_tilde(0) = 0), the peak
    # ||x_tilde|| stays within gamma * eps_m while the control is applied
    # as computed.  Exactly the candidates whose nominal thrust goes
    # negative clamp, and for them the bound does not hold.
    cfg = default_config(task)
    plant, eps_m = cfg.plant, 0.1
    d_hat = lambda q, qdot: plant.residual(q, qdot) - 0.99 * eps_m  # noqa: E731
    ground = cfg.safety.ground if task == "landing" else None
    clamped = set()
    for traj in cfg.pool():
        roll = simulate_closed_loop(
            plant, cfg.gains, d_hat, traj, SIM_DT, traj.grid[0],
            ground=ground, d_hat_hold_steps=1,
        )
        if roll.clamp_count:
            clamped.add((traj.params["C"], traj.params["h_g"]))
        else:
            assert float(np.max(np.hypot(*roll.x_tilde.T))) <= cfg.gamma() * eps_m
    assert clamped == ({(2.75, 0.0), (3.0, 0.0), (3.0, 0.25)} if task == "landing" else set())


# -- certification ----------------------------------------------------------------


def test_certify_zero_tube_inside_box():
    (traj,) = pendulum_pool([0.9], 0.01, 2.0)
    cert = certify_trajectory(traj, 0.0, StateBox(1.5))
    assert cert.safe
    # grid max of 0.9*sin(t) sits a hair under 0.9 (grid never lands on pi/2)
    assert cert.margin == pytest.approx(1.5 - 0.9, abs=1e-5)


def test_certify_huge_tube_unsafe():
    (traj,) = pendulum_pool([0.1], 0.01, 2.0)
    cert = certify_trajectory(traj, 2.0, StateBox(1.5))
    assert not cert.safe
    assert cert.margin < 0


def test_certify_pendulum_worked_example():
    # C = 0.9, rho = 0.1: worst excursion 1.0 < 1.5 -> safe
    (traj,) = pendulum_pool([0.9], 0.01, 20.0)
    cert = certify_trajectory(traj, 0.1, StateBox(1.5))
    assert cert.safe
    assert cert.margin == pytest.approx(0.5, abs=1e-6)


def test_certify_monotone_in_eps_m():
    (traj,) = pendulum_pool([0.8], 0.01, 5.0)
    box = StateBox(1.5)
    safe_flags = [certify_trajectory(traj, 0.3 * e, box).safe for e in np.linspace(0, 3, 40)]
    # once unsafe, never safe again as eps_m, and with it rho, grows
    first_unsafe = safe_flags.index(False)
    assert all(not f for f in safe_flags[first_unsafe:])


def test_certify_touchdown_no_contact_branch():
    # hover candidate: the tube never reaches the ground -> safe via clearance
    (traj,) = landing_pool([(1.0, 0.5)], 0.01, 10.0, 0.0)
    cert = certify_trajectory(traj, 0.1, TouchdownSpeed(-1.0, 0.0))
    assert cert.safe
    assert cert.margin == pytest.approx(float(np.min(traj.grid[:, 0])) - 0.1, rel=1e-9)


def test_certify_touchdown_contact_branch():
    (traj,) = landing_pool([(2.0, 0.0)], 0.01, 10.0, 0.0)
    ts = TouchdownSpeed(-1.0, 0.0)
    rho = 0.05
    cert = certify_trajectory(traj, rho, ts)
    q_g, qdot_g = traj.grid.T
    contact = q_g - rho <= 0.0
    worst = float(np.min(qdot_g[contact])) - rho
    assert cert.margin == pytest.approx(worst - (-1.0), rel=1e-9)
    assert cert.safe == (cert.margin > 0)


def test_certify_touchdown_fast_descent_with_fat_tube_unsafe():
    (traj,) = landing_pool([(3.0, 0.0)], 0.01, 10.0, 0.0)
    # a 0.9 m/s tube makes the worst-case contact speed exceed -1 m/s
    cert = certify_trajectory(traj, 0.9, TouchdownSpeed(-1.0, 0.0))
    assert not cert.safe


def test_certify_rejects_a_negative_rho():
    (traj,) = pendulum_pool([0.5], 0.01, 2.0)
    with pytest.raises(ValueError, match="rho"):
        certify_trajectory(traj, -1e-12, StateBox(1.5))
