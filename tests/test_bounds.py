"""Closed-form error bounds, the tracking-tube gain, and certification."""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest

from safeshift.bounds import (
    BoundInputs,
    beta_for_confidence,
    certify_trajectory,
    eps_m_from_sigma,
    gamma,
    generalization_bound,
)
from safeshift.core import StateBox, TouchdownSpeed, landing_pool, pendulum_pool
from safeshift.explore import default_config


# -- Theorem 1 evaluators -----------------------------------------------------


def test_generalization_bound_zero_mass():
    assert generalization_bound(BoundInputs(w=0.0, r=1.0, b=1.0, sigma0_sq=1.0)) == 0.0


def test_generalization_bound_variance_term_only():
    val = generalization_bound(BoundInputs(w=1.0, r=1.0, b=0.5, sigma0_sq=1.0))
    assert val == pytest.approx(0.5, rel=1e-15)


def test_generalization_bound_linear_in_w():
    base = BoundInputs(
        w=1.3, r=0.7, b=0.2, sigma0_sq=2.0, lambda_bar=0.01,
        f_diam=3.0, rademacher=0.05, delta=0.1, n=50,
    )
    one = generalization_bound(base)
    two = generalization_bound(replace(base, w=2.6))
    assert two == pytest.approx(2 * one, rel=1e-12)


def test_bound_inputs_validation():
    with pytest.raises(ValueError):
        BoundInputs(w=-1.0, r=1.0, b=1.0, sigma0_sq=1.0)
    with pytest.raises(ValueError):
        BoundInputs(w=1.0, r=1.0, b=1.0, sigma0_sq=1.0, delta=1.5)
    with pytest.raises(ValueError):
        BoundInputs(w=1.0, r=1.0, b=1.0, sigma0_sq=0.0)


# -- Theorem 2 gain ------------------------------------------------------------


def test_gamma_unit_scalars():
    assert gamma(1.0, 1.0, 1.0) == pytest.approx(math.sqrt(5.0), rel=1e-15)


def test_gamma_scales_inversely_with_k():
    base = gamma(1.0, 2.0, 3.0)
    for c in (0.5, 2.0, 10.0):
        assert gamma(1.0, 2.0 * c, 3.0) == pytest.approx(base / c, rel=1e-12)


def test_gamma_with_a_non_unit_inertia():
    """m cancels: the gain is sqrt(1/lam^2 + 4) / k for any inertia."""
    assert gamma(1.9, 2.5, 1.5) == pytest.approx(math.sqrt(1 / 1.5**2 + 4.0) / 2.5, rel=1e-12)


def test_gamma_of_the_default_tasks():
    """The tube gains the default configs certify with, to the last bit."""
    assert default_config("pendulum").gamma() == 2.0615528128088303
    assert default_config("landing").gamma() == 0.6442352540027595


def test_eps_m_from_sigma_values():
    assert eps_m_from_sigma(0.2, 0.5) == pytest.approx(0.1)
    assert eps_m_from_sigma(0.3, 1.0) == pytest.approx(0.3)
    assert eps_m_from_sigma(0.0, 2.0) == 0.0
    with pytest.raises(ValueError):
        eps_m_from_sigma(-0.1, 1.0)


def test_beta_for_confidence_values():
    assert beta_for_confidence(math.exp(-2.0), 1) == pytest.approx(4.0, rel=1e-12)
    assert beta_for_confidence(0.05, 100) == pytest.approx(2.0 * math.log(2000.0), rel=1e-12)
    assert beta_for_confidence(0.05, 100) == pytest.approx(15.2018, abs=5e-5)
    # monotone: more points need a wider beta, looser delta a narrower one
    assert beta_for_confidence(0.05, 200) > beta_for_confidence(0.05, 100)
    assert beta_for_confidence(0.1, 100) < beta_for_confidence(0.05, 100)


# -- certification ----------------------------------------------------------------


def test_certify_zero_tube_inside_box():
    (traj,) = pendulum_pool([0.9], 0.01, 2.0)
    cert = certify_trajectory(traj, 0.2, 0.0, StateBox(1.5))
    assert cert.safe and cert.rho == 0.0
    # grid max of 0.9*sin(t) sits a hair under 0.9 (grid never lands on pi/2)
    assert cert.margin == pytest.approx(1.5 - 0.9, abs=1e-5)


def test_certify_huge_tube_unsafe():
    (traj,) = pendulum_pool([0.1], 0.01, 2.0)
    cert = certify_trajectory(traj, 1.0, 2.0, StateBox(1.5))
    assert not cert.safe
    assert cert.margin < 0


def test_certify_pendulum_worked_example():
    # C = 0.9, gamma = 0.2, eps_m = 0.5: worst excursion 1.0 < 1.5 -> safe
    (traj,) = pendulum_pool([0.9], 0.01, 20.0)
    cert = certify_trajectory(traj, 0.2, 0.5, StateBox(1.5))
    assert cert.safe
    assert cert.rho == pytest.approx(0.1)
    assert cert.margin == pytest.approx(0.5, abs=1e-6)


def test_certify_monotone_in_eps_m():
    (traj,) = pendulum_pool([0.8], 0.01, 5.0)
    box = StateBox(1.5)
    safe_flags = [certify_trajectory(traj, 0.3, e, box).safe for e in np.linspace(0, 3, 40)]
    # once unsafe, never safe again as eps grows
    first_unsafe = safe_flags.index(False)
    assert all(not f for f in safe_flags[first_unsafe:])


def test_certify_touchdown_no_contact_branch():
    # hover candidate: the tube never reaches the ground -> safe via clearance
    (traj,) = landing_pool([(1.0, 0.5)], 0.01, 10.0, 0.0)
    cert = certify_trajectory(traj, 1.0, 0.1, TouchdownSpeed(-1.0, 0.0))
    assert cert.safe
    assert cert.margin == pytest.approx(float(np.min(traj.q_g)) - 0.1, rel=1e-9)


def test_certify_touchdown_contact_branch():
    (traj,) = landing_pool([(2.0, 0.0)], 0.01, 10.0, 0.0)
    ts = TouchdownSpeed(-1.0, 0.0)
    rho = 0.05
    cert = certify_trajectory(traj, 1.0, rho, ts)
    contact = traj.q_g - rho <= 0.0
    worst = float(np.min(traj.qdot_g[contact])) - rho
    assert cert.margin == pytest.approx(worst - (-1.0), rel=1e-9)
    assert cert.safe == (cert.margin > 0)


def test_certify_touchdown_fast_descent_with_fat_tube_unsafe():
    (traj,) = landing_pool([(3.0, 0.0)], 0.01, 10.0, 0.0)
    # a 0.9 m/s tube makes the worst-case contact speed exceed -1 m/s
    cert = certify_trajectory(traj, 1.0, 0.9, TouchdownSpeed(-1.0, 0.0))
    assert not cert.safe
