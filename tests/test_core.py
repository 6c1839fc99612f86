"""Desired trajectories, candidate pools, safety sets, datasets."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from safeshift.core import (
    Dataset,
    LandingPool,
    PendulumPool,
    StateBox,
    TouchdownSpeed,
    contact_time,
    desired_values,
    grid_steps,
    landing_pool,
    pendulum_pool,
    safety_contains,
)
from safeshift.explore import TRAJ_DT, default_config


# -- closed-form desired points -----------------------------------------------


def test_pendulum_desired_point_at_zero():
    assert desired_values("pendulum", {"C": 0.5}, 0.0) == (0.0, 0.5, 0.0)


def test_pendulum_desired_point_at_pi():
    q_g, qdot_g, qddot_g = desired_values("pendulum", {"C": 0.3}, math.pi)
    assert q_g == pytest.approx(0.0, abs=1e-12)
    assert qdot_g == pytest.approx(-0.3, abs=1e-12)
    assert qddot_g == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("c,h_g", [(0.25, 0.0), (1.0, 0.5), (3.0, 1.0)])
def test_landing_desired_point_starts_at_hover(c, h_g):
    q_g, qdot_g, _ = desired_values("landing", {"C": c, "h_g": h_g}, 0.0)
    assert q_g == pytest.approx(1.5)
    assert qdot_g == pytest.approx(0.0)


def test_landing_desired_point_closed_form_values():
    q_g, qdot_g, _ = desired_values("landing", {"C": 1.0, "h_g": 0.0}, 1.0)
    assert q_g == pytest.approx(3.0 / math.e, rel=1e-12)
    assert qdot_g == pytest.approx(-1.5 / math.e, rel=1e-12)


def test_landing_desired_point_decays_to_hover():
    q_g, _, _ = desired_values("landing", {"C": 2.0, "h_g": 0.0}, 40.0)
    assert abs(q_g) < 1e-12


@pytest.mark.parametrize("task,params", [
    ("pendulum", {"C": 0.4}),
    ("pendulum", {"C": 1.0}),
    ("landing", {"C": 0.5, "h_g": 0.0}),
    ("landing", {"C": 2.75, "h_g": 0.75}),
])
def test_pool_derivatives_match_finite_differences(task, params):
    # qdot_g and qddot_g are the analytic derivatives of the q_g formula
    rng = np.random.default_rng(42)
    h = 1e-4
    for t in rng.uniform(2 * h, 8.0, 100):
        t = float(t)
        plus = desired_values(task, params, t + h)
        minus = desired_values(task, params, t - h)
        _, qdot_g, qddot_g = desired_values(task, params, t)
        fd_qdot = (plus[0] - minus[0]) / (2 * h)
        fd_qddot = (plus[1] - minus[1]) / (2 * h)
        assert qdot_g == pytest.approx(fd_qdot, abs=1e-6)
        assert qddot_g == pytest.approx(fd_qddot, abs=1e-6)


# -- candidate pools -----------------------------------------------------------


def test_pendulum_pool_cost_strictly_decreasing_in_amplitude():
    pool = pendulum_pool(PendulumPool().amplitudes, 0.01, 2.0)
    costs = [traj.cost for traj in pool]
    assert all(a > b for a, b in zip(costs, costs[1:]))
    assert costs[0] == pytest.approx(-0.1)


def test_landing_pool_cost_decreasing_in_rate_at_ground_level():
    rates = [0.75, 1.0, 1.5, 2.0, 3.0]
    pool = landing_pool([(c, 0.0) for c in rates], 0.01, 10.0, 0.0)
    costs = [traj.cost for traj in pool]
    assert all(math.isfinite(c) for c in costs)
    assert all(a > b for a, b in zip(costs, costs[1:]))


def test_landing_pool_slow_descent_never_touches_down():
    (traj,) = landing_pool([(0.25, 0.0)], 0.01, 10.0, 0.0)
    # q_g(10) = 1.5 e^-2.5 (1 + 2.5) ~ 0.43 m, still far above the 1 cm band
    assert traj.cost == math.inf


def test_contact_time_is_the_first_time_within_the_tolerance():
    times = np.array([0.0, 0.5, 1.0, 1.5])
    # 0.01 above the ground is contact (CONTACT_TOL), 0.02 is not
    assert contact_time(times, np.array([1.0, 0.02, 0.01, -0.3]), 0.0) == 1.0
    assert contact_time(times, np.array([1.0, 0.52, 0.2, 0.0]), 0.5) == 1.0
    assert contact_time(times, np.array([1.0, 0.5, 0.2, 0.02]), 0.0) == math.inf


def test_landing_pool_hover_candidates_have_infinite_cost():
    (traj,) = landing_pool([(3.0, 0.5)], 0.01, 10.0, 0.0)
    assert traj.cost == math.inf


@pytest.mark.parametrize("amp", [0.0, -0.2, 1.2])
def test_pendulum_pool_rejects_out_of_range_amplitudes(amp):
    with pytest.raises(ValueError, match="outside"):
        PendulumPool(amplitudes=(0.5, amp))


@pytest.mark.parametrize(
    "c,h_g", [(0.0, 0.0), (-1.0, 0.0), (math.nan, 0.0), (1.0, 1.5), (1.0, -0.1)]
)
def test_landing_pool_rejects_out_of_range_params(c, h_g):
    with pytest.raises(ValueError, match="descent rate|hover altitude"):
        LandingPool(rates=(1.0, c), hovers=(0.0, h_g))


def test_default_pool_sizes():
    assert len(PendulumPool().amplitudes) == 10
    assert len(LandingPool().rates) * len(LandingPool().hovers) == 60


def test_trajectory_grid_is_the_desired_rows_on_the_traj_dt_grid():
    for task in ("pendulum", "landing"):
        cfg = default_config(task)
        times = np.arange(grid_steps(cfg.horizon, TRAJ_DT) + 1) * TRAJ_DT
        for traj in cfg.pool():
            want = np.column_stack(desired_values(task, traj.params, times)[:2])
            assert np.array_equal(traj.grid, want)
            assert traj.horizon == cfg.horizon


# -- safety sets ----------------------------------------------------------------


def test_state_box_examples():
    box = StateBox(1.5)
    assert safety_contains(box, 1.49, 0.0)
    assert not safety_contains(box, 1.51, 0.0)
    assert not safety_contains(box, 1.5, 0.0)  # strict


def test_touchdown_speed_examples():
    ts = TouchdownSpeed(qdot_min_at_ground=-1.0, ground=0.0)
    assert safety_contains(ts, 0.0, -0.9)
    assert safety_contains(ts, 0.5, -3.0)  # above ground, inactive
    assert not safety_contains(ts, 0.0, -1.0)  # strict at the boundary


@pytest.mark.parametrize(
    "safe_set", [StateBox(1.5), TouchdownSpeed(qdot_min_at_ground=-1.0, ground=0.0)]
)
def test_safety_contains_on_arrays_matches_each_point(safe_set):
    q = np.array([0.0, 1.49, 1.5, -1.5, 1.51, 0.0, 0.0, 0.5, -0.2, math.nan])
    qdot = np.array([-0.9, 0.0, 0.0, 0.0, 0.0, -1.0, -1.1, -3.0, -0.5, 0.0])
    inside = safety_contains(safe_set, q, qdot)
    expected = [safety_contains(safe_set, float(a), float(b)) for a, b in zip(q, qdot)]
    assert inside.tolist() == expected
    assert True in expected and False in expected


@given(q=st.floats(-2.0, 2.0), shrink=st.floats(0.0, 1.0))
def test_state_box_monotone_under_shrinking_q(q, shrink):
    box = StateBox(1.5)
    if safety_contains(box, q, 0.0):
        assert safety_contains(box, q * shrink, 0.0)


@given(qdot=st.floats(-3.0, 3.0), lift=st.floats(0.0, 3.0))
def test_touchdown_monotone_under_raising_qdot(qdot, lift):
    ts = TouchdownSpeed(qdot_min_at_ground=-1.0, ground=0.0)
    if safety_contains(ts, 0.0, qdot):
        assert safety_contains(ts, 0.0, qdot + lift)


# -- datasets -------------------------------------------------------------------


def test_dataset_concat_and_subsample():
    a = Dataset(np.zeros((3, 2)), np.ones(3))
    b = Dataset(np.ones((2, 2)), np.zeros(2))
    both = a.concat(b)
    assert len(both) == 5
    sub = both.subsample(2)
    assert len(sub) == 2
    assert len(both.subsample(100)) == 5  # never upsamples


@pytest.mark.parametrize("shape", [(3, 1), (2,), (4,)])
def test_dataset_targets_are_one_residual_per_row(shape):
    with pytest.raises(ValueError, match="targets must be"):
        Dataset(np.zeros((3, 2)), np.zeros(shape))


def test_dataset_rejects_non_finite_rows():
    bad = np.ones(2)
    bad[1] = math.nan
    with pytest.raises(ValueError):
        Dataset(np.zeros((2, 2)), bad)
