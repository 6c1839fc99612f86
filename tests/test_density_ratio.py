"""Kernel density estimation and clipped density ratios."""

from __future__ import annotations

import importlib
import math

import numpy as np
import pytest

from safeshift.density_ratio import (
    KdeModel,
    RatioConfig,
    SIGMA_FLOOR,
    clipped_ratio,
    density_ratio,
    kde_density,
    kde_fit,
    max_ratio,
    max_ratio_on_traj,
)


def test_single_sample_unit_bandwidth_peak():
    # Gaussian kernel at its own center with h = 1: 1/sqrt(2 pi)
    model = KdeModel(samples=np.array([[0.0]]), bandwidth=np.array([1.0]))
    assert kde_density(model, np.array([0.0])) == pytest.approx(
        1.0 / math.sqrt(2 * math.pi), rel=1e-12
    )


def test_degenerate_samples_engage_bandwidth_floor():
    model = kde_fit(np.zeros((30, 1)))
    expect = SIGMA_FLOOR * (4.0 / (3.0 * 30)) ** 0.2
    assert model.bandwidth[0] == pytest.approx(expect, rel=1e-12)


def test_silverman_bandwidth_1d():
    rng = np.random.default_rng(0)
    x = rng.normal(0.0, 1.5, 400)[:, None]
    model = kde_fit(x)
    expect = x.std(ddof=1) * (4.0 / (3.0 * 400)) ** 0.2
    assert model.bandwidth[0] == pytest.approx(expect, rel=1e-12)


def test_symmetric_samples_give_symmetric_density():
    model = kde_fit(np.array([[-0.7], [0.7]]))
    for x in (0.1, 0.35, 1.2):
        assert kde_density(model, np.array([x])) == pytest.approx(
            kde_density(model, np.array([-x])), rel=1e-12
        )


@pytest.mark.parametrize("seed,n", [(1, 50), (2, 300)])
def test_density_integrates_to_one_1d(seed, n):
    rng = np.random.default_rng(seed)
    model = kde_fit(rng.normal(0.0, 1.0, n)[:, None])
    xs = np.linspace(-10.0, 10.0, 4001)
    dens = kde_density(model, xs[:, None])
    assert np.trapezoid(dens, xs) == pytest.approx(1.0, abs=1e-4)


def test_density_integrates_to_one_2d():
    rng = np.random.default_rng(3)
    model = kde_fit(rng.normal(0.0, 0.8, (120, 2)))
    g = np.linspace(-8.0, 8.0, 321)
    xx, yy = np.meshgrid(g, g)
    pts = np.column_stack([xx.ravel(), yy.ravel()])
    dens = kde_density(model, pts).reshape(xx.shape)
    step = g[1] - g[0]
    assert float(np.trapezoid(np.trapezoid(dens, dx=step), dx=step)) == pytest.approx(
        1.0, abs=1e-4
    )


def test_density_nonnegative_everywhere():
    rng = np.random.default_rng(4)
    model = kde_fit(rng.normal(0.0, 1.0, (60, 2)))
    pts = rng.uniform(-20, 20, (500, 2))
    assert np.all(kde_density(model, pts) >= 0.0)


def test_ratio_of_distribution_with_itself_is_one():
    rng = np.random.default_rng(5)
    x = rng.normal(0.0, 1.0, (200, 2))
    src = kde_fit(x)
    trg = kde_fit(x)
    r = density_ratio(src, trg, x, RatioConfig())
    np.testing.assert_allclose(r, 1.0, atol=1e-12)


def test_ratio_clipping_bounds():
    # two point masses far apart: the raw ratio is astronomically large
    # on one side and tiny on the other; clipping pins it to the config
    src = kde_fit(np.full((30, 1), 0.0))
    trg = kde_fit(np.full((30, 1), 5.0))
    cfg = RatioConfig(r_lo=0.1, r_hi=10.0)
    assert density_ratio(src, trg, np.array([[0.0]]), cfg)[0] == pytest.approx(10.0)
    assert density_ratio(src, trg, np.array([[5.0]]), cfg)[0] == pytest.approx(0.1)


def test_ratio_always_inside_clip_interval():
    rng = np.random.default_rng(6)
    src = kde_fit(rng.normal(-1.0, 0.5, (150, 2)))
    trg = kde_fit(rng.normal(1.0, 0.5, (150, 2)))
    cfg = RatioConfig()
    r = density_ratio(src, trg, rng.uniform(-6, 6, (400, 2)), cfg)
    assert np.all(r >= cfg.r_lo) and np.all(r <= cfg.r_hi)


def test_gaussian_ratio_oracle_at_midpoint():
    """src ~ N(0,1), trg ~ N(2,1): the analytic ratio at x = 1 is exactly 1."""
    rng = np.random.default_rng(7)
    src = kde_fit(rng.normal(0.0, 1.0, 2000)[:, None])
    trg = kde_fit(rng.normal(2.0, 1.0, 2000)[:, None])
    r = density_ratio(src, trg, np.array([[1.0]]), RatioConfig())[0]
    assert 0.7 <= r <= 1.3  # within KDE error at n = 2000


def test_max_ratio_diagnostic():
    rng = np.random.default_rng(8)
    x = rng.normal(0.0, 1.0, (400, 2))
    src = kde_fit(x)
    same = max_ratio_on_traj(kde_fit(x), src, x)
    assert same == pytest.approx(1.0, abs=1e-9)

    # a target far outside the source support blows the diagnostic up
    # well past any reasonable alarm threshold (and is not clipped)
    far = x + 12.0
    big = max_ratio_on_traj(kde_fit(far), src, far)
    assert big > 50.0


def test_kde_density_independent_of_block_size(monkeypatch):
    rng = np.random.default_rng(9)
    model = kde_fit(rng.normal(0.0, 1.0, (300, 2)))
    pts = rng.uniform(-4.0, 4.0, (1000, 2))
    module = importlib.import_module("safeshift.density_ratio")
    monkeypatch.setattr(module, "KDE_BLOCK_ELEMENTS", 1)  # one query row per block
    tiny = kde_density(model, pts)
    monkeypatch.setattr(module, "KDE_BLOCK_ELEMENTS", 10**9)  # a single block
    single = kde_density(model, pts)
    np.testing.assert_allclose(tiny, single, rtol=1e-12, atol=0)


def test_ratio_helpers_floor_the_denominator():
    cfg = RatioConfig(r_lo=0.1, r_hi=10.0)
    r = clipped_ratio(np.array([1e-13, 2.0, 3.0]), np.array([0.0, 4.0, 0.0]), cfg)
    np.testing.assert_array_equal(r, [0.1, 0.5, 10.0])
    assert max_ratio(np.array([1e-6, 2.0]), np.array([0.0, 4.0])) == pytest.approx(1e6)
