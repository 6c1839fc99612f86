"""Kernel density estimation and clipped density ratios."""

from __future__ import annotations

import importlib
import math

import numpy as np
import pytest

from safeshift.density_ratio import (
    DENSITY_FLOOR,
    KDE_BLOCK_ELEMENTS,
    R_HI,
    SIGMA_FLOOR,
    KdeModel,
    clipped_ratio,
    density_ratio,
    kde_density,
    kde_fit,
    max_ratio,
    max_ratio_on_traj,
    point_ratio,
)
from safeshift.explore import default_config


def test_single_sample_unit_bandwidth_peak():
    # Gaussian kernel at its own center with h = 1: 1/sqrt(2 pi)
    model = KdeModel(samples=np.array([[0.0]]), bandwidth=np.array([1.0]))
    assert kde_density(model, np.array([[0.0]]))[0] == pytest.approx(
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
    xs = np.array([[0.1], [0.35], [1.2]])
    np.testing.assert_allclose(kde_density(model, xs), kde_density(model, -xs), rtol=1e-12)


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
    r = density_ratio(src, trg, x)
    np.testing.assert_allclose(r, 1.0, atol=1e-12)


def test_ratio_clipping_bounds():
    # two point masses far apart: the raw ratio is astronomically large
    # on one side and underflows to 0 on the other; only the large side
    # is clipped, to R_HI = 10
    src = kde_fit(np.full((30, 1), 0.0))
    trg = kde_fit(np.full((30, 1), 5.0))
    assert density_ratio(src, trg, np.array([[0.0]]))[0] == R_HI == 10.0
    assert density_ratio(src, trg, np.array([[5.0]]))[0] == 0.0


def test_ratio_always_inside_clip_interval():
    rng = np.random.default_rng(6)
    src = kde_fit(rng.normal(-1.0, 0.5, (150, 2)))
    trg = kde_fit(rng.normal(1.0, 0.5, (150, 2)))
    r = density_ratio(src, trg, rng.uniform(-6, 6, (400, 2)))
    assert np.all(r >= 0.0) and np.all(r <= R_HI)
    # away from the source samples the ratio falls far below 1, unclipped
    assert r.min() < 1e-6


def test_gaussian_ratio_oracle_at_midpoint():
    """src ~ N(0,1), trg ~ N(2,1): the analytic ratio at x = 1 is exactly 1."""
    rng = np.random.default_rng(7)
    src = kde_fit(rng.normal(0.0, 1.0, 2000)[:, None])
    trg = kde_fit(rng.normal(2.0, 1.0, 2000)[:, None])
    r = density_ratio(src, trg, np.array([[1.0]]))[0]
    assert 0.7 <= r <= 1.3  # within KDE error at n = 2000


def test_point_ratio_matches_density_ratio():
    # the controller's one-state sum gives the batched floats exactly
    g = np.random.default_rng(3)
    src = kde_fit(g.normal(0.0, 0.5, (200, 2)))
    trg = kde_fit(g.normal(0.4, 0.6, (150, 2)))
    pts = g.normal(0.0, 1.2, (60, 2))
    batch = density_ratio(src, trg, pts)
    # the points reach the clip and both sides of 1 below it
    assert batch.min() < 0.1 and batch.max() == R_HI
    ratio = point_ratio(src, trg)
    for (q, qdot), want in zip(pts.tolist(), batch):
        got = ratio(q, qdot)
        assert 0.0 <= got <= R_HI
        assert got == want

    # both densities zero, the clip, a target density under DENSITY_FLOOR
    # and NaN densities: a NaN state, and a KDE with a NaN sample on either
    # side or both, where the clip must propagate NaN as clipped_ratio does
    edge = np.array([[50.0, 50.0], [-2.5, 0.0], [-3.0, 0.0], [math.nan, 0.0], [0.0, 0.0]])
    p_src, p_trg = kde_density(src, edge), kde_density(trg, edge)
    assert p_src[0] == p_trg[0] == 0.0 and 0.0 < p_trg[2] < DENSITY_FLOOR and p_src[2] > 0.0
    assert p_src[1] / p_trg[1] > R_HI and math.isnan(p_src[3])
    with_nan = [KdeModel(np.vstack([kde.samples, [[math.nan, 0.0]]]), kde.bandwidth) for kde in (src, trg)]
    for s, t in ((src, trg), (with_nan[0], trg), (src, with_nan[1]), tuple(with_nan)):
        want = density_ratio(s, t, edge)
        ratio = point_ratio(s, t)
        got = np.array([ratio(q, qdot) for q, qdot in edge.tolist()])
        assert got.tobytes() == want.tobytes()


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


def test_kde_density_rejects_a_query_of_the_wrong_shape():
    model = kde_fit(np.zeros((5, 2)))
    for x in (np.zeros(2), np.zeros((3, 1))):
        with pytest.raises(ValueError, match="query dimension"):
            kde_density(model, x)


def test_kde_density_is_the_plain_kernel_sum_in_bandwidth_units():
    rng = np.random.default_rng(10)
    for d in (1, 2, 3):
        model = kde_fit(rng.normal(size=(40, d)))
        pts = rng.uniform(-3.0, 3.0, (25, d))
        z = (pts / model.bandwidth)[:, None, :] - model.samples / model.bandwidth
        want = np.exp(-0.5 * (z * z).sum(axis=2)).sum(axis=1) / model.norm
        np.testing.assert_array_equal(kde_density(model, pts), want)


def test_kde_density_independent_of_block_size(monkeypatch):
    rng = np.random.default_rng(9)
    module = importlib.import_module("safeshift.density_ratio")
    for d in (1, 2, 3):
        model = kde_fit(rng.normal(0.0, 1.0, (300, d)))
        pts = rng.uniform(-4.0, 4.0, (1000, d))
        monkeypatch.setattr(module, "KDE_BLOCK_ELEMENTS", 1)  # one query row per block
        tiny = kde_density(model, pts)
        monkeypatch.setattr(module, "KDE_BLOCK_ELEMENTS", 7 * 300)  # 142 blocks of 7, one of 6
        seven = kde_density(model, pts)
        monkeypatch.setattr(module, "KDE_BLOCK_ELEMENTS", 10**9)  # a single block
        single = kde_density(model, pts)
        np.testing.assert_array_equal(tiny, single)
        np.testing.assert_array_equal(seven, single)


def test_kde_density_of_scattered_rows_matches_the_full_pass():
    # the exploration loop evaluates subsets of the pool's rows on their
    # own; a row's density is the same float in any subset, including a
    # block of one row and sizes one past a whole number of blocks
    pool = default_config("landing").pool()
    grids = np.concatenate([traj.grid for traj in pool])
    rng = np.random.default_rng(24)
    near = grids[rng.choice(len(grids), 500, replace=False)]
    src = kde_fit(near + rng.normal(0.0, 0.05, near.shape))
    full = kde_density(src, grids)
    block = KDE_BLOCK_ELEMENTS // len(src.samples)
    for size, draws in ((1, 200), (2, 20), (3, 20), (block - 1, 5), (block + 1, 5), (2 * block + 1, 5), (10_007, 2)):
        assert size % block
        for _ in range(draws):
            idx = np.sort(rng.choice(len(grids), size, replace=False))
            np.testing.assert_array_equal(kde_density(src, grids[idx]), full[idx])


def test_ratio_helpers_floor_the_denominator():
    r = clipped_ratio(np.array([1e-13, 2.0, 3.0]), np.array([0.0, 4.0, 0.0]))
    np.testing.assert_array_equal(r, [0.1, 0.5, 10.0])
    w = max_ratio(np.array([1e-6, 2.0]), np.array([0.0, 4.0]))
    assert isinstance(w, float) and w == pytest.approx(1e6, rel=1e-15)
    assert max_ratio(np.array([3.0, 1.0]), np.array([1.0, 2.0])) == 3.0
