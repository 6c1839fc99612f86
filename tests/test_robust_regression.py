"""Robust regression under covariate shift: predictions, training, bounds."""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest

from safeshift import robust_regression as rr
from safeshift.core import Dataset
from safeshift.density_ratio import RatioConfig, density_ratio, kde_fit
from safeshift.robust_regression import (
    FeatureNet,
    TrainConfig,
    feature_net_init,
    fit,
    initial_model,
    lipschitz_bound,
    moment_residual,
    nll_loss,
    predict,
    sigma_max_on_traj,
    spectral_norm,
    spectral_normalize,
)

import reference_fit


# -- predictive form -------------------------------------------------------------


def test_zero_ratio_recovers_base_distribution():
    model = initial_model(0.7, 2.0)
    x = np.array([[0.3, -0.4], [1.0, 2.0]])
    mu, var = predict(model, x, ratios=np.zeros(2))
    np.testing.assert_allclose(mu[:, 0], 0.7)
    np.testing.assert_allclose(var[:, 0], 2.0)


def test_predict_unit_example():
    """sigma0^2 = 1, r = 1, theta_y = 1, head . phi = 3 -> var 1/3, mu 1."""
    net = feature_net_init(np.random.default_rng(0))
    x = np.array([0.3, -0.2])
    phi = net.forward(x[None, :])[0]
    scale = 3.0 / float(phi @ phi)
    model = initial_model(0.0, 1.0, net=net)
    model = replace(model, theta_phi=(scale * phi)[None, :], theta_y=np.array([1.0]))
    mu, var = predict(model, x, ratios=np.array([1.0]))
    assert var[0] == pytest.approx(1.0 / 3.0, rel=1e-12)
    assert mu[0] == pytest.approx(1.0, rel=1e-12)


def test_variance_strictly_decreasing_in_ratio():
    net = feature_net_init(np.random.default_rng(1))
    model = replace(initial_model(0.0, 1.0, net=net), theta_y=np.array([0.8]))
    x = np.tile([[0.1, 0.1]], (5, 1))
    _, var = predict(model, x, ratios=np.array([0.0, 0.5, 1.0, 2.0, 4.0]))
    assert np.all(np.diff(var[:, 0]) < 0)
    assert np.all(var[:, 0] <= 1.0)


def test_variance_bound_is_exact_algebra(rng):
    """var <= (2 R B + sigma0^-2)^-1 whenever r >= R and theta_y >= B."""
    r_floor, b_floor, sigma0_sq = 0.1, 1e-2, 0.5
    net = feature_net_init(rng)
    model = initial_model(0.0, sigma0_sq, dim_out=3, net=net)
    model = replace(model, theta_y=b_floor + rng.uniform(0, 5, 3))
    bound = 1.0 / (2 * r_floor * b_floor + 1.0 / sigma0_sq)
    x = rng.uniform(-2, 2, (1000, 2))
    ratios = rng.uniform(r_floor, 10.0, 1000)
    _, var = predict(model, x, ratios=ratios)
    assert np.all(var <= bound * (1 + 1e-12))


# -- loss and gradients ------------------------------------------------------------


def test_nll_loss_of_exact_model_is_entropy_plus_penalty():
    model = initial_model(0.4, 0.9)
    ds = Dataset(np.zeros((6, 2)), np.full((6, 1), 0.4))  # targets equal mu exactly
    loss = nll_loss(model, ds, np.ones(6))
    assert loss == pytest.approx(0.5 * math.log(2 * math.pi * 0.9), rel=1e-12)


def test_nll_loss_reduces_to_base_nll_when_theta_zero(rng):
    model = initial_model(0.0, 1.5)
    y = rng.normal(0.0, 1.0, (40, 1))
    ds = Dataset(rng.uniform(-1, 1, (40, 2)), y)
    loss = nll_loss(model, ds, rng.uniform(0.1, 10.0, 40))
    base = float(np.mean(0.5 * np.log(2 * math.pi * 1.5) + y[:, 0] ** 2 / (2 * 1.5)))
    assert loss == pytest.approx(base, rel=1e-12)


def _flatten(model):
    parts = [w.ravel() for w in model.net.weights]
    parts += [b.ravel() for b in model.net.biases]
    parts += [model.theta_phi.ravel(), model.theta_y.ravel()]
    return np.concatenate(parts)


def _unflatten(model, vec):
    ws, bs, i = [], [], 0
    for w in model.net.weights:
        ws.append(vec[i : i + w.size].reshape(w.shape))
        i += w.size
    for b in model.net.biases:
        bs.append(vec[i : i + b.size].reshape(b.shape))
        i += b.size
    tp = vec[i : i + model.theta_phi.size].reshape(model.theta_phi.shape)
    i += model.theta_phi.size
    ty = vec[i:].copy()
    net = FeatureNet(tuple(ws), tuple(bs), model.net.caps)
    return replace(model, net=net, theta_phi=tp, theta_y=ty)


def test_analytic_gradients_match_finite_differences(rng):
    """Every parameter group of the penalized NLL, central differences."""
    n = 40
    ds = Dataset(rng.uniform(-1, 1, (n, 2)), rng.normal(0, 0.5, (n, 2)))
    ratios = rng.uniform(0.2, 5.0, n)
    net = feature_net_init(np.random.default_rng(11), hidden=(8, 8), feature_dim=5)
    model = initial_model(0.1, 1.0, dim_out=2, net=net)
    # keep every parameter away from the |.| kink so FD is well defined
    model = replace(
        model,
        theta_phi=rng.uniform(0.1, 0.4, model.theta_phi.shape),
        theta_y=rng.uniform(0.5, 1.5, 2),
    )

    ws = rr._Workspace(model.net, model.dim_out, n)
    rr._grads(model, ds.inputs, ds.targets, ratios, ws)
    analytic = np.concatenate(
        [g.ravel() for g in ws.g_w] + [g.ravel() for g in ws.g_b] + [ws.g_tp.ravel(), ws.g_ty]
    )

    theta0 = _flatten(model)
    h = 1e-5
    fd = np.empty_like(theta0)
    for i in range(len(theta0)):
        up, dn = theta0.copy(), theta0.copy()
        up[i] += h
        dn[i] -= h
        fd[i] = (
            nll_loss(_unflatten(model, up), ds, ratios)
            - nll_loss(_unflatten(model, dn), ds, ratios)
        ) / (2 * h)

    err = np.max(np.abs(analytic - fd)) / max(np.max(np.abs(fd)), 1e-8)
    assert err < 1e-4


# -- training ---------------------------------------------------------------------


def test_fit_on_base_noise_keeps_mean_near_zero():
    # lam at the universal soft-threshold level sigma*sqrt(2 ln k / n)
    # (~0.117 for k=16 features, n=400): below that, any exact solver
    # happily projects pure noise onto the feature span, which is correct
    # in-sample behavior but not the calibration this case is about
    rng = np.random.default_rng(9)
    n, sigma0 = 400, 1.0
    ds = Dataset(rng.uniform(-1, 1, (n, 2)), rng.normal(0.0, sigma0, (n, 1)))
    model = fit(ds, None, None, TrainConfig(epochs=600, seed=2, lam=0.1),
                sigma0_sq=sigma0 ** 2)
    mu, var = predict(model, ds.inputs, ratios=np.ones(n))
    assert np.max(np.abs(mu[:, 0])) < 3 * sigma0 / math.sqrt(n)
    # with no structure to absorb, the predictive variance stays at the
    # base level (sigma0^2 up to the theta_y floor)
    assert float(var.max()) == pytest.approx(sigma0 ** 2, rel=0.05)


def test_fit_linear_target_rmse(line_fit):
    model, ds, true_mean = line_fit
    mu, var = predict(model, ds.inputs, ratios=np.ones(len(ds)))
    rmse = float(np.sqrt(np.mean((mu[:, 0] - true_mean) ** 2)))
    assert rmse < 0.05
    assert model.trained
    # the learned theta_y tightens the predictive band toward the noise level
    assert float(np.sqrt(np.mean(var[:, 0]))) < 0.3


def test_fit_moment_condition(line_fit):
    model, ds, _ = line_fit
    resid = moment_residual(model, ds, ratios=np.ones(len(ds)))
    assert np.max(np.abs(resid)) <= model.lam + 1e-2


def test_fit_is_deterministic_given_seed(make_line_dataset):
    ds = make_line_dataset(n=60)
    cfg = TrainConfig(epochs=120, seed=4)
    a = fit(ds, None, None, cfg)
    b = fit(ds, None, None, cfg)
    np.testing.assert_array_equal(a.theta_phi, b.theta_phi)
    np.testing.assert_array_equal(a.theta_y, b.theta_y)
    for wa, wb in zip(a.net.weights, b.net.weights):
        np.testing.assert_array_equal(wa, wb)


def test_fit_respects_theta_y_floor(make_line_dataset):
    ds = make_line_dataset(n=60)
    model = fit(ds, None, None, TrainConfig(epochs=60, seed=0, theta_y_floor=0.05))
    assert np.all(model.theta_y >= 0.05 - 1e-15)


def test_fit_rejects_empty_dataset():
    with pytest.raises(ValueError):
        fit(Dataset.empty(1), None, None, TrainConfig(epochs=10))


def test_multidim_fit_equals_per_dim_fits_with_frozen_features():
    """The block solves that close a fit (lasso heads, then the theta_y
    root) hold the shared features fixed, so output dims decouple there:
    a two-output solve gives each output what a one-output solve gives."""
    rng = np.random.default_rng(21)
    n = 80
    x = np.column_stack([np.linspace(-1, 1, n), np.zeros(n)])
    y = np.column_stack(
        [2.0 * x[:, 0] + rng.normal(0, 0.05, n), np.sin(2.0 * x[:, 0]) + rng.normal(0, 0.05, n)]
    )
    r = rng.uniform(0.2, 5.0, n)
    net = feature_net_init(np.random.default_rng(3))

    def solve(targets):
        model = initial_model(0.0, 1.0, dim_out=targets.shape[1], net=net)
        model = replace(model, theta_y=np.full(model.dim_out, model.theta_y_floor))
        model = replace(model, theta_phi=rr._solve_heads(model, x, targets, r))
        for fixed_mu in (True, False):
            theta_y, ok = rr._polish_theta_y(model, x, targets, r, fixed_mu=fixed_mu)
            assert ok
            model = replace(model, theta_y=theta_y)
        return model

    both = solve(y)
    assert np.all(both.theta_y > both.theta_y_floor)  # the roots are interior
    for d in range(2):
        single = solve(y[:, d : d + 1])
        np.testing.assert_allclose(both.theta_phi[d], single.theta_phi[0], atol=1e-9)
        np.testing.assert_allclose(both.theta_y[d], single.theta_y[0], rtol=1e-9)


def _shift_problem(n=60, seed=31):
    """Three-output data with a source/target shift, so the ratios vary."""
    g = np.random.default_rng(seed)
    x = g.uniform(-1.0, 1.0, (n, 2))
    y = np.column_stack(
        [np.sin(2.0 * x[:, 0]) + 0.5 * x[:, 1], x[:, 0] * x[:, 1], np.cos(x[:, 1])]
    ) + g.normal(0.0, 0.05, (n, 3))
    trg = kde_fit(g.uniform(-0.5, 1.5, (40, 2)))
    return Dataset(x, y), kde_fit(x), trg


def _assert_models_identical(got, want):
    for a, b in zip(got.net.weights + got.net.biases, want.net.weights + want.net.biases):
        assert np.array_equal(a, b)
    assert np.array_equal(got.theta_phi, want.theta_phi)
    assert np.array_equal(got.theta_y, want.theta_y)
    assert np.array_equal(got.moment_residuals, want.moment_residuals)
    assert got.converged == want.converged


@pytest.mark.parametrize("case", ["full_batch", "warm_start"])
def test_fit_matches_allocating_reference_bit_for_bit(case):
    """The in-place loop reproduces the allocating loop it replaced exactly."""
    ds, src, trg = _shift_problem()
    # clip_norm 1 keeps the global-norm clip active on most steps
    cfg = TrainConfig(epochs=40, seed=6, clip_norm=1.0)
    kw = {}
    if case == "warm_start":
        kw["init"] = reference_fit.fit(ds, src, trg, cfg, sigma0_sq=0.5)
    got = fit(ds, src, trg, cfg, sigma0_sq=0.5, **kw)
    want = reference_fit.fit(ds, src, trg, cfg, sigma0_sq=0.5, **kw)
    _assert_models_identical(got, want)


def test_solve_heads_matches_numpy_scalar_reference():
    ds, src, trg = _shift_problem()
    model = fit(ds, src, trg, TrainConfig(epochs=40, seed=6), sigma0_sq=0.5)
    r = density_ratio(src, trg, ds.inputs)
    noise = np.random.default_rng(8).normal(0.0, 0.3, model.theta_phi.shape)
    start = replace(model, theta_phi=model.theta_phi + noise)
    heads = rr._solve_heads(start, ds.inputs, ds.targets, r)
    assert not np.array_equal(heads, start.theta_phi)
    assert np.array_equal(heads, reference_fit._solve_heads(start, ds.inputs, ds.targets, r))


# -- theta_y root ---------------------------------------------------------------------

_MOMENT_R = np.array([0.3, 1.2, 2.5, 0.8, 4.0, 1.7, 0.6])
_MOMENT_GAP = np.array([0.12, 0.31, 0.05, 0.22, 0.09, 0.4, 0.18])


def _moment_shaped(theta, sigma0_sq=0.8, lam=1e-3):
    """mean(r (gap - 1/(1/sigma0^2 + 2 r theta))) + lam, increasing in theta."""
    var = 1.0 / (1.0 / sigma0_sq + 2.0 * _MOMENT_R * theta)
    return float(np.mean(_MOMENT_R * (_MOMENT_GAP - var)) + lam)


# roots recorded from scipy.optimize.brentq(f, a, b, xtol=1e-12, rtol=1e-12)
BRENT_CASES = {
    "linear": (lambda x: 3.0 * x - 1.0, 0.0, 1.0, "0x1.5555555555555p-2"),
    "wallis_cubic": (lambda x: x**3 - 2.0 * x - 5.0, 2.0, 3.0, "0x1.0c1a4350819e4p+1"),
    "exp": (lambda x: math.exp(x) - 10.0, 0.0, 5.0, "0x1.26bb1bbb5556ep+1"),
    "decreasing": (lambda x: math.cos(x) - x, 0.0, 1.0, "0x1.7a695dd83ce03p-1"),
    "reversed_bracket": (lambda x: x * x - 2.0, 2.0, 0.0, "0x1.6a09e667f3bcdp+0"),
    "flat": (lambda x: (x - 0.7) ** 5, 0.0, 1.5, "0x1.666666666719dp-1"),
    "tiny_slope": (lambda x: 1e-10 * (x - 1.0 / 3.0), -2.0, 5.0, "0x1.5555555555558p-2"),
    "steep": (lambda x: math.tanh(1e6 * (x - 0.2)), -1.0, 1.0, "0x1.99999999999b1p-3"),
    "moment": (_moment_shaped, 0.01, 1000.0, "0x1.4758d27a64d51p+0"),
}


@pytest.mark.parametrize("name", sorted(BRENT_CASES))
def test_brent_root_returns_the_recorded_float(name):
    f, a, b, root = BRENT_CASES[name]
    assert rr._brent_root(f, a, b) == float.fromhex(root)


def test_brent_root_errors():
    # (x - 0.7)^7 is too flat to meet the tolerance in 100 iterations
    with pytest.raises(RuntimeError):
        rr._brent_root(lambda x: (x - 0.7) ** 7, 0.0, 1.5)
    with pytest.raises(ValueError):
        rr._brent_root(lambda x: x + 1.0, 0.0, 1.0)  # no sign change
    with pytest.raises(ValueError):
        rr._brent_root(lambda x: math.nan if x > 0.5 else -1.0, 0.0, 1.0)


def test_root_in_dim_outcomes():
    floor = 1e-2
    # the moment is already nonnegative at the floor: the floor binds
    assert rr._root_in_dim(lambda th: th + 1.0, floor) == (floor, True)
    # a sign change in the escalated bracket [floor, 100]
    def g(th):
        return math.log(th / 50.0)

    theta, ok = rr._root_in_dim(g, floor)
    assert ok and theta == rr._brent_root(g, floor, 100.0)
    assert theta == pytest.approx(50.0, rel=1e-11)
    # no sign change below the ceiling
    assert rr._root_in_dim(lambda th: th - 1e9, floor) == (rr.THETA_Y_CEIL, False)


# -- spectral machinery -------------------------------------------------------------


def test_spectral_norm_matches_svd(rng):
    for _ in range(10):
        w = rng.normal(0, 1, (5, 5))
        assert spectral_norm(w) == pytest.approx(np.linalg.svd(w, compute_uv=False)[0], abs=1e-5)


def test_spectral_normalize_identity_unchanged():
    net = FeatureNet((np.eye(3),), (np.zeros(3),), (1.0,))
    out = spectral_normalize(net)
    np.testing.assert_array_equal(out.weights[0], np.eye(3))


def test_spectral_normalize_rescales_uniformly():
    net = FeatureNet((np.diag([3.0, 1.0]),), (np.zeros(2),), (1.0,))
    out = spectral_normalize(net)
    np.testing.assert_allclose(out.weights[0], np.diag([1.0, 1.0 / 3.0]), atol=1e-9)


def test_spectral_normalize_enforces_caps(rng):
    net = feature_net_init(rng)
    blown = FeatureNet(
        tuple(10.0 * w for w in net.weights), net.biases, net.caps
    )
    out = spectral_normalize(blown)
    for w, cap in zip(out.weights, out.caps):
        assert spectral_norm(w) <= cap * (1 + 1e-5)


# -- diagnostics -----------------------------------------------------------------


def test_lipschitz_bound_zero_head():
    model = initial_model(0.0, 1.0)
    assert lipschitz_bound(model) == 0.0


def test_lipschitz_bound_single_layer_example():
    # sup var 0.5, r_hi = 1, ||theta_phi|| = 1, one layer of norm 2 -> 1.0
    w = np.zeros((2, 4))
    w[0, 0] = 2.0
    net = FeatureNet((w,), (np.zeros(4),), (4.0,))
    model = initial_model(0.0, 1.0, net=net)
    model = replace(model, theta_phi=np.array([[1.0, 0, 0, 0]]), theta_y=np.array([1.0]))
    cfg = RatioConfig(r_lo=0.5, r_hi=1.0)
    assert lipschitz_bound(model, cfg) == pytest.approx(1.0, rel=1e-9)


def test_lipschitz_bound_dominates_empirical_slopes(line_fit):
    model, ds, _ = line_fit
    bound = lipschitz_bound(model)
    rng = np.random.default_rng(17)
    lo, hi = ds.inputs.min(axis=0), ds.inputs.max(axis=0)
    a = rng.uniform(lo, hi, (10_000, 2))
    b = rng.uniform(lo, hi, (10_000, 2))
    r_cfg = RatioConfig()
    for r_const in (r_cfg.r_lo, 1.0, r_cfg.r_hi):
        r = np.full(len(a), r_const)
        mu_a, _ = predict(model, a, ratios=r)
        mu_b, _ = predict(model, b, ratios=r)
        gaps = np.linalg.norm(a - b, axis=1)
        keep = gaps > 1e-9
        slopes = np.abs(mu_a[keep, 0] - mu_b[keep, 0]) / gaps[keep]
        assert float(np.max(slopes)) <= bound + 1e-12


def test_sigma_max_on_traj_constant_and_mixed():
    net = feature_net_init(np.random.default_rng(2))
    model = initial_model(0.0, 0.49, net=net)

    pts = np.column_stack([np.linspace(-1, 1, 50), np.zeros(50)])
    # no ratios, theta_y = 0: sigma is sigma0 everywhere
    assert sigma_max_on_traj(model, pts) == pytest.approx(0.7, rel=1e-12)

    # with ratios varying along the points, the max is attained at the min-r point
    model = replace(model, theta_y=np.array([2.0]))
    sigma_m = sigma_max_on_traj(model, pts, 0.1 + np.abs(pts[:, 0]))
    r_min = 0.1 + float(np.min(np.abs(pts[:, 0])))
    expect = math.sqrt(1.0 / (1.0 / 0.49 + 2.0 * r_min * 2.0))
    assert sigma_m == pytest.approx(expect, rel=1e-12)
