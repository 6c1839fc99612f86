"""Robust regression under covariate shift: predictions, training, bounds."""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest

from safeshift import robust_regression as rr
from safeshift.core import Dataset
from safeshift.density_ratio import R_HI, density_ratio, kde_fit
from safeshift.robust_regression import (
    FeatureNet,
    TrainConfig,
    feature_net_init,
    fit,
    initial_model,
    predict,
    spectral_normalize,
)

import reference_fit

LAM = 1e-3  # the L1 weight of the fits and base models below


# -- predictive form -------------------------------------------------------------


def test_zero_ratio_recovers_base_distribution():
    net = feature_net_init(np.random.default_rng(0))
    model = replace(initial_model(2.0, net=net), theta_phi=np.ones(net.feature_dim))
    model = replace(model, theta_y=np.float64(3.0))
    x = np.array([[0.3, -0.4], [1.0, 2.0]])
    mu, var = predict(model, x, ratios=np.zeros(2))
    np.testing.assert_array_equal(mu, 0.0)
    np.testing.assert_allclose(var, 2.0)


@pytest.mark.parametrize("sigma0_sq", [0.5, 1.0])
def test_off_the_data_the_std_and_mean_go_back_to_the_prior(sigma0_sq):
    # at ratio 0 the fitted tilt and head drop out: sigma is sigma0 and the mean 0
    g = np.random.default_rng(4)
    net = feature_net_init(g)
    model = replace(
        initial_model(sigma0_sq, net=net),
        theta_phi=g.normal(size=net.feature_dim),
        theta_y=np.float64(317.0),
    )
    assert rr.std_at(model, 0.0) == math.sqrt(sigma0_sq)
    mean = rr.mean_fn(model, lambda q, qdot: 0.0)
    assert all(mean(q, qdot) == 0.0 for q, qdot in g.normal(size=(20, 2)))


def test_predict_unit_example():
    """sigma0^2 = 1, r = 1, theta_y = 1, head . phi = 3 -> var 1/3, mu 1."""
    net = feature_net_init(np.random.default_rng(0))
    x = np.array([[0.3, -0.2]])
    phi = net.forward(x)[0]
    scale = 3.0 / float(phi @ phi)
    model = initial_model(1.0, net=net)
    model = replace(model, theta_phi=scale * phi, theta_y=np.float64(1.0))
    mu, var = predict(model, x, ratios=np.array([1.0]))
    assert var[0] == pytest.approx(1.0 / 3.0, rel=1e-12)
    assert mu[0] == pytest.approx(1.0, rel=1e-12)


def test_variance_strictly_decreasing_in_ratio():
    net = feature_net_init(np.random.default_rng(1))
    model = replace(initial_model(1.0, net=net), theta_y=np.float64(0.8))
    x = np.tile([[0.1, 0.1]], (5, 1))
    _, var = predict(model, x, ratios=np.array([0.0, 0.5, 1.0, 2.0, 4.0]))
    assert np.all(np.diff(var) < 0)
    assert np.all(var <= 1.0)


def test_variance_bound_is_exact_algebra(rng):
    """var <= (2 R B + sigma0^-2)^-1 whenever r >= R and theta_y >= B."""
    r_floor, b_floor, sigma0_sq = 0.1, 1e-2, 0.5
    net = feature_net_init(rng)
    bound = 1.0 / (2 * r_floor * b_floor + 1.0 / sigma0_sq)
    x = rng.uniform(-2, 2, (1000, 2))
    ratios = rng.uniform(r_floor, 10.0, 1000)
    for theta_y in b_floor + rng.uniform(0, 5, 3):
        model = replace(initial_model(sigma0_sq, net=net), theta_y=theta_y)
        _, var = predict(model, x, ratios=ratios)
        assert np.all(var <= bound * (1 + 1e-12))


def _base(seed, sigma0_sq=1.0):
    """The base model on the net `seed` draws: where a first fit starts."""
    net = feature_net_init(np.random.default_rng(seed))
    return initial_model(sigma0_sq, net=net)


def test_mean_fn_equals_predict_bit_for_bit():
    # one rounding of the predictive mean serves the controller (floats) and
    # every array caller; a batch forward pass rounds apart from a one-row
    # one (BLAS), so each state is predicted as its own row
    g = np.random.default_rng(7)
    net = feature_net_init(g)
    x = g.normal(0.0, 1.0, (50, 2))
    r = np.concatenate([[0.0, R_HI], g.uniform(0.0, R_HI, 48)])
    ratio_at = dict(zip(map(tuple, x.tolist()), r.tolist()))
    for theta_y in (2.5, 317.0):
        model = replace(
            initial_model(0.7, net=net),
            theta_phi=g.normal(size=net.feature_dim),
            theta_y=np.float64(theta_y),
        )
        mean = rr.mean_fn(model, lambda q, qdot: ratio_at[q, qdot])
        got = [mean(q, qdot) for q, qdot in x.tolist()]
        want = [predict(model, x[i : i + 1], r[i : i + 1])[0][0] for i in range(len(x))]
        assert got == want


# -- loss and gradients ------------------------------------------------------------


def _loss(model, ds, ratios):
    """The penalized NLL that the training step differentiates; the step
    itself computes no loss, so the reference's data NLL plus the penalty."""
    nll = reference_fit._loss_terms(model, ds.inputs, ds.targets, ratios)[0]
    return nll + LAM * (float(np.abs(model.theta_phi).sum()) + abs(float(model.theta_y)))


def test_nll_loss_of_exact_model_is_entropy_plus_penalty():
    model = _base(0, 0.9)
    ds = Dataset(np.zeros((6, 2)), np.zeros(6))  # targets equal mu exactly
    loss = _loss(model, ds, np.ones(6))
    assert loss == pytest.approx(0.5 * math.log(2 * math.pi * 0.9), rel=1e-12)


def test_nll_loss_reduces_to_base_nll_when_theta_zero(rng):
    model = _base(0, 1.5)
    y = rng.normal(0.0, 1.0, 40)
    ds = Dataset(rng.uniform(-1, 1, (40, 2)), y)
    loss = _loss(model, ds, rng.uniform(0.1, 10.0, 40))
    base = float(np.mean(0.5 * np.log(2 * math.pi * 1.5) + y ** 2 / (2 * 1.5)))
    assert loss == pytest.approx(base, rel=1e-12)


def _flatten(model):
    parts = [w.ravel() for w in model.net.weights]
    parts += [b.ravel() for b in model.net.biases]
    parts += [model.theta_phi, [model.theta_y]]
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
    ty = vec[i]
    net = FeatureNet(tuple(ws), tuple(bs))
    return replace(model, net=net, theta_phi=tp, theta_y=ty)


def test_analytic_gradients_match_finite_differences(rng, monkeypatch):
    """Every parameter group of the penalized NLL, central differences."""
    n = 40
    ds = Dataset(rng.uniform(-1, 1, (n, 2)), rng.normal(0, 0.5, n))
    ratios = rng.uniform(0.2, 5.0, n)
    monkeypatch.setattr(rr, "HIDDEN", (8, 8))
    monkeypatch.setattr(rr, "FEATURE_DIM", 5)
    net = feature_net_init(np.random.default_rng(11))
    # nonzero biases, so every term a bias multiplies (b3 in g_theta_phi
    # among them) reaches the loss; feature_net_init's biases are zero
    net = FeatureNet(net.weights, tuple(rng.normal(0.0, 0.3, b.shape) for b in net.biases))
    model = initial_model(1.0, net=net)
    # keep every parameter away from the |.| kink so FD is well defined
    model = replace(
        model,
        theta_phi=rng.uniform(0.1, 0.4, model.theta_phi.shape),
        theta_y=rng.uniform(0.5, 1.5),
    )

    ws = rr._Workspace(model.net, n)
    rr._grads(model, ds.inputs, ds.targets, ratios, ws, LAM)
    # the finite differences below run _grads again, on other workspaces
    analytic = np.concatenate(
        [g.ravel() for g in ws.g_w] + [g.ravel() for g in ws.g_b] + [ws.g_tp, [ws.g_ty]]
    )

    theta0 = _flatten(model)
    h = 1e-5
    fd = np.empty_like(theta0)
    for i in range(len(theta0)):
        up, dn = theta0.copy(), theta0.copy()
        up[i] += h
        dn[i] -= h
        fd[i] = (
            _loss(_unflatten(model, up), ds, ratios) - _loss(_unflatten(model, dn), ds, ratios)
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
    ds = Dataset(rng.uniform(-1, 1, (n, 2)), rng.normal(0.0, sigma0, n))
    model = fit(ds, None, None, TrainConfig(epochs=600, lam=0.1), init=_base(2, sigma0 ** 2))
    mu, var = predict(model, ds.inputs, ratios=np.ones(n))
    assert np.max(np.abs(mu)) < 3 * sigma0 / math.sqrt(n)
    # with no structure to absorb, the predictive variance stays at the
    # base level (sigma0^2 up to the theta_y floor)
    assert float(var.max()) == pytest.approx(sigma0 ** 2, rel=0.05)


def test_fit_linear_target_rmse(line_fit):
    model, ds, true_mean = line_fit
    mu, var = predict(model, ds.inputs, ratios=np.ones(len(ds)))
    rmse = float(np.sqrt(np.mean((mu - true_mean) ** 2)))
    assert rmse < 0.05
    # the learned theta_y tightens the predictive band toward the noise level
    assert float(np.sqrt(np.mean(var))) < 0.3


def test_fit_moment_condition(line_fit):
    # the recorded residual is the theta_y condition mean(y^2 - mu^2 - sigma^2)
    # + lam at r = 1, which the fit's root drives to 0
    model, ds, _ = line_fit
    y = ds.targets
    mu, var = predict(model, ds.inputs)
    want = float(np.mean(y * y - mu * mu - var)) + 1e-3  # line_fit's lam
    scale = float(np.mean(y * y + mu * mu + var))
    assert abs(model.moment_residual - want) <= 1e-9 * scale
    assert model.converged and abs(model.moment_residual) <= 1e-9 * scale


def test_fit_is_deterministic_given_seed(make_line_dataset):
    ds = make_line_dataset(n=60)
    cfg = TrainConfig(epochs=120, lam=LAM)
    a = fit(ds, None, None, cfg, init=_base(4))
    b = fit(ds, None, None, cfg, init=_base(4))
    np.testing.assert_array_equal(a.theta_phi, b.theta_phi)
    assert a.theta_y == b.theta_y
    for wa, wb in zip(a.net.weights, b.net.weights):
        np.testing.assert_array_equal(wa, wb)


def test_fit_respects_theta_y_floor(make_line_dataset, monkeypatch):
    monkeypatch.setattr(rr, "THETA_Y_FLOOR", 0.05)
    ds = make_line_dataset(n=60)
    model = fit(ds, None, None, TrainConfig(epochs=60, lam=LAM), init=_base(0))
    assert model.theta_y >= 0.05 - 1e-15


def test_fit_rejects_empty_dataset():
    with pytest.raises(ValueError):
        fit(Dataset.empty(), None, None, TrainConfig(epochs=10, lam=LAM), init=_base(0))


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_fit_raises_training_diverged_on_a_non_finite_target(make_line_dataset, bad):
    # Dataset rejects a non-finite target, so one is written in after the
    # check; its residual makes the first step's gradient norm non-finite
    ds = make_line_dataset(n=60)
    targets = ds.targets.copy()
    ds = Dataset(ds.inputs, targets)
    targets[7] = bad
    # inf - inf and 0 * inf in the step are the divergence under test
    with np.errstate(invalid="ignore"):
        with pytest.raises(rr.TrainingDiverged, match=r"^non-finite gradient norm at epoch 0$"):
            fit(ds, None, None, TrainConfig(epochs=10, lam=LAM), init=_base(0))


def _shift_problem(n=60, seed=31):
    """Data with a source/target shift, so the ratios vary."""
    g = np.random.default_rng(seed)
    x = g.uniform(-1.0, 1.0, (n, 2))
    y = np.sin(2.0 * x[:, 0]) + 0.5 * x[:, 1] + g.normal(0.0, 0.05, n)
    trg = kde_fit(g.uniform(-0.5, 1.5, (40, 2)))
    return Dataset(x, y), kde_fit(x), trg


def _assert_models_identical(got, want):
    for a, b in zip(got.net.weights + got.net.biases, want.net.weights + want.net.biases):
        assert np.array_equal(a, b)
    assert np.array_equal(got.theta_phi, want.theta_phi)
    assert got.theta_y == want.theta_y
    assert got.moment_residual == want.moment_residual
    assert got.converged == want.converged


@pytest.mark.parametrize("case", ["full_batch", "warm_start"])
def test_fit_matches_allocating_reference_bit_for_bit(case, monkeypatch):
    """The in-place loop reproduces the allocating loop it replaced exactly,
    from a base model and warm-started from a fitted one."""
    ds, src, trg = _shift_problem()
    # a clip norm of 1 keeps the global-norm clip active on most steps
    monkeypatch.setattr(rr, "CLIP_NORM", 1.0)
    cfg = TrainConfig(epochs=40, lam=LAM)
    init = _base(6, 0.5)
    if case == "warm_start":
        init = reference_fit.fit(ds, src, trg, cfg, init=init)
    got = fit(ds, src, trg, cfg, init=init)
    want = reference_fit.fit(ds, src, trg, cfg, init=init)
    _assert_models_identical(got, want)


@pytest.mark.parametrize("case", ["base", "warm"])
def test_rank_one_gradient_matches_the_feature_form(case):
    """The step's gradient, with the head folded into the last layer, equals
    the gradient backpropagated through the features phi, group by group.

    The warm model is fitted on the first 40 rows, so on all 60 it sits
    where a warm-started retrain takes its first step: off the theta_y
    root the closing solve put it on.
    """
    ds, src, trg = _shift_problem()
    x, y, r = ds.inputs, ds.targets, density_ratio(src, trg, ds.inputs)
    model = _base(6, 0.5)
    if case == "warm":
        first = Dataset(x[:40], y[:40])
        model = fit(first, kde_fit(first.inputs), trg, TrainConfig(epochs=40, lam=LAM), init=model)
        assert np.count_nonzero(model.theta_phi) and model.theta_y > 0
    ws = rr._Workspace(model.net, len(x))
    rr._grads(model, x, y, r, ws, LAM)
    g_w, g_b, g_tp, g_ty = reference_fit._grads_feature_form(model, x, y, r, LAM)
    got = [*ws.g_w, *ws.g_b, ws.g_tp, ws.g_ty]
    want = [*g_w, *g_b, g_tp, g_ty]
    assert len(got) == len(want) == 2 * len(model.net.weights) + 2
    for g, w in zip(got, want):
        assert np.linalg.norm(np.subtract(g, w)) <= 1e-10 * np.linalg.norm(w)


def test_solve_heads_matches_numpy_scalar_reference():
    ds, src, trg = _shift_problem()
    model = fit(ds, src, trg, TrainConfig(epochs=40, lam=LAM), init=_base(6, 0.5))
    r = density_ratio(src, trg, ds.inputs)
    noise = np.random.default_rng(8).normal(0.0, 0.3, model.theta_phi.shape)
    start = model.theta_phi + noise
    var = predict(model, ds.inputs, ratios=r)[1]
    g_mat, b_vec = rr._normal_equations(model.net.forward(ds.inputs), var, r, ds.targets)
    heads = rr._solve_heads(g_mat, b_vec, start, LAM)
    assert not np.array_equal(heads, start)
    assert np.array_equal(heads, reference_fit._solve_heads(g_mat, b_vec, start, LAM))


def test_closing_solve_meets_both_first_order_conditions():
    ds, src, trg = _shift_problem()
    x, y, r = ds.inputs, ds.targets, density_ratio(src, trg, ds.inputs)
    model = fit(ds, src, trg, TrainConfig(epochs=40, lam=LAM), init=_base(6, 0.5))
    assert model.converged and model.theta_y > rr.THETA_Y_FLOOR
    support = np.flatnonzero(model.theta_phi)
    assert support.size
    phi = model.net.forward(x)[:, support]
    mu, var = predict(model, x, ratios=r)
    n = len(x)
    # the unpenalized head on its support: G c = b
    g_mat = (phi * (var * r * r)[:, None]).T @ phi / n
    b_vec = phi.T @ (r * y) / n
    residual = g_mat @ model.theta_phi[support] - b_vec
    assert np.linalg.norm(residual) <= 1e-9 * np.linalg.norm(b_vec)
    # theta_y: the weighted moment plus lam is 0, relative to the size of its
    # terms, and the fit records it as its moment residual
    moment = float(np.mean(r * (y * y - mu * mu - var)))
    scale = float(np.mean(r * (y * y + mu * mu + var)))
    assert abs(moment + LAM) <= 1e-9 * scale
    assert abs(model.moment_residual - (moment + LAM)) <= 1e-9 * scale


def test_fit_runs_the_feature_net_forward_once(monkeypatch):
    # training folds the head into the last layer and never forms phi; the
    # closing solve's lasso, head profile and moment share one forward pass
    ds, src, trg = _shift_problem()
    rows, forward = [], FeatureNet.forward
    monkeypatch.setattr(FeatureNet, "forward", lambda net, x: rows.append(len(x)) or forward(net, x))
    model = fit(ds, src, trg, TrainConfig(epochs=5, lam=LAM), init=_base(6, 0.5))
    assert rows == [len(ds)]
    assert np.isfinite(model.moment_residual)


# -- theta_y root ---------------------------------------------------------------------

_MOMENT_R = np.array([0.3, 1.2, 2.5, 0.8, 4.0, 1.7, 0.6])
_MOMENT_GAP = np.array([0.12, 0.31, 0.05, 0.22, 0.09, 0.4, 0.18])


def _moment_shaped(theta, sigma0_sq=0.8, lam=1e-3):
    """mean(r (gap - v)) + lam with v = 1/(1/sigma0^2 + 2 r theta), increasing
    and concave in theta, and its slope mean(2 r^2 v^2)."""
    var = 1.0 / (1.0 / sigma0_sq + 2.0 * _MOMENT_R * theta)
    value = float(np.mean(_MOMENT_R * (_MOMENT_GAP - var)) + lam)
    return value, float(np.mean(2.0 * _MOMENT_R * _MOMENT_R * var * var))


# recorded from scipy.optimize.brentq(value, 0.01, 1000, xtol=1e-12, rtol=1e-12)
MOMENT_ROOT = "0x1.4758d27a64d51p+0"


@pytest.mark.parametrize("start", [0.0, 0.5, 1.0, 5.0, 1e3, 1e7])
def test_newton_root_returns_the_recorded_float_from_either_side(start):
    # starts below the floor, left of the root and right of it
    assert rr._newton_root(_moment_shaped, start) == (float.fromhex(MOMENT_ROOT), True)


def test_newton_root_stops_at_the_rounding_floor_of_g():
    # a +-1e-10 wiggle, like that of a moment computed through a least-squares
    # solve: the relative step never settles, but left of the root g stops rising
    evaluations = []

    def g(theta):
        evaluations.append(theta)
        value, slope = _moment_shaped(theta)
        return value + 1e-10 * math.sin(1e13 * theta), slope

    for start in (0.0, 0.5, 1e7):
        evaluations.clear()
        theta, converged = rr._newton_root(g, start)
        assert converged and len(evaluations) < rr.NEWTON_MAXITER
        assert theta == pytest.approx(float.fromhex(MOMENT_ROOT), rel=1e-8)


def test_newton_root_floor_binds():
    # the moment is already nonnegative at the floor
    assert rr._newton_root(lambda th: (th + 1.0, 1.0), 5.0) == (rr.THETA_Y_FLOOR, True)


def test_newton_root_without_a_root_below_the_ceiling():
    g = lambda th: (-1.0 / (1.0 + th), 1.0 / (1.0 + th) ** 2)  # noqa: E731
    assert rr._newton_root(g, 0.0) == (rr.THETA_Y_CEIL, False)


def test_fit_without_a_theta_y_root_ends_unconverged_at_the_ceiling():
    # zero targets and no penalty: the moment -mean(mu^2 + sigma^2) < 0 at every theta_y
    x = np.random.default_rng(3).uniform(-1.0, 1.0, (40, 2))
    ds = Dataset(x, np.zeros(40))
    model = fit(ds, None, None, TrainConfig(epochs=50, lam=0.0), init=_base(1))
    assert not model.converged
    assert model.theta_y == rr.THETA_Y_CEIL
    assert model.moment_residual < 0


# -- spectral machinery -------------------------------------------------------------


def test_spectral_normalize_identity_unchanged():
    w = 0.5 * rr.SPECTRAL_CAP * np.eye(3)
    net = FeatureNet((w.copy(),), (np.zeros(3),))
    spectral_normalize(net, [None])
    np.testing.assert_array_equal(net.weights[0], w)


def test_spectral_normalize_rescales_uniformly():
    # diag(3 cap, cap) has spectral norm 3 cap, so both axes shrink by 1/3:
    # with the cap at 2, diag(6, 2) becomes diag(2, 2/3)
    cap = rr.SPECTRAL_CAP
    net = FeatureNet((np.diag([3.0 * cap, cap]),), (np.zeros(2),))
    spectral_normalize(net, [None])
    np.testing.assert_allclose(net.weights[0], np.diag([cap, cap / 3.0]), atol=1e-9)


def test_spectral_normalize_enforces_caps(rng):
    """Every blown-up layer comes back to the cap, up to the power iteration's shortfall.

    The power estimate never exceeds the largest singular value, so a
    rescaled layer lands at or above the cap.  It lands above it by what the
    POWER_ITERS iterations leave unconverged: up to ~4 % on 32-wide layers
    whose top two singular values are close.
    """
    net = feature_net_init(rng)
    blown = FeatureNet(tuple(10.0 * w for w in net.weights), net.biases)
    cache = [None] * len(blown.weights)
    spectral_normalize(blown, cache)
    for w, v in zip(blown.weights, cache):
        top = np.linalg.svd(w, compute_uv=False)[0]
        assert rr.SPECTRAL_CAP * (1 - 1e-12) <= top <= rr.SPECTRAL_CAP * 1.05
        assert v.shape == (w.shape[1],)  # the converged start vector of the next call
