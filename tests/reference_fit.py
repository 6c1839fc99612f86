"""The robust fit before the in-place rewrite, kept as a test reference.

A copy of the allocating gradient-descent loop of
`robust_regression.fit` (a new FeatureNet and RobustModel on every step)
with the `_grads`, `_predictive` and `_normalize_warm` it runs, and the
numpy-scalar coordinate-descent lasso of `_solve_heads`, which only the
lasso test runs.
Its `_grads` has the shipped step's formulas: the head folded into the
linear last layer, whose gradients are rank one, so it never forms the
features phi; the bias gradients and the sum of da as dots with a vector
of ones; the clip norm as one dot of the concatenated gradient with
itself; and log theta_y clipped as a float.  Like the shipped step, it
computes no loss, and the loop raises TrainingDiverged on a non-finite
clip norm.  `_grads_feature_form` keeps the gradient backpropagated
through phi, as if the head were a general output layer, with the
`_loss_terms` it reads; the gradient tests compare the two forms, and
`_loss_terms` is the NLL the finite-difference test differentiates.
Its first normalization, at the start of a fit, is `_normalize_warm`
with an all-None cache.
Its mini-batch, frozen-net and cold-start branches are gone with the
settings that selected them, and it has the package's one output: theta_phi
a (k,) head and theta_y a scalar.
It keeps the prior-mean term mu0/sigma0_sq of the predictive mean, at
mu0 = 0.0, which the package leaves out: matching it bit for bit shows
that leaving it out moves no float.  The L1 weight lam is passed to each
function, as the package passes it.
The fixed settings (LR, CLIP_NORM, THETA_Y_FLOOR, THETA_Y_LR_MULT,
SPECTRAL_CAP) are read from the package module at call time, so a test
that patches one patches both fits.  The shipped code must reproduce it bit for bit; see
test_robust_regression.py.  The closing solve of the head and theta_y is
imported from the package.
"""

from __future__ import annotations

import math
from dataclasses import replace
from typing import Optional

import numpy as np

from safeshift import robust_regression as rr
from safeshift.core import Dataset
from safeshift.density_ratio import KdeModel, density_ratio
from safeshift.robust_regression import (
    LASSO_SWEEPS,
    LASSO_TOL,
    POWER_ITERS,
    POWER_TOL,
    THETA_Y_CEIL,
    FeatureNet,
    RobustModel,
    TrainConfig,
    TrainingDiverged,
    _closing_solve,
    _power_iterate,
)


def _forward_cached(self, x: np.ndarray):
    """Forward pass keeping pre-activations for backprop."""
    pre = []
    h = x
    last = len(self.weights) - 1
    for i, (w, b) in enumerate(zip(self.weights, self.biases)):
        z = h @ w + b
        pre.append(z)
        h = np.maximum(z, 0.0) if i < last else z
    return h, pre


def _normalize_warm(net: FeatureNet, cache: list) -> FeatureNet:
    """spectral_normalize for the training loop.

    Weights drift a little per step, so the previous step's right singular
    vectors (kept in cache, updated in place) make the power iteration
    converge almost immediately.  Same tolerance as the cold start.
    """
    new_w = []
    c = rr.SPECTRAL_CAP
    for i, w in enumerate(net.weights):
        v = cache[i]
        if v is None or v.shape != (w.shape[1],):
            v = np.ones(w.shape[1]) / math.sqrt(w.shape[1])
        s, v = _power_iterate(w, v, POWER_ITERS, POWER_TOL)
        cache[i] = v
        new_w.append(w * (c / s) if s > c else w)
    return FeatureNet(tuple(new_w), net.biases)


def _precision(model: RobustModel, r: np.ndarray, theta_y) -> np.ndarray:
    """1/sigma_sq = 1/sigma0_sq + 2 r theta_y, (n,) from r (n,) and scalar theta_y."""
    return 1.0 / model.sigma0_sq + 2.0 * r * theta_y


def _predictive(model: RobustModel, r: np.ndarray, theta_y, a=None):
    """The predictive form at ratios r (n,) and precision tilt theta_y.

        sigma_sq = 1 / (1/sigma0_sq + 2 r theta_y)
        mu       = sigma_sq * (mu0/sigma0_sq + r a)

    a (n,) holds the head activations theta_phi . phi(x).  Returns
    (mu, sigma_sq), both (n,); mu is None when a is None.
    """
    var = 1.0 / _precision(model, r, theta_y)
    if a is None:
        return None, var
    return var * (0.0 / model.sigma0_sq + r * a), var


def _loss_terms(model, x, y, r):
    """Data NLL (no penalty), plus intermediates reused by the backward pass."""
    phi, pre = _forward_cached(model.net, x)
    a = phi @ model.theta_phi
    mu, var = _predictive(model, r, model.theta_y, a)
    e = y - mu
    nll = float(np.mean(0.5 * np.log(2.0 * math.pi * var) + e * e / (2.0 * var)))
    return nll, phi, pre, a, var, mu, e


def _grads_feature_form(model, x, y, r, lam):
    """Analytic gradients of the penalized NLL, backpropagated through the
    features phi as if the head were a general output layer."""
    n = len(x)
    _, phi, pre, a, var, mu, e = _loss_terms(model, x, y, r)
    # d loss / d a = -(e * r) / n   (per sample)
    da = -(e * r) / n
    g_theta_phi = da @ phi + lam * np.sign(model.theta_phi)
    # d loss / d theta_y = mean_i r_i (y^2 - mu^2 - var) + lam
    moment = r * (y * y - mu * mu - var)
    g_theta_y = moment.mean() + lam * np.sign(model.theta_y)
    g_weights = [np.zeros_like(w) for w in model.net.weights]
    g_biases = [np.zeros_like(b) for b in model.net.biases]
    dh = np.outer(da, model.theta_phi)  # (n, k) gradient on the feature output
    ws = model.net.weights
    last = len(ws) - 1
    for i in range(last, -1, -1):
        dz = dh if i == last else dh * (pre[i] > 0)
        h_in = x if i == 0 else np.maximum(pre[i - 1], 0.0)
        g_weights[i] = h_in.T @ dz
        g_biases[i] = dz.sum(axis=0)
        if i > 0:
            dh = dz @ ws[i].T
    return g_weights, g_biases, g_theta_phi, g_theta_y


def _grads(model, x, y, r, lam):
    """The same gradients with the head folded into the linear last layer.

    a = h (W theta_phi) + b . theta_phi on the last hidden output h, so the
    last layer's gradients are rank one and phi is never formed; each sum
    over rows is a dot with a vector of ones.
    """
    n = len(x)
    ones = np.ones(n)
    ws, bs = model.net.weights, model.net.biases
    last = len(ws) - 1
    pre, h = [], x
    for i in range(last):
        pre.append(h @ ws[i] + bs[i])
        h = np.maximum(pre[i], 0.0)
    w_head = ws[last] @ model.theta_phi
    a = h @ w_head + float(bs[last] @ model.theta_phi)
    mu, var = _predictive(model, r, model.theta_y, a)
    e = y - mu
    # d loss / d theta_y = mean_i r_i (y^2 - mu^2 - var) + lam
    moment = r * (y * y - mu * mu - var)
    g_theta_y = float(moment.mean()) + lam * float(np.sign(model.theta_y))
    # d loss / d a = -(e * r) / n   (per sample)
    da = -(e * r) / n
    h_da, da_sum = da @ h, float(ones @ da)
    g_weights = [None] * len(ws)
    g_biases = [None] * len(ws)
    g_weights[last] = np.outer(h_da, model.theta_phi)
    g_biases[last] = da_sum * model.theta_phi
    g_theta_phi = h_da @ ws[last] + da_sum * bs[last] + lam * np.sign(model.theta_phi)
    dh = np.outer(da, w_head)  # (n, width) gradient on the last hidden output
    for i in range(last - 1, -1, -1):
        dz = dh * (pre[i] > 0)
        h_in = x if i == 0 else np.maximum(pre[i - 1], 0.0)
        g_weights[i] = h_in.T @ dz
        g_biases[i] = ones @ dz
        if i > 0:
            dh = dz @ ws[i].T
    return g_weights, g_biases, g_theta_phi, g_theta_y


def _solve_heads(g_mat, b_vec, start, lam):
    """Lasso head weights on the normal equations G a = b, from the head `start`.

    The penalized objective in a is a^T G a / 2 - b^T a + lam * ||a||_1,
    solved by cyclic coordinate descent with soft thresholding
    (deterministic sweep order), in numpy scalars.
    """
    diag = np.diag(g_mat).copy()
    a = start.copy()
    for _ in range(LASSO_SWEEPS):
        biggest = 0.0
        for j in range(len(a)):
            if diag[j] <= 0.0:
                a[j] = 0.0
                continue
            rho = b_vec[j] - float(g_mat[j] @ a) + diag[j] * a[j]
            if rho > lam:
                new = (rho - lam) / diag[j]
            elif rho < -lam:
                new = (rho + lam) / diag[j]
            else:
                new = 0.0
            biggest = max(biggest, abs(new - a[j]))
            a[j] = new
        if biggest <= LASSO_TOL * max(1.0, float(np.max(np.abs(a)))):
            break
    return a


def fit(
    dataset: Dataset,
    src_kde: Optional[KdeModel],
    trg_kde: Optional[KdeModel],
    config: TrainConfig,
    *,
    init: RobustModel,
) -> RobustModel:
    """Train the robust model on `dataset` with ratios frozen per call.

    Ratios at the training inputs come from density_ratio(src_kde,
    trg_kde, .); passing None for either density means r = 1 (no shift
    information, e.g. the very first fit).  The fit starts from `init`
    (its net, heads, and base distribution are reused).
    """
    if len(dataset) == 0:
        raise ValueError("empty dataset")
    x, y = dataset.inputs, dataset.targets

    if src_kde is not None and trg_kde is not None:
        r = np.asarray(density_ratio(src_kde, trg_kde, x), dtype=float)
    else:
        r = np.ones(len(x))

    net = _normalize_warm(init.net, [None] * len(init.net.weights))
    theta_phi = init.theta_phi.copy()
    theta_y = np.maximum(init.theta_y, rr.THETA_Y_FLOOR)

    model = RobustModel(
        net=net,
        theta_phi=theta_phi,
        theta_y=theta_y,
        sigma0_sq=init.sigma0_sq,
    )

    log_floor = math.log(rr.THETA_Y_FLOOR)
    log_ceil = math.log(THETA_Y_CEIL)
    s_y = float(np.log(model.theta_y))
    power_cache: list = [None] * len(model.net.weights)

    for epoch in range(config.epochs):
        lr = rr.LR * 0.5 * (1.0 + math.cos(math.pi * epoch / config.epochs))
        g_w, g_b, g_tp, g_ty = _grads(model, x, y, r, config.lam)
        # log-space theta_y gradient, then global-norm clipping
        g_sy = g_ty * float(model.theta_y) * rr.THETA_Y_LR_MULT
        flat = np.concatenate([g.ravel() for g in (*g_w, *g_b, g_tp)] + [[g_sy]])
        total = math.sqrt(float(flat @ flat))
        if not math.isfinite(total):
            raise TrainingDiverged(f"non-finite gradient norm at epoch {epoch}")
        scale = 1.0 if total <= rr.CLIP_NORM else rr.CLIP_NORM / total
        step = lr * scale

        theta_phi = model.theta_phi - step * g_tp
        s_y = min(max(s_y - step * g_sy, log_floor), log_ceil)
        new_w = tuple(w - step * g for w, g in zip(model.net.weights, g_w))
        new_b = tuple(b - step * g for b, g in zip(model.net.biases, g_b))
        new_net = _normalize_warm(FeatureNet(new_w, new_b), power_cache)
        model = replace(model, net=new_net, theta_phi=theta_phi, theta_y=np.exp(s_y))

    return _closing_solve(model, x, y, r, config.lam)
