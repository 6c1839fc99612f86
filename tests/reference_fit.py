"""The robust fit before the in-place rewrite, kept as a test reference.

A copy of the allocating gradient-descent loop of
`robust_regression.fit` (a new FeatureNet and RobustModel on every step)
with the `_grads`, `_loss_terms`, `_predictive` and `_normalize_warm` it
ran, and the numpy-scalar coordinate-descent lasso of `_solve_heads`.
Its mini-batch and frozen-net branches are gone with the settings that
selected them; the full-batch arithmetic is unchanged.
The shipped code must reproduce it bit for bit; see
test_robust_regression.py.  Everything else (initialisation, the theta_y
polish, the moment residual) is imported from the package.
"""

from __future__ import annotations

import math
from dataclasses import replace
from typing import Optional

import numpy as np

from safeshift.core import Dataset
from safeshift.density_ratio import KdeModel, RatioConfig, density_ratio
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
    _polish_theta_y,
    _power_iterate,
    feature_net_init,
    moment_residual,
    spectral_normalize,
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
    for i, (w, c) in enumerate(zip(net.weights, net.caps)):
        v = cache[i]
        if v is None or v.shape != (w.shape[1],):
            v = np.ones(w.shape[1]) / math.sqrt(w.shape[1])
        s, v = _power_iterate(w, v, POWER_ITERS, POWER_TOL)
        cache[i] = v
        new_w.append(w * (c / s) if s > c else w)
    return FeatureNet(tuple(new_w), net.biases, net.caps)


def _precision(model: RobustModel, r: np.ndarray, theta_y: np.ndarray) -> np.ndarray:
    """1/sigma_sq = 1/sigma0_sq + 2 r theta_y, (n, d_out) from r (n,), theta_y (d_out,)."""
    return 1.0 / model.sigma0_sq + 2.0 * r[:, None] * theta_y[None, :]


def _predictive(model: RobustModel, r: np.ndarray, theta_y: np.ndarray, a=None):
    """The predictive form at ratios r (n,) and precision tilts theta_y (d_out,).

        sigma_sq = 1 / (1/sigma0_sq + 2 r theta_y)
        mu       = sigma_sq * (mu0/sigma0_sq + r a)

    a (n, d_out) holds the head activations theta_phi . phi(x).  Returns
    (mu, sigma_sq), both (n, d_out); mu is None when a is None.
    """
    var = 1.0 / _precision(model, r, theta_y)
    if a is None:
        return None, var
    return var * (model.mu0 / model.sigma0_sq + r[:, None] * a), var


def _loss_terms(model, x, y, r):
    """Data NLL (no penalty), plus intermediates reused by the backward pass."""
    phi, pre = _forward_cached(model.net, x)
    a = phi @ model.theta_phi.T
    mu, var = _predictive(model, r, model.theta_y, a)
    e = y - mu
    nll = float(np.mean(np.sum(0.5 * np.log(2.0 * math.pi * var) + e * e / (2.0 * var), axis=1)))
    return nll, phi, pre, a, var, mu, e


def _grads(model, x, y, r):
    """Analytic gradients of the penalized NLL w.r.t. every parameter group."""
    n = len(x)
    nll, phi, pre, a, var, mu, e = _loss_terms(model, x, y, r)
    # d loss / d a = -(e * r) / n   (per sample, per output dim)
    da = -(e * r[:, None]) / n
    g_theta_phi = da.T @ phi + model.lam * np.sign(model.theta_phi)
    # d loss / d theta_y = mean_i r_i (y^2 - mu^2 - var) + lam
    moment = r[:, None] * (y * y - mu * mu - var)
    g_theta_y = moment.mean(axis=0) + model.lam * np.sign(model.theta_y)
    g_weights = [np.zeros_like(w) for w in model.net.weights]
    g_biases = [np.zeros_like(b) for b in model.net.biases]
    dh = da @ model.theta_phi  # (n, k) gradient on the feature output
    ws = model.net.weights
    last = len(ws) - 1
    for i in range(last, -1, -1):
        dz = dh if i == last else dh * (pre[i] > 0)
        h_in = x if i == 0 else np.maximum(pre[i - 1], 0.0)
        g_weights[i] = h_in.T @ dz
        g_biases[i] = dz.sum(axis=0)
        if i > 0:
            dh = dz @ ws[i].T
    penalty = model.lam * (np.abs(model.theta_phi).sum() + np.abs(model.theta_y).sum())
    return nll + float(penalty), g_weights, g_biases, g_theta_phi, g_theta_y


def _solve_heads(model, x, y, r):
    """Exact per-dim head weights at the current net and theta_y.

    Given features and theta_y, the data term is weighted least squares in
    each head: mu_i = v_i (mu0/sigma0^2 + r_i a^T phi_i), so the penalized
    objective in a is quadratic plus lam * ||a||_1.  Solved as a relaxed
    lasso: cyclic coordinate descent with soft thresholding picks the
    support (deterministic sweep order), then an unpenalized least-squares
    refit on that support removes the soft-threshold shrinkage, which is
    not small here -- the fitted variance scales the Gram matrix down, so
    a fixed lam would otherwise bias the means by several percent.  A
    ridge proxy is NOT used either: the random ReLU features are
    near-collinear and an L2 term strong enough to tame them visibly
    over-shrinks realizable structure.
    """
    phi = model.net.forward(x)
    n = len(x)
    # the mean at a = 0 is the part of mu the heads do not move
    base, var = _predictive(model, r, model.theta_y, np.zeros((n, model.dim_out)))
    heads = np.empty_like(model.theta_phi)
    lam = model.lam
    for d in range(model.dim_out):
        v = var[:, d]
        # stationarity: (G a - b)_j + lam sign(a_j) = 0 with
        # G = (1/n) phi^T diag(v r^2) phi, b = (1/n) phi^T (r t)
        g_mat = (phi * (v * r * r)[:, None]).T @ phi / n
        t = y[:, d] - base[:, d]
        b_vec = phi.T @ (r * t) / n
        diag = np.diag(g_mat).copy()
        a = model.theta_phi[d].copy()
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
        support = np.flatnonzero(np.abs(a) > 1e-12)
        if support.size:
            # debias: min-norm least squares on the selected columns (the
            # restricted Gram can be rank deficient, lstsq handles it)
            sub, _, _, _ = np.linalg.lstsq(
                g_mat[np.ix_(support, support)], b_vec[support], rcond=None
            )
            a = np.zeros_like(a)
            a[support] = sub
        heads[d] = a
    return heads


def fit(
    dataset: Dataset,
    src_kde: Optional[KdeModel],
    trg_kde: Optional[KdeModel],
    config: TrainConfig,
    *,
    mu0: float = 0.0,
    sigma0_sq: float = 1.0,
    ratio_cfg: RatioConfig = RatioConfig(),
    init: Optional[RobustModel] = None,
) -> RobustModel:
    """Train the robust model on `dataset` with ratios frozen per call.

    Ratios at the training inputs come from density_ratio(src_kde,
    trg_kde, .); passing None for either density means r = 1 (no shift
    information, e.g. the very first fit).  `init` warm-starts from a
    previous model (its net, heads, and base distribution are reused);
    otherwise a fresh net is drawn from config.seed.
    """
    if len(dataset) == 0:
        raise ValueError("empty dataset")
    x, y = dataset.inputs, dataset.targets
    d_out = dataset.dim_out

    if src_kde is not None and trg_kde is not None:
        r = np.asarray(density_ratio(src_kde, trg_kde, x, ratio_cfg), dtype=float)
    else:
        r = np.ones(len(x))

    if init is not None:
        if init.dim_out != d_out:
            raise ValueError("warm-start output dimension mismatch")
        net = spectral_normalize(init.net)
        theta_phi = init.theta_phi.copy()
        theta_y = np.maximum(init.theta_y, config.theta_y_floor)
        mu0, sigma0_sq = init.mu0, init.sigma0_sq
    else:
        net = feature_net_init(np.random.default_rng(config.seed))
        theta_phi = np.zeros((d_out, net.feature_dim))
        theta_y = np.full(d_out, config.theta_y_floor)

    model = RobustModel(
        net=net,
        theta_phi=theta_phi,
        theta_y=theta_y,
        mu0=mu0,
        sigma0_sq=sigma0_sq,
        lam=config.lam,
        theta_y_floor=config.theta_y_floor,
    )

    log_floor = math.log(config.theta_y_floor)
    log_ceil = math.log(THETA_Y_CEIL)
    s_y = np.log(np.maximum(model.theta_y, config.theta_y_floor))
    power_cache: list = [None] * len(model.net.weights)

    for epoch in range(config.epochs):
        lr = config.lr * 0.5 * (1.0 + math.cos(math.pi * epoch / config.epochs))
        loss, g_w, g_b, g_tp, g_ty = _grads(model, x, y, r)
        if not math.isfinite(loss):
            raise TrainingDiverged(f"non-finite loss at epoch {epoch}")
        # log-space theta_y gradient, then global-norm clipping
        g_sy = g_ty * model.theta_y * config.theta_y_lr_mult
        total = math.sqrt(
            sum(float(np.sum(g * g)) for g in g_w)
            + sum(float(np.sum(g * g)) for g in g_b)
            + float(np.sum(g_tp * g_tp))
            + float(np.sum(g_sy * g_sy))
        )
        scale = 1.0 if total <= config.clip_norm else config.clip_norm / total
        step = lr * scale

        theta_phi = model.theta_phi - step * g_tp
        s_y = np.clip(s_y - step * g_sy, log_floor, log_ceil)
        new_w = tuple(w - step * g for w, g in zip(model.net.weights, g_w))
        new_b = tuple(b - step * g for b, g in zip(model.net.biases, g_b))
        new_net = _normalize_warm(FeatureNet(new_w, new_b, model.net.caps), power_cache)
        model = replace(model, net=new_net, theta_phi=theta_phi, theta_y=np.exp(s_y))

    # Gradient descent alone crawls through the coupled head/theta_y
    # scaling (mu carries a 1/sigma^2 factor, so calibrating theta_y keeps
    # moving the target the heads chase).  Finish with alternating exact
    # block solves: the lasso for the linear heads, then the bracketed
    # moment root for theta_y with the fitted means frozen.  Iterate until
    # theta_y stabilizes (the frozen-mean root makes this a near one-step
    # contraction), then close with one root at the final heads where mu
    # tracks theta_y, so the recorded stationarity holds at the exact
    # parametrization the model ships with.
    prev = model.theta_y
    for _ in range(40):
        model = replace(model, theta_phi=_solve_heads(model, x, y, r))
        theta_y, converged = _polish_theta_y(model, x, y, r)
        model = replace(model, theta_y=theta_y)
        # support flips under the debias can leave a tiny persistent
        # 2-cycle, so the break tolerance is deliberately modest; the
        # closing root below restores the moment condition exactly
        if np.all(np.abs(theta_y - prev) <= 1e-4 * np.maximum(np.abs(theta_y), 1.0)):
            break
        prev = theta_y
    theta_y, converged = _polish_theta_y(model, x, y, r, fixed_mu=False)
    model = replace(model, theta_y=theta_y, converged=converged, trained=True)
    resid = moment_residual(model, dataset, ratios=r)
    return replace(model, moment_residuals=resid)
