"""Robust regression under covariate shift with a Gaussian predictive form.

The predictive density at input x tilts a base Gaussian N(mu0, sigma0_sq)
by an exponential family term whose natural parameters are scaled by the
source/target density ratio r(x):

    sigma_sq(x) = 1 / (1/sigma0_sq + 2 r(x) theta_y)
    mu(x)       = sigma_sq(x) * (mu0/sigma0_sq + r(x) theta_phi . phi(x))

phi(x) is a small spectral-normalized ReLU network's output feature
vector.  Where the data is dense relative to the proposal (large r) the
variance contracts; where the proposal leaves the data (r clipped at its
floor) the variance stays inflated.  Training minimizes the penalized
Gaussian negative log-likelihood on source data with analytic gradients;
a final one dimensional solve per output tightens theta_y until the
stationarity condition mean_i r_i (y_i^2 - mu_i^2 - sigma_i^2) = -lambda
holds to solver precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .core import Dataset
from .density_ratio import KdeModel, RatioConfig, density_ratio

__all__ = [
    "FeatureNet",
    "RobustModel",
    "TrainConfig",
    "TrainingDiverged",
    "feature_net_init",
    "spectral_norm",
    "spectral_normalize",
    "initial_model",
    "predict",
    "nll_loss",
    "fit",
    "lipschitz_bound",
    "sigma_max_on_traj",
    "moment_residual",
]

POWER_ITERS = 30
POWER_TOL = 1e-6
THETA_Y_CEIL = 1e8


class TrainingDiverged(RuntimeError):
    """Loss or parameters became non-finite during training."""


@dataclass(frozen=True)
class FeatureNet:
    """Fully connected ReLU feature extractor; the last layer is linear.

    weights[i] has shape (in_i, out_i); caps[i] is the spectral-norm cap
    enforced by spectral_normalize.
    """

    weights: tuple
    biases: tuple
    caps: tuple

    def __post_init__(self):
        if not (len(self.weights) == len(self.biases) == len(self.caps)):
            raise ValueError("weights, biases, caps must align")

    @property
    def feature_dim(self) -> int:
        return self.weights[-1].shape[1]

    def forward(self, x: np.ndarray) -> np.ndarray:
        h = x
        last = len(self.weights) - 1
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            h = h @ w + b
            if i < last:
                np.maximum(h, 0.0, out=h)
        return h


def feature_net_init(
    rng: np.random.Generator,
    input_dim: int = 2,
    hidden: tuple = (32, 32),
    feature_dim: int = 16,
    cap: float = 2.0,
) -> FeatureNet:
    """He-initialized net, immediately rescaled to the spectral caps."""
    dims = (input_dim,) + tuple(hidden) + (feature_dim,)
    weights, biases = [], []
    for d_in, d_out in zip(dims[:-1], dims[1:]):
        weights.append(rng.standard_normal((d_in, d_out)) * math.sqrt(2.0 / d_in))
        biases.append(np.zeros(d_out))
    net = FeatureNet(tuple(weights), tuple(biases), (cap,) * len(weights))
    return spectral_normalize(net)


def _power_iterate(w: np.ndarray, v: np.ndarray, iters: int, tol: float):
    """Power iteration on w^T w from start vector v; returns (sigma, v)."""
    sigma = 0.0
    for _ in range(iters):
        u = w @ v
        nu = math.sqrt(float(u @ u))
        if nu == 0.0:
            return 0.0, v
        u /= nu
        v = w.T @ u
        new_sigma = math.sqrt(float(v @ v))
        if new_sigma == 0.0:
            return 0.0, v
        v /= new_sigma
        if abs(new_sigma - sigma) <= tol * new_sigma:
            return new_sigma, v
        sigma = new_sigma
    return sigma, v


def spectral_norm(w: np.ndarray, iters: int = POWER_ITERS, tol: float = POWER_TOL) -> float:
    """Largest singular value by power iteration on w^T w.

    Deterministic start vector (all ones); stops early once the estimate
    moves less than tol between iterations.
    """
    v = np.ones(w.shape[1]) / math.sqrt(w.shape[1])
    return float(_power_iterate(w, v, iters, tol)[0])


def spectral_normalize(net: FeatureNet) -> FeatureNet:
    """Rescale every weight matrix whose spectral norm exceeds its cap."""
    if min(net.caps) <= 0:
        raise ValueError("spectral cap must be positive")
    new_w = []
    for w, c in zip(net.weights, net.caps):
        s = spectral_norm(w)
        new_w.append(w * (c / s) if s > c else w)
    return FeatureNet(tuple(new_w), net.biases, net.caps)


def _normalize_warm(net: FeatureNet, cache: list) -> None:
    """spectral_normalize for the training loop, in place on net's weights.

    Weights drift a little per step, so the previous step's right singular
    vectors (kept in cache, updated in place) make the power iteration
    converge almost immediately.  Same tolerance as the cold start.
    """
    for i, (w, c) in enumerate(zip(net.weights, net.caps)):
        v = cache[i]
        if v is None:
            v = np.ones(w.shape[1]) / math.sqrt(w.shape[1])
        s, cache[i] = _power_iterate(w, v, POWER_ITERS, POWER_TOL)
        if s > c:
            w *= c / s


@dataclass(frozen=True)
class RobustModel:
    """Trained (or base) predictive model.

    theta_phi: (d_out, k) linear heads on the features; theta_y: (d_out,)
    nonnegative precision tilts.  The base model has both at zero, which
    reproduces N(mu0, sigma0_sq) everywhere; fitted models keep theta_y at
    or above theta_y_floor.
    """

    net: FeatureNet
    theta_phi: np.ndarray
    theta_y: np.ndarray
    mu0: float
    sigma0_sq: float
    lam: float
    theta_y_floor: float
    converged: bool = True
    moment_residuals: Optional[np.ndarray] = None
    trained: bool = False

    def __post_init__(self):
        if self.sigma0_sq <= 0:
            raise ValueError("sigma0_sq must be positive")
        if self.theta_phi.shape != (len(self.theta_y), self.net.feature_dim):
            raise ValueError("theta_phi must be (d_out, feature_dim)")
        if np.any(self.theta_y < 0):
            raise ValueError("theta_y must be nonnegative")

    @property
    def dim_out(self) -> int:
        return len(self.theta_y)


@dataclass(frozen=True)
class TrainConfig:
    """Full-batch gradient descent recipe: one step per epoch on every row.

    The learning rate follows a cosine schedule over `epochs`; `seed`
    draws the feature net of a fit that does not warm-start.  theta_y
    steps in log space with its own learning-rate multiplier: the
    stationary value can sit orders of magnitude above the other
    parameters, and plain GD would not reach it within the epoch budget.
    """

    lr: float = 1e-2
    epochs: int = 2000
    clip_norm: float = 10.0
    seed: int = 0
    lam: float = 1e-3
    theta_y_floor: float = 1e-2
    theta_y_lr_mult: float = 10.0

    def __post_init__(self):
        if self.lr <= 0 or self.epochs < 1 or self.clip_norm <= 0:
            raise ValueError("lr, epochs, clip_norm must be positive")
        if self.lam < 0 or self.theta_y_floor <= 0:
            raise ValueError("lam must be >= 0 and theta_y_floor > 0")


def initial_model(
    mu0: float,
    sigma0_sq: float,
    *,
    dim_out: int = 1,
    lam: float = 1e-3,
    theta_y_floor: float = 1e-2,
    net: Optional[FeatureNet] = None,
) -> RobustModel:
    """Base model predicting N(mu0, sigma0_sq) at every input; the net
    defaults to the one seed 0 draws."""
    if net is None:
        net = feature_net_init(np.random.default_rng(0))
    return RobustModel(
        net=net,
        theta_phi=np.zeros((dim_out, net.feature_dim)),
        theta_y=np.zeros(dim_out),
        mu0=mu0,
        sigma0_sq=sigma0_sq,
        lam=lam,
        theta_y_floor=theta_y_floor,
    )


def _ratios_for(x: np.ndarray, ratios) -> np.ndarray:
    """ratios as a float array, one per query; None means r = 1."""
    if ratios is None:
        return np.ones(len(x))
    r = np.asarray(ratios, dtype=float)
    if r.shape != (len(x),):
        raise ValueError("ratios must be one per query")
    return r


def _precision(model: RobustModel, r: np.ndarray, theta_y: np.ndarray, out=None) -> np.ndarray:
    """1/sigma_sq = 1/sigma0_sq + 2 r theta_y, (n, d_out) from r (n,), theta_y (d_out,).

    Written into `out`, an (n, d_out) buffer, when one is given.
    """
    out = np.multiply(2.0 * r[:, None], theta_y[None, :], out=out)
    out += 1.0 / model.sigma0_sq
    return out


def _predictive(model: RobustModel, r: np.ndarray, theta_y: np.ndarray, a=None, out=None):
    """The predictive form at ratios r (n,) and precision tilts theta_y (d_out,).

        sigma_sq = 1 / (1/sigma0_sq + 2 r theta_y)
        mu       = sigma_sq * (mu0/sigma0_sq + r a)

    a (n, d_out) holds the head activations theta_phi . phi(x).  Returns
    (mu, sigma_sq), both (n, d_out); mu is None when a is None.  `out` is
    an optional (mu, sigma_sq) pair of (n, d_out) buffers to write into.
    """
    mu, var = (None, None) if out is None else out
    var = _precision(model, r, theta_y, out=var)
    np.divide(1.0, var, out=var)
    if a is None:
        return None, var
    mu = np.multiply(r[:, None], a, out=mu)
    mu += model.mu0 / model.sigma0_sq
    mu *= var
    return mu, var


def predict(model: RobustModel, x, ratios=None):
    """Per-dimension predictive mean and variance at query inputs.

    x: (n, 2) or a single (2,) point; returns (mu, sigma_sq) of shape
    (n, d_out) (or (d_out,) for a single point).  ratios holds one
    density ratio per query; None means r = 1 everywhere.
    """
    pts = np.asarray(x, dtype=float)
    single = pts.ndim == 1
    pts = np.atleast_2d(pts)
    r = _ratios_for(pts, ratios)
    a = model.net.forward(pts) @ model.theta_phi.T
    mu, var = _predictive(model, r, model.theta_y, a)
    if single:
        return mu[0], var[0]
    return mu, var


def _flat_buffer(net: FeatureNet, d_out: int):
    """A zeroed flat float64 buffer and its views, one per parameter array.

    The layout is the net's weights, its biases, theta_phi (d_out, k) and
    one (d_out,) slot, which holds log theta_y in the training parameters
    and its gradient in the training gradient.  Returns (buf, views) with
    the views in that order.
    """
    shapes = [w.shape for w in net.weights] + [b.shape for b in net.biases]
    shapes += [(d_out, net.feature_dim), (d_out,)]
    buf = np.zeros(sum(math.prod(shape) for shape in shapes))
    views, i = [], 0
    for shape in shapes:
        size = math.prod(shape)
        views.append(buf[i : i + size].reshape(shape))
        i += size
    return buf, views


class _Workspace:
    """Every buffer a training step writes, allocated once per fit.

    grad is the flat gradient (see _flat_buffer) with views g_w, g_b, g_tp
    and g_sy (the log-space theta_y slot, filled by fit); g_ty is the
    theta_y gradient.  The per-row buffers hold one row per training row.
    """

    def __init__(self, net: FeatureNet, d_out: int, rows: int):
        n_layers = len(net.weights)
        self.grad, views = _flat_buffer(net, d_out)
        self.g_w, self.g_b = views[:n_layers], views[n_layers : 2 * n_layers]
        self.g_tp, self.g_sy = views[-2], views[-1]
        self.g_ty = np.empty(d_out)
        widths = [w.shape[1] for w in net.weights]
        # pre-activations (the last is phi), ReLU outputs and masks, and
        # the backward products on each layer's output
        self.pre = [np.empty((rows, m)) for m in widths]
        self.act = [np.empty((rows, m)) for m in widths[:-1]]
        self.mask = [np.empty((rows, m), dtype=bool) for m in widths[:-1]]
        self.dh = [np.empty((rows, m)) for m in widths]
        self.a, self.mu, self.var, self.e, self.da, self.t1, self.t2 = (
            np.empty((rows, d_out)) for _ in range(7)
        )
        self.row = np.empty(rows)


def _loss_terms(model, x, y, r, ws: _Workspace) -> float:
    """Data NLL (no penalty); leaves the forward pass in the workspace."""
    h = x
    last = len(model.net.weights) - 1
    for i, (w, b) in enumerate(zip(model.net.weights, model.net.biases)):
        z = np.matmul(h, w, out=ws.pre[i])
        z += b
        if i < last:
            h = np.maximum(z, 0.0, out=ws.act[i])
    a = np.matmul(ws.pre[last], model.theta_phi.T, out=ws.a)
    mu, var = _predictive(model, r, model.theta_y, a, out=(ws.mu, ws.var))
    e = np.subtract(y, mu, out=ws.e)
    # 0.5 log(2 pi var) + e^2 / (2 var), summed over dims, mean over rows
    t1 = np.multiply(2.0 * math.pi, var, out=ws.t1)
    np.log(t1, out=t1)
    t1 *= 0.5
    t2 = np.multiply(e, e, out=ws.t2)
    t2 /= np.multiply(2.0, var, out=ws.da)
    t1 += t2
    return float(np.add.reduce(np.add.reduce(t1, axis=1, out=ws.row)) / len(x))


def nll_loss(model: RobustModel, dataset: Dataset, ratios) -> float:
    """Penalized Gaussian NLL: mean over samples, summed over output dims.

    (1/n) sum_i [ 0.5 log(2 pi sigma_sq_i) + (y_i - mu_i)^2 / (2 sigma_sq_i) ]
    + lam * (||theta_phi||_1 + |theta_y|), both penalty terms summed over
    output dimensions.
    """
    if len(dataset) == 0:
        raise ValueError("empty dataset")
    r = _ratios_for(dataset.inputs, ratios)
    ws = _Workspace(model.net, model.dim_out, len(dataset))
    nll = _loss_terms(model, dataset.inputs, dataset.targets, r, ws)
    penalty = model.lam * (np.abs(model.theta_phi).sum() + np.abs(model.theta_y).sum())
    loss = nll + float(penalty)
    if not math.isfinite(loss):
        raise TrainingDiverged("non-finite loss")
    return loss


def _grads(model, x, y, r, ws: _Workspace) -> float:
    """Analytic gradients of the penalized NLL, written into the workspace.

    Fills ws.g_w, ws.g_b, ws.g_tp and ws.g_ty and returns the penalized
    loss.
    """
    n = len(x)
    nll = _loss_terms(model, x, y, r, ws)
    phi, mu, var = ws.pre[-1], ws.mu, ws.var
    # d loss / d a = -(e * r) / n   (per sample, per output dim)
    da = np.multiply(ws.e, r[:, None], out=ws.da)
    np.negative(da, out=da)
    da /= n
    np.matmul(da.T, phi, out=ws.g_tp)
    ws.g_tp += model.lam * np.sign(model.theta_phi)
    # d loss / d theta_y = mean_i r_i (y^2 - mu^2 - var) + lam
    moment = np.multiply(y, y, out=ws.t1)
    moment -= np.multiply(mu, mu, out=ws.t2)
    moment -= var
    moment *= r[:, None]
    np.add.reduce(moment, axis=0, out=ws.g_ty)
    ws.g_ty /= n
    ws.g_ty += model.lam * np.sign(model.theta_y)
    weights = model.net.weights
    last = len(weights) - 1
    # gradient on the feature output, then on each hidden output
    dh = np.matmul(da, model.theta_phi, out=ws.dh[last])
    for i in range(last, -1, -1):
        if i < last:
            dh *= np.greater(ws.pre[i], 0, out=ws.mask[i])
        h_in = x if i == 0 else ws.act[i - 1]
        np.matmul(h_in.T, dh, out=ws.g_w[i])
        np.add.reduce(dh, axis=0, out=ws.g_b[i])
        if i > 0:
            dh = np.matmul(dh, weights[i].T, out=ws.dh[i - 1])
    penalty = model.lam * (np.abs(model.theta_phi).sum() + np.abs(model.theta_y).sum())
    return nll + float(penalty)


def _moment(model, x, y, r, weights, theta_y=None):
    """weights-averaged (y^2 - mu^2 - sigma^2) per dim; mu, sigma use ratios r."""
    th = model.theta_y if theta_y is None else theta_y
    mu, var = _predictive(model, r, th, model.net.forward(x) @ model.theta_phi.T)
    return (weights[:, None] * (y * y - mu * mu - var)).mean(axis=0)


def moment_residual(model: RobustModel, dataset: Dataset, ratios=None) -> np.ndarray:
    """Unweighted stationarity residual mean(y^2 - mu^2 - sigma^2) per dim."""
    r = _ratios_for(dataset.inputs, ratios)
    mu, var = predict(model, dataset.inputs, ratios=r)
    y = dataset.targets
    return (y * y - mu * mu - var).mean(axis=0)


UNWEIGHTED_SLACK = 5e-3  # half the post-fit moment tolerance, used as a guard


ROOT_XTOL = ROOT_RTOL = 1e-12
ROOT_MAXITER = 100


def _brent_root(f, a, b):
    """Root of a scalar f with a sign change on [a, b], by Brent's method.

    Brent, *Algorithms for Minimization without Derivatives* (1973), ch. 4:
    inverse quadratic interpolation or the secant step when it stays well
    inside the bracket, bisection otherwise.  The steps and the stopping
    rule (|bracket| / 2 < (ROOT_XTOL + ROOT_RTOL |x|) / 2) are those of
    the classic C implementation `brentq`, so the same f and bracket give
    the same float.  Raises ValueError for a NaN value or no sign change
    and RuntimeError after ROOT_MAXITER iterations without convergence.
    """
    def value(x):
        fx = f(x)
        if math.isnan(fx):
            raise ValueError(f"function value at {x} is NaN")
        return fx

    xpre, xcur = a, b
    fpre, fcur = value(xpre), value(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if (fpre < 0.0) == (fcur < 0.0):
        raise ValueError("f(a) and f(b) must have different signs")
    # xblk is the far end of the bracket [xcur, xblk]; spre, scur are the
    # previous two steps
    xblk = fblk = spre = scur = 0.0
    for _ in range(ROOT_MAXITER):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (ROOT_XTOL + ROOT_RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # secant
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                # inverse quadratic interpolation
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = value(xcur)
    raise RuntimeError(f"no convergence after {ROOT_MAXITER} iterations, value is {xcur}")


def _root_in_dim(g, lo):
    """Root of an increasing scalar g with escalating upper bracket.

    Returns (theta, ok).  When g(lo) >= 0 the floor binds and the
    projected optimum IS the floor (the constrained stationary point), so
    that counts as converged; ok is False only when no root exists below
    the ceiling.
    """
    if g(lo) >= 0.0:
        return lo, True
    hi = max(10.0 * lo, 1.0)
    while g(hi) < 0.0 and hi < THETA_Y_CEIL:
        hi *= 10.0
    if g(hi) < 0.0:
        return hi, False
    return _brent_root(g, lo, hi), True


# the coordinate descent only has to settle the support (values are
# debiased afterwards), so it can stop well short of full precision
LASSO_SWEEPS = 300
LASSO_TOL = 1e-8


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
        # Python floats for the scalar arithmetic (numpy scalars are slow);
        # a_list mirrors a, which the row dots read.  row.dot(a) is the
        # same BLAS ddot as g_mat[j] @ a, with less call overhead.
        diag, b_list = np.diag(g_mat).tolist(), b_vec.tolist()
        dots = [row.dot for row in g_mat]
        a = model.theta_phi[d].copy()
        a_list = a.tolist()
        for _ in range(LASSO_SWEEPS):
            biggest = 0.0
            for j, (d_j, b_j, dot) in enumerate(zip(diag, b_list, dots)):
                if d_j <= 0.0:
                    a[j] = a_list[j] = 0.0
                    continue
                a_j = a_list[j]
                rho = b_j - float(dot(a)) + d_j * a_j
                if rho > lam:
                    new = (rho - lam) / d_j
                elif rho < -lam:
                    new = (rho + lam) / d_j
                else:
                    new = 0.0
                change = abs(new - a_j)
                if change > biggest:
                    biggest = change
                a[j] = a_list[j] = new
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


def _polish_theta_y(model, x, y, r, fixed_mu=True):
    """Finish theta_y with a bracketed scalar solve, per dim.

    The training first-order condition in theta_y[d] is
    mean_i r_i (y^2 - mu^2 - sigma^2)_d + lam = 0.  Gradient descent
    approaches the root slowly (the stationary theta_y can be orders of
    magnitude above the other parameters), so we solve it directly; the
    moment is increasing in theta_y with limit mean(r y^2) + lam > 0, so
    a sign change exists iff it is negative at the floor.

    With fixed_mu=True the predictive means are frozen at the model's
    current theta_y while only sigma^2(th) moves.  The means are the slow
    invariant of the head/variance alternation (a head re-solve restores
    them after theta_y changes; with r constant the restoration is exact),
    so this root jumps straight to the level the next head solve will
    ratify, where the naive alternation -- root with the head COEFFICIENTS
    frozen, so raising theta_y also deflates mu -- inches along a shallow
    geometric crawl.  fixed_mu=False solves that naive stationarity, which
    agrees with the frozen-mean root at the joint fixed point; fit() uses
    it once at the end so the reported residual is honest at the final
    parametrization.

    The post-fit contract is on the UNWEIGHTED moment mean(y^2-mu^2-sigma^2)
    (the first-order condition as usually stated, exact when r = 1).  When
    the ratios spread enough that the weighted root leaves the unweighted
    residual outside lam + UNWEIGHTED_SLACK, we retarget that dim's solve at
    the unweighted moment: a deliberate, documented projection that trades
    a lam-scale bias in the stationarity for the calibration actually
    asserted downstream.  The two roots coincide as the fit tightens.
    """
    theta_y = model.theta_y.copy()
    ones = np.ones_like(r)
    if fixed_mu:
        # mu divided by the precision, not sigma_sq times the numerator as
        # in _predictive: the two round differently in the last bit, and
        # the landing fit amplifies that into other decisions
        a = model.net.forward(x) @ model.theta_phi.T
        mu = (model.mu0 * (1.0 / model.sigma0_sq) + r[:, None] * a) / _precision(model, r, theta_y)
        gap = y * y - mu * mu
    converged = True
    for d in range(len(theta_y)):
        if fixed_mu:
            def g_weighted(th, d=d):
                var = _predictive(model, r, np.array([th]))[1][:, 0]
                return float(np.mean(r * (gap[:, d] - var)) + model.lam)

            def g_unweighted(th, d=d):
                var = _predictive(model, r, np.array([th]))[1][:, 0]
                return float(np.mean(gap[:, d] - var) + model.lam)
        else:
            def g_weighted(th, d=d):
                t = theta_y.copy()
                t[d] = th
                return float(_moment(model, x, y, r, r, t)[d] + model.lam)

            def g_unweighted(th, d=d):
                t = theta_y.copy()
                t[d] = th
                return float(_moment(model, x, y, r, ones, t)[d] + model.lam)

        root, ok = _root_in_dim(g_weighted, model.theta_y_floor)
        theta_y[d] = root
        unweighted = g_unweighted(root) - model.lam
        if abs(unweighted) > model.lam + UNWEIGHTED_SLACK:
            root, ok = _root_in_dim(g_unweighted, model.theta_y_floor)
            theta_y[d] = root
        converged = converged and ok
    return theta_y, converged


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

    # The parameters live in one flat buffer (weights, biases, theta_phi,
    # log theta_y) and every step updates it in place; `model` is built
    # once on views of it, so each step reads the current values.
    params, views = _flat_buffer(net, d_out)
    n_layers = len(net.weights)
    for dst, src in zip(views, net.weights + net.biases + (theta_phi,)):
        dst[...] = src
    s_y = views[-1]
    np.log(np.maximum(theta_y, config.theta_y_floor), out=s_y)
    model = RobustModel(
        net=FeatureNet(tuple(views[:n_layers]), tuple(views[n_layers : 2 * n_layers]), net.caps),
        theta_phi=views[-2],
        theta_y=theta_y,
        mu0=mu0,
        sigma0_sq=sigma0_sq,
        lam=config.lam,
        theta_y_floor=config.theta_y_floor,
    )

    log_floor = math.log(config.theta_y_floor)
    log_ceil = math.log(THETA_Y_CEIL)
    ws = _Workspace(net, d_out, len(x))
    squares, sq = _flat_buffer(net, d_out)
    sq_w, sq_b = sq[:n_layers], sq[n_layers : 2 * n_layers]
    power_cache: list = [None] * n_layers

    for epoch in range(config.epochs):
        lr = config.lr * 0.5 * (1.0 + math.cos(math.pi * epoch / config.epochs))
        loss = _grads(model, x, y, r, ws)
        if not math.isfinite(loss):
            raise TrainingDiverged(f"non-finite loss at epoch {epoch}")
        # log-space theta_y gradient, then global-norm clipping
        np.multiply(ws.g_ty, theta_y, out=ws.g_sy)
        ws.g_sy *= config.theta_y_lr_mult
        np.multiply(ws.grad, ws.grad, out=squares)
        total = math.sqrt(
            sum(float(np.add.reduce(g, axis=None)) for g in sq_w)
            + sum(float(np.add.reduce(g, axis=None)) for g in sq_b)
            + float(np.add.reduce(sq[-2], axis=None))
            + float(np.add.reduce(sq[-1], axis=None))
        )
        scale = 1.0 if total <= config.clip_norm else config.clip_norm / total
        ws.grad *= lr * scale
        params -= ws.grad
        np.clip(s_y, log_floor, log_ceil, out=s_y)
        np.exp(s_y, out=theta_y)
        _normalize_warm(model.net, power_cache)

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


def lipschitz_bound(model: RobustModel, ratio_cfg: RatioConfig = RatioConfig()) -> float:
    """Diagnostic Lipschitz upper bound of the predictive mean.

    Treats r as an unknown constant in [r_lo, r_hi]:
    sup sigma_sq * r_hi * ||theta_phi||_2 * prod(layer spectral norms),
    with sup sigma_sq attained at r = r_lo and the smallest theta_y.
    """
    sup_var = float(np.max(_predictive(model, np.array([ratio_cfg.r_lo]), model.theta_y)[1]))
    head = float(np.linalg.norm(model.theta_phi, 2))
    layers = 1.0
    for w in model.net.weights:
        layers *= spectral_norm(w)
    return sup_var * ratio_cfg.r_hi * head * layers


def sigma_max_on_traj(model: RobustModel, pts, ratios=None) -> float:
    """Max predictive standard deviation over a trajectory's (n, 2) points.

    ratios holds one density ratio per point (None means r = 1).  For
    multi dimensional outputs the certification dimension 0 is used.
    """
    pts = np.atleast_2d(pts)
    if len(pts) == 0:
        raise ValueError("empty trajectory")
    _, var = predict(model, pts, ratios=ratios)
    return float(np.sqrt(np.max(var[:, 0])))
