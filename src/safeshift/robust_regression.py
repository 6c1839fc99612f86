"""Robust regression under covariate shift with a Gaussian predictive form.

The predictive density at input x tilts a base Gaussian N(0, sigma0_sq)
by an exponential family term whose natural parameters are scaled by the
source/target density ratio r(x):

    sigma_sq(x) = 1 / (1/sigma0_sq + 2 r(x) theta_y)
    mu(x)       = sigma_sq(x) * r(x) theta_phi . phi(x)

phi(x) is a small spectral-normalized ReLU network's output feature
vector; it enters only the mean.  The variance depends on x only through
r(x): it contracts where the data is dense relative to the proposal
(large r) and goes back to the prior sigma0_sq, with the mean back to 0,
where the proposal leaves the data (r -> 0).  So the robust certificate,
the largest sigma on a candidate, depends on the data only through
theta_y and the density ratio: it is sigma at the candidate's smallest
ratio.  The model has one output, the residual force: theta_phi is one
head on the features and theta_y one scalar.  Training minimizes the
penalized Gaussian negative log-likelihood on source data with analytic
gradients.  The net's last layer is linear, so a training step folds the
head into it, theta_phi . phi(x) = h(x) . (W theta_phi) + b . theta_phi
on the last hidden output h(x), and never forms phi: the last layer's
gradients are rank one.  On the features it learned, the head and
theta_y are then solved exactly, on one forward pass: a lasso picks the
head's support, the unpenalized head on it is profiled out, and a scalar
Newton root sets theta_y so that the stationarity condition
mean_i r_i (y_i^2 - mu_i^2 - sigma_i^2) + lambda = 0 holds to solver
precision.  The fit records that condition's value at the theta_y it
returns as the model's moment_residual.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .core import Dataset
from .density_ratio import KdeModel, density_ratio

__all__ = [
    "FeatureNet",
    "RobustModel",
    "TrainConfig",
    "TrainingDiverged",
    "feature_net_init",
    "spectral_normalize",
    "initial_model",
    "predict",
    "mean_fn",
    "std_at",
    "fit",
]

POWER_ITERS = 30
POWER_TOL = 1e-6
# the feature net: (q, qdot) in, two ReLU layers, FEATURE_DIM features
# out, every layer's spectral norm capped at SPECTRAL_CAP
INPUT_DIM = 2
HIDDEN = (32, 32)
FEATURE_DIM = 16
SPECTRAL_CAP = 2.0
# theta_y lives in [THETA_Y_FLOOR, THETA_Y_CEIL]; it steps in log space
# with its own learning-rate multiplier, because the stationary value can
# sit orders of magnitude above the other parameters and plain GD would
# not reach it within the epoch budget
THETA_Y_FLOOR = 1e-2
THETA_Y_CEIL = 1e8
THETA_Y_LR_MULT = 10.0
# gradient descent: peak of the cosine learning-rate schedule, and the
# global gradient-norm clip
LR = 1e-2
CLIP_NORM = 10.0


class TrainingDiverged(RuntimeError):
    """A training step's gradient norm (the clip norm) was not finite."""


@dataclass(frozen=True)
class FeatureNet:
    """Fully connected ReLU feature extractor; the last layer is linear.

    weights[i] has shape (in_i, out_i); spectral_normalize caps every layer's
    power-iteration estimate of its spectral norm at SPECTRAL_CAP, which can
    leave a layer a few percent over the cap (see there).
    """

    weights: tuple
    biases: tuple

    def __post_init__(self):
        if len(self.weights) != len(self.biases):
            raise ValueError("weights and biases must align")

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


def feature_net_init(rng: np.random.Generator) -> FeatureNet:
    """He-initialized net, immediately rescaled to the spectral cap."""
    dims = (INPUT_DIM,) + HIDDEN + (FEATURE_DIM,)
    weights, biases = [], []
    for n_in, n_out in zip(dims[:-1], dims[1:]):
        weights.append(rng.standard_normal((n_in, n_out)) * math.sqrt(2.0 / n_in))
        biases.append(np.zeros(n_out))
    net = FeatureNet(tuple(weights), tuple(biases))
    spectral_normalize(net, [None] * len(weights))
    return net


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


def spectral_normalize(net: FeatureNet, cache: list) -> None:
    """Rescale, in place, every weight matrix whose spectral-norm estimate exceeds SPECTRAL_CAP.

    The estimate, POWER_ITERS power iterations, can fall short of the norm, leaving a
    rescaled matrix over the cap (72 of 600 feature_net_init layers, seeds 0-199, end
    over 0.1 % above it, the worst 4.2 %).  cache[i] is the power iteration's start
    vector for layer i, replaced by the right singular vector it converged to; None
    starts from the normalized all-ones vector.  In training the weights drift a
    little per step, so the previous step's vectors converge almost immediately.
    """
    for i, w in enumerate(net.weights):
        v = cache[i]
        if v is None:
            v = np.ones(w.shape[1]) / math.sqrt(w.shape[1])
        s, cache[i] = _power_iterate(w, v, POWER_ITERS, POWER_TOL)
        if s > SPECTRAL_CAP:
            w *= SPECTRAL_CAP / s


@dataclass(frozen=True)
class RobustModel:
    """Trained (or base) predictive model.

    theta_phi: (k,) linear head on the features; theta_y: the nonnegative
    precision tilt, a numpy float64.  The base model has both at zero,
    which reproduces N(0, sigma0_sq) everywhere; fitted models keep
    theta_y at or above THETA_Y_FLOOR.  moment_residual is the first-order
    condition the fit's theta_y root solves, mean(r (y^2 - mu^2 - sigma^2))
    + lam on the training rows and ratios, at the returned head and theta_y:
    about 0 at an interior root, >= 0 where the floor binds, < 0 where the
    root stops at the ceiling (not converged).  NaN on a base model.
    """

    net: FeatureNet
    theta_phi: np.ndarray
    theta_y: float
    sigma0_sq: float
    converged: bool = True
    moment_residual: float = math.nan

    def __post_init__(self):
        if self.sigma0_sq <= 0:
            raise ValueError("sigma0_sq must be positive")
        if self.theta_phi.shape != (self.net.feature_dim,) or np.ndim(self.theta_y) != 0:
            raise ValueError("theta_phi must be (feature_dim,) and theta_y a scalar")
        if self.theta_y < 0:
            raise ValueError("theta_y must be nonnegative")


@dataclass(frozen=True)
class TrainConfig:
    """Full-batch gradient descent recipe: one step per epoch on every row.

    The learning rate follows a cosine schedule from LR over `epochs`;
    `lam` is the L1 penalty on the head and theta_y.
    """

    epochs: int
    lam: float

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.lam < 0:
            raise ValueError("lam must be >= 0")


def initial_model(sigma0_sq: float, *, net: FeatureNet) -> RobustModel:
    """Base model predicting N(0, sigma0_sq) at every input."""
    return RobustModel(net, np.zeros(net.feature_dim), np.float64(0.0), sigma0_sq)


def _predictive(model: RobustModel, r: np.ndarray, theta_y, a=None, out=None):
    """The predictive form at ratios r (n,) and precision tilt theta_y.

        sigma_sq = 1 / (1/sigma0_sq + 2 r theta_y)
        mu       = sigma_sq * r a

    a (n,) holds the head activations theta_phi . phi(x).  Returns
    (mu, sigma_sq), both (n,); mu is None when a is None.  `out` is an
    optional (mu, sigma_sq) pair of (n,) buffers to write into.
    """
    mu, var = (None, None) if out is None else out
    var = np.multiply(2.0 * r, theta_y, out=var)
    var += 1.0 / model.sigma0_sq
    np.divide(1.0, var, out=var)
    if a is None:
        return None, var
    mu = np.multiply(r, a, out=mu)
    mu *= var
    return mu, var


def predict(model: RobustModel, x, ratios=None):
    """Predictive mean and variance at query inputs.

    x: (n, 2); returns (mu, sigma_sq), both (n,).  ratios holds one
    density ratio per query; None means r = 1 everywhere.
    """
    pts = np.asarray(x, dtype=float)
    r = np.ones(len(pts)) if ratios is None else np.asarray(ratios, dtype=float)
    if r.shape != (len(pts),):
        raise ValueError("ratios must be one per query")
    a = model.net.forward(pts) @ model.theta_phi
    return _predictive(model, r, model.theta_y, a)


def mean_fn(model: RobustModel, ratio):
    """The predictive mean at one state, mean(q, qdot), at the density ratio
    ratio(q, qdot) there (`density_ratio.point_ratio`); None means r = 1.
    On floats, in `_predictive`'s rounding: r a times the reciprocal of the
    precision."""
    forward, head = model.net.forward, model.theta_phi
    theta_y, precision0 = float(model.theta_y), 1.0 / model.sigma0_sq

    def mean(q: float, qdot: float) -> float:
        r = 1.0 if ratio is None else ratio(q, qdot)
        a = float(forward(np.array((q, qdot))) @ head)
        return r * a * (1.0 / (2.0 * r * theta_y + precision0))

    return mean


def std_at(model: RobustModel, r: float) -> float:
    """Predictive std at ratio r: exactly the largest std on points whose smallest
    ratio is r, since sigma_sq and each rounded step of `_predictive` fall as r grows."""
    return float(np.sqrt(_predictive(model, np.array([r]), model.theta_y)[1][0]))


def _flat_buffer(net: FeatureNet):
    """A zeroed flat float64 buffer and its views, one per parameter array.

    The layout is the net's weights, its biases, theta_phi (k,) and one
    0-d slot, which holds log theta_y in the training parameters and its
    gradient in the training gradient.  Returns (buf, views) with the
    views in that order; one dot of the gradient buffer with itself is the
    squared norm that the step clips.
    """
    shapes = [w.shape for w in net.weights] + [b.shape for b in net.biases]
    shapes += [(net.feature_dim,), ()]
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
    theta_y gradient, a float.  The per-row buffers hold one row per
    training row, and only the hidden layers have them: the step never
    forms the features phi, because the head folds into the linear last
    layer (see _grads).  The step computes no loss, so the rows keep only
    a, mu, var, the theta_y moment and da.  ones (rows,) makes the sum over
    rows of da and of each hidden layer's backward product one BLAS call,
    and w_t[i] (i >= 1) is a contiguous copy of hidden layer i's weights
    transposed, which the backward pass multiplies by.
    """

    def __init__(self, net: FeatureNet, rows: int):
        n_layers = len(net.weights)
        self.grad, views = _flat_buffer(net)
        self.g_w, self.g_b = views[:n_layers], views[n_layers : 2 * n_layers]
        self.g_tp, self.g_sy = views[-2], views[-1]
        self.g_ty = 0.0
        widths = [w.shape[1] for w in net.weights[:-1]]
        # pre-activations, ReLU outputs and masks, and the backward products
        # on each hidden layer's output
        self.pre = [np.empty((rows, m)) for m in widths]
        self.act = [np.empty((rows, m)) for m in widths]
        self.mask = [np.empty((rows, m), dtype=bool) for m in widths]
        self.dh = [np.empty((rows, m)) for m in widths]
        self.w_t = [None] + [np.empty(w.shape[::-1]) for w in net.weights[1:-1]]
        self.ones = np.ones(rows)
        self.a, self.mu, self.var, self.moment, self.da = (np.empty(rows) for _ in range(5))


def _grads(model, x, y, r, ws: _Workspace, lam: float) -> None:
    """Analytic gradients of the NLL with L1 weight lam, written into the workspace.

    Fills ws.g_w, ws.g_b, ws.g_tp and ws.g_ty.  The step computes the
    gradient only, not the loss: `fit` detects divergence by a non-finite
    gradient norm.  The last layer is linear and the head is one vector,
    so the head activation a = phi theta_phi = h (W theta_phi) + b .
    theta_phi on the last hidden output h, and with da = d loss / d a the
    last layer's gradients are rank one: g_W = (h^T da) theta_phi^T, g_b =
    (sum da) theta_phi, g_theta_phi = W^T (h^T da) + (sum da) b, and d
    loss / d h = da (W theta_phi)^T.
    """
    n = len(x)
    weights, biases = model.net.weights, model.net.biases
    last = len(weights) - 1
    head = model.theta_phi
    h = x
    for i in range(last):
        z = np.matmul(h, weights[i], out=ws.pre[i])
        z += biases[i]
        h = np.maximum(z, 0.0, out=ws.act[i])
    w_head = weights[last] @ head
    a = np.matmul(h, w_head, out=ws.a)
    a += float(biases[last] @ head)
    mu, var = _predictive(model, r, model.theta_y, a, out=(ws.mu, ws.var))
    # d loss / d theta_y = mean_i r_i (y^2 - mu^2 - var) + lam; a sum of
    # one vector, where a dot with ones saves no time (ws.da holds mu^2
    # until da overwrites it)
    moment = np.multiply(y, y, out=ws.moment)
    moment -= np.multiply(mu, mu, out=ws.da)
    moment -= var
    moment *= r
    ws.g_ty = float(np.add.reduce(moment)) / n + lam * float(np.sign(model.theta_y))
    # d loss / d a = -((y - mu) * r) / n   (per sample)
    da = np.subtract(y, mu, out=ws.da)
    da *= r
    np.negative(da, out=da)
    da /= n
    # the last layer, rank one
    h_da, da_sum = da @ h, float(ws.ones @ da)
    np.einsum("i,j->ij", h_da, head, out=ws.g_w[last])
    np.multiply(da_sum, head, out=ws.g_b[last])
    np.matmul(h_da, weights[last], out=ws.g_tp)
    ws.g_tp += da_sum * biases[last]
    ws.g_tp += lam * np.sign(head)
    # gradient on each hidden output
    dh = np.einsum("i,j->ij", da, w_head, out=ws.dh[last - 1])
    for i in range(last - 1, -1, -1):
        dh *= np.greater(ws.pre[i], 0, out=ws.mask[i])
        h_in = x if i == 0 else ws.act[i - 1]
        np.matmul(h_in.T, dh, out=ws.g_w[i])
        np.matmul(ws.ones, dh, out=ws.g_b[i])
        if i > 0:
            np.copyto(ws.w_t[i], weights[i].T)
            dh = np.matmul(dh, ws.w_t[i], out=ws.dh[i - 1])


NEWTON_RTOL = 1e-12
NEWTON_MAXITER = 100


def _newton_root(g, theta):
    """Root of an increasing g(th) in [THETA_Y_FLOOR, THETA_Y_CEIL] by Newton's method.

    g returns (value, slope).  Returns (theta, converged).  The closing
    solve's g is the theta_y derivative of the NLL with the head profiled
    out; a profile of a jointly convex function is convex, so g rises.
    Where g is also concave, each tangent step from the left of the root
    stays left of it and rises, and from the right one step lands at or
    left of it.  An iterate below the floor is clamped to it.  When g >= 0
    at the floor the floor binds: the projected optimum IS the floor (the
    constrained stationary point), so that counts as converged.  An
    iterate past the ceiling or a slope that is not positive means no root
    below the ceiling: (THETA_Y_CEIL, False).  Stops once a step is within
    NEWTON_RTOL of the new iterate, or, left of the root, once g fails to
    rise as theta rises: g then sits at its rounding floor (about 1e-10
    for a profile computed through a least-squares solve), where the
    relative step would never settle.
    """
    floor = THETA_Y_FLOOR
    theta = max(float(theta), floor)
    last = math.inf
    for _ in range(NEWTON_MAXITER):
        value, slope = g(theta)
        if theta == floor and value >= 0.0:
            return floor, True
        if value <= last < 0.0:
            return theta, True
        if not slope > 0.0:
            return THETA_Y_CEIL, False
        new = max(theta - value / slope, floor)
        if new > THETA_Y_CEIL:
            return THETA_Y_CEIL, False
        if abs(new - theta) <= NEWTON_RTOL * new:
            return new, True
        theta, last = new, value
    return theta, False


# the coordinate descent only has to settle the support (the closing
# solve profiles the values out), so it can stop well short of full
# precision
LASSO_SWEEPS = 300
LASSO_TOL = 1e-8


def _normal_equations(phi, var, r, y):
    """(G, b) on features phi (n, k): with mu = var r phi a the data term is stationary
    in the head a at G a = b, G = phi^T diag(var r^2) phi / n and b = phi^T (r y) / n."""
    n = len(phi)
    return (phi * (var * (r * r))[:, None]).T @ phi / n, phi.T @ (r * y) / n


def _solve_heads(g_mat, b_vec, start, lam):
    """Lasso head weights on the normal equations (G, b) of `_normal_equations`,
    from the head `start`; their support is the set of features the closing
    solve keeps.

    The penalized objective in the head a is a^T G a / 2 - b^T a +
    lam * ||a||_1.  Cyclic coordinate descent with soft thresholding
    (deterministic sweep order) solves it.  Only the support is used:
    `_closing_solve` refits the head without the penalty on it (a relaxed
    lasso), because the soft-threshold shrinkage is not small here -- the
    fitted variance scales the Gram matrix down, so a fixed lam would
    otherwise bias the means by several percent.  A ridge proxy is NOT
    used either: the random ReLU features are near-collinear and an L2
    term strong enough to tame them visibly over-shrinks realizable
    structure.
    """
    # stationarity: (G a - b)_j + lam sign(a_j) = 0.  Python floats for the
    # scalar arithmetic (numpy scalars are slow); a_list mirrors a, which
    # the row dots read.  row.dot(a) is the same BLAS ddot as g_mat[j] @ a,
    # with less call overhead.
    diag, b_list = np.diag(g_mat).tolist(), b_vec.tolist()
    dots = [row.dot for row in g_mat]
    a = start.copy()
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
    return a


def _closing_solve(model, x, y, r, lam) -> RobustModel:
    """The head and theta_y on fixed features: the model a fit returns.

    One forward pass gives the features phi.  The lasso at the current
    theta_y picks the support S.  On S the head is profiled out: c(th) =
    lstsq(G(th), b), the unpenalized (debiased) refit on the normal
    equations of phi_S, min-norm where G is rank deficient.  theta_y is
    then the root of the profiled first-order condition h(th) = mean(r (y^2
    - mu^2 - v)) + lam.  For fixed features the Gaussian NLL is jointly
    convex in the natural parameters (c, th), so h rises, and its slope is
    the Schur complement F_thth - F_cth^T G^+ F_cth with F_thth = mean(2 r^2
    v (2 mu^2 + v)) and F_cth = -(2/n) phi_S^T (r^2 v mu).  converged is
    the root's verdict, the head is c at the root, and moment_residual is h
    there.
    """
    phi = model.net.forward(x)
    normal = _normal_equations(phi, _predictive(model, r, model.theta_y)[1], r, y)
    support = np.flatnonzero(np.abs(_solve_heads(*normal, model.theta_phi, lam)) > 1e-12)
    phi = phi[:, support]
    n = len(x)
    r_sq, yy = r * r, y * y

    def profile(th):
        """(c, G, mu, v, h(th)) with the head profiled out at theta_y = th."""
        var = _predictive(model, r, th)[1]
        g_mat, b_vec = _normal_equations(phi, var, r, y)
        c = np.linalg.lstsq(g_mat, b_vec, rcond=None)[0]
        mu = _predictive(model, r, th, phi @ c)[0]
        return c, g_mat, mu, var, float(np.mean(r * (yy - mu * mu - var))) + lam

    def h(th):
        _, g_mat, mu, var, value = profile(th)
        f_c = phi.T @ (r_sq * var * mu) * (-2.0 / n)
        f_thth = float(np.mean(2.0 * r_sq * var * (2.0 * mu * mu + var)))
        slope = f_thth - float(f_c @ np.linalg.lstsq(g_mat, f_c, rcond=None)[0])
        return value, slope

    theta_y, converged = _newton_root(h, model.theta_y)
    c, *_, residual = profile(theta_y)
    theta_phi = np.zeros(model.net.feature_dim)
    theta_phi[support] = c
    return replace(model, theta_phi=theta_phi, theta_y=np.float64(theta_y),
                   converged=converged, moment_residual=residual)


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
    information, e.g. the very first fit).  The fit starts from `init`:
    its net, head, and base distribution are reused (a base model from
    `initial_model` starts a first fit).  The step computes the gradient
    but no loss; the first epoch whose gradient norm (the clip norm) is
    not finite raises TrainingDiverged, before that step moves anything.
    """
    if len(dataset) == 0:
        raise ValueError("empty dataset")
    x, y = dataset.inputs, dataset.targets

    if src_kde is not None and trg_kde is not None:
        r = np.asarray(density_ratio(src_kde, trg_kde, x), dtype=float)
    else:
        r = np.ones(len(x))

    # The parameters live in one flat buffer (weights, biases, theta_phi,
    # log theta_y) and every step updates it in place; `model` is built
    # once on views of it, so each step reads the current values.
    net = init.net
    params, views = _flat_buffer(net)
    n_layers = len(net.weights)
    for dst, src in zip(views, net.weights + net.biases + (init.theta_phi,)):
        dst[...] = src
    s_y = views[-1]
    # a 0-d array, which each step overwrites with exp(log theta_y)
    theta_y = np.array(max(float(init.theta_y), THETA_Y_FLOOR))
    np.log(theta_y, out=s_y)
    model = RobustModel(
        net=FeatureNet(tuple(views[:n_layers]), tuple(views[n_layers : 2 * n_layers])),
        theta_phi=views[-2],
        theta_y=theta_y,
        sigma0_sq=init.sigma0_sq,
    )
    # on the copy, so the caller's init keeps its weights
    spectral_normalize(model.net, [None] * n_layers)

    log_floor = math.log(THETA_Y_FLOOR)
    log_ceil = math.log(THETA_Y_CEIL)
    ws = _Workspace(net, len(x))
    power_cache: list = [None] * n_layers

    # a diverging step overflows on its way to the non-finite norm that
    # raises TrainingDiverged, which is the one report of it
    with np.errstate(all="ignore"):
        for epoch in range(config.epochs):
            lr = LR * 0.5 * (1.0 + math.cos(math.pi * epoch / config.epochs))
            _grads(model, x, y, r, ws, config.lam)
            # log-space theta_y gradient, then global-norm clipping: the
            # squared norm is one dot of the flat gradient with itself, and a
            # norm that is not finite is the fit diverging
            ws.g_sy[...] = ws.g_ty * float(theta_y) * THETA_Y_LR_MULT
            total = math.sqrt(float(ws.grad @ ws.grad))
            if not math.isfinite(total):
                raise TrainingDiverged(f"non-finite gradient norm at epoch {epoch}")
            scale = 1.0 if total <= CLIP_NORM else CLIP_NORM / total
            ws.grad *= lr * scale
            params -= ws.grad
            # log theta_y is clipped as a float
            s_y[...] = min(max(float(s_y), log_floor), log_ceil)
            np.exp(s_y, out=theta_y)
            spectral_normalize(model.net, power_cache)

    # Gradient descent alone crawls through the coupled head/theta_y
    # scaling (mu carries a 1/sigma^2 factor, so calibrating theta_y keeps
    # moving the target the head chases).  Finish with the exact solve of
    # that convex block on the features gradient descent learned.
    return _closing_solve(model, x, y, r, config.lam)
