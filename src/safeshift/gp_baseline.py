"""Exact Gaussian-process regression baseline (RBF and Matern 5/2 kernels).

Drop-in alternative to the robust regressor in the exploration loop: it
exposes the same (mu, sigma_sq) prediction interface.  Hyperparameters are
fixed from config (no marginal-likelihood optimization); outputs beyond
the first are handled by independent GPs sharing one kernel matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "GpHyper",
    "GpModel",
    "HyperparameterError",
    "kernel_eval",
    "kernel_matrix",
    "gp_fit",
    "gp_predict",
]

MAX_JITTER = 1e-6

KERNELS = ("rbf", "matern52")


class HyperparameterError(ValueError):
    """Kernel matrix could not be factored even with maximum jitter."""


@dataclass(frozen=True)
class GpHyper:
    kernel: str = "rbf"
    sigma_f_sq: float = 1.0
    ell: float = 0.5
    sigma_n_sq: float = 1e-4

    def __post_init__(self):
        if self.kernel not in KERNELS:
            raise ValueError(f"kernel must be one of {KERNELS}")
        if min(self.sigma_f_sq, self.ell, self.sigma_n_sq) <= 0:
            raise ValueError("sigma_f_sq, ell, sigma_n_sq must be positive")


def _dists(xa: np.ndarray, xb: np.ndarray) -> np.ndarray:
    # coordinate differences, not the |a|^2 + |b|^2 - 2ab expansion, so
    # identical points are exactly at distance 0
    d2 = np.zeros((len(xa), len(xb)))
    for j in range(xa.shape[1]):
        diff = xa[:, j, None] - xb[None, :, j]
        d2 += diff * diff
    return np.sqrt(d2)


def kernel_eval(kind: str, x, x2, sigma_f_sq: float, ell: float) -> float:
    """Covariance between two points: the 1x1 case of kernel_matrix."""
    if ell <= 0:
        raise ValueError("ell must be positive")
    a = np.asarray(x, dtype=float).ravel()
    b = np.asarray(x2, dtype=float).ravel()
    if a.shape != b.shape:
        raise ValueError("dimension mismatch")
    return float(kernel_matrix(kind, a[None, :], b[None, :], sigma_f_sq, ell)[0, 0])


def kernel_matrix(kind: str, xa, xb, sigma_f_sq: float, ell: float) -> np.ndarray:
    """Covariances between the rows of xa and xb, shape (len(xa), len(xb)).

    rbf:      sigma_f_sq * exp(-d^2 / (2 ell^2))
    matern52: sigma_f_sq * (1 + sqrt(5) d/ell + 5 d^2/(3 ell^2)) * exp(-sqrt(5) d/ell)
    """
    xa = np.atleast_2d(np.asarray(xa, dtype=float))
    xb = np.atleast_2d(np.asarray(xb, dtype=float))
    d = _dists(xa, xb)
    if kind == "rbf":
        return sigma_f_sq * np.exp(-(d * d) / (2.0 * ell * ell))
    if kind == "matern52":
        z = (math.sqrt(5.0) / ell) * d
        return sigma_f_sq * (1.0 + z + z * z / 3.0) * np.exp(-z)
    raise ValueError(f"unknown kernel {kind!r}")


@dataclass(frozen=True)
class GpModel:
    hyper: GpHyper
    x_train: np.ndarray  # (n, d)
    chol_inv: np.ndarray  # L^-1, L the lower Cholesky factor of K + sigma_n_sq I (+ jitter)
    alpha: np.ndarray  # (n, d_out), (K + sigma_n_sq I)^-1 y

    @property
    def dim_out(self) -> int:
        return self.alpha.shape[1]


def gp_fit(inputs, targets, hyper: GpHyper = GpHyper()) -> GpModel:
    """Factor the kernel matrix once; each output column gets its own alpha.

    The model keeps L^-1 instead of the factor L, so each prediction's
    variance is one matrix product instead of a triangular solve.
    """
    x = np.atleast_2d(np.asarray(inputs, dtype=float))
    y = np.asarray(targets, dtype=float)
    if y.ndim == 1:
        y = y[:, None]
    if len(x) == 0:
        raise ValueError("need at least one training point")
    if len(y) != len(x):
        raise ValueError("inputs/targets length mismatch")
    k = kernel_matrix(hyper.kernel, x, x, hyper.sigma_f_sq, hyper.ell)
    k[np.diag_indices_from(k)] += hyper.sigma_n_sq
    jitter = 0.0
    while True:
        try:
            chol = np.linalg.cholesky(k if jitter == 0.0 else k + jitter * np.eye(len(k)))
            break
        except np.linalg.LinAlgError:
            jitter = 1e-10 if jitter == 0.0 else jitter * 10.0
            if jitter > MAX_JITTER:
                raise HyperparameterError(
                    f"kernel matrix not factorizable with jitter up to {MAX_JITTER}"
                )
    del k  # keep at most three n x n arrays alive while inverting
    alpha = np.linalg.solve(chol.T, np.linalg.solve(chol, y))
    return GpModel(hyper=hyper, x_train=x, chol_inv=np.linalg.inv(chol), alpha=alpha)


def gp_predict(model: GpModel, x):
    """Posterior mean and variance at query points.

    x: (m, d) or a single (d,) point.  Returns mu of shape (m, d_out) and
    sigma_sq of shape (m,) — the variance is shared across output
    dimensions because they share the kernel: sigma_f_sq - ||L^-1 k*||^2,
    floored at 0.
    """
    pts = np.asarray(x, dtype=float)
    single = pts.ndim == 1
    pts = np.atleast_2d(pts)
    h = model.hyper
    k_star = kernel_matrix(h.kernel, model.x_train, pts, h.sigma_f_sq, h.ell)  # (n, m)
    mu = k_star.T @ model.alpha
    v = model.chol_inv @ k_star  # (n, m)
    var = np.maximum(h.sigma_f_sq - np.sum(v * v, axis=0), 0.0)
    if single:
        return mu[0], float(var[0])
    return mu, var
