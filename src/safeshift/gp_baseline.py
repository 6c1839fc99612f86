"""Exact Gaussian-process regression baseline (RBF and Matern 5/2 kernels).

Drop-in alternative to the robust regressor in the exploration loop: it
exposes the same (mu, sigma_sq) prediction interface.  Hyperparameters are
fixed from config (no marginal-likelihood optimization) and the kernel
from the learner kind.

A fit is one Cholesky factorization L of the kernel matrix and one
triangular inverse L^-1, exactly lower-triangular (Rasmussen & Williams,
*Gaussian Processes for Machine Learning*, 2006, Alg. 2.1, with L^-1 kept
in place of L).  A prediction's variance multiplies only the lower
triangle of L^-1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "GpHyper",
    "GpModel",
    "HyperparameterError",
    "kernel_matrix",
    "gp_fit",
    "gp_predict",
    "gp_mean_fn",
]

MAX_JITTER = 1e-6

# Diagonal blocks of at most this size are inverted row by row; larger
# blocks split in two and join with two matrix products.
INV_LEAF = 64

# Rows of L^-1 per variance product: block [lo, hi) multiplies only the
# columns up to hi, where the lower triangle ends.
VAR_BLOCK = 128

KERNELS = ("rbf", "matern52")


class HyperparameterError(ValueError):
    """Kernel matrix is not finite, or not factorizable even with maximum jitter."""


@dataclass(frozen=True)
class GpHyper:
    sigma_f_sq: float = 1.0
    ell: float = 0.5
    sigma_n_sq: float = 1e-4

    def __post_init__(self):
        if min(self.sigma_f_sq, self.ell, self.sigma_n_sq) <= 0:
            raise ValueError("sigma_f_sq, ell, sigma_n_sq must be positive")


def _sq_dists(xa: np.ndarray, xb: np.ndarray) -> np.ndarray:
    # squared coordinate differences, not the |a|^2 + |b|^2 - 2ab
    # expansion, so identical points are exactly at distance 0
    d2 = np.subtract.outer(xa[:, 0], xb[:, 0])
    np.multiply(d2, d2, out=d2)
    diff = np.empty_like(d2)
    for j in range(1, xa.shape[1]):
        np.subtract.outer(xa[:, j], xb[:, j], out=diff)
        np.multiply(diff, diff, out=diff)
        d2 += diff
    return d2


def kernel_matrix(kind: str, xa, xb, sigma_f_sq: float, ell: float) -> np.ndarray:
    """Covariances between the rows of xa and xb, shape (len(xa), len(xb)).

    rbf:      sigma_f_sq * exp(-d^2 / (2 ell^2))
    matern52: sigma_f_sq * (1 + sqrt(5) d/ell + 5 d^2/(3 ell^2)) * exp(-sqrt(5) d/ell)

    Each step is written in place, in the order of the formulas above, so
    the values equal those of the plain numpy expressions bit for bit.
    The rbf reads the squared distance d^2 as summed; only the Matern
    takes its square root.
    """
    xa = np.atleast_2d(np.asarray(xa, dtype=float))
    xb = np.atleast_2d(np.asarray(xb, dtype=float))
    if kind not in KERNELS:
        raise ValueError(f"unknown kernel {kind!r}")
    d2 = _sq_dists(xa, xb)
    if kind == "rbf":
        # (-a) / c and a / (-c) round alike: the sign folds into the divisor
        np.divide(d2, -(2.0 * ell * ell), out=d2)
        np.exp(d2, out=d2)
        return np.multiply(d2, sigma_f_sq, out=d2)
    d = np.sqrt(d2, out=d2)
    z = np.multiply(d, math.sqrt(5.0) / ell, out=d)
    zz = np.multiply(z, z)
    np.divide(zz, 3.0, out=zz)
    out = np.add(z, 1.0)
    np.add(out, zz, out=out)
    np.multiply(out, sigma_f_sq, out=out)
    np.negative(z, out=z)
    np.exp(z, out=z)
    return np.multiply(out, z, out=out)


def _lower_inverse(chol: np.ndarray) -> np.ndarray:
    """L^-1 of a lower-triangular L, with exact zeros above the diagonal."""
    inv = np.zeros_like(chol)
    _invert_block(chol, inv, 0, len(chol))
    return inv


def _invert_block(chol: np.ndarray, inv: np.ndarray, lo: int, hi: int) -> None:
    """Write the inverse of chol[lo:hi, lo:hi] into inv[lo:hi, lo:hi].

    Block recursion on inv([[A, 0], [B, C]]) = [[A^-1, 0], [-C^-1 B A^-1, C^-1]]:
    every entry above the diagonal is left as the zero it starts at.
    """
    if hi - lo <= INV_LEAF:
        # forward substitution, one row of the block at a time
        for i in range(lo, hi):
            inv[i, i] = 1.0 / chol[i, i]
            if i > lo:
                inv[i, lo:i] = chol[i, lo:i] @ inv[lo:i, lo:i]
                inv[i, lo:i] *= -inv[i, i]
        return
    mid = (lo + hi) // 2
    _invert_block(chol, inv, lo, mid)
    _invert_block(chol, inv, mid, hi)
    off = inv[mid:hi, lo:mid]
    np.matmul(inv[mid:hi, mid:hi], chol[mid:hi, lo:mid] @ inv[lo:mid, lo:mid], out=off)
    np.negative(off, out=off)


@dataclass(frozen=True)
class GpModel:
    hyper: GpHyper
    kernel: str  # one of KERNELS
    x_train: np.ndarray  # (n, d)
    # L^-1, L the lower Cholesky factor of K + sigma_n_sq I (+ jitter);
    # exactly lower-triangular: every entry above the diagonal is 0.0
    chol_inv: np.ndarray
    alpha: np.ndarray  # (n,), (K + sigma_n_sq I)^-1 y


def gp_fit(inputs, targets, hyper: GpHyper = GpHyper(), kernel: str = "rbf") -> GpModel:
    """Factor the kernel matrix once and solve for alpha.

    One Cholesky factorization L and one triangular inverse L^-1 per fit;
    alpha = L^-T (L^-1 y).  The model keeps L^-1 instead of the factor L,
    so each prediction's variance is a product with the lower triangle of
    L^-1 instead of a triangular solve.  `kernel` (one of KERNELS) is kept
    on the model, so `gp_predict` uses the same one.  HyperparameterError:
    the kernel matrix is not finite or not factorizable.
    """
    x = np.atleast_2d(np.asarray(inputs, dtype=float))
    y = np.asarray(targets, dtype=float)
    if len(x) == 0:
        raise ValueError("need at least one training point")
    if y.shape != (len(x),):
        raise ValueError("targets must be one value per input")
    with np.errstate(all="ignore"):  # a non-finite entry is reported below
        k = kernel_matrix(kernel, x, x, hyper.sigma_f_sq, hyper.ell)
    if not np.isfinite(k).all():
        raise HyperparameterError(f"{kernel} kernel matrix not finite at ell {hyper.ell}")
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
    del k  # keep at most two n x n arrays alive while inverting
    chol_inv = _lower_inverse(chol)
    del chol
    alpha = chol_inv.T @ (chol_inv @ y)
    return GpModel(hyper=hyper, kernel=kernel, x_train=x, chol_inv=chol_inv, alpha=alpha)


def gp_predict(model: GpModel, x):
    """Posterior mean and variance at query points.

    x: (m, d).  Returns mu and sigma_sq, both (m,); the variance is
    sigma_f_sq - ||L^-1 k*||^2, floored at 0.
    """
    pts = np.asarray(x, dtype=float)
    h = model.hyper
    k_star = kernel_matrix(model.kernel, model.x_train, pts, h.sigma_f_sq, h.ell)  # (n, m)
    mu = k_star.T @ model.alpha
    n, m = k_star.shape
    sq = np.zeros(m)  # ||L^-1 k*||^2 per query point
    v = np.empty((min(VAR_BLOCK, n), m))
    for lo in range(0, n, VAR_BLOCK):
        hi = min(lo + VAR_BLOCK, n)
        rows = v[: hi - lo]
        np.matmul(model.chol_inv[lo:hi, :hi], k_star[:hi], out=rows)
        np.multiply(rows, rows, out=rows)
        sq += rows.sum(axis=0)
    return mu, np.maximum(h.sigma_f_sq - sq, 0.0)


def gp_mean_fn(model: GpModel):
    """The posterior mean as a function of one state (q, qdot)."""
    h = model.hyper

    def mean(q: float, qdot: float) -> float:
        k_star = kernel_matrix(model.kernel, model.x_train, ((q, qdot),), h.sigma_f_sq, h.ell)
        return float(k_star[:, 0] @ model.alpha)

    return mean
