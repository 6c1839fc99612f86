"""Kernel density estimation and clipped source/target density ratios.

The learner reweights its exponent by r_hat(x) = p_src(x) / p_trg(x): how
much source (training) mass covers a query relative to the target
trajectory's mass there.  Ratios are clipped from above at R_HI, so
they do not blow up where the target density vanishes; off the data they
fall to 0, where the robust predictive form goes back to its prior.

Each ratio formula lives in one helper that takes precomputed densities
(`clipped_ratio`, `max_ratio`).  `density_ratio` and `max_ratio_on_traj`
evaluate the KDEs and call them; the exploration loop calls them directly
on cached densities: p_trg at most once per experiment on a candidate's
grid, the first time the loop reaches it with a source KDE, and p_src on
one block of a candidate's grid rows at a time (`KdeModel.block_rows`),
each time the loop reaches it, until the W_MAX screen stops it or the
grid ends.  That gives the candidate's w_hat and, past the screen, its
r_min (its smallest clipped ratio on the grid, which is all the robust
certificate reads).  The
controller reads one state at a time through `point_ratio`.  It and
`kde_density` compute every density with one kernel sum, so a state's
density is the same float alone or in any batch (Silverman, Density
Estimation for Statistics and Data Analysis, 1986, ch. 4).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "KdeModel",
    "kde_fit",
    "kde_density",
    "density_ratio",
    "max_ratio_on_traj",
    "clipped_ratio",
    "max_ratio",
    "point_ratio",
    "DENSITY_FLOOR",
    "SIGMA_FLOOR",
    "R_HI",
]

DENSITY_FLOOR = 1e-12
# the upper clip of every density ratio
R_HI = 10.0
SIGMA_FLOOR = 1e-3
# elements of each of kde_density's two (block, n_samples) temporaries:
# 2 x 256 KB together, small enough to stay in cache
KDE_BLOCK_ELEMENTS = 32_000


@dataclass(frozen=True)
class KdeModel:
    """Gaussian product-kernel density estimate with per-dim bandwidth."""

    samples: np.ndarray  # (n, d)
    bandwidth: np.ndarray  # (d,)

    def __post_init__(self):
        if self.samples.ndim != 2 or len(self.samples) == 0:
            raise ValueError("need at least one sample of shape (n, d)")
        if self.bandwidth.shape != (self.samples.shape[1],):
            raise ValueError("bandwidth must be per-dimension")
        if np.any(self.bandwidth <= 0):
            raise ValueError("bandwidth must be positive in every dimension")

    @property
    def dim(self) -> int:
        return self.samples.shape[1]

    @cached_property
    def columns(self) -> np.ndarray:
        """Samples in bandwidth units, one contiguous row per dimension: (d, n)."""
        return np.ascontiguousarray((self.samples / self.bandwidth).T)

    @property
    def block_rows(self) -> int:
        """Query rows per block of `kde_density`: KDE_BLOCK_ELEMENTS // n, at least 1."""
        return max(1, KDE_BLOCK_ELEMENTS // len(self.samples))

    @property
    def norm(self) -> float:
        """Normaliser n * prod(h) * (2 pi)^(d/2) of the kernel sum."""
        h = self.bandwidth
        return len(self.samples) * float(np.prod(h)) * (2.0 * math.pi) ** (self.dim / 2.0)


def kde_fit(samples) -> KdeModel:
    """Fit a Gaussian KDE with Silverman's bandwidth per dimension.

    h_j = sigma_j * (4 / ((d + 2) n))^(1/(d+4)), with sigma_j floored at
    SIGMA_FLOOR so degenerate samples still give a usable (if narrow)
    density.
    """
    x = np.atleast_2d(np.asarray(samples, dtype=float))
    if x.shape[0] == 0:
        raise ValueError("empty sample set")
    n, d = x.shape
    sigma = np.maximum(x.std(axis=0, ddof=1) if n > 1 else np.zeros(d), SIGMA_FLOOR)
    h = sigma * (4.0 / ((d + 2) * n)) ** (1.0 / (d + 4))
    return KdeModel(samples=x, bandwidth=h)


def _kernel_sum(columns: np.ndarray, q, z: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Sum over the samples of exp(-|q - s|^2 / 2), in bandwidth units.

    `q` holds d query coordinates, scalars or (m, 1) columns, matched to
    `columns` (`KdeModel.columns`).  z and t are buffers of the broadcast
    shape: z sums the squared distance column by column, t holds each term.
    """
    np.subtract(q[0], columns[0], out=z)
    z *= z
    for q_j, s_j in zip(q[1:], columns[1:]):
        np.subtract(q_j, s_j, out=t)
        t *= t
        z += t
    z *= -0.5
    return np.exp(z, out=z).sum(axis=-1)


def kde_density(model: KdeModel, x) -> np.ndarray:
    """Evaluate p_hat at each of m query points (m, d).

    The kernels are summed directly by `_kernel_sum`, a block of query rows
    at a time.  Every operation is elementwise or a sum along one row, so
    a row's density depends only on that row and the model, whatever its
    block, the block size or its place in either: any subset of rows gives
    the full pass's floats, and `point_ratio` gives them at one state.
    """
    pts = np.asarray(x, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != model.dim:
        raise ValueError("query dimension mismatch")
    columns, norm, block = model.columns, model.norm, model.block_rows
    dens = np.empty(len(pts))
    z, t = np.empty((2, min(block, len(pts)), len(model.samples)))
    for lo in range(0, len(pts), block):
        q = (pts[lo : lo + block] / model.bandwidth).T[:, :, None]
        rows = q.shape[1]
        dens[lo : lo + rows] = _kernel_sum(columns, q, z[:rows], t[:rows]) / norm
    return dens


def clipped_ratio(p_src, p_trg) -> np.ndarray:
    """p_src / max(p_trg, DENSITY_FLOOR) clipped from above at R_HI."""
    p_t = np.maximum(p_trg, DENSITY_FLOOR)
    return np.minimum(np.asarray(p_src, dtype=float) / p_t, R_HI)


def point_ratio(src: KdeModel, trg: KdeModel):
    """Single-point clipped density ratio ratio(q, qdot), for the rollout hot path.

    Each density is `_kernel_sum` at one state into (n,) buffers of its
    own, and the ratio is `clipped_ratio`'s clip on Python floats, written
    so that a NaN density propagates as it does there: the floats
    `density_ratio` gives for the same state.
    """

    def density(kde: KdeModel):
        columns, norm, (h0, h1) = kde.columns, kde.norm, kde.bandwidth.tolist()
        z, t = np.empty((2, len(kde.samples)))
        return lambda q, qdot: float(_kernel_sum(columns, (q / h0, qdot / h1), z, t)) / norm

    p_src, p_trg = density(src), density(trg)

    def ratio(q: float, qdot: float) -> float:
        p_t = p_trg(q, qdot)
        r = p_src(q, qdot) / (DENSITY_FLOOR if p_t < DENSITY_FLOOR else p_t)
        return R_HI if r > R_HI else r

    return ratio


def max_ratio(p_trg, p_src) -> float:
    """Unclipped max of p_trg / max(p_src, DENSITY_FLOOR)."""
    ratio = np.maximum(p_src, DENSITY_FLOOR)
    return float(np.max(np.divide(p_trg, ratio, out=ratio)))


def density_ratio(src: KdeModel, trg: KdeModel, x) -> np.ndarray:
    """Clipped ratio p_src(x) / p_trg(x) at each of the (m, d) queries."""
    if src.dim != trg.dim:
        raise ValueError("source/target dimension mismatch")
    return clipped_ratio(kde_density(src, x), kde_density(trg, x))


def max_ratio_on_traj(trg: KdeModel, src: KdeModel, pts) -> float:
    """Unclipped max of p_trg / p_src over a trajectory's (n, d) grid points.

    Diagnostic for how far the proposed target strays from the data; large
    values mean the generalization guarantee is weak there.
    """
    pts = np.asarray(pts, dtype=float)
    if len(pts) == 0:
        raise ValueError("empty trajectory")
    return max_ratio(kde_density(trg, pts), kde_density(src, pts))
