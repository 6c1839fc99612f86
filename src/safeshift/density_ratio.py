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
one candidate's grid at a time, each time the loop reaches it.
That gives the candidate's w_hat and its r_min (its smallest clipped
ratio on the certification points, which is all the robust certificate
reads).  The controller reads one state at a time through
`point_ratio`, the other kernel sum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
# elements of the (block, n_samples) kernel temporary in kde_density:
# 512 KB, small enough to stay in cache
KDE_BLOCK_ELEMENTS = 64_000


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


def kde_density(model: KdeModel, x) -> np.ndarray:
    """Evaluate p_hat at each of m query points (m, d).

    Squared distances in bandwidth units come from the |a|^2 + |b|^2 - 2ab
    expansion so the (m, n) kernel matrix is a single BLAS product; the
    clamp guards the tiny negative residue cancellation can leave.

    A density depends on its own query row, up to how BLAS rounds the
    product: OpenBLAS computes the rows past its kernel's row unroll with
    another kernel, so a row can come out a bit or two apart depending on
    its place in a block.  numpy hands a one-row product to gemv, which
    rounds further apart still, so a block of one row is evaluated twice
    over.
    """
    pts = np.asarray(x, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != model.dim:
        raise ValueError("query dimension mismatch")
    h = model.bandwidth
    n = len(model.samples)
    norm = model.norm
    s = model.samples / h
    s_sq = np.einsum("ij,ij->i", s, s)
    s_t = -2.0 * s.T
    m = len(pts)
    dens = np.empty(m)
    block = max(1, KDE_BLOCK_ELEMENTS // n)
    buf = np.empty((max(2, min(block, m)), n))
    for lo in range(0, m, block):
        q = pts[lo : lo + block] / h
        rows = len(q)
        if rows == 1:
            q = np.repeat(q, 2, axis=0)
        d2 = np.matmul(q, s_t, out=buf[: len(q)])
        d2 += np.einsum("ij,ij->i", q, q)[:, None]
        d2 += s_sq[None, :]
        np.maximum(d2, 0.0, out=d2)
        d2 *= -0.5
        dens[lo : lo + rows] = np.exp(d2, out=d2).sum(axis=1)[:rows] / norm
    return dens


def clipped_ratio(p_src, p_trg) -> np.ndarray:
    """p_src / max(p_trg, DENSITY_FLOOR) clipped from above at R_HI."""
    p_t = np.maximum(p_trg, DENSITY_FLOOR)
    return np.minimum(np.asarray(p_src, dtype=float) / p_t, R_HI)


def point_ratio(src: KdeModel, trg: KdeModel):
    """Single-point clipped density ratio ratio(q, qdot), tuned for the rollout hot path.

    Sums the kernels directly where `kde_density` expands the squared
    distance for one BLAS product; the two differ in the last bits.  Each
    KDE's two sample columns are held as contiguous 1-D arrays, and the
    squared distance of a query is the sum of its two per-column terms,
    the same floats as the row sum of the (n, 2) squared offsets.
    """

    def columns(kde: KdeModel):
        x = kde.samples
        h0, h1 = kde.bandwidth.tolist()
        return np.ascontiguousarray(x[:, 0]), np.ascontiguousarray(x[:, 1]), h0, h1, kde.norm

    def density(q, qdot, x0, x1, h0, h1, norm):
        z = (q - x0) / h0
        z *= z
        z1 = (qdot - x1) / h1
        z1 *= z1
        z += z1
        z *= -0.5
        return float(np.exp(z, out=z).sum()) / norm

    src_cols, trg_cols = columns(src), columns(trg)

    def ratio(q: float, qdot: float) -> float:
        r = density(q, qdot, *src_cols) / max(density(q, qdot, *trg_cols), DENSITY_FLOOR)
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
