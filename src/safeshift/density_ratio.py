"""Kernel density estimation and clipped source/target density ratios.

The learner reweights its exponent by r_hat(x) = p_src(x) / p_trg(x): how
much source (training) mass covers a query relative to the target
trajectory's mass there.  Ratios are clipped into [r_lo, r_hi] so they
stay bounded away from zero (the variance formula needs a positive floor)
and from blowing up where the target density vanishes.

Each ratio formula lives in one helper that takes precomputed densities
(`clipped_ratio`, `max_ratio`).  `density_ratio` and `max_ratio_on_traj`
evaluate the KDEs and call them; the exploration loop calls them directly
on cached densities: p_trg once per experiment on every candidate grid,
p_src once per episode on all grids together.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "KdeModel",
    "RatioConfig",
    "kde_fit",
    "kde_density",
    "density_ratio",
    "max_ratio_on_traj",
    "clipped_ratio",
    "max_ratio",
    "DENSITY_FLOOR",
    "SIGMA_FLOOR",
]

DENSITY_FLOOR = 1e-12
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


@dataclass(frozen=True)
class RatioConfig:
    r_lo: float = 0.1
    r_hi: float = 10.0

    def __post_init__(self):
        if not 0 < self.r_lo <= self.r_hi:
            raise ValueError("need 0 < r_lo <= r_hi")


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


def kde_density(model: KdeModel, x) -> np.ndarray | float:
    """Evaluate p_hat at one point (d,) or a batch (m, d).

    Squared distances in bandwidth units come from the |a|^2 + |b|^2 - 2ab
    expansion so the (m, n) kernel matrix is a single BLAS product; the
    clamp guards the tiny negative residue cancellation can leave.
    """
    pts = np.asarray(x, dtype=float)
    scalar = pts.ndim == 1
    pts = np.atleast_2d(pts)
    if pts.shape[1] != model.dim:
        raise ValueError("query dimension mismatch")
    h = model.bandwidth
    n = len(model.samples)
    norm = n * np.prod(h) * (2.0 * math.pi) ** (model.dim / 2.0)
    s = model.samples / h
    s_sq = np.einsum("ij,ij->i", s, s)
    dens = np.empty(len(pts))
    block = max(1, KDE_BLOCK_ELEMENTS // n)
    for lo in range(0, len(pts), block):
        q = pts[lo : lo + block] / h
        d2 = q @ (-2.0 * s.T)
        d2 += np.einsum("ij,ij->i", q, q)[:, None]
        d2 += s_sq[None, :]
        np.maximum(d2, 0.0, out=d2)
        dens[lo : lo + block] = np.exp(-0.5 * d2, out=d2).sum(axis=1) / norm
    return float(dens[0]) if scalar else dens


def clipped_ratio(p_src, p_trg, cfg: RatioConfig = RatioConfig()) -> np.ndarray:
    """p_src / max(p_trg, DENSITY_FLOOR) clipped into [r_lo, r_hi]."""
    p_t = np.maximum(p_trg, DENSITY_FLOOR)
    return np.clip(np.asarray(p_src, dtype=float) / p_t, cfg.r_lo, cfg.r_hi)


def max_ratio(p_trg, p_src) -> float:
    """Unclipped max of p_trg / max(p_src, DENSITY_FLOOR)."""
    return float(np.max(np.asarray(p_trg, dtype=float) / np.maximum(p_src, DENSITY_FLOOR)))


def density_ratio(src: KdeModel, trg: KdeModel, x, cfg: RatioConfig = RatioConfig()):
    """Clipped ratio p_src(x) / p_trg(x), elementwise over queries."""
    if src.dim != trg.dim:
        raise ValueError("source/target dimension mismatch")
    r = clipped_ratio(kde_density(src, x), kde_density(trg, x), cfg)
    return float(r) if r.ndim == 0 else r


def max_ratio_on_traj(trg: KdeModel, src: KdeModel, traj) -> float:
    """Unclipped max of p_trg / p_src over the trajectory grid.

    Diagnostic for how far the proposed target strays from the data; large
    values mean the generalization guarantee is weak there.  `traj` is a
    DesiredTrajectory or a raw (n, 2) array of grid points.
    """
    pts = traj.grid_xy() if hasattr(traj, "grid_xy") else np.atleast_2d(np.asarray(traj))
    if len(pts) == 0:
        raise ValueError("empty trajectory")
    return max_ratio(kde_density(trg, pts), kde_density(src, pts))
