"""Tracking tubes and certification from the stability theory.

The exploration loop budgets the residual error as eps_m = beta * sigma_max,
beta times the learner's largest predictive std on the candidate; no
generalization bound is computed.  gamma converts a uniform
residual-error bound eps_m into the radius rho = gamma * eps_m of the
asymptotic tracking-error ball of the closed loop.  Both plants are 1-DOF
at unit inertia, so the gains k, lam are scalars.  certify_trajectory
checks the tube of radius rho around a candidate against the safety set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import DesiredTrajectory, SafetySet, StateBox, TouchdownSpeed

__all__ = [
    "Certification",
    "gamma",
    "certify_trajectory",
]


def gamma(k: float, lam: float) -> float:
    """Gain from the residual-error bound eps_m to the tracking-error ball.

    gamma = (1 / k) * sqrt((1/lam)^2 + 4)

    for gains k, lam at unit inertia.  The first factor bounds the
    asymptotic composite-variable magnitude per unit eps_m; the square
    root converts it to the (q, qdot) error norm through the error mixing
    gain.
    """
    return 1.0 / k * math.sqrt((1.0 / lam) ** 2 + 4.0)


@dataclass(frozen=True)
class Certification:
    """Outcome of the worst-case tube check of one radius rho, which the caller holds.

    margin is the signed distance to the binding constraint: positive
    slack when safe, negative shortfall when not.  For the touchdown set
    the margin is a velocity slack (m/s) when the tube can reach the
    ground and the minimum altitude clearance (m) otherwise.
    """

    safe: bool
    margin: float


def certify_trajectory(traj: DesiredTrajectory, rho: float, safe_set: SafetySet) -> Certification:
    """Check the worst-case tube of radius rho around the desired trajectory against 𝔖.

    rho bounds the (q, qdot) error norm; the component projection
    |q - q_g| <= rho, |qdot - qdot_g| <= rho is checked against the
    safety set at every row (q_g, qdot_g) of `traj.grid`:

    * StateBox: safe iff max|q_g| + rho < q_abs_max (strict).
    * TouchdownSpeed: at every grid point where the tube can touch the
      ground (q_g - rho <= ground), the worst-case descent speed must
      still be acceptable: qdot_g - rho > qdot_min_at_ground (strict).
    """
    if rho < 0:
        raise ValueError("rho must be nonnegative")
    q_g, qdot_g = traj.grid[:, 0], traj.grid[:, 1]

    if isinstance(safe_set, StateBox):
        worst = float(np.max(np.abs(q_g))) + rho
        margin = safe_set.q_abs_max - worst
        return Certification(safe=margin > 0, margin=margin)

    if isinstance(safe_set, TouchdownSpeed):
        contact = q_g - rho <= safe_set.ground
        if not np.any(contact):
            clearance = float(np.min(q_g - rho)) - safe_set.ground
            return Certification(safe=True, margin=clearance)
        worst_speed = float(np.min(qdot_g[contact])) - rho
        margin = worst_speed - safe_set.qdot_min_at_ground
        return Certification(safe=margin > 0, margin=margin)

    raise TypeError(f"unknown safety set {type(safe_set).__name__}")
