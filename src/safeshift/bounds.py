"""Tracking tubes and certification from the stability/generalization theory.

Two ingredient families:

* Statistical: a generalization bound for the robust regressor on the
  target trajectory, a diagnostic; the exploration loop itself budgets
  the residual error as eps_m = beta * max sigma(x).

* Dynamical: gamma converts a uniform residual-error bound eps_m into the
  radius of the asymptotic tracking-error ball of the closed loop.  Both
  plants are 1-DOF, so the inertia m and the gains k, lam are scalars.
  certify_trajectory checks the worst-case tube against the safety set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import DesiredTrajectory, SafetySet, StateBox, TouchdownSpeed

__all__ = [
    "BoundInputs",
    "Certification",
    "generalization_bound",
    "gamma",
    "eps_m_from_sigma",
    "beta_for_confidence",
    "certify_trajectory",
]


@dataclass(frozen=True)
class BoundInputs:
    """Inputs to the generalization bound.

    w: sup of the target/source density ratio; r: lower bound of the
    clipped ratio on the data support; b: lower bound on theta_y;
    lambda_bar: max slack across statistic dimensions; f_diam: diameter
    of the estimator function class; rademacher: empirical complexity of
    the class on the sample (caller-supplied, default 0 = diagnostic
    only).
    """

    w: float
    r: float
    b: float
    sigma0_sq: float
    lambda_bar: float = 0.0
    f_diam: float = 0.0
    rademacher: float = 0.0
    delta: float = 0.05
    n: int = 1

    def __post_init__(self):
        vals = (self.w, self.r, self.b, self.sigma0_sq, self.lambda_bar,
                self.f_diam, self.rademacher)
        if any(v < 0 for v in vals):
            raise ValueError("bound inputs must be nonnegative")
        if self.sigma0_sq == 0:
            raise ValueError("sigma0_sq must be positive")
        if not 0 < self.delta < 1:
            raise ValueError("delta must lie in (0, 1)")
        if self.n < 1:
            raise ValueError("n must be at least 1")


def generalization_bound(inputs: BoundInputs) -> float:
    """Expected target-side regression error bound.

    w * [ (2 r b + sigma0^-2)^-1 + lambda_bar
          + 4 f_diam rademacher + 3 f_diam^2 sqrt(log(2/delta) / (2n)) ]
    """
    variance_term = 1.0 / (2.0 * inputs.r * inputs.b + 1.0 / inputs.sigma0_sq)
    concentration = 3.0 * inputs.f_diam ** 2 * math.sqrt(
        math.log(2.0 / inputs.delta) / (2.0 * inputs.n)
    )
    return inputs.w * (
        variance_term + inputs.lambda_bar + 4.0 * inputs.f_diam * inputs.rademacher + concentration
    )


def gamma(m: float, k: float, lam: float) -> float:
    """Gain from the residual-error bound eps_m to the tracking-error ball.

    gamma = (m / (k m)) * sqrt((1/lam)^2 + 4)

    for inertia m and gains k, lam.  The first factor bounds the
    asymptotic composite-variable magnitude per unit eps_m (m cancels
    only in exact arithmetic, so it stays in the float expression); the
    square root converts it to the (q, qdot) error norm through the error
    mixing gain.
    """
    return m / (k * m) * math.sqrt((1.0 / lam) ** 2 + 4.0)


def eps_m_from_sigma(sigma_max: float, beta: float) -> float:
    """Residual-error budget from the max predictive deviation: beta * sigma."""
    if sigma_max < 0 or beta < 0:
        raise ValueError("sigma_max and beta must be nonnegative")
    return beta * sigma_max


def beta_for_confidence(delta: float, n: int) -> float:
    """beta making per-point Gaussian bounds hold jointly w.p. >= 1 - delta.

    Inverts 1 - n e^(-beta/2) >= 1 - delta, giving beta = 2 ln(n / delta).
    """
    if not 0 < delta < 1:
        raise ValueError("delta must lie in (0, 1)")
    if n < 1:
        raise ValueError("n must be at least 1")
    return 2.0 * math.log(n / delta)


@dataclass(frozen=True)
class Certification:
    """Outcome of the worst-case tube check.

    margin is the signed distance to the binding constraint: positive
    slack when safe, negative shortfall when not.  For the touchdown set
    the margin is a velocity slack (m/s) when the tube can reach the
    ground and the minimum altitude clearance (m) otherwise.
    """

    safe: bool
    margin: float
    rho: float


def certify_trajectory(
    traj: DesiredTrajectory, gamma_val: float, eps_m: float, safe_set: SafetySet
) -> Certification:
    """Check the worst-case tube around the desired trajectory against 𝔖.

    The tube has radius rho = gamma_val * eps_m in the (q, qdot) error
    norm; the component projection |q - q_g| <= rho, |qdot - qdot_g| <= rho
    is checked against the safety set at every grid point:

    * StateBox: safe iff max|q_g| + rho < q_abs_max (strict).
    * TouchdownSpeed: at every grid point where the tube can touch the
      ground (q_g - rho <= ground), the worst-case descent speed must
      still be acceptable: qdot_g - rho > qdot_min_at_ground (strict).
    """
    if gamma_val < 0 or eps_m < 0:
        raise ValueError("gamma and eps_m must be nonnegative")
    rho = gamma_val * eps_m

    if isinstance(safe_set, StateBox):
        worst = float(np.max(np.abs(traj.q_g))) + rho
        margin = safe_set.q_abs_max - worst
        return Certification(safe=margin > 0, margin=margin, rho=rho)

    if isinstance(safe_set, TouchdownSpeed):
        contact = traj.q_g - rho <= safe_set.ground
        if not np.any(contact):
            clearance = float(np.min(traj.q_g - rho)) - safe_set.ground
            return Certification(safe=True, margin=clearance, rho=rho)
        worst_speed = float(np.min(traj.qdot_g[contact])) - rho
        margin = worst_speed - safe_set.qdot_min_at_ground
        return Certification(safe=margin > 0, margin=margin, rho=rho)

    raise TypeError(f"unknown safety set {type(safe_set).__name__}")
