"""Safe episodic exploration under covariate shift.

Residual dynamics are learned with a shift-robust penalized regressor,
whose predictive std sigma_max gives the tracking-tube radius
gamma * beta * sigma_max that certifies a candidate before it is flown.
Two simulated tasks (a pendulum swinging q_g = C sin t about its upright
equilibrium under wind drag, drone landing in ground effect) plus an
exact-GP baseline and a CLI runner.  Import each name from the module
that defines it.
"""

# the benchmark tracer's binding test asserts this package binding
from .density_ratio import density_ratio

__all__ = ["density_ratio"]
