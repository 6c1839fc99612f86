"""Safe episodic exploration under covariate shift.

Residual dynamics are learned with a shift-robust penalized regressor,
whose predictive std sigma_max gives the tracking-tube radius
gamma * beta * sigma_max that certifies a candidate before it is flown.
Two simulated tasks (pendulum swing-up under wind drag, drone landing in
ground effect) plus an exact-GP baseline and a CLI runner.
"""

from .bounds import (
    BoundInputs,
    Certification,
    beta_for_confidence,
    certify_trajectory,
    eps_m_from_sigma,
    gamma,
    generalization_bound,
    perturbation_bound,
    tracking_envelope,
)
from .controller import (
    ControllerGains,
    Rollout,
    control_law,
    simulate_closed_loop,
    x0_on_trajectory,
)
from .core import (
    Dataset,
    DesiredTrajectory,
    EpisodeRecord,
    LandingPool,
    PendulumPool,
    StateBox,
    TouchdownSpeed,
    landing_pool,
    pendulum_pool,
    safety_contains,
)
from .density_ratio import (
    KdeModel,
    density_ratio,
    kde_density,
    kde_fit,
    max_ratio_on_traj,
)
from .dynamics import (
    DRONE,
    PENDULUM,
    Plant,
    SimulationDiverged,
    step_rk4,
)
from .explore import (
    ConfigError,
    ExperimentConfig,
    ExperimentResult,
    GpLearner,
    RobustLearner,
    default_config,
    make_learner,
    run_episode,
    run_experiment,
)
from .gp_baseline import GpHyper, GpModel, gp_fit, gp_predict
from .robust_regression import (
    FeatureNet,
    RobustModel,
    TrainConfig,
    feature_net_init,
    fit,
    initial_model,
    lipschitz_bound,
    predict,
    spectral_normalize,
)

__version__ = "0.1.0"

__all__ = [
    "BoundInputs",
    "Certification",
    "ConfigError",
    "ControllerGains",
    "DRONE",
    "Dataset",
    "DesiredTrajectory",
    "EpisodeRecord",
    "ExperimentConfig",
    "ExperimentResult",
    "FeatureNet",
    "GpHyper",
    "GpLearner",
    "GpModel",
    "KdeModel",
    "LandingPool",
    "PENDULUM",
    "PendulumPool",
    "Plant",
    "RobustLearner",
    "RobustModel",
    "Rollout",
    "SimulationDiverged",
    "StateBox",
    "TouchdownSpeed",
    "TrainConfig",
    "beta_for_confidence",
    "certify_trajectory",
    "control_law",
    "default_config",
    "density_ratio",
    "eps_m_from_sigma",
    "feature_net_init",
    "fit",
    "gamma",
    "generalization_bound",
    "gp_fit",
    "gp_predict",
    "initial_model",
    "kde_density",
    "kde_fit",
    "landing_pool",
    "lipschitz_bound",
    "make_learner",
    "max_ratio_on_traj",
    "pendulum_pool",
    "perturbation_bound",
    "predict",
    "run_episode",
    "run_experiment",
    "safety_contains",
    "simulate_closed_loop",
    "spectral_normalize",
    "step_rk4",
    "tracking_envelope",
    "x0_on_trajectory",
]
