"""Estimation of causal effects for binarized continuous treatments.

The package covers the binarized average treatment effect (BATE) and the
policy effect of binarization (PEB) with four estimators (regression with
M-estimation standard errors, IPW with bootstrap standard errors, AIPW and
TMLE with influence-curve standard errors), plus a simulation subsystem with
an exact quadrature truth oracle.
"""

from .core import (
    BinarizationRule,
    ConvergenceError,
    DegenerateArmError,
    Direction,
    EstimandSpec,
    EstimateReport,
    EstimationError,
    ObservationSet,
    QuadratureError,
    SeparationError,
    SingularDesignError,
    ValidationError,
    binarize,
    load_csv,
    positivity_diagnostic,
    save_csv,
    z_quantile,
)
from .estimators import (
    ESTIMATOR_NAMES,
    BootstrapConfig,
    Nuisances,
    TmleFit,
    aipw_influence,
    bootstrap_se,
    estimate_many,
    tmle_update,
)
from .nuisance import (
    OutcomeModel,
    PropensityModel,
    RegressionFit,
    fit_logistic,
    fit_ols_interacted,
)
from .simulation import (
    DgpSpec,
    McResult,
    McRow,
    TruthReport,
    cubic_sine_outcome,
    density_curve,
    mc_results_to_csv,
    run_monte_carlo,
    sample_dgp,
    truth_oracle,
)

__version__ = "0.1.0"

__all__ = [
    "BinarizationRule",
    "BootstrapConfig",
    "ConvergenceError",
    "DegenerateArmError",
    "DgpSpec",
    "Direction",
    "ESTIMATOR_NAMES",
    "EstimandSpec",
    "EstimateReport",
    "EstimationError",
    "McResult",
    "McRow",
    "Nuisances",
    "ObservationSet",
    "OutcomeModel",
    "PropensityModel",
    "QuadratureError",
    "RegressionFit",
    "SeparationError",
    "SingularDesignError",
    "TmleFit",
    "TruthReport",
    "ValidationError",
    "aipw_influence",
    "binarize",
    "bootstrap_se",
    "cubic_sine_outcome",
    "density_curve",
    "estimate_many",
    "fit_logistic",
    "fit_ols_interacted",
    "load_csv",
    "mc_results_to_csv",
    "positivity_diagnostic",
    "run_monte_carlo",
    "sample_dgp",
    "save_csv",
    "tmle_update",
    "truth_oracle",
    "z_quantile",
]
