"""Estimation of causal effects for binarized continuous treatments.

The package covers the binarized average treatment effect (BATE) and the
policy effect of binarization (PEB) with four estimators (regression with
M-estimation standard errors, IPW with bootstrap standard errors, AIPW and
TMLE with influence-curve standard errors), plus a simulation subsystem with
an exact quadrature truth oracle.
"""

import types as _types

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
    estimate_many,
    influence_values,
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

# every public name imported above
__all__ = sorted(
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _types.ModuleType)
)
