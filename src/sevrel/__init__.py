"""Severity-aware structural reliability: frequency of failure and how bad it is.

The classical reliability index beta answers "how often does the limit
state go negative". This package adds the other half: the expected
failure deficit (how far below zero, on average), its normalization by
the limit-state spread, the severity-aware index beta_S obtained by
inverting the Gaussian deficit map, and a five-level classification
with explicit validity guards for heavy-tailed problems.
"""

from .distributions import (
    Distribution,
    Gumbel,
    Lognormal,
    Mixture,
    MomentReport,
    Normal,
    Pareto,
    lognormal_from_median_cov,
)
from .engine import (
    LimitStateModel,
    SimulationConfig,
    SimulationSummary,
    Term,
    calibrate_shift,
    model_moments,
    robust_scales,
    simulate,
)
from .gaussian import (
    DEFICIT_ENDPOINT,
    OutOfGaussianDomain,
    deficit,
    deficit_slope,
    invert_deficit,
    norm_cdf,
    norm_pdf,
    norm_quantile,
    tail_mean,
)
from .metrics import (
    ExtremeFlag,
    NoFailuresObserved,
    SeverityLevel,
    SeverityReport,
    Verdict,
    WorkflowDecision,
    assess,
    build_report,
    classify,
    classify_index,
    expected_failure_deficit,
    normalized_deficit,
    reliability_index,
    severity_index,
)
from .scenarios import SCENARIO_IDS, Scenario, ScenarioResult, builtin, run

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # gaussian kernel
    "DEFICIT_ENDPOINT",
    "OutOfGaussianDomain",
    "deficit",
    "deficit_slope",
    "invert_deficit",
    "tail_mean",
    "norm_pdf",
    "norm_cdf",
    "norm_quantile",
    # distributions
    "Distribution",
    "Normal",
    "Lognormal",
    "Gumbel",
    "Pareto",
    "Mixture",
    "MomentReport",
    "lognormal_from_median_cov",
    # engine
    "Term",
    "LimitStateModel",
    "SimulationConfig",
    "SimulationSummary",
    "simulate",
    "calibrate_shift",
    "model_moments",
    "robust_scales",
    # metrics
    "ExtremeFlag",
    "NoFailuresObserved",
    "SeverityLevel",
    "SeverityReport",
    "Verdict",
    "WorkflowDecision",
    "reliability_index",
    "expected_failure_deficit",
    "normalized_deficit",
    "severity_index",
    "classify",
    "classify_index",
    "build_report",
    "assess",
    # scenarios
    "Scenario",
    "ScenarioResult",
    "SCENARIO_IDS",
    "builtin",
    "run",
]
