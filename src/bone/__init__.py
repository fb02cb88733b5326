"""Composable Bayesian online learning for non-stationary data streams."""

from .core import (
    ConfigError,
    GaussBelief,
    NumericDomainError,
    gaussian_log_pdf,
    logsumexp,
    symmetrize_psd,
)
from .measurement import (
    MeasurementSpec,
    apply_h,
    expfam_moments,
    link_mean,
    predictive_log_density,
)
from .posterior import lg_update, wolf_update
from .priors import PriorPolicy, conditional_prior, mmpr_prior
from .weighting import (
    HazardSpec,
    HypothesisBank,
    cpp_empirical_bayes,
    greedy_ratio,
    prune_topk,
    rl_step,
)
from .agents import (
    AgentState,
    MethodConfig,
    bone_step,
    drift_unobserved,
    init_agent,
    predict_weighted,
    thompson_action,
)

__all__ = [
    "AgentState",
    "ConfigError",
    "GaussBelief",
    "HazardSpec",
    "HypothesisBank",
    "MeasurementSpec",
    "MethodConfig",
    "NumericDomainError",
    "PriorPolicy",
    "apply_h",
    "bone_step",
    "conditional_prior",
    "cpp_empirical_bayes",
    "drift_unobserved",
    "expfam_moments",
    "gaussian_log_pdf",
    "greedy_ratio",
    "init_agent",
    "lg_update",
    "link_mean",
    "logsumexp",
    "mmpr_prior",
    "predict_weighted",
    "predictive_log_density",
    "prune_topk",
    "rl_step",
    "symmetrize_psd",
    "thompson_action",
    "wolf_update",
]

__version__ = "0.1.0"
