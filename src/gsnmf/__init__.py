"""Group-sparse variational Bayesian NMF toolkit.

Count data X (V x T) is factorized as X ~ Poisson(T V) with gamma priors
on the dictionary and group-structured exponential scale-mixture priors on
the coefficients, learned by mean-field coordinate ascent on the evidence
lower bound. A supervised pipeline maps class labels to prior groups,
projects held-out samples by nonnegative least squares, and classifies
them with a cosine 1-nearest-neighbor rule.
"""

from .engine import (
    FitConfig,
    FitResult,
    NumericalError,
    VariationalState,
    fit,
    fit_restarts,
    init_state,
    multi_restart_fit,
    update_sweep,
    variational_bound,
)
from .model import (
    GroundTruth,
    GroupAssignment,
    Hyperparameters,
    PriorSettings,
    as_data_matrix,
    build_group_hyperprior,
    sample_model,
)
from .pipeline import (
    AccuracyReport,
    CvConfig,
    LabeledDataset,
    evaluate,
    group_prevalence,
    knn_cosine_classify,
    parameter_sweep,
    stratified_folds,
)
from .projection import NnlsSolution, nnls, project_matrix

__all__ = [
    "AccuracyReport",
    "CvConfig",
    "FitConfig",
    "FitResult",
    "GroundTruth",
    "GroupAssignment",
    "Hyperparameters",
    "LabeledDataset",
    "NnlsSolution",
    "NumericalError",
    "PriorSettings",
    "VariationalState",
    "as_data_matrix",
    "build_group_hyperprior",
    "evaluate",
    "fit",
    "fit_restarts",
    "group_prevalence",
    "init_state",
    "knn_cosine_classify",
    "multi_restart_fit",
    "nnls",
    "parameter_sweep",
    "project_matrix",
    "sample_model",
    "stratified_folds",
    "update_sweep",
    "variational_bound",
]

__version__ = "0.1.0"
