"""Bayesian discovery of compositional GP covariance structure.

Kernel trees built from five base kernels and three combinators are
sampled from a generative prior and refined against data by
Metropolis-Hastings moves over structures and hyperparameters, with an
optional gradient channel for the hypers and a CRP layer for clustering
related series.
"""

from .baseline import blr_baseline
from .clustering import (
    ClusterSample,
    ClusterState,
    canonical_partition,
    crp_log_prior,
    run_cluster_schedule,
)
from .config import RunConfig, load_config
from .data import (
    Standardization,
    airline_dataset,
    ingest_csv,
    split_holdout,
    synth_ast,
    synth_data,
)
from .errors import (
    ConfigError,
    DataError,
    NumericError,
    StructureError,
    UnsupportedMoveError,
)
from .gp import (
    Dataset,
    GpPosterior,
    log_marginal,
    predict,
    sample_predictive,
)
from .inference import (
    PosteriorSample,
    ScheduleConfig,
    TraceState,
    averaged_prediction,
    averaged_predictions,
    drop_burn_in,
    gradient_step_hypers,
    hyper_gradients,
    map_structure,
    mh_hyper_step,
    mh_structure_step,
    run_hyper_inference,
    run_schedule,
    structure_histogram,
)
from .kernels import (
    BaseKernel,
    HyperSite,
    KernelAst,
    NodeBundle,
    Operator,
    build_cov_matrix,
    eval_kernel,
    from_nested,
    structure_label,
    to_nested,
)
from .prior import PriorConfig, ast_log_prior, sample_ast

__version__ = "0.1.0"

__all__ = [
    "BaseKernel",
    "ClusterSample",
    "ClusterState",
    "ConfigError",
    "DataError",
    "Dataset",
    "GpPosterior",
    "HyperSite",
    "KernelAst",
    "NodeBundle",
    "NumericError",
    "Operator",
    "PosteriorSample",
    "PriorConfig",
    "RunConfig",
    "ScheduleConfig",
    "Standardization",
    "StructureError",
    "TraceState",
    "UnsupportedMoveError",
    "airline_dataset",
    "ast_log_prior",
    "averaged_prediction",
    "averaged_predictions",
    "blr_baseline",
    "build_cov_matrix",
    "canonical_partition",
    "crp_log_prior",
    "drop_burn_in",
    "eval_kernel",
    "from_nested",
    "gradient_step_hypers",
    "hyper_gradients",
    "ingest_csv",
    "load_config",
    "log_marginal",
    "map_structure",
    "mh_hyper_step",
    "mh_structure_step",
    "predict",
    "run_cluster_schedule",
    "run_hyper_inference",
    "run_schedule",
    "sample_ast",
    "sample_predictive",
    "split_holdout",
    "structure_histogram",
    "structure_label",
    "synth_ast",
    "synth_data",
    "to_nested",
]
