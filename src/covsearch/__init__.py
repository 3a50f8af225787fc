"""Bayesian discovery of compositional GP covariance structure.

Kernel trees built from five base kernels and three combinators are
sampled from a generative prior and refined against data by
Metropolis-Hastings moves over structures and hyperparameters, with an
optional gradient channel for the hypers and a CRP layer for clustering
related series.
"""

import importlib

__version__ = "0.1.0"

# Public name -> the submodule that defines it. Names load on first
# access, so `import covsearch` loads no numpy: `python -m covsearch`
# can still choose the BLAS thread count before numpy starts OpenBLAS.
_EXPORTS = {
    "baseline": ("blr_baseline",),
    "clustering": (
        "ClusterSample",
        "ClusterState",
        "canonical_partition",
        "crp_log_prior",
        "run_cluster_schedule",
    ),
    "config": ("RunConfig", "load_config"),
    "data": (
        "Standardization",
        "airline_dataset",
        "ingest_csv",
        "split_holdout",
        "synth_ast",
        "synth_data",
    ),
    "errors": (
        "ConfigError",
        "DataError",
        "NumericError",
        "StructureError",
        "UnsupportedMoveError",
    ),
    "gp": ("Dataset", "GpPosterior", "log_marginal", "predict"),
    "inference": (
        "PosteriorSample",
        "ScheduleConfig",
        "TraceState",
        "averaged_prediction",
        "averaged_predictions",
        "drop_burn_in",
        "gradient_step_hypers",
        "hyper_gradients",
        "map_structure",
        "mh_hyper_step",
        "mh_structure_step",
        "run_hyper_inference",
        "run_schedule",
        "structure_histogram",
    ),
    "kernels": (
        "BaseKernel",
        "HyperSite",
        "KernelAst",
        "NodeBundle",
        "Operator",
        "build_cov_matrix",
        "eval_kernel",
        "from_nested",
        "structure_label",
        "to_nested",
    ),
    "prior": ("PriorConfig", "ast_log_prior", "sample_ast"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
