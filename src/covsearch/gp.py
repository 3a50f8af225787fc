"""Gaussian process marginal likelihood and prediction.

Observations are modeled as y ~ N(0, K + noise_var * I) where K is the
covariance matrix of a kernel tree over the inputs. All dense linear
algebra goes through one Cholesky helper with a fixed jitter ladder.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_solve, solve_triangular

from .errors import NumericError
from .kernels import KernelAst, build_cov_matrix, cross_cov_matrix

DEFAULT_NOISE_VAR = 0.1

# Escalating diagonal jitter tried when a covariance fails to factor.
JITTER_LADDER = (0.0, 1e-8, 1e-7, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2)

_LOG_2PI = math.log(2.0 * math.pi)


@dataclass(frozen=True)
class Dataset:
    """Paired observation vectors, validated and stored as float arrays."""

    xs: np.ndarray
    ys: np.ndarray

    def __post_init__(self):
        xs = np.asarray(self.xs, dtype=float)
        ys = np.asarray(self.ys, dtype=float)
        if xs.ndim != 1 or ys.ndim != 1:
            raise ValueError("xs and ys must be one dimensional")
        if xs.shape != ys.shape:
            raise ValueError(
                f"length mismatch: {xs.size} inputs, {ys.size} outputs"
            )
        if xs.size and not (
            np.all(np.isfinite(xs)) and np.all(np.isfinite(ys))
        ):
            raise ValueError("dataset contains non-finite values")
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "ys", ys)

    def __len__(self) -> int:
        return int(self.xs.size)


@dataclass(frozen=True)
class GpPosterior:
    """Predictive Gaussian at a set of probe points."""

    at: np.ndarray
    mean: np.ndarray
    cov: np.ndarray

    @property
    def variance(self) -> np.ndarray:
        return np.diag(self.cov).copy()


def chol_with_jitter(matrix: np.ndarray) -> tuple[np.ndarray, float]:
    """Lower Cholesky factor, retrying up the jitter ladder.

    Returns the factor together with the jitter that succeeded. Raises
    NumericError once the ladder is exhausted.
    """
    matrix = np.asarray(matrix, dtype=float)
    if not np.all(np.isfinite(matrix)):
        raise NumericError("covariance matrix has non-finite entries")
    for jitter in JITTER_LADDER:
        # The jitter-free attempt factors the matrix itself; most calls
        # end there, so they allocate no identity and no shifted copy.
        shifted = matrix + jitter * np.eye(matrix.shape[0]) if jitter else matrix
        try:
            return np.linalg.cholesky(shifted), jitter
        except np.linalg.LinAlgError:
            continue
    raise NumericError(
        f"covariance not positive definite after jitter up to {JITTER_LADDER[-1]:g}",
        jitters=JITTER_LADDER,
    )


def observed_chol(
    ast: KernelAst, data: Dataset, noise_var: float = DEFAULT_NOISE_VAR
) -> np.ndarray:
    """Lower Cholesky factor of the tree's covariance on `data` plus noise."""
    cov = build_cov_matrix(ast, data.xs)
    cov[np.diag_indices_from(cov)] += noise_var
    factor, _ = chol_with_jitter(cov)
    return factor


def log_marginal_and_chol(
    ast: KernelAst, data: Dataset, noise_var: float = DEFAULT_NOISE_VAR
) -> tuple[float, np.ndarray | None]:
    """Log marginal likelihood plus the Cholesky factor it used.

    The factor is reused by callers that go on to predict or to take
    gradient steps. An empty dataset scores 0 with no factor.
    """
    n = len(data)
    if n == 0:
        return 0.0, None
    factor = observed_chol(ast, data, noise_var)
    alpha = solve_triangular(factor, data.ys, lower=True)
    value = (
        -0.5 * float(alpha @ alpha)
        - float(np.sum(np.log(np.diag(factor))))
        - 0.5 * n * _LOG_2PI
    )
    return value, factor


def log_marginal(
    ast: KernelAst, data: Dataset, noise_var: float = DEFAULT_NOISE_VAR
) -> float:
    """Log density of the observations under the tree's GP."""
    value, _ = log_marginal_and_chol(ast, data, noise_var)
    return value


def predict(
    ast: KernelAst,
    train: Dataset,
    probe_xs,
    noise_var: float = DEFAULT_NOISE_VAR,
    noisy: bool = False,
    factor: np.ndarray | None = None,
) -> GpPosterior:
    """Posterior Gaussian at probe points given training data.

    With `noisy` the returned covariance includes the observation noise,
    i.e. it describes new measurements rather than the latent function.
    `factor` is `observed_chol(ast, train, noise_var)` when the caller
    holds it already, for instance to predict several probe sets.
    """
    probe = np.asarray(probe_xs, dtype=float)
    if probe.ndim != 1 or probe.size == 0:
        raise ValueError("probe inputs must be a non-empty vector")
    prior_cov = build_cov_matrix(ast, probe)
    if len(train) == 0:
        mean = np.zeros(probe.size)
        cov = prior_cov
    else:
        if factor is None:
            factor = observed_chol(ast, train, noise_var)
        cross = cross_cov_matrix(ast, train.xs, probe)
        solved = cho_solve((factor, True), train.ys)
        mean = cross.T @ solved
        half = solve_triangular(factor, cross, lower=True)
        cov = prior_cov - half.T @ half
    cov = 0.5 * (cov + cov.T)
    if noisy:
        cov = cov + noise_var * np.eye(probe.size)
    return GpPosterior(at=probe, mean=mean, cov=cov)


def sample_predictive(
    posterior: GpPosterior, rng: np.random.Generator, count: int
) -> np.ndarray:
    """Draw joint samples from a predictive Gaussian, shape (count, k).

    A predictive with an exactly zero covariance yields copies of the
    mean rather than a factorization attempt.
    """
    if count < 0:
        raise ValueError(f"count {count} must be non-negative")
    k = posterior.mean.size
    if count == 0:
        return np.empty((0, k))
    if not np.any(posterior.cov):
        return np.tile(posterior.mean, (count, 1))
    factor, _ = chol_with_jitter(posterior.cov)
    draws = rng.standard_normal((k, count))
    return (posterior.mean[:, None] + factor @ draws).T
