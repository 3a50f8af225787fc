"""Gaussian process marginal likelihood and prediction.

Observations are modeled as y ~ N(0, K + noise_var * I) where K is the
covariance matrix of a kernel tree over the inputs. All dense linear
algebra goes through one Cholesky helper with a fixed jitter ladder and
two solves against its factor.

The solves call LAPACK in the OpenBLAS numpy loads, so a command-line
process runs on that one OpenBLAS pool. Where that library's LAPACK
cannot be bound (a numpy built on another BLAS, or no /proc to find
it) they go through scipy, imported here so that its OpenBLAS is loaded
before the command line sets thread counts.
"""

from __future__ import annotations

import ctypes
import functools
import math
from dataclasses import dataclass

import numpy as np

from .blas import LAPACK_INT, lapack_solvers
from .errors import NumericError
from .kernels import KernelAst, build_cov_matrix, cross_cov_matrix, gap_table

DEFAULT_NOISE_VAR = 0.1

# Escalating diagonal jitter tried when a covariance fails to factor.
JITTER_LADDER = (0.0, 1e-8, 1e-7, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2)

_LOG_2PI = math.log(2.0 * math.pi)

_LAPACK = lapack_solvers()
if _LAPACK is None:
    from scipy import linalg as _scipy_linalg
else:
    _scipy_linalg = None


@dataclass(frozen=True)
class Dataset:
    """Paired observation vectors, validated and stored as float arrays.

    The arrays are the dataset's own read-only copies, so the gap table
    it keeps of its inputs always matches them.
    """

    xs: np.ndarray
    ys: np.ndarray

    def __post_init__(self):
        xs = np.array(self.xs, dtype=float)
        ys = np.array(self.ys, dtype=float)
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
        xs.flags.writeable = False
        ys.flags.writeable = False
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "ys", ys)

    def __len__(self) -> int:
        return int(self.xs.size)

    @functools.cached_property
    def gaps(self) -> tuple[np.ndarray, np.ndarray]:
        """`gap_table(xs, xs)`, made on first use and kept with the dataset.

        Every covariance and Jacobian built on the dataset's inputs
        gathers its stationary leaves through it.
        """
        return gap_table(self.xs, self.xs)


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


def cho_solve(factor: np.ndarray, rhs) -> np.ndarray:
    """Solve (L L^T) x = rhs for a lower Cholesky factor L."""
    return _solve(factor, rhs, cholesky=True)


def solve_lower(factor: np.ndarray, rhs) -> np.ndarray:
    """Solve L x = rhs for a lower triangular L."""
    return _solve(factor, rhs, cholesky=False)


def _solve(factor, rhs, cholesky: bool) -> np.ndarray:
    """scipy's input checks, then LAPACK `dpotrs` or `dtrtrs`, or scipy.

    Non-finite input or mismatched shapes raise ValueError, a zero on
    the factor's diagonal LinAlgError.
    """
    factor = np.ascontiguousarray(factor, dtype=float)
    rhs = np.asarray(rhs, dtype=float)
    n = factor.shape[0] if factor.ndim == 2 else -1
    if factor.shape != (n, n) or rhs.ndim not in (1, 2) or rhs.shape[0] != n:
        raise ValueError(f"cannot solve a {factor.shape} factor against {rhs.shape}")
    if not (np.isfinite(factor).all() and np.isfinite(rhs).all()):
        raise ValueError("factor and right-hand side must be finite")
    if not np.diagonal(factor).all():
        raise np.linalg.LinAlgError("singular factor: zero on its diagonal")
    if _scipy_linalg is not None:
        if cholesky:
            return _scipy_linalg.cho_solve((factor, True), rhs, check_finite=False)
        return _scipy_linalg.solve_triangular(
            factor, rhs, lower=True, check_finite=False
        )
    solution = np.array(rhs, order="F")  # LAPACK overwrites it in place
    if n == 0:
        return solution
    dpotrs, dtrtrs = _LAPACK
    size, count, info = LAPACK_INT(n), LAPACK_INT(solution.size // n), LAPACK_INT(0)
    ref = ctypes.byref
    a, b = factor.ctypes.data, solution.ctypes.data
    # C-order L is Fortran-order U = L^T: L L^T = U^T U, and L x = b is U^T x = b.
    if cholesky:
        dpotrs(b"U", ref(size), ref(count), a, ref(size), b, ref(size), ref(info), 1)
    else:
        dtrtrs(b"U", b"T", b"N", ref(size), ref(count), a, ref(size), b, ref(size),
               ref(info), 1, 1, 1)
    if info.value:
        raise ValueError(f"LAPACK solve rejected argument {-info.value}")
    return solution


def observed_chol(
    ast: KernelAst, data: Dataset, noise_var: float = DEFAULT_NOISE_VAR
) -> np.ndarray:
    """Lower Cholesky factor of the tree's covariance on `data` plus noise."""
    cov = build_cov_matrix(ast, data.xs, gaps=data.gaps)
    cov.flat[:: len(data) + 1] += noise_var
    factor, _ = chol_with_jitter(cov)
    return factor


def log_marginal_and_chol(
    ast: KernelAst,
    data: Dataset,
    noise_var: float = DEFAULT_NOISE_VAR,
    factor: np.ndarray | None = None,
) -> tuple[float, np.ndarray | None]:
    """Log marginal likelihood plus the Cholesky factor it used.

    The factor is reused by callers that go on to predict or to take
    gradient steps. `factor` is `observed_chol(ast, data, noise_var)`
    when the caller holds it already, for instance from another dataset
    on the same inputs; it is then returned as it is. An empty dataset
    scores 0 with no factor.
    """
    n = len(data)
    if n == 0:
        return 0.0, None
    if factor is None:
        factor = observed_chol(ast, data, noise_var)
    alpha = solve_lower(factor, data.ys)
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
        solved = cho_solve(factor, train.ys)
        mean = cross.T @ solved
        half = solve_lower(factor, cross)
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
