"""Gaussian process marginal likelihood and prediction.

Observations are modeled as y ~ N(0, K + noise_var * I) where K is the
covariance matrix of a kernel tree over the inputs. All dense linear
algebra goes through one Cholesky helper with a fixed jitter ladder,
two solves against its factor, and the inverse A^{-1} = (L L^T)^{-1}
the likelihood's gradient contracts against (`_inverse_fresh`, LAPACK
`dpotri`). The public solves check their input as scipy does; the
likelihood and its gradient solve against factors `chol_with_jitter`
has just made, and skip those checks.

The solves and the inverse call LAPACK in the OpenBLAS numpy loads, so
numpy and that one OpenBLAS pool are the program's whole numerical
stack. Where that library's LAPACK cannot be bound (a numpy built on
another BLAS, or no /proc to find it) they go through `numpy.linalg`
instead, whose results differ from the bound routines' in the last
digits.
"""

from __future__ import annotations

import ctypes
import functools
import math
from dataclasses import dataclass

import numpy as np

from .blas import LAPACK_INT, lapack_solvers
from .errors import NumericError
from .kernels import KernelAst, build_cov_matrix, cov_diagonal, cross_cov_matrix, gap_table

DEFAULT_NOISE_VAR = 0.1

# Escalating diagonal jitter tried when a covariance fails to factor.
JITTER_LADDER = (0.0, 1e-8, 1e-7, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2)

_LOG_2PI = math.log(2.0 * math.pi)

_LAPACK = lapack_solvers()


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
    """Pointwise predictive mean and variance at a set of probe points."""

    mean: np.ndarray
    variance: np.ndarray


def chol_with_jitter(matrix: np.ndarray) -> tuple[np.ndarray, float]:
    """Lower Cholesky factor, retrying up the jitter ladder.

    Returns the factor together with the jitter that succeeded. Raises
    NumericError once the ladder is exhausted.
    """
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError(f"cannot factor an array of shape {matrix.shape}: not square")
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
        f"covariance not positive definite after jitter up to {JITTER_LADDER[-1]:g}"
    )


def cho_solve(factor: np.ndarray, rhs) -> np.ndarray:
    """Solve (L L^T) x = rhs for a lower Cholesky factor L."""
    return _solve_fresh(*_checked(factor, rhs), cholesky=True)


def solve_lower(factor: np.ndarray, rhs) -> np.ndarray:
    """Solve L x = rhs for a lower triangular L."""
    return _solve_fresh(*_checked(factor, rhs), cholesky=False)


def _checked(factor, rhs) -> tuple[np.ndarray, np.ndarray]:
    """scipy's input checks on a factor and a right-hand side.

    Non-finite input or mismatched shapes raise ValueError, a zero on
    the factor's diagonal LinAlgError. Returns both as float arrays.
    """
    factor = np.asarray(factor, dtype=float)
    rhs = np.asarray(rhs, dtype=float)
    _solve_size(factor, rhs)
    if not (np.isfinite(factor).all() and np.isfinite(rhs).all()):
        raise ValueError("factor and right-hand side must be finite")
    if not np.diagonal(factor).all():
        raise np.linalg.LinAlgError("singular factor: zero on its diagonal")
    return factor, rhs


def _solve_size(factor: np.ndarray, rhs: np.ndarray) -> int:
    """n for an (n, n) factor and a right-hand side of n rows, else ValueError."""
    n = factor.shape[0] if factor.ndim == 2 else -1
    if factor.shape != (n, n) or rhs.ndim not in (1, 2) or rhs.shape[0] != n:
        raise ValueError(f"cannot solve a {factor.shape} factor against {rhs.shape}")
    return n


def _solve_fresh(factor: np.ndarray, rhs: np.ndarray, cholesky: bool) -> np.ndarray:
    """LAPACK `dpotrs` (`cholesky`) or `dtrtrs` against a sound factor, or numpy.

    The factor must be finite with no zero on its diagonal, as one from
    `chol_with_jitter` is. Only the shapes are checked here, since LAPACK
    reads both arrays by address; callers that cannot vouch for the
    values go through `cho_solve` or `solve_lower`.
    """
    factor = np.ascontiguousarray(factor, dtype=float)
    n = _solve_size(factor, rhs)
    solution = np.array(rhs, dtype=float, order="F")  # LAPACK overwrites it in place
    if n == 0:
        return solution
    if _LAPACK is None:
        solution = np.linalg.solve(factor, solution)
        return np.linalg.solve(factor.T, solution) if cholesky else solution
    dpotrs, dtrtrs, _ = _LAPACK
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


def _inverse_fresh(factor: np.ndarray) -> np.ndarray:
    """(L L^T)^{-1} for a sound lower factor L, by LAPACK `dpotri`, or numpy.

    The factor must be as `_solve_fresh` asks, and is left as it is.
    `dpotri` writes one triangle of the inverse, in a third of the flops
    a solve against the identity takes; mirroring it makes the result
    exactly symmetric.
    """
    factor = np.ascontiguousarray(factor, dtype=float)
    n = _solve_size(factor, factor)
    if n == 0:
        return np.empty((0, 0))
    if _LAPACK is None:
        inv = np.linalg.inv(factor)
        inverse = np.tril(inv.T @ inv)
    else:
        # C-order L is Fortran-order U, which dpotri overwrites with the
        # upper triangle of (U^T U)^{-1}: in C order, the lower one.
        inverse = np.tril(factor)
        size, info = LAPACK_INT(n), LAPACK_INT(0)
        _LAPACK[2](b"U", ctypes.byref(size), inverse.ctypes.data, ctypes.byref(size),
                   ctypes.byref(info), 1)
        if info.value:
            raise ValueError(f"LAPACK dpotri failed with info {info.value}")
    inverse += np.tril(inverse, -1).T
    return inverse


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
        alpha = _solve_fresh(factor, data.ys, cholesky=False)
    else:
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
    factor: np.ndarray | None = None,
) -> GpPosterior:
    """Latent function's posterior mean and variance at probe points.

    A new observation at a probe point has variance `noise_var` more.
    `factor` is `observed_chol(ast, train, noise_var)` when the caller
    holds it already, for instance to predict several probe sets.
    """
    probe = np.asarray(probe_xs, dtype=float)
    if probe.ndim != 1 or probe.size == 0:
        raise ValueError("probe inputs must be a non-empty vector")
    variance = cov_diagonal(ast, probe)
    if len(train) == 0:
        return GpPosterior(mean=np.zeros(probe.size), variance=variance)
    if factor is None:
        factor = observed_chol(ast, train, noise_var)
    cross = cross_cov_matrix(ast, train.xs, probe)
    mean = cross.T @ cho_solve(factor, train.ys)
    half = solve_lower(factor, cross)
    return GpPosterior(mean=mean, variance=variance - np.einsum("ij,ij->j", half, half))
