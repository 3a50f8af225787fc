"""Conjugate Bayesian linear regression reference model.

Intercept-and-slope regression under a normal-inverse-gamma prior with
unit ridge precision, zero coefficient mean, and shape and rate both 1.
The posterior predictive is Student-t; prediction reports its mean and
variance so it slots into the same plumbing as the GP models.
"""

from __future__ import annotations

import numpy as np

from .gp import Dataset, GpPosterior, cho_solve


def _design(xs: np.ndarray) -> np.ndarray:
    xs = np.asarray(xs, dtype=float)
    return np.column_stack([np.ones(xs.size), xs])


def nig_posterior(train: Dataset) -> tuple[np.ndarray, np.ndarray, float, float]:
    """Posterior (coef mean, coef precision, shape, rate) from the data."""
    design = _design(train.xs)
    precision = np.eye(2) + design.T @ design
    coef_mean = cho_solve(np.linalg.cholesky(precision), design.T @ train.ys)
    shape = 1.0 + 0.5 * len(train)
    rate = 1.0 + 0.5 * float(
        train.ys @ train.ys - coef_mean @ precision @ coef_mean
    )
    return coef_mean, precision, shape, rate


def blr_baseline(train: Dataset, probe_xs) -> GpPosterior:
    """Student-t predictive mean and variance at the probe points.

    The variance requires shape > 1, which holds whenever the training
    set is non-empty.
    """
    probe = np.asarray(probe_xs, dtype=float)
    if probe.ndim != 1 or probe.size == 0:
        raise ValueError("probe inputs must be a non-empty vector")
    if len(train) == 0:
        raise ValueError("baseline needs at least one training point")
    coef_mean, precision, shape, rate = nig_posterior(train)
    probe_design = _design(probe)
    mean = probe_design @ coef_mean
    solved = cho_solve(np.linalg.cholesky(precision), probe_design.T)
    leverage = np.einsum("ij,ji->i", probe_design, solved)
    variance = rate * (1.0 + leverage) / (shape - 1.0)
    return GpPosterior(mean=mean, variance=variance)
