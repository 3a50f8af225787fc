"""Dense reference computations the benchmark checks the program against.

Everything here is written from the model's definitions, not from the
program's code paths: covariances are built entry formula by entry
formula from the nested-list form of a tree, the GP marginal uses an LU
log-determinant and solve instead of a Cholesky factor, and the
regression baseline solves its normal equations directly.
"""

from __future__ import annotations

import math

import numpy as np

NOISE_VAR = 0.1
CP_DECAY = 0.1
X_SPAN = 10.0

# The default grammar prior: P(branch), leaf kinds, operators, depth cap.
P_BRANCH = 0.3
KERNEL_WEIGHTS = {"WN": 0.2, "C": 0.2, "LIN": 0.2, "SE": 0.2, "PER": 0.2}
OPERATOR_WEIGHTS = {"+": 0.45, "*": 0.45, "CP": 0.10}
MAX_DEPTH = 10
# Every positive hyperparameter h has h - offset ~ Exponential(1).
HYPER_OFFSETS = {
    "WN": (0.0,),
    "C": (0.0,),
    "LIN": (0.0,),
    "SE": (0.01,),
    "PER": (0.01, 0.01),
    "+": (),
    "*": (),
    "CP": (0.0,),
}


def covariance(tree, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Covariance of a nested-list tree between two input vectors."""
    tag = tree[0]
    dx = xs[:, None] - ys[None, :]
    if tag == "WN":
        return np.where(dx == 0.0, tree[1], 0.0)
    if tag == "C":
        return np.full(dx.shape, float(tree[1]))
    if tag == "LIN":
        return (xs[:, None] - tree[1]) * (ys[None, :] - tree[1])
    if tag == "SE":
        return np.exp(-(dx**2) / (2.0 * tree[1] ** 2))
    if tag == "PER":
        return np.exp(-2.0 * np.sin(np.pi * np.abs(dx) / tree[2]) ** 2 / tree[1] ** 2)
    if tag == "+":
        return covariance(tree[1], xs, ys) + covariance(tree[2], xs, ys)
    if tag == "*":
        return covariance(tree[1], xs, ys) * covariance(tree[2], xs, ys)
    if tag == "CP":
        # The gate is 1 well before the location and 0 well after it.
        gx = 1.0 / (1.0 + np.exp((xs - tree[1]) / CP_DECAY))
        gy = 1.0 / (1.0 + np.exp((ys - tree[1]) / CP_DECAY))
        return np.outer(gx, gy) * covariance(tree[2], xs, ys) + np.outer(
            1.0 - gx, 1.0 - gy
        ) * covariance(tree[3], xs, ys)
    raise ValueError(f"unknown node tag {tag!r}")


def log_marginal(tree, xs: np.ndarray, ys: np.ndarray) -> tuple[float, float]:
    """GP log marginal likelihood plus the tolerance a comparison deserves.

    The tolerance is 1e-9 relative, widened by n * cond * 1e-13 for
    ill-conditioned covariances, where two correct dense evaluations can
    legitimately differ by that much. It stays far below the nats a stale
    score would be off by.
    """
    cov = covariance(tree, xs, xs) + NOISE_VAR * np.eye(xs.size)
    sign, logdet = np.linalg.slogdet(cov)
    if sign <= 0.0:
        raise ValueError(f"reference covariance of {tree!r} is not positive definite")
    value = -0.5 * float(ys @ np.linalg.solve(cov, ys)) - 0.5 * logdet
    value -= 0.5 * xs.size * math.log(2.0 * math.pi)
    cond_bound = float(np.max(np.sum(np.abs(cov), axis=1))) / NOISE_VAR
    tol = 1e-9 * max(1.0, abs(value)) + 1e-13 * xs.size * cond_bound
    return value, tol


def log_prior(tree, node: int = 1) -> float:
    """Grammar log prior of a nested-list tree, hyperparameters included.

    A node at the depth cap is a leaf by force and pays no stop factor.
    """
    at_cap = node.bit_length() >= MAX_DEPTH
    tag = tree[0]
    if tag in OPERATOR_WEIGHTS:
        if at_cap:
            return -math.inf
        total = math.log(P_BRANCH) + math.log(OPERATOR_WEIGHTS[tag])
        children = tree[2:] if tag == "CP" else tree[1:]
        hypers = tree[1:2] if tag == "CP" else []
        total += log_prior(children[0], 2 * node) + log_prior(children[1], 2 * node + 1)
    else:
        total = 0.0 if at_cap else math.log(1.0 - P_BRANCH)
        total += math.log(KERNEL_WEIGHTS[tag])
        hypers = tree[1:]
    for value, offset in zip(hypers, HYPER_OFFSETS[tag], strict=True):
        total -= value - offset
    return total


def standardize(xs: np.ndarray, ys: np.ndarray, all_xs, all_ys):
    """Map inputs onto [0, 10] and outputs to zero mean, unit variance,
    with the transform fitted on (all_xs, all_ys)."""
    lo, hi = float(np.min(all_xs)), float(np.max(all_xs))
    mean, scale = float(np.mean(all_ys)), float(np.std(all_ys))
    return (xs - lo) * (X_SPAN / (hi - lo)), (ys - mean) / scale


def tail_split(xs: np.ndarray, ys: np.ndarray, fraction: float):
    """Hold out the largest round(fraction * n) inputs."""
    order = np.argsort(xs, kind="stable")
    cut = xs.size - int(round(fraction * xs.size))
    keep, held = order[:cut], order[cut:]
    return (xs[keep], ys[keep]), (xs[held], ys[held])


def nig_predictive(train_xs, train_ys, probe_xs) -> tuple[np.ndarray, np.ndarray]:
    """Student-t predictive mean and variance of intercept-and-slope
    regression under the normal-inverse-gamma prior N(0, sigma^2 I) on
    the coefficients and InvGamma(1, 1) on sigma^2."""
    design = np.column_stack([np.ones(train_xs.size), train_xs])
    precision = np.eye(2) + design.T @ design
    coef = np.linalg.solve(precision, design.T @ train_ys)
    shape = 1.0 + 0.5 * train_xs.size
    rate = 1.0 + 0.5 * float(train_ys @ train_ys - coef @ precision @ coef)
    probe = np.column_stack([np.ones(probe_xs.size), probe_xs])
    leverage = np.sum(probe * np.linalg.solve(precision, probe.T).T, axis=1)
    return probe @ coef, rate * (1.0 + leverage) / (shape - 1.0)
