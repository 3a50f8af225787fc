"""Generative prior over kernel trees.

Trees grow top down. At each node below the depth cap a biased coin
decides between branching and stopping at a leaf; nodes at the cap are
always leaves. Leaf kinds and operators are drawn from fixed simplexes,
and every positive hyperparameter is drawn by pushing a standard
Logistic variate through the softplus link, which makes h - offset a
unit Exponential.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .kernels import (
    HYPER_OFFSETS,
    BaseKernel,
    HyperSite,
    KernelAst,
    NodeBundle,
    Operator,
    node_depth,
)

KERNEL_ORDER = (
    BaseKernel.WN,
    BaseKernel.C,
    BaseKernel.LIN,
    BaseKernel.SE,
    BaseKernel.PER,
)
OPERATOR_ORDER = (Operator.SUM, Operator.PRODUCT, Operator.CHANGEPOINT)


@dataclass(frozen=True)
class PriorConfig:
    """Weights and caps defining the tree prior."""

    p_branch: float = 0.3
    kernel_weights: tuple[float, ...] = (0.2, 0.2, 0.2, 0.2, 0.2)
    operator_weights: tuple[float, float, float] = (0.45, 0.45, 0.10)
    max_depth: int = 10

    def __post_init__(self):
        if not 0.0 <= self.p_branch < 1.0:
            raise ValueError(f"p_branch {self.p_branch} outside [0, 1)")
        object.__setattr__(self, "kernel_weights", tuple(self.kernel_weights))
        object.__setattr__(self, "operator_weights", tuple(self.operator_weights))
        for name, weights, size in (
            ("kernel_weights", self.kernel_weights, len(KERNEL_ORDER)),
            ("operator_weights", self.operator_weights, len(OPERATOR_ORDER)),
        ):
            if len(weights) != size:
                raise ValueError(f"{name} needs {size} entries")
            if any(w < 0.0 for w in weights):
                raise ValueError(f"{name} has a negative entry")
            if abs(sum(weights) - 1.0) > 1e-9:
                raise ValueError(f"{name} must sum to 1")
        if not (isinstance(self.max_depth, int) and self.max_depth >= 1):
            raise ValueError(f"max_depth {self.max_depth!r} must be a positive int")


def _pick(rng: np.random.Generator, weights: tuple[float, ...]) -> int:
    u = rng.uniform()
    acc = 0.0
    last = 0
    for i, w in enumerate(weights):
        if w <= 0.0:
            continue
        acc += w
        last = i
        if u < acc:
            return i
    return last


def _open_uniform(rng: np.random.Generator) -> float:
    u = rng.uniform()
    while u <= 0.0:
        u = rng.uniform()
    return u


def sample_hyper(rng: np.random.Generator, offset: float = 0.0) -> HyperSite:
    """Draw one hyperparameter site from its prior."""
    u = _open_uniform(rng)
    t = math.log(u) - math.log1p(-u)
    return HyperSite.from_unconstrained(t, offset)


def _sample_into(
    cfg: PriorConfig,
    node: int,
    rng: np.random.Generator,
    out: dict[int, NodeBundle],
) -> None:
    at_cap = node_depth(node) >= cfg.max_depth
    if not at_cap and rng.uniform() < cfg.p_branch:
        kind = OPERATOR_ORDER[_pick(rng, cfg.operator_weights)]
    else:
        kind = KERNEL_ORDER[_pick(rng, cfg.kernel_weights)]
    hypers = tuple(sample_hyper(rng, off) for off in HYPER_OFFSETS[kind])
    out[node] = NodeBundle(kind, hypers)
    if out[node].is_branch:
        _sample_into(cfg, 2 * node, rng, out)
        _sample_into(cfg, 2 * node + 1, rng, out)


def sample_subtree(
    cfg: PriorConfig, node: int, rng: np.random.Generator
) -> dict[int, NodeBundle]:
    """Draw a subtree rooted at an arbitrary heap index.

    The depth cap applies to absolute depth, so a subtree drawn at a
    deep index is forced shallow exactly as the full prior would force
    it. Used by resimulation proposals.
    """
    out: dict[int, NodeBundle] = {}
    _sample_into(cfg, node, rng, out)
    return out


def sample_ast(cfg: PriorConfig, rng: np.random.Generator) -> KernelAst:
    """Draw a complete tree from the prior."""
    return KernelAst(sample_subtree(cfg, 1, rng))


def _log(w: float) -> float:
    return math.log(w) if w > 0.0 else -math.inf


def _hyper_log_prior(site: HyperSite) -> float:
    gap = site.constrained - site.offset
    if gap <= 0.0 or not math.isfinite(gap):
        return -math.inf
    return -gap


def subtree_log_prior(
    cfg: PriorConfig, nodes: Mapping[int, NodeBundle], node: int = 1
) -> float:
    """Log prior density of the subtree rooted at `node`.

    Structures outside the truncated support score -inf. A forced leaf
    at the depth cap contributes no branch factor.
    """
    bundle = nodes.get(node)
    if bundle is None:
        return -math.inf
    at_cap = node_depth(node) >= cfg.max_depth
    total = 0.0
    if bundle.is_branch:
        if at_cap:
            return -math.inf
        total += _log(cfg.p_branch)
        total += _log(cfg.operator_weights[OPERATOR_ORDER.index(bundle.kind)])
        total += subtree_log_prior(cfg, nodes, 2 * node)
        total += subtree_log_prior(cfg, nodes, 2 * node + 1)
    else:
        if not at_cap:
            total += _log(1.0 - cfg.p_branch)
        total += _log(cfg.kernel_weights[KERNEL_ORDER.index(bundle.kind)])
    for site in bundle.hypers:
        total += _hyper_log_prior(site)
    return total


def ast_log_prior(cfg: PriorConfig, ast: KernelAst) -> float:
    """Log prior density of a complete tree."""
    return subtree_log_prior(cfg, ast.nodes)


def unconstrained_log_prior(ast: KernelAst) -> float:
    """Sum of standard-Logistic log densities over all unconstrained sites.

    This is the hyper prior in the coordinates gradient steps move in;
    it differs from the Exponential form by the Jacobian of the link.
    The library needs only its gradient. It stays public as the
    reference that gradient is tested against: directly in test_prior,
    and inside the finite-difference objective of the gradient sweep in
    test_inference and test_acceptance (criterion 01).
    """
    total = 0.0
    for bundle in ast.nodes.values():
        for site in bundle.hypers:
            t = site.unconstrained
            total += -abs(t) - 2.0 * math.log1p(math.exp(-abs(t)))
    return total


def unconstrained_log_prior_grad(t: float) -> float:
    """d/dt of the standard Logistic log density."""
    return -math.tanh(0.5 * t)
