"""Tree prior: sampling, log densities, and their mutual consistency."""

import itertools
import math

import numpy as np
import pytest
from scipy import stats

from covsearch.kernels import (
    BaseKernel,
    KernelAst,
    NodeBundle,
    Operator,
    hyper_sites,
    node_depth,
    replace_subtree,
    structure_label,
    validate_nodes,
    with_hyper,
)
from covsearch.prior import (
    PriorConfig,
    ast_log_prior,
    sample_ast,
    sample_hyper,
    sample_subtree,
    subtree_log_prior,
    unconstrained_log_prior,
    unconstrained_log_prior_grad,
)

from conftest import leaf, tree


# ---------------------------------------------------------------------------
# Configuration validation


def test_default_config_values():
    cfg = PriorConfig()
    assert cfg.p_branch == 0.3
    assert cfg.kernel_weights == (0.2,) * 5
    assert cfg.operator_weights == (0.45, 0.45, 0.10)
    assert cfg.max_depth == 10


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(p_branch=1.5),
        dict(p_branch=-0.1),
        dict(kernel_weights=(0.5, 0.5)),
        dict(kernel_weights=(0.3, 0.3, 0.3, 0.3, 0.3)),
        dict(kernel_weights=(0.6, 0.6, -0.2, 0.0, 0.0)),
        dict(operator_weights=(1.0, 0.0)),
        dict(operator_weights=(0.5, 0.4, 0.2)),
        dict(max_depth=0),
    ],
)
def test_config_rejects_bad_values(kwargs):
    with pytest.raises(ValueError):
        PriorConfig(**kwargs)


# ---------------------------------------------------------------------------
# Sampling invariants


def test_samples_are_valid_and_depth_capped():
    cfg = PriorConfig(p_branch=0.6, max_depth=4)
    gen = np.random.default_rng(3)
    seen_branch = False
    for _ in range(300):
        ast = sample_ast(cfg, gen)
        validate_nodes(ast.nodes)
        assert max(node_depth(n) for n in ast.nodes) <= 4
        seen_branch = seen_branch or any(b.is_branch for b in ast.nodes.values())
    assert seen_branch


def test_internal_edits_keep_trees_valid():
    # replace_subtree and with_hyper check nothing: what they splice in
    # is valid by construction, so every tree a chain of such edits
    # reaches must pass the full check.
    cfg = PriorConfig(p_branch=0.6, max_depth=4)
    gen = np.random.default_rng(17)
    ast = sample_ast(cfg, gen)
    spliced_branches = 0
    for _ in range(2000):
        nodes = sorted(ast.nodes)
        target = nodes[int(gen.integers(len(nodes)))]
        regrown = sample_subtree(cfg, target, gen)
        spliced_branches += regrown[target].is_branch
        ast = replace_subtree(ast, target, regrown)
        validate_nodes(ast.nodes)
        sites = hyper_sites(ast)
        if sites:
            node, slot = sites[int(gen.integers(len(sites)))]
            site = sample_hyper(gen, ast.nodes[node].hypers[slot].offset)
            ast = with_hyper(ast, node, slot, site)
            validate_nodes(ast.nodes)
    assert spliced_branches > 100


def test_zero_weight_kinds_never_sampled():
    cfg = PriorConfig(
        p_branch=0.5,
        kernel_weights=(0.5, 0.5, 0.0, 0.0, 0.0),
        operator_weights=(1.0, 0.0, 0.0),
        max_depth=3,
    )
    gen = np.random.default_rng(4)
    for _ in range(200):
        ast = sample_ast(cfg, gen)
        for bundle in ast.nodes.values():
            if bundle.is_branch:
                assert bundle.kind is Operator.SUM
            else:
                assert bundle.kind in (BaseKernel.WN, BaseKernel.C)


def test_sample_subtree_rooted_anywhere():
    cfg = PriorConfig(max_depth=4)
    gen = np.random.default_rng(5)
    nodes = sample_subtree(cfg, 5, gen)
    assert 5 in nodes
    assert all(node_depth(n) <= 4 for n in nodes)
    # indices all live inside the subtree of 5
    for index in nodes:
        walk = index
        while walk > 5:
            walk //= 2
        assert walk == 5


def test_sample_hyper_support_and_mean():
    gen = np.random.default_rng(6)
    draws = np.array([sample_hyper(gen, 0.01).constrained for _ in range(30_000)])
    assert draws.min() > 0.01
    assert np.mean(draws - 0.01) == pytest.approx(1.0, abs=0.03)


# ---------------------------------------------------------------------------
# Log density, closed forms


def hyper_term(ast):
    return sum(
        -(ast.nodes[n].hypers[s].constrained - ast.nodes[n].hypers[s].offset)
        for n, s in hyper_sites(ast)
    )


def test_leaf_log_prior_closed_form():
    cfg = PriorConfig()
    ast = leaf("SE", 1.51)
    want = math.log(0.7) + math.log(0.2) - (1.51 - 0.01)
    assert ast_log_prior(cfg, ast) == pytest.approx(want, rel=1e-12)


def test_branch_log_prior_closed_form():
    cfg = PriorConfig()
    ast = tree(["+", ["WN", 0.5], ["C", 1.25]])
    want = (
        math.log(0.3)
        + math.log(0.45)
        + 2 * (math.log(0.7) + math.log(0.2))
        - 0.5
        - 1.25
    )
    assert ast_log_prior(cfg, ast) == pytest.approx(want, rel=1e-12)


def test_changepoint_log_prior_includes_location():
    cfg = PriorConfig()
    ast = tree(["CP", 2.0, ["WN", 0.5], ["C", 1.0]])
    want = (
        math.log(0.3)
        + math.log(0.10)
        - 2.0
        + 2 * (math.log(0.7) + math.log(0.2))
        - 0.5
        - 1.0
    )
    assert ast_log_prior(cfg, ast) == pytest.approx(want, rel=1e-12)


def test_forced_leaf_at_cap_drops_the_stop_factor():
    cfg = PriorConfig(max_depth=1)
    ast = leaf("WN", 0.5)
    # no branch/leaf choice left at the cap, only the kernel pick
    want = math.log(0.2) - 0.5
    assert ast_log_prior(cfg, ast) == pytest.approx(want, rel=1e-12)


def test_branch_at_cap_is_impossible():
    cfg = PriorConfig(max_depth=1)
    ast = tree(["+", ["WN", 0.5], ["C", 1.0]])
    assert ast_log_prior(cfg, ast) == -math.inf


def test_deep_leaves_forced_below_cap():
    # at depth 2 with max_depth=2 both children are forced leaves
    cfg = PriorConfig(max_depth=2)
    ast = tree(["+", ["WN", 0.5], ["C", 1.0]])
    want = math.log(0.3) + math.log(0.45) + 2 * math.log(0.2) - 0.5 - 1.0
    assert ast_log_prior(cfg, ast) == pytest.approx(want, rel=1e-12)


def test_zero_weight_structure_scores_minus_inf():
    cfg = PriorConfig(kernel_weights=(1.0, 0.0, 0.0, 0.0, 0.0))
    assert ast_log_prior(cfg, leaf("C", 1.0)) == -math.inf


def test_subtree_log_prior_decomposes():
    cfg = PriorConfig()
    ast = tree(["+", ["SE", 1.51], ["*", ["C", 1.0], ["WN", 0.3]]])
    total = ast_log_prior(cfg, ast)
    head = math.log(0.3) + math.log(0.45)  # the root's own factors
    left = subtree_log_prior(cfg, ast.nodes, 2)
    right = subtree_log_prior(cfg, ast.nodes, 3)
    assert total == pytest.approx(head + left + right, rel=1e-12)


# ---------------------------------------------------------------------------
# Structure distribution: enumeration and sampling agree


def _enumerate_structures(cfg):
    """All (nested-shape, probability) pairs of a finite grammar.

    Hyper values are irrelevant here: each hyper integrates to one, so
    structure probabilities come out exact. Kernels and operators with
    zero weight are skipped.
    """
    kinds = [
        (tag, w)
        for tag, w in zip(("WN", "C", "LIN", "SE", "PER"), cfg.kernel_weights)
        if w > 0
    ]
    ops = [
        (tag, w)
        for tag, w in zip(("+", "*", "CP"), cfg.operator_weights)
        if w > 0
    ]

    def expand(depth):
        forced = depth >= cfg.max_depth
        stop = 1.0 if forced else (1.0 - cfg.p_branch)
        for tag, w in kinds:
            yield (tag,), stop * w
        if forced:
            return
        for tag, w in ops:
            for left, pl in expand(depth + 1):
                for right, pr in expand(depth + 1):
                    yield (tag, left, right), cfg.p_branch * w * pl * pr

    return list(expand(1))


def _shape_tree(shape):
    """Turn an enumerated shape into a tree with dummy hypers."""
    fills = {"WN": [0.5], "C": [0.5], "LIN": [0.5], "SE": [0.51], "PER": [0.51, 0.51]}
    if len(shape) == 1:
        return [shape[0], *fills[shape[0]]]
    if shape[0] == "CP":
        return ["CP", 0.5, _shape_tree(shape[1]), _shape_tree(shape[2])]
    return [shape[0], _shape_tree(shape[1]), _shape_tree(shape[2])]


def test_enumerated_structure_mass_is_one():
    cfg = PriorConfig(
        kernel_weights=(0.5, 0.5, 0.0, 0.0, 0.0),
        operator_weights=(0.5, 0.5, 0.0),
        max_depth=3,
    )
    structures = _enumerate_structures(cfg)
    assert sum(p for _, p in structures) == pytest.approx(1.0, rel=1e-12)


def test_enumeration_matches_log_prior():
    cfg = PriorConfig(
        kernel_weights=(0.5, 0.5, 0.0, 0.0, 0.0),
        operator_weights=(0.5, 0.3, 0.2),
        max_depth=2,
    )
    for shape, prob in _enumerate_structures(cfg):
        ast = tree(_shape_tree(shape))
        got = ast_log_prior(cfg, ast) - hyper_term(ast)
        assert got == pytest.approx(math.log(prob), rel=1e-12)


def test_sampler_matches_enumeration():
    cfg = PriorConfig(
        kernel_weights=(0.5, 0.5, 0.0, 0.0, 0.0),
        operator_weights=(0.5, 0.5, 0.0),
        max_depth=2,
    )
    target = {}
    for shape, prob in _enumerate_structures(cfg):
        label = structure_label(tree(_shape_tree(shape)))
        target[label] = target.get(label, 0.0) + prob
    gen = np.random.default_rng(7)
    draws = 40_000
    counts = {}
    for _ in range(draws):
        label = structure_label(sample_ast(cfg, gen))
        counts[label] = counts.get(label, 0) + 1
    assert set(counts) <= set(target)
    tv = 0.5 * sum(
        abs(counts.get(lab, 0) / draws - p) for lab, p in target.items()
    )
    assert tv < 0.02


# ---------------------------------------------------------------------------
# Unconstrained coordinates


def test_unconstrained_log_prior_is_logistic():
    ast = tree(["*", ["SE", 1.51], ["PER", 0.91, 2.5]])
    ts = [
        ast.nodes[n].hypers[s].unconstrained for n, s in hyper_sites(ast)
    ]
    want = sum(stats.logistic.logpdf(t) for t in ts)
    assert unconstrained_log_prior(ast) == pytest.approx(want, rel=1e-12)


def test_unconstrained_grad_matches_fd():
    for t in (-3.0, -0.4, 0.0, 1.2, 8.0):
        eps = 1e-6
        fd = (stats.logistic.logpdf(t + eps) - stats.logistic.logpdf(t - eps)) / (
            2 * eps
        )
        assert unconstrained_log_prior_grad(t) == pytest.approx(fd, abs=1e-9)
