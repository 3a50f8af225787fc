"""Structure MH, hyperparameter moves, gradients, and schedules."""

import math
from dataclasses import replace

import numpy as np
import pytest
from scipy import integrate, stats
from scipy.special import expit

from covsearch.errors import NumericError, UnsupportedMoveError
from covsearch.gp import Dataset, log_marginal
from covsearch.inference import (
    PosteriorSample,
    ScheduleConfig,
    TraceState,
    averaged_prediction,
    averaged_predictions,
    drop_burn_in,
    gradient_sites,
    gradient_step_hypers,
    gradient_supported,
    hyper_gradients,
    map_structure,
    mh_hyper_step,
    mh_structure_step,
    run_hyper_inference,
    run_schedule,
    structure_histogram,
    sweep_moves,
)
from covsearch.kernels import hyper_sites, structure_label, with_hyper, HyperSite
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

from conftest import gp_draw, leaf, toy_data, tree

EMPTY = Dataset(np.empty(0), np.empty(0))


def new_state(ast, data, prior=None, seed=0, noise_var=0.1):
    prior = prior if prior is not None else PriorConfig()
    return TraceState.init(ast, data, prior, np.random.default_rng(seed), noise_var)


# ---------------------------------------------------------------------------
# Config


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(sweeps=-1),
        dict(chains=0),
        dict(burn_in=1.0),
        dict(burn_in=-0.2),
        dict(hyper_mode="sgd"),
        dict(step_size=-0.5),
    ],
)
def test_schedule_config_rejects_bad_values(kwargs):
    with pytest.raises(ValueError):
        ScheduleConfig(**kwargs)


def test_trace_state_accepts_single_or_many_datasets():
    ast = leaf("C", 1.0)
    one = new_state(ast, toy_data(seed=1, n=4))
    two = new_state(ast, [toy_data(seed=1, n=4), toy_data(seed=2, n=3)])
    assert len(one.datasets) == 1
    assert len(two.datasets) == 2
    want = sum(log_marginal(ast, ds) for ds in two.datasets)
    assert two.log_likelihood == pytest.approx(want, rel=1e-12)


def test_datasets_on_one_grid_share_one_factor(monkeypatch):
    import covsearch.gp as gp

    ast = tree(["+", ["SE", 1.5], ["PER", 0.9, 2.0]])
    grid = toy_data(seed=4, n=5).xs
    series = [
        Dataset(grid, toy_data(seed=5, n=5).ys),
        toy_data(seed=6, n=5),
        Dataset(grid.copy(), toy_data(seed=7, n=5).ys),
    ]
    factored = []
    factor_of = gp.observed_chol

    def counted(ast, data, noise_var):
        factored.append(data)
        return factor_of(ast, data, noise_var)

    monkeypatch.setattr(gp, "observed_chol", counted)
    state = new_state(ast, series)
    assert len(factored) == 2
    assert factored[0] is series[0] and factored[1] is series[1]
    assert state.chols[0] is state.chols[2]
    assert state.chols[0] is not state.chols[1]
    for data, value, factor in zip(series, state.log_likelihoods, state.chols):
        assert value == log_marginal(ast, data)
        assert np.array_equal(factor, factor_of(ast, data, 0.1))


def test_trace_state_caches_stay_coherent():
    state = new_state(sample_ast(PriorConfig(), np.random.default_rng(8)), toy_data(seed=3, n=6), seed=9)
    for _ in range(60):
        mh_structure_step(state)
        mh_hyper_step(state)
    cached_ll, cached_lp = state.log_likelihood, state.log_prior
    state.refresh()
    assert state.log_likelihood == cached_ll
    assert state.log_prior == cached_lp


# ---------------------------------------------------------------------------
# Structure moves


def test_structure_step_always_accepts_when_nothing_changes():
    # one-kernel grammar, depth cap 1: every proposal is the same shape
    # and the data are empty, so the acceptance ratio is exactly 1
    grammar = PriorConfig(kernel_weights=(1.0, 0.0, 0.0, 0.0, 0.0), max_depth=1)
    state = new_state(sample_ast(grammar, np.random.default_rng(1)), EMPTY, grammar, seed=2)
    for _ in range(100):
        mh_structure_step(state)
    assert state.stats.get("structure_accept", 0) == 100


def test_size_correction_prefers_small_trees():
    # empty data, sum-only grammar: a leaf-to-branch replacement at the
    # root carries acceptance probability (leaf size)/(branch size) = 1/3
    grammar = PriorConfig(
        p_branch=0.5,
        kernel_weights=(1.0, 0.0, 0.0, 0.0, 0.0),
        operator_weights=(1.0, 0.0, 0.0),
        max_depth=2,
    )
    gen = np.random.default_rng(10)
    start = leaf("WN", 0.5)
    trials = 4000
    hits = 0
    for _ in range(trials):
        state = TraceState.init(start, EMPTY, grammar, gen)
        mh_structure_step(state)
        hits += state.ast.nodes[1].is_branch
    assert hits / trials == pytest.approx(0.5 / 3.0, abs=0.02)


def test_resimulation_acceptance_is_a_bare_likelihood_ratio():
    # prior and proposal factors cancel exactly for a fixed target node
    cfg = PriorConfig()
    gen = np.random.default_rng(12)
    data = toy_data(seed=13, n=6)
    checked = 0
    while checked < 200:
        current = sample_ast(cfg, gen)
        node = int(gen.choice(sorted(current.nodes)))
        replacement = sample_subtree(cfg, node, gen)
        from covsearch.kernels import replace_subtree

        proposal = replace_subtree(current, node, replacement)
        lp_cur = ast_log_prior(cfg, current)
        lp_new = ast_log_prior(cfg, proposal)
        q_fwd = subtree_log_prior(cfg, proposal.nodes, node)
        q_rev = subtree_log_prior(cfg, current.nodes, node)
        # T -> T' five factors: prior ratio times proposal ratio; the
        # likelihood ratio is shared, so everything else must vanish
        residual = (lp_new - lp_cur) - (q_fwd - q_rev)
        assert residual == pytest.approx(0.0, abs=1e-10)
        checked += 1


def test_structure_chain_leaves_prior_invariant_on_empty_data():
    grammar = PriorConfig(
        p_branch=0.4,
        kernel_weights=(0.5, 0.5, 0.0, 0.0, 0.0),
        operator_weights=(1.0, 0.0, 0.0),
        max_depth=2,
    )
    from test_prior import _enumerate_structures, _shape_tree

    target = {}
    for shape, prob in _enumerate_structures(grammar):
        label = structure_label(tree(_shape_tree(shape)))
        target[label] = target.get(label, 0.0) + prob
    gen = np.random.default_rng(14)
    state = TraceState.init(sample_ast(grammar, gen), EMPTY, grammar, gen)
    counts = {}
    steps = 40_000
    for _ in range(steps):
        mh_structure_step(state)
        label = structure_label(state.ast)
        counts[label] = counts.get(label, 0) + 1
    tv = 0.5 * sum(
        abs(counts.get(lab, 0) / steps - p) for lab, p in target.items()
    )
    assert tv < 0.02


def batch_z(values, exact, batches=50):
    """z of the mean of a correlated series against `exact`, by batch means."""
    values = np.asarray(values, dtype=float)
    means = values[: values.size // batches * batches].reshape(batches, -1).mean(axis=1)
    return (means.mean() - exact) / (means.std(ddof=1) / math.sqrt(batches))


def test_mh_sweep_keeps_the_prior_under_joint_simulation():
    # Geweke's successive-conditional check: draw y from the current
    # tree's GP, then take one `mh` sweep given y. A sweep that leaves
    # every posterior invariant keeps the trees at their prior, so the
    # label masses and mean |T| match the enumeration, and the mean over
    # sites of u = logistic(t), the uniform behind each hyper, is 1/2.
    # Without the |T| / |T'| correction: z of |T| +20.5, TV 0.26.
    prior = PriorConfig(p_branch=0.35, max_depth=2)
    from test_prior import _enumerate_structures, _shape_tree

    target, mean_size = {}, 0.0
    for shape, prob in _enumerate_structures(prior):
        ast = tree(_shape_tree(shape))
        target[structure_label(ast)] = target.get(structure_label(ast), 0.0) + prob
        mean_size += prob * len(ast)
    xs = np.linspace(0.0, 5.0, 6)
    cfg = ScheduleConfig(hyper_steps=1, structure_steps=1, hyper_mode="mh")
    gen = np.random.default_rng(1)
    ast = sample_ast(prior, gen)
    sizes, us, counts = [], [], {}
    steps = 25_000
    for _ in range(steps):
        ys = gp_draw(ast, xs, gen)
        ast = sweep_moves(TraceState.init(ast, Dataset(xs, ys), prior, gen), cfg).ast
        sizes.append(len(ast))
        ts = [ast.nodes[n].hypers[s].unconstrained for n, s in hyper_sites(ast)]
        us.append(float(np.mean(expit(ts))))
        label = structure_label(ast)
        counts[label] = counts.get(label, 0) + 1
    assert set(counts) <= set(target)
    tv = 0.5 * sum(abs(counts.get(lab, 0) / steps - p) for lab, p in target.items())
    assert abs(batch_z(sizes, mean_size)) <= 4.0
    assert abs(batch_z(us, 0.5)) <= 4.0
    assert tv <= 0.12


@pytest.mark.parametrize("kind", ["structure", "hyper"])
def test_unfactorable_proposal_is_a_counted_rejection(monkeypatch, kind):
    import covsearch.inference as inference

    parts = [toy_data(seed=23, n=5), toy_data(seed=24, n=4)]
    state = new_state(tree(["*", ["SE", 1.5], ["PER", 0.9, 2.0]]), parts, seed=25)
    before = (state.ast, state.log_likelihoods, state.chols, state.log_prior)

    def unfactorable(ast, data, noise_var, factor=None):
        raise NumericError("not positive definite")

    monkeypatch.setattr(inference, "log_marginal_and_chol", unfactorable)
    step = mh_structure_step if kind == "structure" else mh_hyper_step
    assert step(state) is state
    assert state.stats == {f"{kind}_numeric_reject": 1, f"{kind}_reject": 1}
    assert state.ast is before[0]
    assert state.log_likelihoods is before[1] and state.chols is before[2]
    assert state.log_prior == before[3]


# ---------------------------------------------------------------------------
# Hyper MH


def test_hyper_step_noop_without_sites():
    # a sum of two bare-structure nodes always has hypers, so use the
    # one hyperless construction: impossible; every kernel has one.
    # Instead check the chosen-site keyword path.
    data = toy_data(seed=15, n=4)
    state = new_state(leaf("PER", 0.9, 2.0), data, seed=16)
    before = state.ast.nodes[1].hypers[0].constrained
    for _ in range(20):
        mh_hyper_step(state, site=(1, 1))  # only touch the period
    assert state.ast.nodes[1].hypers[0].constrained == before


def test_hyper_chain_matches_quadrature_posterior():
    # single C leaf, one observation: the scale posterior is
    # p(c) ~ e^{-c} N(y; 0, c + 0.1), low-dimensional enough to integrate
    data = Dataset(np.array([0.0]), np.array([1.3]))
    state = new_state(leaf("C", 1.0), data, seed=17)
    edges = np.array([0.0, 0.4, 0.8, 1.4, 2.5, np.inf])

    def density(c):
        return math.exp(-c) * stats.norm.pdf(1.3, scale=math.sqrt(c + 0.1))

    total, _ = integrate.quad(density, 0, np.inf)
    target = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        mass, _ = integrate.quad(density, lo, hi)
        target.append(mass / total)
    steps = 20_000
    counts = np.zeros(len(target))
    for _ in range(steps):
        mh_hyper_step(state)
        c = state.ast.nodes[1].hypers[0].constrained
        counts[np.searchsorted(edges, c, side="right") - 1] += 1
    tv = 0.5 * np.abs(counts / steps - np.array(target)).sum()
    assert tv < 0.03


# ---------------------------------------------------------------------------
# Gradients


def grad_target(ast, datasets, noise_var=0.1):
    ll = sum(log_marginal(ast, ds, noise_var) for ds in datasets)
    return ll + unconstrained_log_prior(ast)


def fd_gradient(state, node, slot, eps=1e-6):
    site = state.ast.nodes[node].hypers[slot]
    up = with_hyper(
        state.ast, node, slot,
        HyperSite.from_unconstrained(site.unconstrained + eps, site.offset),
    )
    dn = with_hyper(
        state.ast, node, slot,
        HyperSite.from_unconstrained(site.unconstrained - eps, site.offset),
    )
    return (
        grad_target(up, state.datasets, state.noise_var)
        - grad_target(dn, state.datasets, state.noise_var)
    ) / (2 * eps)


def test_gradient_sites_skip_white_noise_and_branches():
    ast = tree(["+", ["WN", 0.5], ["*", ["SE", 1.51], ["PER", 0.91, 2.0]]])
    assert gradient_sites(ast) == [(6, 0), (7, 0), (7, 1)]
    assert gradient_supported(ast)


def test_gradient_unsupported_with_changepoint():
    ast = tree(["CP", 1.0, ["SE", 1.51], ["C", 1.0]])
    assert not gradient_supported(ast)
    state = new_state(ast, toy_data(seed=18, n=4))
    with pytest.raises(UnsupportedMoveError):
        hyper_gradients(state)


def test_gradients_match_finite_differences():
    no_cp = PriorConfig(operator_weights=(0.5, 0.5, 0.0))
    gen = np.random.default_rng(19)
    data = toy_data(seed=20, n=7)
    trees = 0
    while trees < 30:
        ast = sample_ast(no_cp, gen)
        if not gradient_sites(ast):
            continue
        state = new_state(ast, data, no_cp)
        grads = hyper_gradients(state)
        for (node, slot), got in grads.items():
            want = fd_gradient(state, node, slot)
            assert got == pytest.approx(want, rel=1e-5, abs=1e-6)
        trees += 1


def test_gradients_sum_over_datasets():
    ast = tree(["*", ["SE", 1.51], ["LIN", 0.4]])
    parts = [toy_data(seed=21, n=5), toy_data(seed=22, n=4)]
    split = {
        site: hyper_gradients(new_state(ast, [ds]))
        for site, ds in zip(("a", "b"), parts)
    }
    joint = hyper_gradients(new_state(ast, parts))
    for key, got in joint.items():
        # prior term appears once per state, so subtract the double count
        from covsearch.prior import unconstrained_log_prior_grad

        t = ast.nodes[key[0]].hypers[key[1]].unconstrained
        prior_part = unconstrained_log_prior_grad(t)
        want = split["a"][key] + split["b"][key] - prior_part
        assert got == pytest.approx(want, rel=1e-10, abs=1e-12)


def test_gradient_sweep_builds_each_leaf_jacobian_once(monkeypatch):
    import covsearch.kernels as kernels

    ast = tree(["+", ["PER", 0.91, 2.0], ["*", ["SE", 1.51], ["PER", 1.2, 3.0]]])
    parts = [toy_data(seed=21, n=5), toy_data(seed=22, n=4)]
    state = new_state(ast, parts)
    want = hyper_gradients(state)
    built = []

    dense, per_distance = kernels.leaf_cov_grads, kernels._distance_leaf

    def counted_dense(bundle, *args):
        built.append(bundle)
        return dense(bundle, *args)

    def counted_per_distance(bundle, d):
        value, jacobian = per_distance(bundle, d)

        def counted_jacobian():
            built.append(bundle)
            return jacobian()

        return value, counted_jacobian

    # Dense Jacobians (LIN, C) and per-gap ones (SE, PER) both count.
    monkeypatch.setattr(kernels, "leaf_cov_grads", counted_dense)
    monkeypatch.setattr(kernels, "_distance_leaf", counted_per_distance)
    assert hyper_gradients(state) == want
    assert len(built) == 3 * len(parts)


def _three_series_on_two_grids():
    grid = toy_data(seed=4, n=5).xs
    return [
        Dataset(grid, toy_data(seed=5, n=5).ys),
        toy_data(seed=6, n=5),
        Dataset(grid.copy(), toy_data(seed=7, n=5).ys),
    ]


@pytest.mark.parametrize(
    "nested, builds",
    [
        (["+", ["SE", 1.5], ["+", ["PER", 0.9, 2.0], ["LIN", 0.3]]], 0),
        (["+", ["SE", 1.5], ["*", ["PER", 0.9, 2.0], ["LIN", 0.3]]], 2),
    ],
)
def test_gradient_sweep_builds_subtree_covariances_only_for_products(
    monkeypatch, nested, builds
):
    import covsearch.inference as inference

    state = new_state(tree(nested), _three_series_on_two_grids())
    want = hyper_gradients(state)
    built, inverted = [], []
    subtree_covs, inverse = inference.cov_matrices, inference._inverse_fresh

    def counted_covs(ast, xs, gaps=None):
        built.append(xs)
        return subtree_covs(ast, xs, gaps)

    def counted_inverse(factor):
        inverted.append(factor)
        return inverse(factor)

    monkeypatch.setattr(inference, "cov_matrices", counted_covs)
    monkeypatch.setattr(inference, "_inverse_fresh", counted_inverse)
    assert hyper_gradients(state) == want
    # Two input grids: the first and third series share one factor object.
    assert state.chols[0] is state.chols[2]
    assert len(built) == builds
    assert [id(f) for f in inverted] == [id(state.chols[0]), id(state.chols[1])]


def test_gradients_of_series_sharing_a_factor_add_up():
    ast = tree(["*", ["SE", 1.5], ["PER", 0.9, 2.0]])
    series = _three_series_on_two_grids()
    joint = hyper_gradients(new_state(ast, series))
    alone = [hyper_gradients(new_state(ast, [data])) for data in series]
    for key, got in joint.items():
        t = ast.nodes[key[0]].hypers[key[1]].unconstrained
        want = sum(grads[key] for grads in alone) - 2 * unconstrained_log_prior_grad(t)
        assert got == pytest.approx(want, rel=1e-10, abs=1e-12)


def test_gradient_sweep_gathers_through_each_dataset_gap_table(monkeypatch):
    import covsearch.kernels as kernels

    ast = tree(["+", ["PER", 0.91, 2.0], ["*", ["SE", 1.51], ["WN", 0.3]]])
    parts = [toy_data(seed=21, n=5), toy_data(seed=22, n=4)]
    state = new_state(ast, parts)
    want = hyper_gradients(state)
    tables = []
    per_distance = kernels._distance_leaf

    def seen(bundle, d):
        # Covariance builds and per-gap Jacobians both pass the table's gaps.
        tables.append(d)
        return per_distance(bundle, d)

    monkeypatch.setattr(kernels, "_distance_leaf", seen)
    assert hyper_gradients(state) == want
    # Per dataset: three leaves' covariances, then the leaf Jacobians.
    per_dataset = len(tables) // len(parts)
    assert per_dataset > 3
    assert [id(t) for t in tables] == [
        id(d.gaps[0]) for d in parts for _ in range(per_dataset)
    ]


def test_gradients_of_a_state_started_from_known_scores():
    ast = tree(["*", ["SE", 1.51], ["PER", 0.91, 2.0]])
    parts = [toy_data(seed=21, n=5), toy_data(seed=22, n=4)]
    scored = new_state(ast, parts)
    known = TraceState.init(
        ast, parts, PriorConfig(), np.random.default_rng(0), 0.1,
        log_likelihoods=scored.log_likelihoods,
    )
    assert known.chols == ()
    assert known.log_joint == scored.log_joint
    assert hyper_gradients(known) == hyper_gradients(scored)


def test_gradient_step_is_ascent_for_small_steps():
    gen = np.random.default_rng(23)
    data = toy_data(seed=24, n=6)
    no_cp = PriorConfig(operator_weights=(0.5, 0.5, 0.0))
    for _ in range(10):
        ast = sample_ast(no_cp, gen)
        if not gradient_sites(ast):
            continue
        state = new_state(ast, data, no_cp)
        before = grad_target(state.ast, state.datasets)
        gradient_step_hypers(state, 1e-5)
        after = grad_target(state.ast, state.datasets)
        assert after >= before - 1e-8


def test_gradient_step_keeps_hypers_in_support():
    # a huge step must clamp instead of underflowing onto the offset
    data = Dataset(np.array([0.0, 5.0]), np.array([30.0, -30.0]))
    state = new_state(leaf("SE", 5.0), data)
    for _ in range(50):
        gradient_step_hypers(state, 50.0)
        site = state.ast.nodes[1].hypers[0]
        assert site.constrained > site.offset
        assert -500.0 <= site.unconstrained <= 700.0


# ---------------------------------------------------------------------------
# Schedules


def test_run_schedule_shapes_and_determinism():
    data = toy_data(seed=25, n=8)
    cfg = ScheduleConfig(sweeps=6, hyper_steps=5, structure_steps=5, chains=2, seed=4)
    first = run_schedule(data, cfg)
    second = run_schedule(data, cfg)
    assert len(first) == 12
    assert {s.chain for s in first} == {0, 1}
    assert [s.label for s in first] == [s.label for s in second]
    assert [s.log_likelihood for s in first] == [s.log_likelihood for s in second]
    assert [s.log_prior for s in first] == [s.log_prior for s in second]
    # Chain 0 draws from child 0 of the seed sequence whatever the chain count.
    alone = run_schedule(data, replace(cfg, chains=1))
    assert [(s.label, s.log_likelihood, s.log_prior) for s in alone] == [
        (s.label, s.log_likelihood, s.log_prior) for s in first if s.chain == 0
    ]


def test_run_schedule_skeleton_pins_the_shape():
    data = toy_data(seed=27, n=4)
    cfg = ScheduleConfig(sweeps=1, hyper_steps=0, structure_steps=0, seed=6)
    start = tree(["+", ["SE", 1.51], ["WN", 0.5]])
    (only,) = run_schedule(data, cfg, skeleton=start)
    assert only.label == "SE + WN"


def test_run_schedule_handles_changepoint_trees_in_mixed_mode():
    # gradient-ineligible trees must fall back to MH inside the sweep,
    # under both modes that take gradient steps
    data = toy_data(seed=28, n=5)
    start = tree(["CP", 5.0, ["SE", 1.51], ["C", 1.0]])
    for mode in ("gradient", "mixed"):
        cfg = ScheduleConfig(
            sweeps=2, hyper_steps=20, structure_steps=0, seed=7, hyper_mode=mode
        )
        samples = run_schedule(data, cfg, skeleton=start)
        assert len(samples) == 2
        assert all(s.label == "CP(SE, C)" for s in samples)
        assert _hypers(samples[0]) != _hypers(samples[1])


@pytest.mark.parametrize(
    "runner, failing, where",
    [
        ("run_schedule", "inference.log_marginal_and_chol", "chain 0 start"),
        ("run_schedule", "inference.mh_structure_step", "chain 0 sweep 0"),
        ("run_cluster_schedule", "clustering.log_marginal", "chain 0 start"),
        ("run_cluster_schedule", "inference.mh_structure_step", "chain 0 sweep 0"),
    ],
    ids=["schedule-start", "schedule-sweep", "cluster-start", "cluster-sweep"],
)
def test_run_schedule_wraps_numeric_failures_with_provenance(
    monkeypatch, runner, failing, where
):
    import importlib

    module, name = failing.split(".")

    def explode(*args, **kwargs):
        raise NumericError("boom", jitters=(0.0,))

    monkeypatch.setattr(importlib.import_module(f"covsearch.{module}"), name, explode)
    run = getattr(importlib.import_module("covsearch"), runner)
    data = toy_data(seed=29, n=4)
    cfg = ScheduleConfig(sweeps=1, hyper_steps=0, structure_steps=1, seed=8)
    with pytest.raises(NumericError) as info:
        run(data if runner == "run_schedule" else [data, data], cfg)
    assert str(info.value) == f"{where}: boom"
    assert info.value.jitters == (0.0,)


def _hypers(sample):
    """A sample's constrained hypers in `hyper_sites` order."""
    nodes = sample.ast.nodes
    sites = hyper_sites(sample.ast)
    return tuple(nodes[node].hypers[slot].constrained for node, slot in sites)


def test_run_hyper_inference_traces_and_finals():
    data = toy_data(seed=30, n=6)
    skel = leaf("PER", 1.0, 1.0)
    cfg = ScheduleConfig(chains=3, seed=9, sweeps=7, hyper_steps=1)
    traces, finals = run_hyper_inference(data, skel, "mh", cfg)
    assert len(traces) == 21
    assert len(finals) == 3
    assert all(len(_hypers(t)) == 2 for t in traces)
    again, _ = run_hyper_inference(data, skel, "mh", cfg)
    assert [_hypers(t) for t in traces] == [_hypers(t) for t in again]


def test_run_hyper_inference_gradient_method_moves_all_sites():
    data = toy_data(seed=31, n=6)
    skel = leaf("SE", 1.5)
    cfg = ScheduleConfig(chains=1, seed=10, step_size=0.05, sweeps=4, hyper_steps=10)
    traces, finals = run_hyper_inference(data, skel, "gradient", cfg)
    values = [_hypers(t)[0] for t in traces]
    assert len(set(values)) > 1
    assert finals[0].ast.nodes[1].hypers[0].constrained == values[-1]


def test_run_hyper_inference_rejects_unknown_method():
    with pytest.raises(ValueError):
        run_hyper_inference(toy_data(), leaf("SE", 1.5), "hmc", ScheduleConfig())


@pytest.mark.parametrize(
    "skeleton",
    [["WN", 1.0], ["CP", 5.0, ["SE", 1.51], ["C", 1.0]]],
    ids=["wn", "changepoint"],
)
def test_run_hyper_inference_gradient_needs_a_gradient_site(skeleton):
    # the gradient lane must not fall back to MH moves without saying so
    cfg = ScheduleConfig(sweeps=1, hyper_steps=2)
    with pytest.raises(UnsupportedMoveError):
        run_hyper_inference(toy_data(), tree(skeleton), "gradient", cfg)
    traces, _ = run_hyper_inference(toy_data(), tree(skeleton), "mh", cfg)
    assert len(traces) == 2


def _per_step_hyper_chains(data, skeleton, steps, method, cfg, prior=None):
    """Reference loop that `run_hyper_inference` must match bit for bit.

    Each chain starts at the skeleton with every hyper drawn from the
    prior, takes one `method` step at a time, and records (chain, step,
    hypers, log joint) after each step.
    """
    prior = prior if prior is not None else PriorConfig()
    rows = []
    seed_seq = np.random.SeedSequence(cfg.seed)
    for chain, child_seq in enumerate(seed_seq.spawn(cfg.chains)):
        rng = np.random.default_rng(child_seq)
        ast = skeleton
        for node, slot in hyper_sites(skeleton):
            offset = skeleton.nodes[node].hypers[slot].offset
            ast = with_hyper(ast, node, slot, sample_hyper(rng, offset))
        state = TraceState.init(ast, data, prior, rng)
        sites = hyper_sites(ast)
        for step in range(steps):
            if method == "mh":
                mh_hyper_step(state)
            else:
                gradient_step_hypers(state, cfg.step_size)
            values = tuple(state.ast.nodes[n].hypers[s].constrained for n, s in sites)
            rows.append((chain, step, values, state.log_joint))
    return rows


@pytest.mark.parametrize("method", ["mh", "gradient"])
@pytest.mark.parametrize(
    "skeleton",
    [["PER", 1.0, 1.0], ["+", ["LIN", 1.0], ["*", ["PER", 1.0, 1.0], ["SE", 1.0]]]],
    ids=["per", "lin_plus_per_times_se"],
)
def test_run_hyper_inference_matches_the_per_step_chain_loop(method, skeleton):
    data = toy_data(seed=32, n=20)
    skel = tree(skeleton)
    cfg = ScheduleConfig(chains=2, seed=11, sweeps=3, hyper_steps=5, step_size=0.01)
    want = _per_step_hyper_chains(data, skel, 15, method, cfg)
    samples, finals = run_hyper_inference(data, skel, method, cfg)
    got = [(t.chain, t.sweep, _hypers(t), t.log_joint) for t in samples]
    assert got == want
    assert [(t.chain, t.sweep, t.log_joint) for t in finals] == [
        (chain, step, log_joint)
        for chain, step, _, log_joint in want
        if step == 14
    ]


# ---------------------------------------------------------------------------
# Aggregation


def _sample(chain, sweep, label, ast, ll=0.0, lp=0.0):
    return PosteriorSample(chain, sweep, label, ast, ll, lp)


def test_drop_burn_in_cuts_per_chain():
    ast = leaf("C", 1.0)
    samples = [_sample(0, i, "C", ast) for i in range(10)]
    samples += [_sample(1, i, "C", ast) for i in range(4)]
    kept = drop_burn_in(samples, 0.5)
    assert [(s.chain, s.sweep) for s in kept] == [
        (0, 5), (0, 6), (0, 7), (0, 8), (0, 9), (1, 2), (1, 3),
    ]
    assert drop_burn_in(samples, 0.0) == samples
    # ceil(0.5 * 1) drops a one-sweep chain whole, so everything is kept.
    assert drop_burn_in(samples[:1], 0.5) == samples[:1]
    with pytest.raises(ValueError):
        drop_burn_in(samples, 1.0)


def test_histogram_sorts_by_count_then_label():
    ast = leaf("C", 1.0)
    samples = (
        [_sample(0, i, "SE", ast) for i in range(3)]
        + [_sample(0, i, "C", ast) for i in range(3)]
        + [_sample(0, i, "WN", ast) for i in range(5)]
    )
    hist = structure_histogram(samples)
    assert list(hist.items()) == [("WN", 5), ("C", 3), ("SE", 3)]
    assert map_structure(samples) == "WN"


def test_map_structure_needs_samples():
    with pytest.raises(ValueError):
        map_structure([])


def test_averaged_prediction_is_a_mixture():
    from covsearch.gp import predict

    train = toy_data(seed=32, n=5)
    probe = np.linspace(0, 10, 4)
    a = leaf("SE", 1.51)
    b = tree(["+", ["LIN", 0.3], ["WN", 0.5]])
    samples = [
        _sample(0, 0, structure_label(a), a),
        _sample(0, 1, structure_label(b), b),
    ]
    got = averaged_prediction(samples, train, probe)
    pa = predict(a, train, probe)
    pb = predict(b, train, probe)
    want_mean = 0.5 * (pa.mean + pb.mean)
    want_cov = (
        0.5 * (pa.cov + np.outer(pa.mean, pa.mean))
        + 0.5 * (pb.cov + np.outer(pb.mean, pb.mean))
        - np.outer(want_mean, want_mean)
    )
    assert np.allclose(got.mean, want_mean, atol=1e-12)
    assert np.allclose(got.cov, want_cov, atol=1e-12)


def test_averaged_predictions_factor_each_sample_once(monkeypatch):
    import covsearch.gp as gp

    train = toy_data(seed=34, n=6)
    a = leaf("SE", 1.51)
    b = tree(["+", ["LIN", 0.3], ["PER", 0.8, 3.0]])
    samples = [_sample(0, i, structure_label(t), t) for i, t in enumerate([a, b, a, b])]
    probes = [(np.linspace(0, 10, 5), False), (np.array([2.5, 7.5]), True)]
    groups = [range(4), [1, 3], [2]]
    want = [
        [
            averaged_prediction([samples[i] for i in group], train, xs, noisy=noisy)
            for xs, noisy in probes
        ]
        for group in groups
    ]
    factored = []
    factor = gp.chol_with_jitter

    def counted(matrix):
        factored.append(matrix.shape)
        return factor(matrix)

    monkeypatch.setattr(gp, "chol_with_jitter", counted)
    got = averaged_predictions(samples, train, probes, groups)
    assert len(factored) == len(samples)
    for got_row, want_row in zip(got, want):
        for mixture, reference in zip(got_row, want_row):
            assert np.array_equal(mixture.mean, reference.mean)
            assert np.array_equal(mixture.cov, reference.cov)
    with pytest.raises(ValueError):
        averaged_predictions(samples, train, probes, [[0], []])
