"""Partition prior, Gibbs reassignment, and the clustering schedule."""

import math
from dataclasses import replace

import numpy as np
import pytest

from covsearch.clustering import (
    ClusterSample,
    ClusterState,
    canonical_partition,
    cluster_sweep,
    crp_log_prior,
    modal_partition,
    reassign_series_step,
    run_cluster_schedule,
)
from covsearch.gp import Dataset, log_marginal
from covsearch.inference import ScheduleConfig
from covsearch.prior import PriorConfig, ast_log_prior, sample_ast

from conftest import gp_draw, set_partitions, toy_data

EMPTY = Dataset(np.empty(0), np.empty(0))


def partition_to_assignments(partition):
    return {i: cid for cid, block in enumerate(partition) for i in block}


def joint_log_prob(state: ClusterState) -> float:
    """CRP prior plus tree priors plus member likelihoods, from scratch."""
    total = crp_log_prior(state.assignments, state.concentration)
    for cid, ast in state.cluster_asts.items():
        total += ast_log_prior(state.prior, ast)
        for index in state.members(cid):
            total += log_marginal(ast, state.series[index], state.noise_var)
    return total


def cached_joint_log_prob(state: ClusterState) -> float:
    """Same quantity assembled from the per-member likelihood cache."""
    total = crp_log_prior(state.assignments, state.concentration)
    for ast in state.cluster_asts.values():
        total += ast_log_prior(state.prior, ast)
    total += sum(state.member_lls.values())
    return float(total)


# ---------------------------------------------------------------------------
# CRP prior


def test_crp_two_element_literals():
    assert crp_log_prior({0: 0, 1: 0}, 0.5) == pytest.approx(
        math.log(2.0 / 3.0), rel=1e-12
    )
    assert crp_log_prior({0: 0, 1: 1}, 0.5) == pytest.approx(
        math.log(1.0 / 3.0), rel=1e-12
    )


def test_crp_accepts_sequences_and_empty():
    assert crp_log_prior({}, 0.5) == 0.0


def test_crp_sequential_product():
    # seat-by-seat construction of one specific table arrangement:
    # {0,1,2} together, {3} alone, concentration 2
    a = 2.0
    want = math.log(a / a * (1 / (a + 1)) * (2 / (a + 2)) * (a / (a + 3)))
    got = crp_log_prior({0: 0, 1: 0, 2: 0, 3: 1}, a)
    assert got == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("alpha", [0.5, 1.0, 1.3])
def test_crp_normalizes_over_partitions_of_four(alpha):
    partitions = list(set_partitions(range(4)))
    assert len(partitions) == 15
    total = sum(
        math.exp(crp_log_prior(partition_to_assignments(p), alpha))
        for p in partitions
    )
    assert total == pytest.approx(1.0, abs=1e-12)


def test_crp_exchangeable():
    base = {0: 0, 1: 0, 2: 1, 3: 2}
    value = crp_log_prior(base, 0.7)
    relabeled = {0: 9, 1: 9, 2: 4, 3: 7}
    assert crp_log_prior(relabeled, 0.7) == pytest.approx(value, rel=1e-12)
    permuted = {0: 1, 1: 2, 2: 0, 3: 0}  # same block sizes {2,1,1}
    assert crp_log_prior(permuted, 0.7) == pytest.approx(value, rel=1e-12)


def test_canonical_partition_sorts_blocks_by_least_member():
    got = canonical_partition({0: 5, 1: 9, 2: 5, 3: 2})
    assert got == ((0, 2), (1,), (3,))


# ---------------------------------------------------------------------------
# State and scores


def test_modal_partition_drops_burn_in_and_breaks_ties_by_sort_order():
    apart, together = ((0,), (1,)), ((0, 1),)
    order = [together, apart, together, apart, together, apart]
    samples = [ClusterSample(0, i, p, ()) for i, p in enumerate(order)]
    # ceil(0.2 * 6) = 2 sweeps go; the rest tie 2-2 and `apart` sorts first.
    assert modal_partition(samples, 0.2) == (apart, 0.5)
    assert modal_partition(samples[:5], 0.0) == (together, 0.6)
    assert modal_partition(samples[:1], 0.5) == (together, 1.0)


def test_init_starts_all_singletons():
    series = [toy_data(seed=s, n=4) for s in range(3)]
    state = ClusterState.init(series, np.random.default_rng(0))
    assert canonical_partition(state.assignments) == ((0,), (1,), (2,))
    assert len(state.cluster_asts) == 3


def test_init_rejects_bad_arguments():
    with pytest.raises(ValueError):
        ClusterState.init([], np.random.default_rng(0))
    with pytest.raises(ValueError):
        ClusterState.init([toy_data()], np.random.default_rng(0), concentration=0.0)


def test_joint_and_cached_scores_agree():
    series = [toy_data(seed=s, n=6) for s in (40, 41, 42)]
    state = ClusterState.init(series, np.random.default_rng(1))
    cfg = ScheduleConfig(hyper_steps=5, structure_steps=5)
    for _ in range(4):
        cluster_sweep(state, cfg)
        assert cached_joint_log_prob(state) == pytest.approx(
            joint_log_prob(state), rel=1e-12
        )


def test_singleton_keeps_its_own_tree_as_the_fresh_candidate():
    state = ClusterState.init([toy_data(seed=2, n=4)], np.random.default_rng(2))
    before = next(iter(state.cluster_asts.values()))
    reassign_series_step(state, 0)
    after = next(iter(state.cluster_asts.values()))
    assert after is before


def test_reassignment_tracks_the_crp_on_empty_data():
    # with no data every likelihood is zero, so the chain must sit at
    # the bare partition prior: together with probability 2/3
    state = ClusterState.init([EMPTY, EMPTY], np.random.default_rng(3))
    together = 0
    trials = 3000
    for step in range(trials):
        reassign_series_step(state, step % 2)
        together += state.assignments[0] == state.assignments[1]
    assert together / trials == pytest.approx(2.0 / 3.0, abs=0.04)


def test_cluster_sweep_keeps_the_crp_under_joint_simulation():
    # Geweke's successive-conditional check: draw each of 4 series from
    # its cluster's GP, then take one sweep given them. A sweep that
    # leaves every posterior invariant keeps the partitions at the CRP.
    # Without log(size) in the weights: TV 0.30; with every fresh tree
    # drawn from the prior, a singleton's too: TV 0.18.
    alpha, prior = 0.5, PriorConfig(p_branch=0.35, max_depth=2)
    target = {}
    for partition in set_partitions(range(4)):
        assignments = partition_to_assignments(partition)
        target[canonical_partition(assignments)] = math.exp(
            crp_log_prior(assignments, alpha)
        )
    xs = np.linspace(0.0, 5.0, 5)
    cfg = ScheduleConfig(hyper_steps=1, structure_steps=1)
    gen = np.random.default_rng(1)
    # A CRP draw, seat by seat, with a prior tree per table.
    assignments = {}
    for index in range(4):
        weights = np.append(np.bincount(list(assignments.values())), alpha)
        assignments[index] = int(gen.choice(weights.size, p=weights / weights.sum()))
    asts = {cid: sample_ast(prior, gen) for cid in set(assignments.values())}
    counts = {}
    steps = 5_000
    for _ in range(steps):
        series = tuple(
            Dataset(xs, gp_draw(asts[assignments[i]], xs, gen)) for i in range(4)
        )
        lls = {i: log_marginal(asts[c], series[i]) for i, c in assignments.items()}
        state = ClusterState(
            series, assignments, asts, alpha, prior, 0.1, gen, lls, max(asts) + 1
        )
        cluster_sweep(state, cfg)
        assignments, asts = state.assignments, state.cluster_asts
        partition = canonical_partition(assignments)
        counts[partition] = counts.get(partition, 0) + 1
    tv = 0.5 * sum(abs(counts.get(p, 0) / steps - q) for p, q in target.items())
    assert tv <= 0.08


def test_cluster_sweep_counts_every_tree_move():
    series = [toy_data(seed=s, n=5) for s in (20, 21, 22)]
    state = ClusterState.init(series, np.random.default_rng(23))
    cfg = ScheduleConfig(hyper_steps=3, structure_steps=2)
    clusters_swept = 0
    for _ in range(5):
        cluster_sweep(state, cfg)
        clusters_swept += len(canonical_partition(state.assignments))
    stats = state.stats
    assert stats["structure_accept"] + stats["structure_reject"] == 2 * clusters_swept
    hyper = stats["hyper_accept"] + stats["hyper_reject"] + stats["hyper_skip"]
    assert hyper == 3 * clusters_swept
    assert stats["reassign_moves"] + stats["reassign_stuck"] == 5 * len(series)


def test_tiny_concentration_merges_identical_series():
    shared = toy_data(seed=4, n=10)
    cfg = ScheduleConfig(sweeps=60, hyper_steps=2, structure_steps=2, seed=5)
    samples = run_cluster_schedule([shared, shared], cfg, concentration=1e-8)
    merged = sum(s.partition == ((0, 1),) for s in samples)
    assert merged / len(samples) >= 0.95


def test_single_series_degenerates_to_structure_search():
    cfg = ScheduleConfig(sweeps=5, hyper_steps=2, structure_steps=2, seed=6)
    samples = run_cluster_schedule([toy_data(seed=7, n=5)], cfg)
    assert all(s.partition == ((0,),) for s in samples)
    assert all(len(s.labels) == 1 for s in samples)


def test_cluster_schedule_deterministic():
    series = [toy_data(seed=s, n=5) for s in (8, 9)]
    cfg = ScheduleConfig(sweeps=6, hyper_steps=3, structure_steps=3, seed=10)
    first = run_cluster_schedule(series, cfg)
    second = run_cluster_schedule(series, cfg)
    assert first == second
    # Chain 0 draws from child 0 of the seed sequence whatever the chain count.
    three = run_cluster_schedule(series, replace(cfg, chains=3))
    assert [s for s in three if s.chain == 0] == first
    assert {s.chain for s in three} == {0, 1, 2}


def test_cluster_samples_expose_block_labels():
    series = [toy_data(seed=s, n=5) for s in (11, 12, 13)]
    cfg = ScheduleConfig(sweeps=4, hyper_steps=2, structure_steps=2, seed=14)
    samples = run_cluster_schedule(series, cfg)
    for sample in samples:
        assert len(sample.labels) == len(sample.partition)
        assert sum(len(block) for block in sample.partition) == 3


def test_sweep_scores_each_proposal_and_candidate_once(monkeypatch):
    import covsearch.clustering as clustering
    import covsearch.gp as gp
    import covsearch.inference as inference

    # Series 0-2 share one input grid; series 3 has its own.
    grid = toy_data(seed=15, n=6).xs
    series = [Dataset(grid, toy_data(seed=s, n=6).ys) for s in (15, 16, 17)]
    series.append(toy_data(seed=18, n=6))
    state = ClusterState.init(series, np.random.default_rng(19))
    cfg = ScheduleConfig(hyper_steps=3, structure_steps=3)
    cluster_sweep(state, cfg)

    scored, factored = [], []
    score, factor_of = gp.log_marginal_and_chol, gp.observed_chol

    def counted(ast, data, noise_var, *factor):
        scored.append((ast, data))
        return score(ast, data, noise_var, *factor)

    def counted_factor(ast, data, noise_var):
        factored.append((ast, data.xs.tobytes()))
        return factor_of(ast, data, noise_var)

    expected = {"scores": 0, "factors": 0}
    reassign = clustering.reassign_series_step

    def counted_reassign(state, index):
        # The current tree's score is held: one new score for each other
        # cluster, plus a prior-drawn fresh tree unless the series is alone.
        current = state.assignments[index]
        others = {c for i, c in state.assignments.items() if i != index}
        new = len(others - {current}) + (current in others)
        expected["scores"] += new
        expected["factors"] += new
        return reassign(state, index)

    def counted_move(move):
        def run(trace, *args):
            move(trace, *args)
            assert not any(key.endswith("numeric_reject") for key in trace.stats)
            expected["scores"] += len(trace.datasets)
            expected["factors"] += len({d.xs.tobytes() for d in trace.datasets})
            return trace

        return run

    monkeypatch.setattr(gp, "log_marginal_and_chol", counted)
    monkeypatch.setattr(gp, "observed_chol", counted_factor)
    monkeypatch.setattr(inference, "log_marginal_and_chol", counted)
    monkeypatch.setattr(clustering, "reassign_series_step", counted_reassign)
    monkeypatch.setattr(
        inference, "mh_hyper_step", counted_move(inference.mh_hyper_step)
    )
    monkeypatch.setattr(
        inference, "mh_structure_step", counted_move(inference.mh_structure_step)
    )
    cluster_sweep(state, cfg)
    assert len(scored) == expected["scores"]
    assert len(factored) == expected["factors"] < len(scored)
    assert len({(id(ast), id(data)) for ast, data in scored}) == len(scored)
    assert len({(id(ast), xs) for ast, xs in factored}) == len(factored)
    for index, cid in state.assignments.items():
        ast = state.cluster_asts[cid]
        assert state.member_lls[index] == score(ast, series[index], state.noise_var)[0]
