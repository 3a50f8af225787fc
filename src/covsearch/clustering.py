"""Clustering of related series under a shared kernel per cluster.

A Chinese restaurant process with concentration alpha partitions the
series; each cluster owns one kernel tree, and members contribute
independent GP marginals under that tree. Inference alternates Gibbs
reassignment of series with the usual structure and hyper moves run
per cluster on its pooled members.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field, replace
from typing import Mapping, Sequence

import numpy as np

from .errors import NumericError
from .gp import DEFAULT_NOISE_VAR, Dataset, log_marginal
from .inference import ScheduleConfig, TraceState, drop_burn_in, run_chains, sweep_moves
from .kernels import KernelAst, structure_label
from .prior import PriorConfig, sample_ast

DEFAULT_CONCENTRATION = 0.5


def crp_log_prior(assignments, concentration: float = DEFAULT_CONCENTRATION) -> float:
    """Log probability of a partition under the CRP.

    `assignments` maps series index to cluster id. The empty partition
    scores 0.
    """
    if concentration <= 0.0:
        raise ValueError(f"concentration {concentration} must be positive")
    n = len(assignments)
    if n == 0:
        return 0.0
    sizes: dict = {}
    for cid in assignments.values():
        sizes[cid] = sizes.get(cid, 0) + 1
    total = len(sizes) * math.log(concentration)
    total += sum(math.lgamma(size) for size in sizes.values())
    total -= math.lgamma(concentration + n) - math.lgamma(concentration)
    return float(total)


def canonical_partition(assignments: Mapping[int, int]) -> tuple[tuple[int, ...], ...]:
    """Partition as sorted member tuples, clusters ordered by least member."""
    groups: dict[int, list[int]] = {}
    for series, cid in assignments.items():
        groups.setdefault(cid, []).append(series)
    clusters = [tuple(sorted(members)) for members in groups.values()]
    return tuple(sorted(clusters, key=lambda members: members[0]))


@dataclass
class ClusterState:
    """Mutable state of the clustering chain."""

    series: tuple[Dataset, ...]
    assignments: dict[int, int]
    cluster_asts: dict[int, KernelAst]
    concentration: float
    prior: PriorConfig
    noise_var: float
    rng: np.random.Generator
    member_lls: dict[int, float] = field(default_factory=dict)
    next_cid: int = 0
    stats: Counter = field(default_factory=Counter)

    @classmethod
    def init(
        cls,
        series: Sequence[Dataset],
        rng: np.random.Generator,
        concentration: float = DEFAULT_CONCENTRATION,
        prior: PriorConfig | None = None,
        noise_var: float = DEFAULT_NOISE_VAR,
    ) -> "ClusterState":
        """Start with every series in its own cluster with a prior tree."""
        if not series:
            raise ValueError("no series to cluster")
        if concentration <= 0.0:
            raise ValueError(f"concentration {concentration} must be positive")
        prior = prior if prior is not None else PriorConfig()
        state = cls(
            series=tuple(series),
            assignments={},
            cluster_asts={},
            concentration=concentration,
            prior=prior,
            noise_var=noise_var,
            rng=rng,
        )
        for index in range(len(state.series)):
            ast = sample_ast(prior, rng)
            state.assignments[index] = state.next_cid
            state.cluster_asts[state.next_cid] = ast
            state.member_lls[index] = log_marginal(
                ast, state.series[index], noise_var
            )
            state.next_cid += 1
        return state

    def members(self, cid: int) -> list[int]:
        return sorted(i for i, c in self.assignments.items() if c == cid)


def _safe_ll(state: ClusterState, ast: KernelAst, index: int) -> float:
    try:
        return log_marginal(ast, state.series[index], state.noise_var)
    except NumericError:
        state.stats["reassign_numeric_zero"] += 1
        return -math.inf


def reassign_series_step(state: ClusterState, index: int) -> ClusterState:
    """Gibbs move of one series between clusters.

    The proposal set is every existing cluster (weighted by its size
    with the series removed) plus one fresh cluster weighted by the
    concentration. When the series currently sits alone, its own tree
    serves as the fresh-cluster candidate, which keeps the move
    reversible; otherwise the fresh tree is drawn from the prior.
    """
    current = state.assignments[index]
    others = {i: c for i, c in state.assignments.items() if i != index}
    sizes: dict[int, int] = {}
    for cid in others.values():
        sizes[cid] = sizes.get(cid, 0) + 1
    was_singleton = current not in sizes
    if was_singleton:
        fresh_ast = state.cluster_asts[current]
    else:
        fresh_ast = sample_ast(state.prior, state.rng)
    # The current tree's score on this series is held, not recomputed.
    held_ll = state.member_lls[index]
    candidates: list[tuple[int | None, float, float]] = []
    for cid, size in sorted(sizes.items()):
        if cid == current:
            ll = held_ll
        else:
            ll = _safe_ll(state, state.cluster_asts[cid], index)
        candidates.append((cid, math.log(size) + ll, ll))
    fresh_ll = held_ll if was_singleton else _safe_ll(state, fresh_ast, index)
    candidates.append((None, math.log(state.concentration) + fresh_ll, fresh_ll))
    weights = np.array([w for _, w, _ in candidates])
    if np.all(np.isinf(weights)):
        state.stats["reassign_stuck"] += 1
        return state
    probs = np.exp(weights - weights.max())
    probs /= probs.sum()
    choice = int(state.rng.choice(len(candidates), p=probs))
    target, _, target_ll = candidates[choice]
    if was_singleton:
        del state.cluster_asts[current]
    if target is None:
        target = state.next_cid
        state.next_cid += 1
        state.cluster_asts[target] = fresh_ast
    state.assignments[index] = target
    state.member_lls[index] = target_ll
    state.stats["reassign_moves"] += 1
    return state


def _cluster_tree_moves(state: ClusterState, cid: int, cfg: ScheduleConfig) -> None:
    """Take one `sweep_moves` sweep on a cluster's tree, its members pooled."""
    members = state.members(cid)
    trace = TraceState.init(
        state.cluster_asts[cid],
        [state.series[i] for i in members],
        state.prior,
        state.rng,
        state.noise_var,
        log_likelihoods=[state.member_lls[i] for i in members],
    )
    sweep_moves(trace, cfg)
    state.cluster_asts[cid] = trace.ast
    state.member_lls.update(zip(members, trace.log_likelihoods))
    state.stats.update(trace.stats)


@dataclass(frozen=True)
class ClusterSample:
    """One recorded sweep: the partition and each cluster's label."""

    chain: int
    sweep: int
    partition: tuple[tuple[int, ...], ...]
    labels: tuple[str, ...]


def cluster_sweep(state: ClusterState, cfg: ScheduleConfig) -> ClusterState:
    """One full sweep: reassign every series, then move every tree by MH."""
    for index in range(len(state.series)):
        reassign_series_step(state, index)
    mh = replace(cfg, hyper_mode="mh")
    for cid in sorted(state.cluster_asts):
        _cluster_tree_moves(state, cid, mh)
    return state


def run_cluster_schedule(
    series: Sequence[Dataset],
    cfg: ScheduleConfig,
    concentration: float = DEFAULT_CONCENTRATION,
    prior: PriorConfig | None = None,
    noise_var: float = DEFAULT_NOISE_VAR,
) -> list[ClusterSample]:
    """Run `cfg.chains` chains of `cluster_sweep` through `run_chains`.

    Each chain starts with every series alone; each sweep records its
    partition. Tree moves are MH only, so `cfg.hyper_mode` and
    `cfg.step_size` do not act. One series degenerates to structure search.
    """
    prior = prior if prior is not None else PriorConfig()

    def start(rng: np.random.Generator) -> ClusterState:
        return ClusterState.init(series, rng, concentration, prior, noise_var)

    def record(chain: int, sweep: int, state: ClusterState) -> ClusterSample:
        partition = canonical_partition(state.assignments)
        labels = tuple(
            structure_label(state.cluster_asts[state.assignments[members[0]]])
            for members in partition
        )
        return ClusterSample(chain, sweep, partition, labels)

    # Looked up per call: a wrapper set on `clustering.cluster_sweep` sees each sweep.
    return run_chains(cfg, start, lambda state: cluster_sweep(state, cfg), record)


def modal_partition(
    samples: Sequence[ClusterSample], burn_in: float
) -> tuple[tuple[tuple[int, ...], ...], float]:
    """Most frequent partition after `drop_burn_in`, and its share of the kept sweeps.

    Ties go to the partition that sorts first.
    """
    post = drop_burn_in(samples, burn_in)
    tallies = Counter(sample.partition for sample in post)
    modal = max(sorted(tallies), key=lambda p: tallies[p])
    return modal, tallies[modal] / len(post)
