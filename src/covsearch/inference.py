"""Markov chain inference over kernel trees and their hyperparameters.

Structure moves pick a node uniformly at random and resimulate the
subtree under it from the prior. Because the proposal density over the
regrown subtree equals its prior factor, everything except the
likelihoods and the node-count correction cancels from the
Metropolis-Hastings ratio:

    alpha = min(1, [size(T) / size(T')] * p(D | T') / p(D | T))

Hyperparameter moves either resimulate one site from its prior (the
ratio then collapses to a likelihood ratio the same way) or follow the
gradient of the log joint in unconstrained coordinates.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

import numpy as np

from .errors import NumericError, UnsupportedMoveError
from .gp import (
    DEFAULT_NOISE_VAR,
    Dataset,
    GpPosterior,
    _inverse_fresh,
    _solve_fresh,
    log_marginal_and_chol,
    observed_chol,
    predict,
)
from .kernels import (
    BaseKernel,
    HyperSite,
    KernelAst,
    Operator,
    contract_leaf,
    cov_matrices,
    hyper_sites,
    replace_subtree,
    structure_label,
    with_hyper,
)
from .prior import (
    PriorConfig,
    _open_uniform,
    ast_log_prior,
    sample_ast,
    sample_hyper,
    sample_subtree,
    unconstrained_log_prior_grad,
)

HYPER_MODES = ("mh", "gradient", "mixed")


@dataclass(frozen=True)
class ScheduleConfig:
    """Knobs for one inference run.

    Each sweep takes `hyper_steps` hyperparameter steps, then
    `structure_steps` structure moves. `hyper_mode` sets what one
    hyperparameter step is:

    - "mh": one prior-resimulation move on a site drawn at random;
    - "gradient": one gradient step on every leaf hyper but white-noise
      scales;
    - "mixed": that gradient step, then one MH move on each white-noise
      scale.

    Under "gradient" and "mixed", a tree with no gradient site (one
    holding a changepoint, or only white-noise leaves) takes one MH move
    on a site drawn at random instead.
    """

    sweeps: int = 30
    hyper_steps: int = 100
    structure_steps: int = 100
    step_size: float = 0.01
    chains: int = 1
    seed: int = 0
    burn_in: float = 0.2
    hyper_mode: str = "mixed"

    def __post_init__(self):
        if self.sweeps < 0 or self.hyper_steps < 0 or self.structure_steps < 0:
            raise ValueError("step counts must be non-negative")
        if self.chains < 1:
            raise ValueError(f"chains {self.chains} must be at least 1")
        if not 0.0 <= self.burn_in < 1.0:
            raise ValueError(f"burn_in {self.burn_in} outside [0, 1)")
        if self.hyper_mode not in HYPER_MODES:
            raise ValueError(
                f"hyper_mode {self.hyper_mode!r} not one of {HYPER_MODES}"
            )
        if self.step_size < 0.0:
            raise ValueError(f"step_size {self.step_size} must be non-negative")


@dataclass
class TraceState:
    """One chain's mutable position: tree, data, and cached scores.

    `datasets` may hold several series; the likelihood is then the sum
    of independent GP marginals, which is what cluster moves need.
    `log_likelihoods` and `chols` hold each dataset's marginal and the
    Cholesky factor it used; `chols` is empty while no factor is known,
    and holds one factor object for datasets whose inputs are equal.
    """

    ast: KernelAst
    datasets: tuple[Dataset, ...]
    prior: PriorConfig
    noise_var: float
    rng: np.random.Generator
    log_likelihoods: tuple[float, ...] = ()
    log_prior: float = 0.0
    chols: tuple = ()
    stats: Counter = field(default_factory=Counter)

    @classmethod
    def init(
        cls,
        ast: KernelAst,
        data,
        prior: PriorConfig,
        rng: np.random.Generator,
        noise_var: float = DEFAULT_NOISE_VAR,
        log_likelihoods: Sequence[float] | None = None,
    ) -> "TraceState":
        """Start a chain at `ast`, scoring it on every dataset.

        Pass `log_likelihoods`, each dataset's log marginal under `ast`,
        when the caller already holds them: the state then starts
        without factors, and a gradient sweep factors when it needs to.
        """
        datasets = (data,) if isinstance(data, Dataset) else tuple(data)
        state = cls(
            ast=ast,
            datasets=datasets,
            prior=prior,
            noise_var=noise_var,
            rng=rng,
        )
        if log_likelihoods is None:
            state.log_likelihoods, state.chols = _logliks(ast, datasets, noise_var)
        else:
            state.log_likelihoods = tuple(log_likelihoods)
        state.log_prior = ast_log_prior(prior, ast)
        return state

    @property
    def log_likelihood(self) -> float:
        return sum(self.log_likelihoods, 0.0)

    @property
    def log_joint(self) -> float:
        return self.log_likelihood + self.log_prior

    def refresh(self) -> None:
        """Recompute every cached score from the current tree."""
        self.log_likelihoods, self.chols = _logliks(
            self.ast, self.datasets, self.noise_var
        )
        self.log_prior = ast_log_prior(self.prior, self.ast)


def _logliks(
    ast: KernelAst, datasets: Sequence[Dataset], noise_var: float
) -> tuple[tuple[float, ...], tuple]:
    """Each dataset's log marginal under `ast`, and the factors used.

    Datasets whose inputs are equal bit for bit share one factor object:
    the covariance depends on the inputs alone, so it is factored once.
    """
    by_grid: dict[bytes, np.ndarray | None] = {}
    scored = []
    for data in datasets:
        grid = data.xs.tobytes()
        scored.append(log_marginal_and_chol(ast, data, noise_var, by_grid.get(grid)))
        by_grid[grid] = scored[-1][1]
    return tuple(value for value, _ in scored), tuple(factor for _, factor in scored)


def _metropolis(
    state: TraceState, kind: str, proposal: KernelAst, log_correction: float
) -> TraceState:
    """Accept or reject `proposal` on its likelihood ratio plus `log_correction`.

    A proposal whose covariance cannot be factored counts as an
    automatic rejection rather than an error.
    """
    try:
        proposal_lls, proposal_chols = _logliks(
            proposal, state.datasets, state.noise_var
        )
    except NumericError:
        state.stats.update((f"{kind}_numeric_reject", f"{kind}_reject"))
        return state
    log_alpha = sum(proposal_lls) - state.log_likelihood + log_correction
    if math.log(_open_uniform(state.rng)) < log_alpha:
        state.ast = proposal
        state.log_likelihoods = proposal_lls
        state.chols = proposal_chols
        state.log_prior = ast_log_prior(state.prior, proposal)
        state.stats[f"{kind}_accept"] += 1
    else:
        state.stats[f"{kind}_reject"] += 1
    return state


def mh_structure_step(state: TraceState) -> TraceState:
    """One resimulation MH move on the tree structure.

    Rejections leave everything but the move counters untouched.
    """
    nodes = sorted(state.ast.nodes)
    target = nodes[int(state.rng.integers(len(nodes)))]
    regrown = sample_subtree(state.prior, target, state.rng)
    proposal = replace_subtree(state.ast, target, regrown)
    correction = math.log(len(state.ast)) - math.log(len(proposal))
    return _metropolis(state, "structure", proposal, correction)


def mh_hyper_step(
    state: TraceState, site: tuple[int, int] | None = None
) -> TraceState:
    """One prior-resimulation MH move on a single hyperparameter site.

    With no site given, one is chosen uniformly among all sites in the
    tree, changepoint locations included. Trees without hypers no-op.
    """
    sites = hyper_sites(state.ast)
    if not sites:
        state.stats["hyper_skip"] += 1
        return state
    if site is None:
        site = sites[int(state.rng.integers(len(sites)))]
    node, slot = site
    old = state.ast.nodes[node].hypers[slot]
    proposal_site = sample_hyper(state.rng, old.offset)
    proposal = with_hyper(state.ast, node, slot, proposal_site)
    return _metropolis(state, "hyper", proposal, 0.0)


# ---------------------------------------------------------------------------
# Gradient moves


def gradient_supported(ast: KernelAst) -> bool:
    """Whether the tree admits gradient moves at all."""
    return not any(
        bundle.kind is Operator.CHANGEPOINT for bundle in ast.nodes.values()
    )


def gradient_sites(ast: KernelAst) -> list[tuple[int, int]]:
    """Hyper sites gradient steps move: leaf hypers except white noise.

    White-noise scales enter the covariance only on the diagonal tie
    pattern, so they stay on MH moves. A tree that holds a changepoint
    has none (`gradient_supported`): all its hypers stay on MH moves.
    """
    if not gradient_supported(ast):
        return []
    sites = []
    for node, slot in hyper_sites(ast):
        kind = ast.nodes[node].kind
        if isinstance(kind, BaseKernel) and kind is not BaseKernel.WN:
            sites.append((node, slot))
    return sites


def hyper_gradients(state: TraceState) -> dict[tuple[int, int], float]:
    """Gradient of the log joint in unconstrained coordinates.

    Reverse sweep over the tree: the root covariance adjoint is
    0.5 (alpha alpha^T - A^{-1}); a sum node passes its adjoint to both
    children, a product node multiplies it elementwise by the sibling's
    covariance; at a leaf the adjoint contracts against the leaf's
    hyperparameter Jacobian (`kernels.contract_leaf`). The chain rule
    through the softplus link and the Logistic prior term finish the job.

    A^{-1}, and the subtree covariances when a product node needs them,
    are made once per distinct factor object, so datasets on one input
    grid share them.
    """
    if not gradient_supported(state.ast):
        raise UnsupportedMoveError(
            "tree contains a changepoint; gradient moves are not defined for it"
        )
    sites = gradient_sites(state.ast)
    grads = {site: 0.0 for site in sites}
    if not sites:
        return grads
    if len(state.chols) != len(state.datasets):
        state.refresh()
    nodes = state.ast.nodes
    order = sorted(nodes)
    products = any(nodes[node].kind is Operator.PRODUCT for node in order)
    shared: dict[int, tuple[np.ndarray, dict[int, np.ndarray]]] = {}
    for data, factor in zip(state.datasets, state.chols):
        if factor is None:
            continue
        if id(factor) not in shared:
            # The state's own factors: finite, nonzero diagonal, n rows.
            mats = cov_matrices(state.ast, data.xs, data.gaps) if products else {}
            shared[id(factor)] = _inverse_fresh(factor), mats
        a_inv, mats = shared[id(factor)]
        alpha = _solve_fresh(factor, data.ys, cholesky=True)
        adjoints = {1: 0.5 * (np.outer(alpha, alpha) - a_inv)}
        for node in order:
            bundle = nodes[node]
            if not bundle.is_branch:
                continue
            parent = adjoints[node]
            left, right = 2 * node, 2 * node + 1
            if bundle.kind is Operator.SUM:
                adjoints[left] = parent
                adjoints[right] = parent
            else:
                # A product: `gradient_supported` has ruled out changepoints.
                adjoints[left] = parent * mats[right]
                adjoints[right] = parent * mats[left]
        contracted: dict[int, list[float]] = {}
        for node, slot in sites:
            if node not in contracted:
                contracted[node] = contract_leaf(
                    nodes[node], adjoints[node], data.xs, data.gaps
                )
            grads[(node, slot)] += contracted[node][slot]
    for node, slot in sites:
        site = nodes[node].hypers[slot]
        # scipy's expit(-t), bit for bit; past t = 709 exp overflows and the
        # result is below 1e-308.
        dh_dt = -1.0 / (1.0 + math.exp(min(site.unconstrained, 709.0)))
        grads[(node, slot)] *= dh_dt
        grads[(node, slot)] += unconstrained_log_prior_grad(site.unconstrained)
    return grads


# Unconstrained coordinates are kept where the softplus link still
# produces a constrained value strictly above the offset in floats:
# beyond t ~ 40 adding softplus(-t) to an offset like 0.01 rounds to
# the offset itself, and very negative t overflows downstream algebra.
_T_FLOOR = -500.0


def _t_ceiling(offset: float) -> float:
    return 700.0 if offset == 0.0 else 40.0


def gradient_step_hypers(state: TraceState, step_size: float) -> TraceState:
    """One ascent step on all gradient-eligible sites at once."""
    grads = hyper_gradients(state)
    state.stats["gradient_steps"] += 1
    if not grads or step_size == 0.0:
        return state
    ast = state.ast
    for (node, slot), grad in grads.items():
        old = ast.nodes[node].hypers[slot]
        moved_t = min(
            max(old.unconstrained + step_size * grad, _T_FLOOR),
            _t_ceiling(old.offset),
        )
        ast = with_hyper(
            ast, node, slot, HyperSite.from_unconstrained(moved_t, old.offset)
        )
    state.ast = ast
    state.refresh()
    return state


# ---------------------------------------------------------------------------
# Schedules


@dataclass(frozen=True)
class PosteriorSample:
    """One recorded point of a chain, taken at the end of a sweep."""

    chain: int
    sweep: int
    label: str
    ast: KernelAst
    log_likelihood: float
    log_prior: float

    @property
    def log_joint(self) -> float:
        return self.log_likelihood + self.log_prior


def _mh_fallback_sites(ast: KernelAst) -> list[tuple[int, int]]:
    eligible = set(gradient_sites(ast))
    return [site for site in hyper_sites(ast) if site not in eligible]


def sweep_moves(state: TraceState, cfg: ScheduleConfig) -> TraceState:
    """One sweep on one tree: `cfg.hyper_steps` hyper steps, then structure moves."""
    for _ in range(cfg.hyper_steps):
        if cfg.hyper_mode == "mh" or not gradient_sites(state.ast):
            mh_hyper_step(state)
            continue
        gradient_step_hypers(state, cfg.step_size)
        if cfg.hyper_mode == "mixed":
            for site in _mh_fallback_sites(state.ast):
                mh_hyper_step(state, site)
    for _ in range(cfg.structure_steps):
        mh_structure_step(state)
    return state


def run_chains(
    cfg: ScheduleConfig, start: Callable, step: Callable, record: Callable
) -> list:
    """Run `cfg.chains` chains; list `record(chain, sweep, state)` per sweep.

    Chain c starts at `start(rng)`, with rng drawing from child c of
    `SeedSequence(cfg.seed)`, and `step(state)` takes one sweep. A
    `NumericError` gains a `chain c start:` or `chain c sweep s:` prefix.
    """
    samples = []
    for chain, seq in enumerate(np.random.SeedSequence(cfg.seed).spawn(cfg.chains)):
        where = f"chain {chain} start"
        try:
            state = start(np.random.default_rng(seq))
            for sweep in range(cfg.sweeps):
                where = f"chain {chain} sweep {sweep}"
                step(state)
                samples.append(record(chain, sweep, state))
        except NumericError as err:
            raise NumericError(f"{where}: {err}") from err
    return samples


def run_schedule(
    data,
    cfg: ScheduleConfig,
    prior: PriorConfig | None = None,
    noise_var: float = DEFAULT_NOISE_VAR,
    skeleton: KernelAst | None = None,
) -> list[PosteriorSample]:
    """Run `cfg.sweeps` sweeps of `sweep_moves` per chain through `run_chains`.

    Each chain starts at a prior draw: a whole tree, or with `skeleton` a
    tree of its shape whose hypers are drawn site by site in
    `hyper_sites` order.
    """
    prior = prior if prior is not None else PriorConfig()

    def start(rng: np.random.Generator) -> TraceState:
        if skeleton is None:
            ast = sample_ast(prior, rng)
        else:
            ast = skeleton
            for node, slot in hyper_sites(skeleton):
                offset = skeleton.nodes[node].hypers[slot].offset
                ast = with_hyper(ast, node, slot, sample_hyper(rng, offset))
        return TraceState.init(ast, data, prior, rng, noise_var)

    def record(chain: int, sweep: int, state: TraceState) -> PosteriorSample:
        return PosteriorSample(
            chain, sweep, structure_label(state.ast), state.ast,
            state.log_likelihood, state.log_prior,
        )

    return run_chains(cfg, start, lambda state: sweep_moves(state, cfg), record)


def run_hyper_inference(
    data: Dataset,
    skeleton: KernelAst,
    method: str,
    cfg: ScheduleConfig,
    prior: PriorConfig | None = None,
    noise_var: float = DEFAULT_NOISE_VAR,
) -> tuple[list[PosteriorSample], list[PosteriorSample]]:
    """Fixed-structure hyperparameter inference, one sample per step.

    Each chain starts from the skeleton as `run_schedule` does and takes
    `cfg.sweeps * cfg.hyper_steps` steps of `method`, "mh" or
    "gradient"; a sample's `sweep` is its step. Returns the samples and
    each chain's last one.
    """
    if method not in ("mh", "gradient"):
        raise ValueError(f"method {method!r} not one of ('mh', 'gradient')")
    if method == "gradient" and not gradient_sites(skeleton):
        raise UnsupportedMoveError(
            "has no hyperparameter that gradient steps move "
            "(white-noise scales stay on MH moves)"
        )
    steps = replace(
        cfg, sweeps=cfg.sweeps * cfg.hyper_steps, hyper_steps=1,
        structure_steps=0, hyper_mode=method,
    )
    samples = run_schedule(data, steps, prior, noise_var, skeleton)
    return samples, list({sample.chain: sample for sample in samples}.values())


# ---------------------------------------------------------------------------
# Aggregation over recorded samples


def drop_burn_in(samples: Sequence, fraction: float) -> list:
    """Discard the first ceil(`fraction` * sweeps) sweeps of every chain.

    Samples need `chain` and `sweep`. A cut that drops them all keeps all.
    """
    if not 0.0 <= fraction < 1.0:
        raise ValueError(f"burn-in fraction {fraction} outside [0, 1)")
    by_chain: dict[int, int] = {}
    for sample in samples:
        by_chain[sample.chain] = max(by_chain.get(sample.chain, -1), sample.sweep)
    kept = []
    for sample in samples:
        cutoff = math.ceil((by_chain[sample.chain] + 1) * fraction)
        if sample.sweep >= cutoff:
            kept.append(sample)
    return kept or list(samples)


def structure_histogram(samples: Sequence[PosteriorSample]) -> dict[str, int]:
    """Occupancy counts of structure labels, highest count first."""
    counts: dict[str, int] = {}
    for sample in samples:
        counts[sample.label] = counts.get(sample.label, 0) + 1
    return dict(
        sorted(counts.items(), key=lambda item: (-item[1], item[0]))
    )


def map_structure(samples: Sequence[PosteriorSample]) -> str:
    """Most frequent structure label; ties break lexicographically."""
    if not samples:
        raise ValueError("no samples to summarize")
    counts = structure_histogram(samples)
    return next(iter(counts))


def averaged_prediction(
    samples: Sequence[PosteriorSample],
    train: Dataset,
    probe_xs,
    noise_var: float = DEFAULT_NOISE_VAR,
) -> GpPosterior:
    """Mixture predictive over every recorded sample.

    The mixture mean is the average of per-sample means and the mixture
    variance adds the spread between those means. `compare-inference`
    predicts its holdout through it and README's Library example uses
    it; `fit` predicts several groups at once through
    `averaged_predictions`.
    """
    [[post]] = averaged_predictions(
        samples, train, [probe_xs], [range(len(samples))], noise_var
    )
    return post


def averaged_predictions(
    samples: Sequence[PosteriorSample],
    train: Dataset,
    probes: Sequence[np.ndarray],
    groups: Sequence[Sequence[int]],
    noise_var: float = DEFAULT_NOISE_VAR,
) -> list[list[GpPosterior]]:
    """Mixture predictives of several groups of samples at several probe sets.

    Each group holds sample indices. The result has one row per group
    with one mixture per probe set, each as `averaged_prediction` gives
    it; members are averaged in sample order. Every sample a group names
    is predicted once per probe set, from one factorization of its
    training covariance, and feeds every group that names it; a sample
    whose `ast` is the very object of the sample before it (a rejected
    step keeps the state's tree) reuses that sample's predictives. Only
    each sample's `ast` is read, so chain states serve as well.
    """
    if not all(groups):
        raise ValueError("no samples to average over")
    arrays = [np.asarray(xs, dtype=float) for xs in probes]
    # Per group and probe set: the sums of the means and of the second moments.
    sums = [[np.zeros((2, probe.size)) for probe in arrays] for _ in groups]
    named: dict[int, list[int]] = {}
    for g, group in enumerate(groups):
        for index in group:
            named.setdefault(index, []).append(g)
    last_ast, moments = None, []
    for index in sorted(named):
        ast = samples[index].ast
        if ast is not last_ast:
            last_ast, moments = ast, []
            factor = observed_chol(ast, train, noise_var) if len(train) else None
            for probe in arrays:
                post = predict(ast, train, probe, noise_var, factor)
                second = post.variance + post.mean * post.mean
                moments.append(np.stack([post.mean, second]))
        for p, moment in enumerate(moments):
            for g in named[index]:
                sums[g][p] += moment
    mixtures = []
    for group, row in zip(groups, sums):
        mixtures.append([])
        for acc in row:
            mean, second = acc / len(group)
            mixtures[-1].append(GpPosterior(mean=mean, variance=second - mean * mean))
    return mixtures
