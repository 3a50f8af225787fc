"""End-to-end acceptance checks.

Each test prints one summary line, `[criterion NN] PASS/FAIL ...`, with
its measured numbers, then asserts every clause. Tolerances and time
budgets are pinned; seeds are fixed so reruns are reproducible.
"""

import math
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate, stats

import covsearch as cs
from covsearch.baseline import blr_baseline
from covsearch.data import _fit_standardization
from covsearch.gp import Dataset, log_marginal
from covsearch.inference import (
    ScheduleConfig,
    TraceState,
    averaged_prediction,
    drop_burn_in,
    hyper_gradients,
    map_structure,
    mh_structure_step,
    run_hyper_inference,
    run_schedule,
    structure_histogram,
)
from covsearch.kernels import (
    HyperSite,
    build_cov_matrix,
    hyper_sites,
    replace_subtree,
    structure_label,
    with_hyper,
)
from covsearch.prior import (
    PriorConfig,
    ast_log_prior,
    sample_ast,
    sample_hyper,
    sample_subtree,
    unconstrained_log_prior,
)
from covsearch.results import mse, rmse

from conftest import set_partitions, tree


def report(capsys, number, ok, detail):
    with capsys.disabled():
        verdict = "PASS" if ok else "FAIL"
        print(f"\n[criterion {number:02d}] {verdict} {detail}")


# ---------------------------------------------------------------------------


def test_criterion_01_gradients_match_finite_differences(capsys):
    start = time.monotonic()
    grammar = PriorConfig(operator_weights=(0.5, 0.5, 0.0))
    gen = np.random.default_rng(112)
    eps = 1e-5

    def objective(ast, data):
        return log_marginal(ast, data) + unconstrained_log_prior(ast)

    # unit x-range keeps the difference quotient at this step size out of
    # the truncation-dominated regime that tiny sampled periods create
    checked_trees = 0
    checked_sites = 0
    worst = 0.0
    while checked_trees < 100:
        ast = sample_ast(grammar, gen)
        data = Dataset(gen.uniform(0.0, 1.0, 10), gen.standard_normal(10))
        state = TraceState.init(ast, data, grammar, gen)
        grads = hyper_gradients(state)
        if not grads:
            continue
        for (node, slot), got in grads.items():
            site = ast.nodes[node].hypers[slot]
            up = with_hyper(
                ast, node, slot,
                HyperSite.from_unconstrained(site.unconstrained + eps, site.offset),
            )
            dn = with_hyper(
                ast, node, slot,
                HyperSite.from_unconstrained(site.unconstrained - eps, site.offset),
            )
            fd = (objective(up, data) - objective(dn, data)) / (2 * eps)
            worst = max(worst, abs(got - fd) / max(1.0, abs(fd)))
            checked_sites += 1
        checked_trees += 1
    elapsed = time.monotonic() - start
    ok = worst <= 1e-5 and elapsed < 60
    report(
        capsys, 1, ok,
        f"{checked_trees} trees / {checked_sites} sites, worst rel err "
        f"{worst:.2e} (tol 1e-5), {elapsed:.1f}s (budget 60s)",
    )
    assert worst <= 1e-5
    assert elapsed < 60


def test_criterion_02_likelihood_matches_dense_oracle(capsys):
    start = time.monotonic()
    gen = np.random.default_rng(202)
    worst = 0.0
    for _ in range(1000):
        ast = sample_ast(PriorConfig(), gen)
        n = int(gen.integers(1, 9))
        data = Dataset(gen.uniform(0.0, 10.0, n), gen.standard_normal(n))
        got = log_marginal(ast, data)
        K = build_cov_matrix(ast, data.xs) + 0.1 * np.eye(n)
        _, logdet = np.linalg.slogdet(K)
        want = (
            -0.5 * data.ys @ np.linalg.solve(K, data.ys)
            - 0.5 * logdet
            - 0.5 * n * math.log(2 * math.pi)
        )
        worst = max(worst, abs(got - want) / max(1.0, abs(want)))
    elapsed = time.monotonic() - start
    ok = worst <= 1e-9 and elapsed < 30
    report(
        capsys, 2, ok,
        f"1000 instances, worst rel err {worst:.2e} (tol 1e-9), "
        f"{elapsed:.1f}s (budget 30s)",
    )
    assert worst <= 1e-9
    assert elapsed < 30


def test_criterion_03_proposal_ratio_collapses_to_likelihoods(capsys):
    # resampling a fixed node from the prior: the prior and proposal
    # factors cancel, leaving the bare likelihood ratio
    start = time.monotonic()
    cfg = PriorConfig()
    gen = np.random.default_rng(303)
    data = Dataset(gen.uniform(0, 10, 8), gen.standard_normal(8))
    from covsearch.prior import subtree_log_prior

    worst = 0.0
    for _ in range(1000):
        current = sample_ast(cfg, gen)
        node = int(gen.choice(sorted(current.nodes)))
        proposal = replace_subtree(current, node, sample_subtree(cfg, node, gen))
        ll_cur = log_marginal(current, data)
        ll_new = log_marginal(proposal, data)
        five_factor = (
            (ast_log_prior(cfg, proposal) - ast_log_prior(cfg, current))
            + (ll_new - ll_cur)
            + (
                subtree_log_prior(cfg, current.nodes, node)
                - subtree_log_prior(cfg, proposal.nodes, node)
            )
        )
        bare = ll_new - ll_cur
        worst = max(worst, abs(five_factor - bare) / max(1.0, abs(bare)))
    elapsed = time.monotonic() - start
    ok = worst <= 1e-10 and elapsed < 60
    report(
        capsys, 3, ok,
        f"1000 fixed-node proposals, worst rel gap {worst:.2e} (tol 1e-10), "
        f"{elapsed:.1f}s (budget 60s)",
    )
    assert worst <= 1e-10
    assert elapsed < 60


def test_criterion_04_chain_occupancy_matches_enumeration(capsys):
    start = time.monotonic()
    xs = np.arange(5.0)
    ys = np.array([0.8, 0.2, 0.9, 0.1, 0.5])
    data = Dataset(xs, ys)
    grammar = PriorConfig(kernel_weights=(0.5, 0.5, 0.0, 0.0, 0.0), max_depth=1)

    # exact structure posterior: the hyper of each of the two candidate
    # leaves is integrated out by quadrature
    def marginal(kind):
        base = np.eye(5) if kind == "WN" else np.ones((5, 5))

        def density(h):
            K = h * base + 0.1 * np.eye(5)
            return math.exp(-h + stats.multivariate_normal.logpdf(ys, cov=K))

        value, _ = integrate.quad(density, 0.0, np.inf)
        return value

    z_wn, z_c = marginal("WN"), marginal("C")
    target = {"WN": z_wn / (z_wn + z_c), "C": z_c / (z_wn + z_c)}

    gen = np.random.default_rng(404)
    state = TraceState.init(sample_ast(grammar, gen), data, grammar, gen)
    steps = 100_000
    counts = {"WN": 0, "C": 0}
    for _ in range(steps):
        mh_structure_step(state)
        counts[state.ast.nodes[1].kernel.name] += 1
    tv = 0.5 * sum(abs(counts[k] / steps - target[k]) for k in target)
    elapsed = time.monotonic() - start
    ok = tv <= 0.02 and elapsed < 120
    report(
        capsys, 4, ok,
        f"target P(C)={target['C']:.4f}, chain {counts['C'] / steps:.4f}, "
        f"TV {tv:.4f} (tol 0.02), {elapsed:.0f}s (budget 120s)",
    )
    assert tv <= 0.02
    assert elapsed < 120


def test_criterion_05_period_modes_mh_vs_gradient(capsys):
    start = time.monotonic()
    data = cs.synth_data("periodic", 200, np.random.default_rng(7))
    train, hold = cs.split_holdout(data, 0.2, "extrapolate-tail")
    skeleton = tree(["PER", 1.0, 1.0])
    sites = hyper_sites(skeleton)
    period_offset = skeleton.nodes[1].hypers[1].offset

    def rebuild(values):
        ast = skeleton
        for (node, slot), value in zip(sites, values):
            offset = skeleton.nodes[node].hypers[slot].offset
            ast = with_hyper(ast, node, slot, HyperSite.from_constrained(value, offset))
        return ast

    def hypers(sample):
        nodes = sample.ast.nodes
        return [nodes[node].hypers[slot].constrained for node, slot in sites]

    def near_3(period):
        return np.abs(period - 3.0) <= 1.0

    def near_6(period):
        return np.abs(period - 6.0) <= 1.5

    # reference lane: the exact period posterior by quadrature on a
    # (lengthscale, period) grid, from the library's likelihood and prior;
    # the grid leaves out lengthscales above 6 and periods above 12, where
    # the prior puts e^-6 and e^-12 of its mass
    grid_l = np.linspace(0.02, 6.0, 40)
    grid_p = np.linspace(0.02, 12.0, 600)
    prior = PriorConfig()
    log_post = np.array([
        [
            log_marginal(ast, train) + ast_log_prior(prior, ast)
            for ast in (rebuild((length, period)) for period in grid_p)
        ]
        for length in grid_l
    ])
    period_mass = np.exp(log_post - log_post.max()).sum(axis=0)
    period_mass /= period_mass.sum()
    q_3 = float(period_mass[near_3(grid_p)].sum())
    q_6 = float(period_mass[near_6(grid_p)].sum())

    # MH lane: a posterior sample of the period across 12 chains
    mh_cfg = ScheduleConfig(chains=12, seed=1007, sweeps=800, hyper_steps=1)
    traces, _ = run_hyper_inference(train, skeleton, "mh", mh_cfg)
    post = [t for t in traces if t.sweep >= 400]
    periods = np.array([hypers(t)[1] for t in post])
    share_3 = float(np.mean(near_3(periods)))
    share_6 = float(np.mean(near_6(periods)))

    thin = post[::20]
    preds = np.zeros(len(hold))
    for point in thin:
        preds += cs.predict(rebuild(hypers(point)), train, hold.xs).mean
    mh_mse = mse(preds / len(thin), hold.ys)

    # gradient lane: each run should lock onto a single mode, and the
    # runs together should reach more than one
    grad_cfg = ScheduleConfig(
        chains=12, seed=2007, step_size=0.01, sweeps=600, hyper_steps=1
    )
    gtraces, gfinals = run_hyper_inference(train, skeleton, "gradient", grad_cfg)
    concentrations = []
    for chain in range(12):
        tail = np.array(
            [hypers(t)[1] for t in gtraces if t.chain == chain and t.sweep >= 300]
        )
        med = float(np.median(tail))
        concentrations.append(float(np.mean(np.abs(tail - med) <= 0.25 * max(med, 1e-9))))
    min_conc = min(concentrations)
    best = max(gfinals, key=lambda s: s.log_joint)
    grad_mse = mse(cs.predict(best.ast, train, hold.xs).mean, hold.ys)

    # runs that end below twice the offset have drifted onto the period
    # floor and found no mode; the rest split into basins wherever a
    # sorted final period is more than 25% above the one before, so
    # neighbouring basins' medians are over 25% apart
    final_periods = sorted(s.ast.nodes[1].hypers[1].constrained for s in gfinals)
    free = [p for p in final_periods if p >= 2.0 * period_offset]
    basins = 1 + sum(b > 1.25 * a for a, b in zip(free, free[1:])) if free else 0

    elapsed = time.monotonic() - start
    ok = (
        abs(share_3 - q_3) <= 0.05
        and abs(share_6 - q_6) <= 0.05
        and min_conc >= 0.9
        and basins >= 2
        and mh_mse <= 0.35
        and grad_mse <= 0.35
        and elapsed < 600
    )
    report(
        capsys, 5, ok,
        f"MH share near 3: {share_3:.3f} vs quadrature {q_3:.5f}, near 6: "
        f"{share_6:.3f} vs {q_6:.5f} (each within 0.05); gradient min "
        f"concentration {min_conc:.2f} (>=0.9); gradient final periods "
        f"[{', '.join(f'{p:.2f}' for p in final_periods)}] in "
        f"{basins} basins off the floor (>=2); "
        f"MSE mh {mh_mse:.3f} grad {grad_mse:.3f} (<=0.35); "
        f"{elapsed:.0f}s (budget 600s)",
    )
    assert abs(share_3 - q_3) <= 0.05
    assert abs(share_6 - q_6) <= 0.05
    assert min_conc >= 0.9
    assert basins >= 2
    assert mh_mse <= 0.35
    assert grad_mse <= 0.35
    assert elapsed < 600


def test_criterion_06_structure_posterior_and_model_averaging(capsys):
    start = time.monotonic()
    data = cs.synth_data("lin_plus_per", 50, np.random.default_rng(26))
    train, hold = cs.split_holdout(data, 0.2, "extrapolate-tail")

    wins = 0
    all_kept = []
    for seed in (1, 2, 3, 4):
        cfg = ScheduleConfig(
            sweeps=100, hyper_steps=50, structure_steps=100,
            chains=8, seed=seed, burn_in=0.3,
        )
        kept = drop_burn_in(run_schedule(train, cfg), 0.3)
        all_kept.extend(kept)
        map_label = map_structure(kept)
        avg = averaged_prediction(kept[::3], train, hold.xs, noisy=True)
        map_samples = [s for s in kept if s.label == map_label]
        map_pred = averaged_prediction(
            map_samples[::3] or map_samples, train, hold.xs, noisy=True
        )
        wins += rmse(avg.mean, hold.ys) < rmse(map_pred.mean, hold.ys)

    hist = structure_histogram(all_kept)
    total = sum(hist.values())
    lin_mass = sum(c for label, c in hist.items() if "LIN" in label) / total
    has_lin_per = "LIN + PER" in hist
    elapsed = time.monotonic() - start
    ok = lin_mass >= 0.5 and has_lin_per and wins >= 2 and elapsed < 900
    report(
        capsys, 6, ok,
        f"32 chains: LIN-containing mass {lin_mass:.3f} (>=0.5), "
        f"'LIN + PER' in support: {has_lin_per}, model-avg wins {wins}/4 "
        f"seeds (>=2), {elapsed:.0f}s (budget 900s)",
    )
    assert lin_mass >= 0.5
    assert has_lin_per
    assert wins >= 2
    assert elapsed < 900


def test_criterion_07_clustering_recovers_the_true_partition(capsys):
    start = time.monotonic()
    series = [
        cs.synth_data("linear", 100, np.random.default_rng(31)),
        cs.synth_data("linear", 100, np.random.default_rng(32)),
        cs.synth_data("periodic", 100, np.random.default_rng(33)),
        cs.synth_data("periodic", 100, np.random.default_rng(34)),
    ]
    cfg = ScheduleConfig(sweeps=128, hyper_steps=40, structure_steps=30, seed=6)
    samples = cs.run_cluster_schedule(series, cfg)
    tail = samples[-64:]
    counts = {}
    for sample in tail:
        counts[sample.partition] = counts.get(sample.partition, 0) + 1
    modal, hits = max(counts.items(), key=lambda item: item[1])
    truth = ((0, 1), (2, 3))
    elapsed = time.monotonic() - start
    ok = modal == truth and elapsed < 1200
    report(
        capsys, 7, ok,
        f"modal partition {modal} at {hits}/64 post-burn sweeps "
        f"(truth {truth}), {elapsed:.0f}s (budget 1200s)",
    )
    assert modal == truth
    assert elapsed < 1200


def test_criterion_08_gp_beats_blr_where_it_should(capsys):
    start = time.monotonic()
    # extrapolation on the airline series
    raw = cs.airline_dataset()
    transform = _fit_standardization(raw.xs, raw.ys)
    air = Dataset(transform.x_forward(raw.xs), transform.y_forward(raw.ys))
    train_a, hold_a = cs.split_holdout(air, 0.2, "extrapolate-tail")
    cfg_a = ScheduleConfig(
        sweeps=80, hyper_steps=60, structure_steps=80, chains=8, seed=9, burn_in=0.3
    )
    kept_a = drop_burn_in(run_schedule(train_a, cfg_a), 0.3)
    gp_a = rmse(
        averaged_prediction(kept_a[::6], train_a, hold_a.xs, noisy=True).mean,
        hold_a.ys,
    )
    blr_a = rmse(blr_baseline(train_a, hold_a.xs).mean, hold_a.ys)

    # interpolation across a level shift
    shifted = cs.synth_data("cp_demo", 100, np.random.default_rng(41))
    train_c, hold_c = cs.split_holdout(shifted, 0.2, "interpolate-middle")
    cfg_c = ScheduleConfig(
        sweeps=30, hyper_steps=50, structure_steps=50, chains=8, seed=9, burn_in=0.3
    )
    kept_c = drop_burn_in(run_schedule(train_c, cfg_c), 0.3)
    gp_c = rmse(
        averaged_prediction(kept_c[::4], train_c, hold_c.xs, noisy=True).mean,
        hold_c.ys,
    )
    blr_c = rmse(blr_baseline(train_c, hold_c.xs).mean, hold_c.ys)

    elapsed = time.monotonic() - start
    ok = gp_a < blr_a and gp_c < blr_c and elapsed < 1200
    report(
        capsys, 8, ok,
        f"airline extrapolation rmse gp {gp_a:.4f} < blr {blr_a:.4f}: "
        f"{gp_a < blr_a}; level-shift interpolation rmse gp {gp_c:.4f} < "
        f"blr {blr_c:.4f}: {gp_c < blr_c}; {elapsed:.0f}s (budget 1200s)",
    )
    assert gp_a < blr_a
    assert gp_c < blr_c
    assert elapsed < 1200


def test_criterion_09_prior_self_consistency(capsys):
    start = time.monotonic()
    cfg = PriorConfig()
    gen = np.random.default_rng(909)

    # analytic label masses for every tree of depth <= 2; each hyper
    # integrates to one, so these closed forms are exact for any label
    # whose trees all fit in two levels
    kinds = list(zip(("WN", "C", "LIN", "SE", "PER"), cfg.kernel_weights))
    ops = list(zip(("+", "*", "CP"), cfg.operator_weights))
    fills = {"WN": [0.5], "C": [0.5], "LIN": [0.5], "SE": [0.51], "PER": [0.51, 0.51]}
    analytic = {}
    for tag, w in kinds:
        label = structure_label(tree([tag, *fills[tag]]))
        analytic[label] = analytic.get(label, 0.0) + (1 - cfg.p_branch) * w
    leaf_p = (1 - cfg.p_branch) * cfg.kernel_weights[0]
    for op_tag, op_w in ops:
        for l_tag, l_w in kinds:
            for r_tag, r_w in kinds:
                shape = (
                    [op_tag, 0.5, [l_tag, *fills[l_tag]], [r_tag, *fills[r_tag]]]
                    if op_tag == "CP"
                    else [op_tag, [l_tag, *fills[l_tag]], [r_tag, *fills[r_tag]]]
                )
                label = structure_label(tree(shape))
                mass = (
                    cfg.p_branch * op_w
                    * (1 - cfg.p_branch) * l_w
                    * (1 - cfg.p_branch) * r_w
                )
                analytic[label] = analytic.get(label, 0.0) + mass

    draws = 100_000
    counts = {}
    for _ in range(draws):
        label = structure_label(sample_ast(cfg, gen))
        counts[label] = counts.get(label, 0) + 1
    top10 = sorted(counts, key=lambda lab: (-counts[lab], lab))[:10]
    assert all(label in analytic for label in top10), top10
    tv = 0.5 * sum(abs(counts[lab] / draws - analytic[lab]) for lab in top10)

    # partition prior normalizes over the 15 partitions of 4 items
    partitions = list(set_partitions(range(4)))
    total = sum(
        math.exp(
            cs.crp_log_prior({i: c for c, block in enumerate(p) for i in block})
        )
        for p in partitions
    )
    partition_gap = abs(total - 1.0)

    # hyper prior: unit-mean exponential above the offset
    hyper_mean = float(
        np.mean([sample_hyper(gen).constrained for _ in range(100_000)])
    )

    elapsed = time.monotonic() - start
    ok = (
        tv <= 0.02
        and partition_gap <= 1e-12
        and abs(hyper_mean - 1.0) <= 0.02
        and elapsed < 60
    )
    report(
        capsys, 9, ok,
        f"top-10 label TV {tv:.4f} (<=0.02); partition mass gap "
        f"{partition_gap:.1e} (<=1e-12, {len(partitions)} partitions); "
        f"hyper mean {hyper_mean:.4f} (1 +- 0.02); {elapsed:.0f}s (budget 60s)",
    )
    assert tv <= 0.02
    assert partition_gap <= 1e-12
    assert abs(hyper_mean - 1.0) <= 0.02
    assert elapsed < 60


def test_criterion_10_runs_are_byte_identical(capsys, tmp_path):
    start = time.monotonic()
    env_dir = Path(tmp_path)

    def invoke(*args):
        proc = subprocess.run(
            [sys.executable, "-m", "covsearch", *args],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        return proc

    synth_dir = env_dir / "data"
    invoke(
        "synth-data", "--kind", "lin_plus_per", "--n", "40",
        "--out", str(synth_dir), "--seed", "12",
    )
    data_file = synth_dir / "lin_plus_per.csv"
    panel_file = synth_dir / "panel.csv"
    rows = ["series_id,x,y"]
    for seed, kind in ((13, "linear"), (14, "periodic"), (15, "linear")):
        series = cs.synth_data(kind, 20, np.random.default_rng(seed))
        pairs = zip(series.xs.tolist(), series.ys.tolist())
        rows += [f"{kind}{seed},{x!r},{y!r}" for x, y in pairs]
    panel_file.write_text("\n".join(rows) + "\n")

    runs = {
        "fit": (
            "fit", "--data", str(data_file), "--seed", "21",
            "--set", "schedule.sweeps=6",
            "--set", "schedule.hyper_steps=6",
            "--set", "schedule.structure_steps=6",
            "--set", "run.probe_count=40",
        ),
        "compare-inference": (
            "compare-inference", "--data", str(data_file), "--seed", "21",
            "--chains", "2",
            "--set", 'run.compare_structure=["+", ["LIN", 1.0], '
            '["*", ["PER", 1.0, 1.0], ["SE", 1.0]]]',
            "--set", "schedule.sweeps=2",
            "--set", "schedule.hyper_steps=6",
        ),
        "cluster": (
            "cluster", "--data", str(panel_file), "--seed", "21",
            "--set", "schedule.sweeps=6",
            "--set", "schedule.hyper_steps=6",
            "--set", "schedule.structure_steps=6",
        ),
    }
    names, mismatched = [], []
    for task, args in runs.items():
        out_one = env_dir / task / "one"
        out_two = env_dir / task / "two"
        invoke(*args, "--out", str(out_one))
        invoke(*args, "--out", str(out_two))
        files = sorted(p.name for p in out_one.iterdir())
        assert files == sorted(p.name for p in out_two.iterdir())
        names += [f"{task}/{name}" for name in files]
        mismatched += [
            f"{task}/{name}"
            for name in files
            if (out_one / name).read_bytes() != (out_two / name).read_bytes()
        ]
    elapsed = time.monotonic() - start
    ok = not mismatched and len(names) >= 8
    report(
        capsys, 10, ok,
        f"two identical runs each of a single-chain fit, a 2-chain "
        f"compare-inference and a cluster, {len(names)} output files compared "
        f"byte for byte, mismatches: {mismatched or 'none'}; {elapsed:.0f}s",
    )
    assert not mismatched
    assert len(names) >= 8
