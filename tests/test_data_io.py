"""CSV ingestion, synthetic data, baselines, configuration, and the CLI."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import covsearch
from covsearch.baseline import blr_baseline, nig_posterior
from covsearch.blas import THREAD_VARS, openblas_pools
from covsearch.cli import main
from covsearch.config import (
    RunConfig,
    load_config,
    with_chains,
    with_seed,
    with_task,
)
from covsearch.data import (
    HOLDOUT_MODES,
    SYNTH_KINDS,
    airline_dataset,
    ingest_csv,
    split_holdout,
    synth_ast,
    synth_data,
    write_dataset_csv,
)
from covsearch.errors import ConfigError, DataError
from covsearch.gp import Dataset, predict
from covsearch.kernels import structure_label
from covsearch.results import emit_results, fmt_float, mse, render_histogram, rmse

from conftest import toy_data, tree


# ---------------------------------------------------------------------------
# Ingestion


def test_ingest_single_series(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("x,y\n0.0,1.0\n2.5,-0.5\n")
    result = ingest_csv(path)
    data = result.dataset
    assert np.array_equal(data.xs, [0.0, 2.5])
    assert np.array_equal(data.ys, [1.0, -0.5])
    assert result.standardization is None


def test_ingest_multi_series_keeps_first_appearance_order(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text(
        "series_id,x,y\nb,0,1\na,0,2\nb,1,3\na,1,4\n"
    )
    result = ingest_csv(path)
    names = [name for name, _ in result.series]
    assert names == ["b", "a"]
    assert np.array_equal(result.series[0][1].ys, [1.0, 3.0])
    assert np.array_equal(result.series[1][1].ys, [2.0, 4.0])
    with pytest.raises(DataError):
        result.dataset  # ambiguous with two series


@pytest.mark.parametrize(
    "body,fragment",
    [
        ("a,b\n0,1\n", "header"),
        ("x,y\n0\n", "line 2"),
        ("x,y\n0,1\n1,one\n", "line 3"),
        ("x,y\n0,inf\n", "line 2"),
        ("x,y\n", "no rows"),
        ("", "empty"),
    ],
)
def test_ingest_rejects_malformed_files(tmp_path, body, fragment):
    path = tmp_path / "bad.csv"
    path.write_text(body)
    with pytest.raises(DataError) as info:
        ingest_csv(path)
    assert fragment in str(info.value)


def test_ingest_missing_file():
    with pytest.raises(DataError):
        ingest_csv("/nonexistent/nowhere.csv")


def test_ingest_standardizes_with_one_shared_transform(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("series_id,x,y\na,1990,5\na,2000,7\nb,1995,9\nb,2010,11\n")
    result = ingest_csv(path, standardize=True)
    tr = result.standardization
    all_xs = np.concatenate([ds.xs for _, ds in result.series])
    all_ys = np.concatenate([ds.ys for _, ds in result.series])
    assert all_xs.min() == pytest.approx(0.0, abs=1e-12)
    assert all_xs.max() == pytest.approx(10.0, abs=1e-12)
    assert all_ys.mean() == pytest.approx(0.0, abs=1e-12)
    assert np.std(all_ys) == pytest.approx(1.0, rel=1e-12)
    # transforms invert
    assert tr.x_back(tr.x_forward(np.array([2003.0])))[0] == pytest.approx(2003.0)
    assert tr.y_back(tr.y_forward(np.array([8.5])))[0] == pytest.approx(8.5)
    assert tr.y_spread_back(np.array([1.0]))[0] == pytest.approx(np.std([5, 7, 9, 11]))


def test_standardization_rejects_degenerate_data(tmp_path):
    flat_x = tmp_path / "fx.csv"
    flat_x.write_text("x,y\n1,2\n1,3\n")
    with pytest.raises(DataError):
        ingest_csv(flat_x, standardize=True)
    flat_y = tmp_path / "fy.csv"
    flat_y.write_text("x,y\n1,2\n2,2\n")
    with pytest.raises(DataError):
        ingest_csv(flat_y, standardize=True)


def test_write_then_ingest_roundtrips_exactly(tmp_path):
    data = toy_data(seed=50, n=9)
    path = tmp_path / "rt.csv"
    write_dataset_csv(path, data)
    back = ingest_csv(path).dataset
    assert np.array_equal(back.xs, data.xs)
    assert np.array_equal(back.ys, data.ys)


# ---------------------------------------------------------------------------
# Synthetic benchmarks and holdout splits


def test_synth_kinds_and_determinism():
    for kind in SYNTH_KINDS:
        a = synth_data(kind, 40, np.random.default_rng(6))
        b = synth_data(kind, 40, np.random.default_rng(6))
        assert len(a) == 40
        assert np.array_equal(a.xs, b.xs)
        assert np.array_equal(a.ys, b.ys)
        assert a.xs.min() == 0.0 and a.xs.max() == 10.0


def test_synth_rejects_unknown_kind():
    with pytest.raises(ValueError):
        synth_data("brownian", 10, np.random.default_rng(0))


def test_synth_ast_labels():
    assert structure_label(synth_ast("periodic")) == "PER"
    assert structure_label(synth_ast("lin_plus_per")) == "LIN + PER"
    assert structure_label(synth_ast("linear")) == "LIN"
    assert structure_label(synth_ast("cp_demo")) == "CP(C, PER)"


def test_split_tail_holds_largest_inputs():
    data = Dataset(np.array([3.0, 1.0, 5.0, 2.0, 4.0]), np.arange(5.0))
    train, hold = split_holdout(data, 0.4, "extrapolate-tail")
    assert sorted(hold.xs) == [4.0, 5.0]
    assert sorted(train.xs) == [1.0, 2.0, 3.0]


def test_split_middle_holds_a_centered_stretch():
    data = Dataset(np.arange(10.0), np.arange(10.0))
    train, hold = split_holdout(data, 0.2, "interpolate-middle")
    assert list(hold.xs) == [4.0, 5.0]


def test_split_random_needs_rng_and_is_seeded():
    data = Dataset(np.arange(10.0), np.arange(10.0))
    with pytest.raises(DataError):
        split_holdout(data, 0.2, "random")
    a = split_holdout(data, 0.3, "random", np.random.default_rng(3))
    b = split_holdout(data, 0.3, "random", np.random.default_rng(3))
    assert np.array_equal(a[1].xs, b[1].xs)
    assert len(a[1]) == 3


def test_split_edge_cases():
    data = Dataset(np.arange(4.0), np.arange(4.0))
    train, hold = split_holdout(data, 0.0, "extrapolate-tail")
    assert len(hold) == 0 and len(train) == 4
    with pytest.raises(DataError):
        split_holdout(data, 0.9, "extrapolate-tail")  # nothing left to train on
    with pytest.raises(DataError):
        split_holdout(data, 0.5, "nearest-neighbor")


def test_airline_dataset_pinned_values():
    data = airline_dataset()
    assert len(data) == 144
    assert data.xs[0] == 1949.0
    assert data.ys[0] == 112.0
    assert data.ys[-1] == 432.0
    assert data.ys.max() == 622.0
    assert data.ys.min() == 104.0
    assert np.all(np.diff(data.xs) > 0)


# ---------------------------------------------------------------------------
# Bayesian linear regression baseline


def nig_oracle(train, probe):
    X = np.column_stack([np.ones(len(train)), train.xs])
    lam = np.eye(2) + X.T @ X
    mu = np.linalg.solve(lam, X.T @ train.ys)
    shape = 1.0 + len(train) / 2.0
    rate = 1.0 + 0.5 * (train.ys @ train.ys - mu @ lam @ mu)
    P = np.column_stack([np.ones(len(probe)), probe])
    mean = P @ mu
    lev = np.einsum("ij,ij->i", P @ np.linalg.inv(lam), P)
    var = rate * (1.0 + lev) / (shape - 1.0)
    return mean, var


def test_blr_matches_explicit_conjugate_update():
    train = toy_data(seed=60, n=12, spread=2.0)
    probe = np.linspace(-2, 12, 7)
    post = blr_baseline(train, probe)
    want_mean, want_var = nig_oracle(train, probe)
    assert np.allclose(post.mean, want_mean, atol=1e-10)
    assert np.allclose(post.variance, want_var, atol=1e-10)


def test_blr_recovers_a_clean_line():
    xs = np.linspace(0, 10, 30)
    train = Dataset(xs, 2.0 * xs + 1.0)
    post = blr_baseline(train, np.array([20.0]))
    assert post.mean[0] == pytest.approx(41.0, rel=0.02)


def test_nig_posterior_components():
    train = Dataset(np.array([0.0, 1.0]), np.array([1.0, 3.0]))
    coef, precision, shape, rate = nig_posterior(train)
    X = np.array([[1.0, 0.0], [1.0, 1.0]])
    assert np.allclose(precision, np.eye(2) + X.T @ X)
    assert shape == pytest.approx(2.0)
    assert np.allclose(coef, np.linalg.solve(precision, X.T @ train.ys))


# ---------------------------------------------------------------------------
# Configuration


def test_config_defaults():
    cfg = load_config()
    assert cfg.task == "fit"
    assert cfg.noise_var == 0.1
    assert cfg.standardize is None
    assert cfg.resolved_standardize() is True
    assert cfg.holdout_fraction == 0.2
    assert cfg.prior.max_depth == 10
    assert cfg.schedule.sweeps == 30
    assert cfg.concentration == 0.5


def test_resolved_standardize_tracks_task():
    assert with_task(load_config(), "compare-inference").resolved_standardize() is False
    assert with_task(load_config(), "cluster").resolved_standardize() is True
    forced = load_config(overrides=("run.standardize=false",))
    assert forced.resolved_standardize() is False


def test_readme_config_block_spells_out_the_defaults(tmp_path):
    readme = Path(__file__).resolve().parents[1] / "README.md"
    block = readme.read_text().split("```ini\n", 1)[1].split("```", 1)[0]
    path = tmp_path / "readme.ini"
    path.write_text(block)
    assert load_config(path) == load_config()


def test_config_file_and_overrides(tmp_path):
    ini = tmp_path / "run.ini"
    ini.write_text(
        "[run]\nnoise_var = 0.25\nholdout_mode = interpolate-middle\n"
        "[prior]\np_branch = 0.4\nkernel_weights = 0.5,0.5,0,0,0\n"
        "[schedule]\nsweeps = 11\nhyper_mode = mh\nsize_correction = off\n"
        "[cluster]\nconcentration = 1.5\n"
    )
    cfg = load_config(ini, overrides=("schedule.sweeps=13", "run.probe_count=50"))
    assert cfg.noise_var == 0.25
    assert cfg.holdout_mode == "interpolate-middle"
    assert cfg.prior.p_branch == 0.4
    assert cfg.prior.kernel_weights == (0.5, 0.5, 0.0, 0.0, 0.0)
    assert cfg.schedule.sweeps == 13  # override wins over the file
    assert cfg.schedule.hyper_mode == "mh"
    assert cfg.schedule.size_correction is False
    assert cfg.probe_count == 50
    assert cfg.concentration == 1.5


@pytest.mark.parametrize(
    "overrides",
    [
        ("noise=0.5",),
        ("run.mystery=1",),
        ("engine.speed=9",),
        ("schedule.sweeps=many",),
        ("run.standardize=maybe",),
        ("prior.kernel_weights=a,b",),
        ("run.noise_var=-1",),
        ("schedule.chains=0",),
        ("prior.p_branch=2",),
    ],
)
def test_config_rejects_bad_overrides(overrides):
    with pytest.raises(ConfigError):
        load_config(overrides=overrides)


def test_config_rejects_unknown_file_sections(tmp_path):
    ini = tmp_path / "run.ini"
    ini.write_text("[extras]\nkey = 1\n")
    with pytest.raises(ConfigError):
        load_config(ini)
    with pytest.raises(ConfigError):
        load_config(tmp_path / "missing.ini")


def test_with_helpers():
    cfg = load_config()
    assert with_seed(cfg, 99).schedule.seed == 99
    assert with_chains(cfg, 4).schedule.chains == 4
    with pytest.raises(ConfigError):
        with_chains(cfg, 0)
    with pytest.raises(ConfigError):
        RunConfig(task="explore")


# ---------------------------------------------------------------------------
# Result rendering


def test_fmt_float_roundtrips():
    for value in (0.1, 1 / 3, 1e-17, -2.5e300, 123456789.123456789, 0.0):
        assert float(fmt_float(value)) == value


def test_mse_and_rmse():
    assert mse([1.0, 2.0], [0.0, 4.0]) == pytest.approx(2.5)
    assert rmse([1.0, 2.0], [0.0, 4.0]) == pytest.approx(math.sqrt(2.5))
    with pytest.raises(ValueError):
        mse([1.0], [1.0, 2.0])
    with pytest.raises(ValueError):
        mse([], [])


def test_render_histogram_masses():
    payload = render_histogram({"SE": 3, "C": 1})
    assert payload["total_samples"] == 4
    assert payload["structures"]["SE"]["mass"] == pytest.approx(0.75)
    with pytest.raises(ValueError):
        render_histogram({})


def test_emit_results_writes_expected_files(tmp_path):
    out = tmp_path / "out"
    written = emit_results(
        out,
        histogram={"SE": 2},
        predictions={"x": np.arange(3.0), "mean": np.ones(3)},
        metrics={"rmse": 1.0},
        partitions=[{"sweep": 0, "partition": [["a"]]}],
        traces={"mh": {"step": np.arange(2.0)}},
    )
    names = sorted(p.name for p in written)
    assert names == [
        "hyper_traces_mh.csv",
        "metrics.json",
        "partitions.json",
        "predictions.csv",
        "structure_histogram.json",
    ]
    loaded = json.loads((out / "metrics.json").read_text())
    assert loaded == {"rmse": 1.0}
    header = (out / "predictions.csv").read_text().splitlines()[0]
    assert header == "x,mean"


def test_emit_results_validates_before_writing_anything(tmp_path):
    out = tmp_path / "out"
    with pytest.raises(ValueError):
        emit_results(
            out,
            histogram={"SE": 2},
            predictions={"x": np.arange(3.0), "mean": np.ones(2)},  # ragged
        )
    assert not out.exists()
    with pytest.raises(ValueError):
        emit_results(out)
    with pytest.raises(ValueError):
        emit_results(out, metrics={})


# ---------------------------------------------------------------------------
# Command line, in process


def run_cli(*argv):
    return main(list(argv))


def test_cli_synth_then_fit_then_predict(tmp_path):
    out_synth = tmp_path / "synth"
    code = run_cli(
        "synth-data", "--kind", "periodic", "--n", "30",
        "--out", str(out_synth), "--seed", "3",
    )
    assert code == 0
    data_file = out_synth / "periodic.csv"
    assert data_file.exists()

    out_fit = tmp_path / "fit"
    code = run_cli(
        "fit", "--data", str(data_file), "--out", str(out_fit), "--seed", "1",
        "--set", "schedule.sweeps=4",
        "--set", "schedule.hyper_steps=4",
        "--set", "schedule.structure_steps=4",
        "--set", "run.probe_count=20",
    )
    assert code == 0
    for name in ("structure_histogram.json", "predictions.csv", "metrics.json"):
        assert (out_fit / name).exists()
    metrics = json.loads((out_fit / "metrics.json").read_text())
    assert metrics["n_holdout"] == 6  # 20% of 30
    assert "gp_average_rmse" in metrics["holdout"]
    assert "blr_rmse" in metrics["holdout"]

    out_pred = tmp_path / "pred"
    code = run_cli(
        "predict", "--data", str(data_file), "--out", str(out_pred), "--seed", "1",
        "--set", "schedule.sweeps=3",
        "--set", "schedule.hyper_steps=3",
        "--set", "schedule.structure_steps=3",
        "--set", "run.probe_count=15",
        "--set", "run.emit_sample_curves=2",
    )
    assert code == 0
    header = (out_pred / "predictions.csv").read_text().splitlines()[0]
    assert header.split(",")[:6] == ["x", "mean", "std", "map_mean", "blr_mean", "blr_std"]
    assert "sample_0" in header and "sample_1" in header
    metrics = json.loads((out_pred / "metrics.json").read_text())
    assert metrics["n_holdout"] == 0


def test_cli_cluster(tmp_path):
    rows = ["series_id,x,y"]
    gen = np.random.default_rng(7)
    for name, slope in (("a", 0.5), ("b", -0.4)):
        xs = np.linspace(0, 10, 12)
        for x, y in zip(xs, slope * xs + 0.05 * gen.standard_normal(12)):
            rows.append(f"{name},{x},{y}")
    data_file = tmp_path / "pair.csv"
    data_file.write_text("\n".join(rows) + "\n")
    out = tmp_path / "out"
    code = run_cli(
        "cluster", "--data", str(data_file), "--out", str(out), "--seed", "2",
        "--set", "schedule.sweeps=4",
        "--set", "schedule.hyper_steps=3",
        "--set", "schedule.structure_steps=3",
    )
    assert code == 0
    records = json.loads((out / "partitions.json").read_text())
    assert len(records) == 4
    for record in records:
        flattened = sorted(n for block in record["partition"] for n in block)
        assert flattened == ["a", "b"]
        assert len(record["labels"]) == len(record["partition"])
    metrics = json.loads((out / "metrics.json").read_text())
    assert "modal_partition" in metrics


def test_cli_compare_inference(tmp_path):
    out_synth = tmp_path / "synth"
    assert run_cli(
        "synth-data", "--kind", "periodic", "--n", "24",
        "--out", str(out_synth), "--seed", "5",
    ) == 0
    out = tmp_path / "cmp"
    code = run_cli(
        "compare-inference", "--data", str(out_synth / "periodic.csv"),
        "--out", str(out), "--seed", "4", "--chains", "2",
        "--set", "schedule.sweeps=2",
        "--set", "schedule.hyper_steps=10",
    )
    assert code == 0
    metrics = json.loads((out / "metrics.json").read_text())
    assert set(metrics["methods"]) == {"mh", "gradient"}
    for method in ("mh", "gradient"):
        trace_file = out / f"hyper_traces_{method}.csv"
        lines = trace_file.read_text().splitlines()
        assert lines[0] == "chain,step,log_joint,h0,h1"
        assert len(lines) == 1 + 2 * 20  # two chains, sweeps*hyper_steps rows
        assert "holdout_mse" in metrics["methods"][method]


def test_cli_compare_mh_holdout_mse_averages_the_kept_trace_rows(tmp_path):
    out_synth = tmp_path / "synth"
    assert run_cli(
        "synth-data", "--kind", "periodic", "--n", "24",
        "--out", str(out_synth), "--seed", "5",
    ) == 0
    out = tmp_path / "cmp"
    assert run_cli(
        "compare-inference", "--data", str(out_synth / "periodic.csv"),
        "--out", str(out), "--seed", "4", "--chains", "2",
        "--set", "schedule.sweeps=3",
        "--set", "schedule.hyper_steps=100",
    ) == 0
    cfg = load_config()
    train, held = split_holdout(
        ingest_csv(out_synth / "periodic.csv").dataset,
        cfg.holdout_fraction, cfg.holdout_mode,
    )
    lines = (out / "hyper_traces_mh.csv").read_text().splitlines()
    rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    cut = int(cfg.schedule.burn_in * 300)
    kept = [row for row in rows if row[1] >= cut]
    kept = kept[:: len(kept) // 200]
    assert len(kept) == 240  # 2 chains x 240 post-burn-in steps, every 2nd
    total = np.zeros(len(held))
    for _, _, _, h0, h1 in kept:
        total += predict(tree(["PER", h0, h1]), train, held.xs, cfg.noise_var).mean
    want = mse(total / len(kept), held.ys)
    metrics = json.loads((out / "metrics.json").read_text())
    assert metrics["methods"]["mh"]["holdout_mse"] == want


def test_cli_compare_predicts_each_kept_tree_once(tmp_path, monkeypatch):
    import covsearch.inference as inference

    calls = []
    original = inference.predict

    def counting(ast, *args, **kwargs):
        calls.append(ast)
        return original(ast, *args, **kwargs)

    monkeypatch.setattr(inference, "predict", counting)
    out_synth = tmp_path / "synth"
    assert run_cli(
        "synth-data", "--kind", "periodic", "--n", "24",
        "--out", str(out_synth), "--seed", "5",
    ) == 0
    out = tmp_path / "cmp"
    assert run_cli(
        "compare-inference", "--data", str(out_synth / "periodic.csv"),
        "--out", str(out), "--seed", "4", "--chains", "2",
        "--set", "schedule.sweeps=3",
        "--set", "schedule.hyper_steps=100",
    ) == 0
    lines = (out / "hyper_traces_mh.csv").read_text().splitlines()
    rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    cut = int(load_config().schedule.burn_in * 300)
    kept = [row for row in rows if row[1] >= cut]
    kept = kept[:: len(kept) // 200]
    # A kept row repeats the tree of the row before it when every step
    # between them was rejected; the gradient lane predicts once.
    points = [(chain, h0, h1) for chain, _, _, h0, h1 in kept]
    distinct = 1 + sum(a != b for a, b in zip(points, points[1:]))
    assert distinct < len(kept)
    assert len(calls) == distinct + 1


def test_cli_cluster_modal_partition_recounts_from_the_partitions(tmp_path):
    rows = ["series_id,x,y"]
    gen = np.random.default_rng(8)
    xs = np.linspace(0, 10, 12)
    for name, ys in (("a", 0.5 * xs), ("b", np.sin(2 * xs)), ("c", -0.4 * xs)):
        for x, y in zip(xs, ys + 0.1 * gen.standard_normal(12)):
            rows.append(f"{name},{x},{y}")
    data_file = tmp_path / "trio.csv"
    data_file.write_text("\n".join(rows) + "\n")
    out = tmp_path / "out"
    assert run_cli(
        "cluster", "--data", str(data_file), "--out", str(out), "--seed", "5",
        "--set", "cluster.concentration=3.0",
        "--set", "schedule.sweeps=9",
        "--set", "schedule.hyper_steps=2",
        "--set", "schedule.structure_steps=2",
    ) == 0
    records = json.loads((out / "partitions.json").read_text())
    # Five partitions occur; counting the burn-in sweeps too would give
    # a mass of 4/9, not 3/7.
    post = records[math.ceil(load_config().schedule.burn_in * len(records)) :]
    assert len(post) == 7
    tallies = {}
    for record in post:
        partition = tuple(tuple(block) for block in record["partition"])
        tallies[partition] = tallies.get(partition, 0) + 1
    modal = max(sorted(tallies), key=lambda p: tallies[p])
    metrics = json.loads((out / "metrics.json").read_text())
    assert metrics["modal_partition"] == [list(block) for block in modal]
    assert metrics["modal_mass"] == tallies[modal] / len(post)


def _pool_threads():
    return [get() for get, _ in openblas_pools()]


@pytest.fixture
def blas_pools(monkeypatch):
    """Loaded OpenBLAS pools at 2 threads, thread variables unset."""
    pools = openblas_pools()
    if not pools:
        pytest.skip("no OpenBLAS loaded in this process")
    for var in THREAD_VARS:
        monkeypatch.delenv(var, raising=False)
    previous = _pool_threads()
    for _, put in pools:
        put(2)
    yield pools
    for (_, put), count in zip(pools, previous):
        put(count)


def _threads_during_synth(tmp_path, monkeypatch):
    import covsearch.cli as cli

    seen = []
    runner = cli._run_synth

    def recording(args, cfg):
        seen.append(_pool_threads())
        runner(args, cfg)

    monkeypatch.setattr(cli, "_run_synth", recording)
    code = run_cli("synth-data", "--kind", "periodic", "--n", "10", "--out", str(tmp_path))
    assert code == 0
    return seen


def test_cli_runs_each_task_on_one_blas_thread(tmp_path, monkeypatch, blas_pools):
    seen = _threads_during_synth(tmp_path, monkeypatch)
    assert seen == [[1] * len(blas_pools)]
    assert _pool_threads() == [2] * len(blas_pools)


def test_cli_leaves_blas_threads_to_the_environment(tmp_path, monkeypatch, blas_pools):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
    seen = _threads_during_synth(tmp_path, monkeypatch)
    assert seen == [[2] * len(blas_pools)]


def test_cli_output_bytes_match_an_explicit_single_blas_thread(tmp_path):
    # At n = 40 OpenBLAS keeps one thread on its own; at 160 points the
    # default thread count changes the predictions' last digits.
    data = tmp_path / "series.csv"
    write_dataset_csv(data, synth_data("lin_plus_per", 160, np.random.default_rng(12)))
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(covsearch.__file__).resolve().parents[1]), env.get("PYTHONPATH", "")]
    )
    outs = []
    for extra in ({}, {"OPENBLAS_NUM_THREADS": "1"}):
        out = tmp_path / f"out{len(outs)}"
        proc = subprocess.run(
            [
                sys.executable, "-m", "covsearch", "fit", "--data", str(data),
                "--seed", "21", "--out", str(out),
                "--set", "schedule.sweeps=6",
                "--set", "schedule.hyper_steps=6",
                "--set", "schedule.structure_steps=6",
            ],
            env={**env, **extra}, capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        outs.append(out)
    names = sorted(p.name for p in outs[0].iterdir())
    assert names == sorted(p.name for p in outs[1].iterdir())
    for name in names:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name


def test_cli_process_loads_no_scipy(tmp_path):
    # scipy.linalg costs about 0.3 s of start-up; the command line needs it
    # only where numpy's OpenBLAS offers no LAPACK to bind.
    data = tmp_path / "series.csv"
    write_dataset_csv(data, synth_data("lin_plus_per", 12, np.random.default_rng(3)))
    script = (
        "import sys\n"
        "from covsearch import cli, gp\n"
        f"code = cli.main(['fit', '--data', {str(data)!r}, '--out', {str(tmp_path / 'out')!r},"
        " '--set', 'schedule.sweeps=2', '--set', 'schedule.hyper_steps=2',"
        " '--set', 'schedule.structure_steps=2'])\n"
        "print(code, gp._LAPACK is not None, 'scipy' in sys.modules)\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(covsearch.__file__).resolve().parents[1]), env.get("PYTHONPATH", "")]
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    code, bound, scipy_loaded = proc.stdout.split()
    assert code == "0"
    assert scipy_loaded == ("False" if bound == "True" else "True")


def test_cli_exit_codes(tmp_path):
    out = tmp_path / "o"
    # unknown config key
    assert run_cli(
        "synth-data", "--kind", "periodic", "--out", str(out),
        "--set", "run.wild=1",
    ) == 2
    # compare skeleton with a changepoint: the gradient lane cannot run it
    data = tmp_path / "d.csv"
    data.write_text("x,y\n0,1\n1,2\n2,1\n3,2\n4,1\n")
    assert run_cli(
        "compare-inference", "--data", str(data), "--out", str(out),
        "--set", 'run.compare_structure=["CP", 5.0, ["C", 1.0], ["C", 1.0]]',
        "--set", "run.standardize=false",
    ) == 2
    # missing data file
    assert run_cli(
        "fit", "--data", str(tmp_path / "ghost.csv"), "--out", str(out),
    ) == 3
    # malformed data row
    bad = tmp_path / "bad.csv"
    bad.write_text("x,y\n0,one\n")
    assert run_cli("fit", "--data", str(bad), "--out", str(out)) == 3


def test_cli_numeric_failures_exit_4(tmp_path, monkeypatch):
    import covsearch.cli as cli
    from covsearch.errors import NumericError

    def explode(*args, **kwargs):
        raise NumericError("synthetic blowup", jitters=(0.0,))

    monkeypatch.setattr(cli, "run_schedule", explode)
    data = tmp_path / "d.csv"
    data.write_text("x,y\n0,1\n1,2\n2,1\n3,2\n4,1\n")
    assert run_cli("fit", "--data", str(data), "--out", str(tmp_path / "o")) == 4
