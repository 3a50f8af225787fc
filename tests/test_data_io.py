"""CSV ingestion, synthetic data, baselines, configuration, and the CLI."""

import argparse
import json
import math
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import covsearch
from covsearch.baseline import blr_baseline, nig_posterior
from covsearch.blas import THREAD_VARS, openblas_pools
from covsearch.cli import main
from covsearch.config import TASKS, RunConfig, load_config
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
from covsearch.inference import ScheduleConfig, drop_burn_in
from covsearch.kernels import build_cov_matrix, cross_cov_matrix, structure_label
from covsearch.prior import PriorConfig
from covsearch.results import emit_results, fmt_float, mse, render_histogram, rmse

from conftest import src_env, toy_data, tree


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
        ("x,y\n1,2\n\n\n3\n", "line 5"),
        ("x,y\n1,2\n\n\n3,abc\n", "line 5"),
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
    for task, standardize in (("compare-inference", False), ("cluster", True)):
        cfg = load_config(overrides=(f"run.task={task}",))
        assert cfg.resolved_standardize() is standardize
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
        "[schedule]\nsweeps = 11\nhyper_mode = mh\n"
        "[cluster]\nconcentration = 1.5\n"
    )
    cfg = load_config(ini, overrides=("schedule.sweeps=13", "run.probe_count=50"))
    assert cfg.noise_var == 0.25
    assert cfg.holdout_mode == "interpolate-middle"
    assert cfg.prior.p_branch == 0.4
    assert cfg.prior.kernel_weights == (0.5, 0.5, 0.0, 0.0, 0.0)
    assert cfg.schedule.sweeps == 13  # override wins over the file
    assert cfg.schedule.hyper_mode == "mh"
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
        ("run.noise_var=nan",),
        ("run.noise_var=inf",),
        ("schedule.step_size=nan",),
        ("cluster.concentration=nan",),
        ("cluster.concentration=inf",),
        ("prior.kernel_weights=nan,0,0,0,1",),
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
    ini.write_text("[schedule]\nsize_correction = true\n")
    with pytest.raises(ConfigError, match="unknown key 'size_correction'"):
        load_config(ini)
    with pytest.raises(ConfigError):
        load_config(tmp_path / "missing.ini")


# The 21 settable config keys, each with a raw value other than its
# default and the value it parses to.
CONFIG_VALUES = {
    ("run", "task"): ("cluster", "cluster"),
    ("run", "noise_var"): ("0.25", 0.25),
    ("run", "standardize"): ("off", False),
    ("run", "holdout_fraction"): ("0.3", 0.3),
    ("run", "holdout_mode"): ("random", "random"),
    ("run", "probe_count"): ("50", 50),
    ("run", "emit_sample_curves"): ("3", 3),
    ("run", "compare_structure"): ('["SE", 2.0]', '["SE", 2.0]'),
    ("prior", "p_branch"): ("0.4", 0.4),
    ("prior", "kernel_weights"): ("0.5,0.5,0,0,0", (0.5, 0.5, 0.0, 0.0, 0.0)),
    ("prior", "operator_weights"): ("0.5, 0.5, 0", (0.5, 0.5, 0.0)),
    ("prior", "max_depth"): ("4", 4),
    ("schedule", "sweeps"): ("7", 7),
    ("schedule", "hyper_steps"): ("8", 8),
    ("schedule", "structure_steps"): ("9", 9),
    ("schedule", "step_size"): ("0.02", 0.02),
    ("schedule", "chains"): ("3", 3),
    ("schedule", "seed"): ("11", 11),
    ("schedule", "burn_in"): ("0.5", 0.5),
    ("schedule", "hyper_mode"): ("mh", "mh"),
    ("cluster", "concentration"): ("1.5", 1.5),
}


def _owner(cfg, section):
    return {"prior": cfg.prior, "schedule": cfg.schedule}.get(section, cfg)


def test_config_schema_is_the_config_dataclasses_fields():
    nested = {"prior": PriorConfig, "schedule": ScheduleConfig}
    declared = [
        ("cluster" if f.name == "concentration" else "run", f.name)
        for f in fields(RunConfig)
        if f.name not in nested
    ]
    for section, cls in nested.items():
        declared += [(section, f.name) for f in fields(cls)]
    assert len(CONFIG_VALUES) == 21
    assert sorted(declared) == sorted(CONFIG_VALUES)
    names = {key for _, key in CONFIG_VALUES} | set(nested)
    for section in ("run", "prior", "schedule", "cluster"):
        for key in sorted(names):
            if (section, key) not in CONFIG_VALUES:
                with pytest.raises(ConfigError, match="unknown key"):
                    load_config(overrides=(f"{section}.{key}=1",))


@pytest.mark.parametrize("via", ("set", "file"))
def test_each_config_key_sets_its_field(tmp_path, via):
    default = load_config()
    ini = tmp_path / "one.ini"
    for (section, key), (raw, want) in CONFIG_VALUES.items():
        assert getattr(_owner(default, section), key) != want
        if via == "set":
            cfg = load_config(overrides=(f"{section}.{key}={raw}",))
        else:
            ini.write_text(f"[{section}]\n{key} = {raw}\n")
            cfg = load_config(ini)
        assert getattr(_owner(cfg, section), key) == want


def _cli_config(*flags):
    import covsearch.cli as cli

    argv = ["fit", "--data", "d.csv", "--out", "o", *flags]
    return cli._load_run_config(cli._build_parser().parse_args(argv))


def test_seed_and_chains_flags_set_the_schedule():
    cfg = _cli_config("--seed", "99", "--chains", "4")
    assert cfg.schedule.seed == 99
    assert cfg.schedule.chains == 4
    with pytest.raises(ConfigError):
        _cli_config("--chains", "0")
    with pytest.raises(ConfigError):
        RunConfig(task="explore")


def test_subcommand_and_flags_win_over_set():
    assert _cli_config("--set", "schedule.seed=1", "--seed", "2").schedule.seed == 2
    assert _cli_config("--set", "schedule.chains=3", "--chains", "2").schedule.chains == 2
    assert _cli_config("--set", "run.task=cluster").task == "fit"


def test_cli_subcommands_are_the_config_tasks():
    import covsearch.cli as cli

    [subcommands] = [
        action
        for action in cli._build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    assert tuple(subcommands.choices) == TASKS


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


def test_cli_fit_std_is_the_dense_mixture_std(tmp_path, monkeypatch):
    import covsearch.cli as cli

    captured = {}
    run_schedule = cli.run_schedule

    def kept_run(train, *args, **kwargs):
        captured["train"] = train
        captured["samples"] = run_schedule(train, *args, **kwargs)
        return captured["samples"]

    monkeypatch.setattr(cli, "run_schedule", kept_run)
    out_synth = tmp_path / "synth"
    assert run_cli(
        "synth-data", "--kind", "lin_plus_per", "--n", "40",
        "--out", str(out_synth), "--seed", "6",
    ) == 0
    data_file = out_synth / "lin_plus_per.csv"
    out = tmp_path / "fit"
    overrides = (
        "schedule.sweeps=6", "schedule.hyper_steps=3", "schedule.structure_steps=3",
        "run.probe_count=25",
    )
    flags = [arg for item in overrides for arg in ("--set", item)]
    assert run_cli(
        "fit", "--data", str(data_file), "--out", str(out), "--seed", "2", *flags
    ) == 0
    cfg = load_config(None, (*overrides, "run.task=fit"))
    ingested = ingest_csv(data_file, standardize=True)
    full, train = ingested.dataset, captured["train"]
    grid = np.linspace(full.xs.min(), full.xs.max(), cfg.probe_count)
    kept = drop_burn_in(captured["samples"], cfg.schedule.burn_in)
    assert len({id(s.ast) for s in kept}) > 1
    means, seconds = [], []
    for sample in kept:
        K = build_cov_matrix(sample.ast, train.xs) + cfg.noise_var * np.eye(len(train))
        Ks = cross_cov_matrix(sample.ast, train.xs, grid)
        Kss = build_cov_matrix(sample.ast, grid)
        mean = Ks.T @ np.linalg.solve(K, train.ys)
        variance = np.diag(Kss - Ks.T @ np.linalg.solve(K, Ks))
        means.append(mean)
        seconds.append(variance + mean**2)
    mixture = np.mean(seconds, axis=0) - np.mean(means, axis=0) ** 2
    want = np.sqrt(mixture) * ingested.standardization.y_scale
    lines = (out / "predictions.csv").read_text().splitlines()
    column = lines[0].split(",").index("std")
    got = np.array([float(line.split(",")[column]) for line in lines[1:]])
    assert np.allclose(got, want, rtol=1e-9, atol=0)


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
    cut = math.ceil(cfg.schedule.burn_in * 300)
    kept = [row for row in rows if row[1] >= cut]
    kept = kept[:: len(kept) // 200]
    assert len(kept) == 240  # 2 chains x 240 post-burn-in steps, every 2nd
    total = np.zeros(len(held))
    for _, _, _, h0, h1 in kept:
        total += predict(tree(["PER", h0, h1]), train, held.xs, cfg.noise_var).mean
    want = mse(total / len(kept), held.ys)
    metrics = json.loads((out / "metrics.json").read_text())
    assert metrics["methods"]["mh"]["holdout_mse"] == want


def test_cli_compare_mh_burn_in_cuts_at_the_ceiling(tmp_path):
    # 0.25 x 10 steps drops 3 of each chain's steps, as drop_burn_in does
    out_synth = tmp_path / "synth"
    assert run_cli(
        "synth-data", "--kind", "periodic", "--n", "24",
        "--out", str(out_synth), "--seed", "5",
    ) == 0
    out = tmp_path / "cmp"
    assert run_cli(
        "compare-inference", "--data", str(out_synth / "periodic.csv"),
        "--out", str(out), "--seed", "4", "--chains", "2",
        "--set", "schedule.sweeps=2",
        "--set", "schedule.hyper_steps=5",
        "--set", "schedule.burn_in=0.25",
    ) == 0
    cfg = load_config()
    train, held = split_holdout(
        ingest_csv(out_synth / "periodic.csv").dataset,
        cfg.holdout_fraction, cfg.holdout_mode,
    )
    lines = (out / "hyper_traces_mh.csv").read_text().splitlines()
    rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    kept = [row for row in rows if row[1] >= 3]
    assert len(kept) == 14  # 2 chains x steps 3 to 9
    total = np.zeros(len(held))
    for _, _, _, h0, h1 in kept:
        total += predict(tree(["PER", h0, h1]), train, held.xs, cfg.noise_var).mean
    metrics = json.loads((out / "metrics.json").read_text())
    assert metrics["methods"]["mh"]["holdout_mse"] == mse(total / len(kept), held.ys)


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
    cut = math.ceil(load_config().schedule.burn_in * 300)
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
            env=src_env(**extra), capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        outs.append(out)
    names = sorted(p.name for p in outs[0].iterdir())
    assert names == sorted(p.name for p in outs[1].iterdir())
    for name in names:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name


_RUN_AS_MAIN = """
import json, os, runpy, sys
out = sys.argv[1]
sys.argv = ["covsearch", "synth-data", "--kind", "periodic", "--n", "10", "--out", out]
try:
    runpy.run_module("covsearch", run_name="__main__")
except SystemExit as done:
    code = done.code
from covsearch.blas import openblas_pools
threads = [get() for get, _ in openblas_pools()]
print(json.dumps([code, os.environ.get("OPENBLAS_NUM_THREADS"), threads]))
"""


@pytest.mark.parametrize("preset", [None, "2"])
def test_module_entry_pins_blas_before_numpy_loads(tmp_path, preset):
    if preset and len(os.sched_getaffinity(0)) < 2:
        pytest.skip("OpenBLAS caps its thread count at the CPUs it may use")
    extra = {} if preset is None else {"OPENBLAS_NUM_THREADS": preset}
    proc = subprocess.run(
        [sys.executable, "-c", _RUN_AS_MAIN, str(tmp_path)],
        env=src_env(**extra), capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    code, variable, threads = json.loads(proc.stdout)
    if not threads:
        pytest.skip("no OpenBLAS loaded")
    expected = preset or "1"
    assert code == 0
    assert variable == expected
    assert threads == [int(expected)] * len(threads)


def test_running_the_cli_module_points_to_the_package_entry(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "covsearch.cli", "synth-data", "--kind", "periodic",
         "--n", "10", "--out", str(tmp_path)],
        env=src_env(), capture_output=True, text=True,
    )
    assert proc.returncode == 2
    assert "python -m covsearch`" in proc.stderr
    assert proc.stdout == "" and not any(tmp_path.iterdir())


def test_package_import_loads_no_numpy_and_keeps_the_environment():
    script = (
        "import os, sys\n"
        "before = dict(os.environ)\n"
        "import covsearch\n"
        "print('numpy' in sys.modules, dict(os.environ) == before)\n"
        "import covsearch.cli\n"
        "print('numpy' in sys.modules, dict(os.environ) == before)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], env=src_env(), capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "True", "True", "True"]


def test_package_names_are_their_modules_objects():
    import importlib

    for name in covsearch.__all__:
        obj = getattr(covsearch, name)
        assert obj.__module__.startswith("covsearch.")
        assert getattr(importlib.import_module(obj.__module__), name) is obj
    assert set(covsearch.__all__) <= set(dir(covsearch))
    with pytest.raises(AttributeError):
        covsearch.no_such_name


def test_installed_command_starts_at_the_module_entry():
    tomllib = pytest.importorskip("tomllib")
    import importlib

    pyproject = Path(covsearch.__file__).resolve().parents[2] / "pyproject.toml"
    target = tomllib.loads(pyproject.read_text())["project"]["scripts"]["covsearch"]
    assert target == "covsearch.__main__:main"
    module, name = target.split(":")
    assert callable(getattr(importlib.import_module(module), name))


_FIT_WITHOUT_SCIPY = """
import sys
sys.modules["scipy"] = None  # any import of scipy now fails
from covsearch import cli, gp
data, lapack, out = sys.argv[1:]
if lapack == "numpy":
    gp._LAPACK = None
sys.exit(cli.main(["fit", "--data", data, "--out", out, "--seed", "5",
                   "--set", "schedule.hyper_mode=mh", "--set", "schedule.sweeps=4",
                   "--set", "schedule.hyper_steps=3", "--set", "schedule.structure_steps=3"]))
"""


def test_cli_process_loads_no_scipy(tmp_path):
    # numpy is the program's one numerical dependency: `fit` runs with
    # scipy's import blocked, on the bound LAPACK and on numpy's alike.
    data = tmp_path / "series.csv"
    write_dataset_csv(data, synth_data("lin_plus_per", 40, np.random.default_rng(3)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(covsearch.__file__).resolve().parents[1]), env.get("PYTHONPATH", "")]
    )
    outs = []
    for lapack in ("bound", "numpy"):
        outs.append(tmp_path / lapack)
        proc = subprocess.run(
            [sys.executable, "-c", _FIT_WITHOUT_SCIPY, str(data), lapack, str(outs[-1])],
            env=env, capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
    bound, fallback = ((out / "structure_histogram.json").read_bytes() for out in outs)
    assert bound == fallback
    rmses = [
        json.loads((out / "metrics.json").read_text())["holdout"]["gp_average_rmse"]
        for out in outs
    ]
    assert rmses[1] == pytest.approx(rmses[0], rel=1e-9, abs=0.0)


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
    assert not out.exists()
    # a tag that is not a string
    assert run_cli(
        "compare-inference", "--data", str(data), "--out", str(out),
        "--set", 'run.compare_structure=[["PER", 1, 1]]',
    ) == 2
    # non-finite settings
    assert run_cli(
        "fit", "--data", str(data), "--out", str(out), "--set", "run.noise_var=nan",
    ) == 2
    assert run_cli(
        "cluster", "--data", str(data), "--out", str(out),
        "--set", "cluster.concentration=inf",
    ) == 2
    assert not out.exists()
    # missing data file
    assert run_cli(
        "fit", "--data", str(tmp_path / "ghost.csv"), "--out", str(out),
    ) == 3
    # malformed data row
    bad = tmp_path / "bad.csv"
    bad.write_text("x,y\n0,one\n")
    assert run_cli("fit", "--data", str(bad), "--out", str(out)) == 3


def test_cli_compare_rejects_a_structure_with_no_gradient_site(tmp_path, capsys):
    # a white-noise scale moves by MH only, so the gradient lane would stand still
    data = tmp_path / "d.csv"
    data.write_text("x,y\n0,1\n1,2\n2,1\n3,2\n4,1\n")
    assert run_cli(
        "compare-inference", "--data", str(data), "--out", str(tmp_path / "o"),
        "--set", 'run.compare_structure=["WN", 1.0]',
    ) == 2
    assert capsys.readouterr().err == (
        "config error: compare_structure has no hyperparameter that gradient "
        "steps move (white-noise scales stay on MH moves)\n"
    )
    assert not (tmp_path / "o").exists()


def test_cli_cluster_rejects_several_chains(tmp_path, capsys):
    # the clustering chain is one chain, so --chains 3 could only be ignored
    data = tmp_path / "panel.csv"
    data.write_text("series_id,x,y\na,0,1\na,1,2\nb,0,1\nb,1,0\n")
    assert run_cli(
        "cluster", "--data", str(data), "--out", str(tmp_path / "o"), "--chains", "3",
    ) == 2
    assert capsys.readouterr().err == (
        "config error: cluster runs one chain; schedule.chains is 3\n"
    )
    with pytest.raises(ConfigError):
        load_config(overrides=("run.task=cluster", "schedule.chains=2"))
    fit = load_config(overrides=("run.task=fit", "schedule.chains=2"))
    assert fit.schedule.chains == 2


@pytest.mark.parametrize(
    "task, setting, message",
    [
        (task, "schedule.sweeps=0", f"{task} needs a sweep; schedule.sweeps is 0")
        for task in ("fit", "predict", "cluster", "compare-inference")
    ]
    + [
        (
            "compare-inference",
            "schedule.hyper_steps=0",
            "compare-inference needs a hyper step; schedule.hyper_steps is 0",
        ),
        (
            "fit",
            "schedule.size_correction=true",
            "unknown key 'size_correction' in section [schedule]",
        ),
    ],
    ids=["fit", "predict", "cluster", "compare", "compare_no_hyper_steps",
         "size_correction_key"],
)
def test_cli_rejects_a_config_before_reading_data(tmp_path, capsys, task, setting, message):
    # the data file does not exist, so a data error would exit 3
    assert run_cli(
        task, "--data", str(tmp_path / "ghost.csv"), "--out", str(tmp_path / "o"),
        "--set", setting,
    ) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"


def test_synth_data_runs_with_no_sweeps(tmp_path):
    out = tmp_path / "o"
    assert run_cli(
        "synth-data", "--kind", "periodic", "--n", "10", "--out", str(out),
        "--set", "schedule.sweeps=0",
    ) == 0
    assert (out / "periodic.csv").exists()


def test_cli_numeric_failures_exit_4(tmp_path, monkeypatch):
    import covsearch.cli as cli
    from covsearch.errors import NumericError

    def explode(*args, **kwargs):
        raise NumericError("synthetic blowup")

    monkeypatch.setattr(cli, "run_schedule", explode)
    data = tmp_path / "d.csv"
    data.write_text("x,y\n0,1\n1,2\n2,1\n3,2\n4,1\n")
    assert run_cli("fit", "--data", str(data), "--out", str(tmp_path / "o")) == 4
