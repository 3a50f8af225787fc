"""The names `perfbench/` reaches into must stay defined."""

import importlib
import importlib.util
from pathlib import Path

import numpy as np

import covsearch.cli as cli
import covsearch.clustering as clustering
from covsearch.inference import ScheduleConfig
from covsearch.kernels import structure_label

from conftest import leaf, toy_data

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _tracer():
    # Only the tracer: importing run.py would drop BLAS thread variables
    # from this process's environment.
    spec = importlib.util.spec_from_file_location("tracer", PERFBENCH / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_layer_function_resolves():
    for module_name, name in _tracer().LAYERS:
        module = importlib.import_module(f"covsearch.{module_name}")
        assert callable(getattr(module, name, None)), f"{module_name}.{name}"


def test_captured_runners_exist_and_return_scored_finals():
    # perfbench/run.py wraps these three by name and scores what they return
    assert callable(cli.run_schedule)
    assert callable(clustering.cluster_sweep)
    cfg = ScheduleConfig(chains=2, sweeps=1, hyper_steps=3, seed=1)
    _, finals = cli.run_hyper_inference(toy_data(), leaf("SE", 1.5), "mh", cfg)
    assert len(finals) == 2
    for final in finals:
        assert final.ast.nodes[1].hypers
        assert np.isfinite(final.log_likelihood + final.log_prior)


def test_cluster_runs_call_cluster_sweep_through_the_module(monkeypatch):
    # perfbench/run.py's install_capture wraps `clustering.cluster_sweep` by
    # name and checks the state it returns; a driver holding its own
    # reference to the function would leave that check without a state.
    original, states = clustering.cluster_sweep, []

    def kept(*args, **kwargs):
        states.append(original(*args, **kwargs))
        return states[-1]

    monkeypatch.setattr(clustering, "cluster_sweep", kept)
    cfg = ScheduleConfig(sweeps=3, hyper_steps=2, structure_steps=2, seed=1)
    series = [toy_data(seed=s, n=5) for s in (1, 2, 3)]
    samples = clustering.run_cluster_schedule(series, cfg)
    assert len(states) == cfg.sweeps
    final = states[-1]
    partition = clustering.canonical_partition(final.assignments)
    assert samples[-1].partition == partition
    assert samples[-1].labels == tuple(
        structure_label(final.cluster_asts[final.assignments[block[0]]])
        for block in partition
    )
