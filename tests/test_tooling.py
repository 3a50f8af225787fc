"""The names `perfbench/` reaches into must stay defined."""

import importlib
import importlib.util
from pathlib import Path

import numpy as np

import covsearch.cli as cli
import covsearch.clustering as clustering
from covsearch.inference import ScheduleConfig

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
