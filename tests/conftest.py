"""Shared helpers for the test suite."""

import os
from pathlib import Path

import numpy as np
import pytest

import covsearch
from covsearch.blas import THREAD_VARS, single_blas_thread
from covsearch.gp import Dataset
from covsearch.kernels import build_cov_matrix, from_nested
from covsearch.prior import PriorConfig, sample_ast


@pytest.fixture(scope="session", autouse=True)
def one_blas_thread():
    """Run every test at the command line's BLAS thread count (see `blas`)."""
    with single_blas_thread():
        yield


@pytest.fixture
def rng():
    return np.random.default_rng(0)


def leaf(tag, *hypers):
    """Single-leaf tree, e.g. leaf("SE", 1.5)."""
    return from_nested([tag, *hypers])


def tree(obj):
    return from_nested(obj)


def toy_data(seed=0, n=6, spread=1.0):
    gen = np.random.default_rng(seed)
    xs = np.sort(gen.uniform(0.0, 10.0, n))
    ys = spread * gen.standard_normal(n)
    return Dataset(xs, ys)


def gp_draw(ast, xs, gen, noise_var=0.1):
    """One series from the GP of `ast` on `xs`, observation noise included."""
    cov = build_cov_matrix(ast, xs) + noise_var * np.eye(xs.size)
    return np.linalg.cholesky(cov) @ gen.standard_normal(xs.size)


def random_asts(count, seed, cfg=None):
    """Prior draws, deduplicated by nothing; just a stream of trees."""
    cfg = cfg if cfg is not None else PriorConfig()
    gen = np.random.default_rng(seed)
    return [sample_ast(cfg, gen) for _ in range(count)]


def src_env(**extra) -> dict:
    """This environment without the BLAS thread variables, plus `extra`,
    with this checkout's package first on `PYTHONPATH`, so that a
    `python -m covsearch` child runs it whether or not it is installed."""
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(covsearch.__file__).resolve().parents[1]), env.get("PYTHONPATH", "")]
    )
    return {**env, **extra}


def set_partitions(items):
    """All set partitions of a sequence, as tuples of tuples."""
    items = list(items)
    if not items:
        yield ()
        return
    head, rest = items[0], items[1:]
    for sub in set_partitions(rest):
        for i, block in enumerate(sub):
            yield sub[:i] + ((head,) + block,) + sub[i + 1 :]
        yield ((head,),) + sub
