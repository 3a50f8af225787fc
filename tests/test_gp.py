"""Marginal likelihood, posterior prediction, and numeric guards."""

import math

import numpy as np
import pytest
import scipy.linalg
from scipy import stats

from covsearch import gp
from covsearch.errors import NumericError
from covsearch.gp import (
    DEFAULT_NOISE_VAR,
    JITTER_LADDER,
    Dataset,
    cho_solve,
    chol_with_jitter,
    log_marginal,
    predict,
    solve_lower,
)
from covsearch.kernels import build_cov_matrix

from conftest import leaf, random_asts, toy_data, tree


def dense_log_marginal(ast, data, noise_var=DEFAULT_NOISE_VAR):
    n = len(data)
    K = build_cov_matrix(ast, data.xs) + noise_var * np.eye(n)
    _, logdet = np.linalg.slogdet(K)
    quad = data.ys @ np.linalg.solve(K, data.ys)
    return -0.5 * quad - 0.5 * logdet - 0.5 * n * math.log(2 * math.pi)


# ---------------------------------------------------------------------------
# Dataset container


def test_dataset_validation():
    with pytest.raises(ValueError):
        Dataset(np.zeros((2, 2)), np.zeros(2))
    with pytest.raises(ValueError):
        Dataset(np.zeros(3), np.zeros(2))
    with pytest.raises(ValueError):
        Dataset(np.array([0.0, np.nan]), np.zeros(2))
    with pytest.raises(ValueError):
        Dataset(np.zeros(2), np.array([0.0, np.inf]))


def test_dataset_len_and_empty():
    assert len(Dataset(np.arange(3.0), np.zeros(3))) == 3
    assert len(Dataset(np.empty(0), np.empty(0))) == 0


# ---------------------------------------------------------------------------
# Log marginal likelihood


def test_dataset_keeps_read_only_copies_and_one_gap_table():
    xs = np.array([0.0, 1.0, 2.5, 4.0])
    ys = np.array([0.3, -0.2, 0.8, 0.1])
    data = Dataset(xs, ys)
    xs[1] = 9.0
    ys[1] = 9.0
    assert data.xs[1] == 1.0 and data.ys[1] == -0.2
    with pytest.raises(ValueError):
        data.xs[0] = 5.0
    with pytest.raises(ValueError):
        data.ys[0] = 5.0
    assert data.gaps is data.gaps
    gaps, index = data.gaps
    assert np.array_equal(gaps[index], np.abs(np.subtract.outer(data.xs, data.xs)))


def test_a_dataset_sorts_its_gaps_once(monkeypatch):
    made = []
    table = gp.gap_table

    def counted(xs, ys):
        made.append(xs)
        return table(xs, ys)

    monkeypatch.setattr(gp, "gap_table", counted)
    ast = tree(["+", ["PER", 0.9, 2.3], ["*", ["SE", 1.4], ["WN", 0.3]]])
    data = toy_data(seed=5, n=12)
    first = log_marginal(ast, data)
    assert log_marginal(ast, data) == first
    assert first == pytest.approx(dense_log_marginal(ast, data), rel=1e-10)
    assert len(made) == 1


def test_log_marginal_matches_dense_oracle():
    gen = np.random.default_rng(20)
    for ast in random_asts(60, seed=21):
        n = int(gen.integers(1, 9))
        data = Dataset(gen.uniform(0, 10, n), gen.standard_normal(n))
        got = log_marginal(ast, data)
        want = dense_log_marginal(ast, data)
        assert got == pytest.approx(want, rel=1e-10, abs=1e-10)


def test_log_marginal_single_point_is_a_1d_gaussian():
    data = Dataset(np.array([2.0]), np.array([0.5]))
    got = log_marginal(leaf("C", 1.0), data)
    want = stats.norm.logpdf(0.5, loc=0.0, scale=math.sqrt(1.0 + 0.1))
    assert got == pytest.approx(want, rel=1e-12)


def test_log_marginal_empty_data_is_zero():
    assert log_marginal(leaf("SE", 1.5), Dataset(np.empty(0), np.empty(0))) == 0.0


def test_log_marginal_exchangeable():
    data = toy_data(seed=22, n=8)
    ast = tree(["+", ["SE", 1.5], ["WN", 0.4]])
    base = log_marginal(ast, data)
    gen = np.random.default_rng(23)
    for _ in range(5):
        perm = gen.permutation(len(data))
        shuffled = Dataset(data.xs[perm], data.ys[perm])
        assert log_marginal(ast, shuffled) == pytest.approx(base, rel=1e-10)


def test_log_marginal_noise_var_parameter():
    data = toy_data(seed=24, n=5)
    ast = leaf("SE", 1.5)
    for nv in (0.01, 0.1, 2.0):
        assert log_marginal(ast, data, noise_var=nv) == pytest.approx(
            dense_log_marginal(ast, data, noise_var=nv), rel=1e-10
        )


# ---------------------------------------------------------------------------
# Cholesky ladder


def test_chol_identity_needs_no_jitter():
    factor, jitter = chol_with_jitter(np.eye(3))
    assert jitter == 0.0
    assert np.allclose(factor, np.eye(3))


def test_chol_climbs_ladder_for_singular_psd():
    # rank-1 PSD: exact factorization fails, a small ridge fixes it
    mat = np.ones((3, 3))
    factor, jitter = chol_with_jitter(mat)
    assert jitter > 0.0
    assert jitter in JITTER_LADDER
    rebuilt = factor @ factor.T
    assert np.allclose(rebuilt, mat + jitter * np.eye(3), atol=1e-8)


def test_chol_gives_up_on_negative_definite():
    with pytest.raises(NumericError):
        chol_with_jitter(-np.eye(3))


def test_chol_rejects_non_finite():
    mat = np.eye(2)
    mat[0, 1] = np.nan
    with pytest.raises(NumericError):
        chol_with_jitter(mat)


@pytest.mark.parametrize("shape", [(3,), (3, 4)])
def test_chol_rejects_non_square_input(shape):
    # A vector once broadcast against the ladder's identity and came back
    # as the factor of a 3 x 3 matrix nobody passed.
    with pytest.raises(ValueError, match="not square"):
        chol_with_jitter(np.ones(shape))


# ---------------------------------------------------------------------------
# Solves against a Cholesky factor


def _factor_and_rhs(n, seed):
    gen = np.random.default_rng(seed)
    a = gen.standard_normal((n, n))
    factor = np.linalg.cholesky(a @ a.T + n * np.eye(n))
    return factor, [gen.standard_normal(n), gen.standard_normal((n, 3)), np.eye(n)]


@pytest.mark.parametrize("n", [20, 100, 160, 300])
def test_solves_equal_scipy_bit_for_bit(n):
    factor, rhs = _factor_and_rhs(n, n)
    for b in rhs:
        assert np.array_equal(cho_solve(factor, b), scipy.linalg.cho_solve((factor, True), b))
        assert np.array_equal(
            solve_lower(factor, b), scipy.linalg.solve_triangular(factor, b, lower=True)
        )


@pytest.mark.parametrize("n", [20, 100, 160, 300])
def test_unchecked_solves_equal_the_checked_ones_bit_for_bit(n):
    factor, (vector, _, identity) = _factor_and_rhs(n, n)
    for b in (vector, identity):
        assert np.array_equal(gp._solve_fresh(factor, b, cholesky=True), cho_solve(factor, b))
        assert np.array_equal(
            gp._solve_fresh(factor, b, cholesky=False), solve_lower(factor, b)
        )


def test_unchecked_solves_still_check_shapes():
    # LAPACK reads both arrays by address: a wrong shape must never reach it.
    factor, (b, *_) = _factor_and_rhs(20, 4)
    for bad_factor, bad_rhs in ((factor, b[:-1]), (factor[:, :-1], b), (factor[0], b),
                                (factor, b[:, None, None])):
        for cholesky in (True, False):
            with pytest.raises(ValueError, match="cannot solve"):
                gp._solve_fresh(bad_factor, bad_rhs, cholesky)


def test_log_marginal_checks_a_factor_the_caller_passes():
    ast, data = leaf("SE", 1.5), toy_data(seed=5, n=8)
    factor = gp.observed_chol(ast, data)
    value, returned = gp.log_marginal_and_chol(ast, data, factor=factor)
    assert returned is factor
    assert value == gp.log_marginal_and_chol(ast, data)[0]
    non_finite = factor.copy()
    non_finite[5, 2] = np.nan
    singular = factor.copy()
    singular[3, 3] = 0.0
    for bad in (factor[:-1, :-1], factor[:, :-1], factor[0], non_finite):
        with pytest.raises(ValueError):
            gp.log_marginal_and_chol(ast, data, factor=bad)
    with pytest.raises(np.linalg.LinAlgError):
        gp.log_marginal_and_chol(ast, data, factor=singular)


def test_solves_leave_their_inputs_alone():
    factor, (b, *_) = _factor_and_rhs(20, 1)
    kept = factor.copy(), b.copy()
    cho_solve(factor, b)
    solve_lower(factor, b)
    assert np.array_equal(factor, kept[0]) and np.array_equal(b, kept[1])


@pytest.mark.parametrize("solve", [cho_solve, solve_lower])
def test_solves_reject_bad_input(solve):
    factor, (b, *_) = _factor_and_rhs(20, 2)
    for bad in (np.nan, np.inf, -np.inf):
        broken = factor.copy()
        broken[7, 3] = bad
        with pytest.raises(ValueError):
            solve(broken, b)
        with pytest.raises(ValueError):
            solve(factor, np.where(np.arange(20) == 5, bad, b))
    singular = factor.copy()
    singular[4, 4] = 0.0
    with pytest.raises(np.linalg.LinAlgError):
        solve(singular, b)
    with pytest.raises(ValueError):
        solve(factor, b[:-1])
    with pytest.raises(ValueError):
        solve(factor[:, :-1], b)


def test_numpy_fallback_solves_match_scipy(monkeypatch):
    # Where no OpenBLAS LAPACK can be bound, numpy's solves agree with
    # scipy's to rounding: the two call different routines.
    factor, rhs = _factor_and_rhs(100, 3)
    monkeypatch.setattr(gp, "_LAPACK", None)
    for b in rhs:
        for got, want in (
            (cho_solve(factor, b), scipy.linalg.cho_solve((factor, True), b)),
            (solve_lower(factor, b), scipy.linalg.solve_triangular(factor, b, lower=True)),
        ):
            assert got.shape == want.shape
            assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()


@pytest.mark.parametrize("n", [20, 100, 160, 300])
def test_inverse_matches_a_solve_against_the_identity(n, monkeypatch):
    factor, *_ = _factor_and_rhs(n, n)
    kept = factor.copy()
    want = cho_solve(factor, np.eye(n))
    inverse = gp._inverse_fresh(factor)
    assert np.array_equal(factor, kept)
    assert np.array_equal(inverse, inverse.T)
    assert np.abs(inverse - want).max() <= 1e-10 * np.abs(want).max()
    monkeypatch.setattr(gp, "_LAPACK", None)
    fallback = gp._inverse_fresh(factor)
    assert np.array_equal(factor, kept)
    assert np.array_equal(fallback, fallback.T)
    assert np.abs(fallback - want).max() <= 1e-10 * np.abs(want).max()


def test_inverse_checks_the_shape():
    factor, *_ = _factor_and_rhs(20, 4)
    for bad in (factor[:, :-1], factor[0]):
        with pytest.raises(ValueError, match="cannot solve"):
            gp._inverse_fresh(bad)
    assert gp._inverse_fresh(np.empty((0, 0))).shape == (0, 0)


# ---------------------------------------------------------------------------
# Prediction


def test_predict_single_point_shrinkage():
    # prior C(1) plus noise 0.1 observing y=1 at one input:
    # posterior mean 1/1.1, posterior var 1 - 1/1.1
    train = Dataset(np.array([0.0]), np.array([1.0]))
    post = predict(leaf("C", 1.0), train, np.array([0.0]))
    assert post.mean[0] == pytest.approx(10.0 / 11.0, rel=1e-12)
    assert post.variance[0] == pytest.approx(1.0 / 11.0, rel=1e-10)


def test_predict_empty_train_returns_prior():
    ast = tree(["+", ["SE", 1.5], ["C", 0.3]])
    probe = np.linspace(0, 5, 4)
    post = predict(ast, Dataset(np.empty(0), np.empty(0)), probe)
    assert np.array_equal(post.mean, np.zeros(4))
    assert np.allclose(post.variance, np.diag(build_cov_matrix(ast, probe)), atol=0)


def test_predict_interpolates_observations():
    # tight lengthscale-free check: with low noise the posterior mean
    # passes close to the data
    gen = np.random.default_rng(26)
    xs = np.linspace(0, 10, 8)
    ys = np.sin(xs)
    train = Dataset(xs, ys)
    post = predict(leaf("SE", 2.01), train, xs, noise_var=1e-6)
    assert np.max(np.abs(post.mean - ys)) < 1e-3


def test_predict_variance_never_grows_with_data():
    ast = leaf("SE", 1.5)
    probe = np.linspace(0, 10, 7)
    small = toy_data(seed=27, n=4)
    grown = Dataset(
        np.concatenate([small.xs, [2.5, 7.5]]),
        np.concatenate([small.ys, [0.3, -0.2]]),
    )
    v_small = predict(ast, small, probe).variance
    v_grown = predict(ast, grown, probe).variance
    assert np.all(v_grown <= v_small + 1e-9)


def test_predict_matches_direct_formula():
    train = toy_data(seed=28, n=6)
    probe = np.linspace(0, 10, 5)
    ast = tree(["*", ["SE", 1.8], ["LIN", 0.4]])
    post = predict(ast, train, probe)
    K = build_cov_matrix(ast, train.xs) + 0.1 * np.eye(len(train))
    Ks = np.array([[0.0] * len(train)] * len(probe))
    for i, p in enumerate(probe):
        for j, x in enumerate(train.xs):
            from covsearch.kernels import eval_kernel

            Ks[i, j] = eval_kernel(ast, p, x)
    Kss = build_cov_matrix(ast, probe)
    want_mean = Ks @ np.linalg.solve(K, train.ys)
    want_cov = Kss - Ks @ np.linalg.solve(K, Ks.T)
    assert np.allclose(post.mean, want_mean, atol=1e-9)
    assert np.allclose(post.variance, np.diag(want_cov), atol=1e-9)


def test_predict_rejects_empty_probe():
    with pytest.raises(ValueError):
        predict(leaf("SE", 1.5), toy_data(), np.empty(0))
