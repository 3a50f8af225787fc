"""Kernel AST construction, evaluation, labeling, and serialization."""

import math
import warnings

import numpy as np
import pytest

from covsearch import kernels
from covsearch.errors import StructureError
from covsearch.kernels import (
    CP_DECAY,
    BaseKernel,
    HyperSite,
    KernelAst,
    NodeBundle,
    Operator,
    build_cov_matrix,
    cov_matrices,
    cross_cov_matrix,
    eval_kernel,
    from_nested,
    hyper_sites,
    leaf_cov_grads,
    node_depth,
    replace_subtree,
    softplus,
    structure_label,
    subtree_nodes,
    to_nested,
    validate_nodes,
    with_hyper,
)
from covsearch.prior import PriorConfig

from conftest import leaf, random_asts, tree


# ---------------------------------------------------------------------------
# Coordinates


def test_softplus_values():
    assert softplus(0.0) == pytest.approx(math.log(2.0), rel=1e-15)
    assert softplus(50.0) == pytest.approx(50.0, rel=1e-15)
    assert softplus(-50.0) == pytest.approx(math.exp(-50.0), rel=1e-12)


@pytest.mark.parametrize("offset", [0.0, 0.01])
@pytest.mark.parametrize("h_gap", [1e-6, 0.1, 1.0, 7.3, 29.0])
def test_hyper_site_roundtrip(offset, h_gap):
    h = offset + h_gap
    site = HyperSite.from_constrained(h, offset)
    assert site.constrained == h
    assert site.offset == offset
    back = HyperSite.from_unconstrained(site.unconstrained, offset)
    assert back.constrained == pytest.approx(h, rel=1e-12)


def test_hyper_site_large_gap_asymptote():
    # softplus(-t) == -t to double precision out here, so the inverse
    # must switch to the linear branch instead of overflowing expm1.
    site = HyperSite.from_constrained(45.0, 0.0)
    assert site.unconstrained == -45.0
    site = HyperSite.from_constrained(45.01, 0.01)
    assert site.unconstrained == -45.0


def test_hyper_site_rejects_out_of_support():
    with pytest.raises(StructureError):
        HyperSite.from_constrained(0.01, 0.01)
    with pytest.raises(StructureError):
        HyperSite.from_constrained(-1.0, 0.0)
    with pytest.raises(StructureError):
        HyperSite.from_constrained(float("nan"), 0.0)
    with pytest.raises(StructureError):
        HyperSite.from_unconstrained(float("inf"), 0.0)


def test_unconstrained_ceiling_stays_above_offset():
    # The gradient stepper clamps t at 40 for offset sites; the mapped
    # value must still clear the offset in floats for validation to pass.
    site = HyperSite.from_unconstrained(40.0, 0.01)
    assert site.constrained > 0.01


# ---------------------------------------------------------------------------
# Structure validation


def test_node_depth():
    assert node_depth(1) == 1
    assert node_depth(2) == 2
    assert node_depth(3) == 2
    assert node_depth(4) == 3
    assert node_depth(1023) == 10


def test_validate_rejects_missing_root():
    with pytest.raises(StructureError):
        validate_nodes({2: NodeBundle.leaf(BaseKernel.C, (HyperSite.from_constrained(1.0),))})


def test_validate_rejects_missing_child():
    nodes = {
        1: NodeBundle.branch(Operator.SUM),
        2: NodeBundle.leaf(BaseKernel.C, (HyperSite.from_constrained(1.0),)),
    }
    with pytest.raises(StructureError):
        validate_nodes(nodes)


def test_validate_rejects_child_of_leaf():
    nodes = {
        1: NodeBundle.leaf(BaseKernel.C, (HyperSite.from_constrained(1.0),)),
        2: NodeBundle.leaf(BaseKernel.C, (HyperSite.from_constrained(1.0),)),
        3: NodeBundle.leaf(BaseKernel.C, (HyperSite.from_constrained(1.0),)),
    }
    with pytest.raises(StructureError):
        validate_nodes(nodes)


def test_validate_rejects_wrong_hyper_count():
    nodes = {1: NodeBundle.leaf(BaseKernel.SE, ())}
    with pytest.raises(StructureError):
        validate_nodes(nodes)


def test_validate_rejects_wrong_offset():
    # SE wants the lengthscale floor, not a bare positive hyper
    site = HyperSite.from_constrained(1.0, 0.0)
    with pytest.raises(StructureError):
        validate_nodes({1: NodeBundle.leaf(BaseKernel.SE, (site,))})


def test_ast_validates_on_construction():
    with pytest.raises(StructureError):
        KernelAst(nodes={})


# ---------------------------------------------------------------------------
# Leaf formulas, pinned by hand


def test_se_formula():
    k = leaf("SE", 1.01)  # lengthscale 1.01 = 1 + offset floor
    h = 1.01
    assert eval_kernel(k, 0.0, 1.0) == pytest.approx(math.exp(-0.5 / h**2), rel=1e-12)
    assert eval_kernel(k, 2.0, 2.0) == pytest.approx(1.0, rel=1e-15)


def test_lin_formula():
    k = leaf("LIN", 0.36)
    assert eval_kernel(k, 1.0, 2.0) == pytest.approx(0.64 * 1.64, rel=1e-14)
    # negative values allowed: inputs on either side of the shift
    assert eval_kernel(k, 0.0, 2.0) == pytest.approx(-0.36 * 1.64, rel=1e-14)


def test_wn_formula_exact_equality():
    k = leaf("WN", 2.5)
    assert eval_kernel(k, 3.0, 3.0) == 2.5
    assert eval_kernel(k, 3.0, 3.0000001) == 0.0
    # float equality, not closeness: 0.1 + 0.2 is not 0.3
    assert eval_kernel(k, 0.1 + 0.2, 0.3) == 0.0


def test_c_formula():
    k = leaf("C", 0.7)
    assert eval_kernel(k, -5.0, 9.0) == 0.7


def test_per_formula():
    h, p = 1.3, 2.0
    k = leaf("PER", h, p)
    # one full period apart: back to the diagonal value
    assert eval_kernel(k, 0.5, 0.5 + p) == pytest.approx(1.0, rel=1e-12)
    # half a period apart: the trough
    want = math.exp(-2.0 / h**2)
    assert eval_kernel(k, 0.5, 0.5 + p / 2) == pytest.approx(want, rel=1e-12)
    r = 0.3
    want = math.exp(-2.0 * math.sin(math.pi * r / p) ** 2 / h**2)
    assert eval_kernel(k, 1.0, 1.0 + r) == pytest.approx(want, rel=1e-12)


def test_sum_matrix_pinned():
    k = tree(["+", ["C", 1.0], ["WN", 1.0]])
    got = build_cov_matrix(k, np.array([0.0, 1.0]))
    assert np.allclose(got, [[2.0, 1.0], [1.0, 2.0]], atol=0)


def test_changepoint_orientation_and_midpoint():
    k = tree(["CP", 5.0, ["C", 4.0], ["C", 9.0]])
    # 50 gate widths to the left: the first operand governs
    assert eval_kernel(k, 0.0, 0.0) == pytest.approx(4.0, rel=1e-12)
    # far right: the second operand
    assert eval_kernel(k, 10.0, 10.0) == pytest.approx(9.0, rel=1e-12)
    # dead on the location both gates are 1/2
    assert eval_kernel(k, 5.0, 5.0) == pytest.approx(0.25 * 4.0 + 0.25 * 9.0, rel=1e-12)


def test_changepoint_gate_formula():
    from scipy.special import expit

    loc = 2.0
    k = tree(["CP", loc, ["C", 1.0], ["C", 0.0 + 3.0]])
    x, y = 1.1, 2.7
    sx = expit((loc - x) / CP_DECAY)
    sy = expit((loc - y) / CP_DECAY)
    want = sx * sy * 1.0 + (1 - sx) * (1 - sy) * 3.0
    assert eval_kernel(k, x, y) == pytest.approx(want, rel=1e-12)


def test_changepoint_sigmoid_matches_scipy_expit():
    from scipy.special import expit

    from covsearch.kernels import _sigmoid

    # Both evaluations round, each up to about 2.4 ulp from the exact
    # logistic on (-40, -1), so they may sit a few ulp apart.
    z = np.linspace(-700.0, 700.0, 1_400_001)
    want = expit(z)
    assert np.all(np.abs(_sigmoid(z) - want) <= 4 * np.spacing(want))
    # Past exp's range scipy's 1 / (1 + exp(-z)) rounds to 0 or 1.
    tails = np.array([-1e5, -800.0, 745.2, 800.0, 1e5])
    assert np.array_equal(_sigmoid(tails), [0.0, 0.0, 1.0, 1.0, 1.0])


@pytest.mark.parametrize("start", [0.0, 2e4])
def test_far_changepoint_builds_without_warnings(start):
    # The location sits 1e4 to the right of the inputs, or to their left.
    xs = np.linspace(start, start + 10.0, 7)
    k = tree(["CP", 1e4, ["C", 4.0], ["C", 9.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        mat = build_cov_matrix(k, xs)
        cross = cross_cov_matrix(k, xs, xs[:3])
    # Left of the location the first operand governs, right of it the second.
    want = 4.0 if start < 1e4 else 9.0
    assert np.array_equal(mat, np.full((7, 7), want))
    assert np.array_equal(cross, np.full((7, 3), want))


# ---------------------------------------------------------------------------
# Matrix construction agrees with scalar evaluation and basic kernel laws


def test_matrix_matches_scalar_eval():
    xs = np.linspace(-1.0, 9.0, 7)
    for ast in random_asts(25, seed=11):
        mat = build_cov_matrix(ast, xs)
        for i in range(len(xs)):
            for j in range(len(xs)):
                assert mat[i, j] == pytest.approx(
                    eval_kernel(ast, xs[i], xs[j]), rel=1e-12, abs=1e-12
                )


def test_cross_matrix_matches_scalar_eval():
    xs = np.array([0.0, 2.0, 4.0])
    ys = np.array([1.0, 3.0])
    for ast in random_asts(10, seed=12):
        mat = cross_cov_matrix(ast, xs, ys)
        assert mat.shape == (3, 2)
        for i in range(3):
            for j in range(2):
                assert mat[i, j] == pytest.approx(
                    eval_kernel(ast, xs[i], ys[j]), rel=1e-12, abs=1e-12
                )


def test_scalar_eval_is_the_matrix_entry_exactly():
    # 300 prior trees x 9 x 6 entries; a tie exercises WN's equality test.
    xs = np.array([-1.3, 0.0, 0.4, 2.2, 2.2, 4.75, 6.1, 8.0, 9.9])
    ys = np.array([-0.7, 0.4, 3.3, 5.0, 7.25, 11.0])
    for ast in random_asts(300, seed=13):
        mat = cross_cov_matrix(ast, xs, ys)
        scalars = [[eval_kernel(ast, x, y) for y in ys] for x in xs]
        assert np.array_equal(mat, scalars), to_nested(ast)


def test_matrices_symmetric():
    xs = np.linspace(0.0, 10.0, 9)
    for ast in random_asts(40, seed=13):
        mat = build_cov_matrix(ast, xs)
        assert np.array_equal(mat, mat.T)


def test_matrices_psd():
    xs = np.linspace(0.0, 10.0, 9)
    for ast in random_asts(40, seed=14):
        mat = build_cov_matrix(ast, xs)
        eigs = np.linalg.eigvalsh(mat + 1e-8 * np.eye(len(xs)))
        assert eigs.min() >= 0.0


def test_sum_and_product_compose_elementwise():
    xs = np.linspace(0.0, 5.0, 6)
    a = ["SE", 1.5]
    b = ["PER", 0.8, 2.2]
    ka, kb = tree(a), tree(b)
    assert np.array_equal(
        build_cov_matrix(tree(["+", a, b]), xs),
        build_cov_matrix(ka, xs) + build_cov_matrix(kb, xs),
    )
    assert np.array_equal(
        build_cov_matrix(tree(["*", a, b]), xs),
        build_cov_matrix(ka, xs) * build_cov_matrix(kb, xs),
    )


def test_cov_matrices_exposes_every_node():
    ast = tree(["+", ["*", ["SE", 1.5], ["LIN", 0.3]], ["WN", 0.5]])
    xs = np.linspace(0.0, 4.0, 5)
    per_node = cov_matrices(ast, xs)
    assert set(per_node) == {1, 2, 3, 4, 5}
    assert np.array_equal(per_node[1], build_cov_matrix(ast, xs))
    assert np.array_equal(per_node[4], build_cov_matrix(leaf("SE", 1.5), xs))
    assert np.array_equal(per_node[2], per_node[4] * per_node[5])


def test_eval_rejects_non_finite_input():
    from covsearch.errors import NumericError

    with pytest.raises(NumericError):
        eval_kernel(leaf("SE", 1.5), float("nan"), 0.0)
    with pytest.raises(NumericError):
        build_cov_matrix(leaf("SE", 1.5), np.array([0.0, float("inf")]))


# ---------------------------------------------------------------------------
# Leaf gradients against finite differences


def _fd_leaf_grads(tag, hypers, offsets, xs, eps=1e-6):
    grads = []
    for slot in range(len(hypers)):
        hi = list(hypers)
        lo = list(hypers)
        hi[slot] += eps
        lo[slot] -= eps
        up = build_cov_matrix(from_nested([tag, *hi]), xs)
        dn = build_cov_matrix(from_nested([tag, *lo]), xs)
        grads.append((up - dn) / (2 * eps))
    return grads


@pytest.mark.parametrize(
    "tag,hypers",
    [
        ("WN", (0.8,)),
        ("C", (1.7,)),
        ("LIN", (0.4,)),
        ("SE", (1.31,)),
        ("PER", (0.91, 2.41)),
    ],
)
def test_leaf_cov_grads_match_fd(tag, hypers):
    xs = np.linspace(0.0, 6.0, 7)
    ast = from_nested([tag, *hypers])
    bundle = ast.nodes[1]
    offsets = [site.offset for site in bundle.hypers]
    got = leaf_cov_grads(bundle, xs)
    want = _fd_leaf_grads(tag, hypers, offsets, xs)
    assert len(got) == len(hypers)
    for g, w in zip(got, want):
        assert np.allclose(g, w, rtol=1e-6, atol=1e-7)


def test_wn_grad_is_the_tie_pattern():
    xs = np.array([0.0, 1.0, 1.0])
    bundle = leaf("WN", 0.5).nodes[1]
    (grad,) = leaf_cov_grads(bundle, xs)
    want = np.equal.outer(xs, xs).astype(float)
    assert np.array_equal(grad, want)


# ---------------------------------------------------------------------------
# Stationary leaves on distinct gaps: exact against full-matrix formulas


def _dense_leaf(bundle, xs, ys):
    """Each leaf formula evaluated on all n x m pairs, as `_leaf` once was."""
    h = [site.constrained for site in bundle.hypers]
    kind = bundle.kernel
    if kind is BaseKernel.WN:
        ties = np.equal.outer(xs, ys).astype(float)
        return h[0] * ties, lambda: [ties]
    if kind is BaseKernel.C:
        shape = (xs.size, ys.size)
        return np.full(shape, h[0]), lambda: [np.ones(shape)]
    if kind is BaseKernel.LIN:
        value = np.outer(xs - h[0], ys - h[0])
        return value, lambda: [np.add.outer(h[0] - xs, h[0] - ys)]
    if kind is BaseKernel.SE:
        d = np.subtract.outer(xs, ys)
        k = np.exp(-0.5 * d * d / (h[0] * h[0]))
        return k, lambda: [k * d**2 / h[0] ** 3]
    r = np.abs(np.subtract.outer(xs, ys))
    s = np.sin(np.pi * r / h[1])
    k = np.exp(-2.0 * s * s / (h[0] * h[0]))

    def jacobian():
        ang = np.pi * r / h[1]
        dk_dh = k * 4.0 * s * s / h[0] ** 3
        dk_dp = k * (2.0 * np.pi * r / (h[0] ** 2 * h[1] ** 2)) * np.sin(2.0 * ang)
        return [dk_dh, dk_dp]

    return k, jacobian


def _builds(ast, xs, ys, gaps=None):
    """Every matrix the public builders give for one tree and input pair."""
    out = [cross_cov_matrix(ast, xs, ys, gaps=gaps)]
    if ys is xs:
        out.append(build_cov_matrix(ast, xs, gaps=gaps))
        mats = cov_matrices(ast, xs, gaps)
        out.extend(mats[node] for node in sorted(mats))
        for node in sorted(ast.nodes):
            if not ast.nodes[node].is_branch:
                out.extend(leaf_cov_grads(ast.nodes[node], xs, gaps))
    return out


def _dense_builds(ast, xs, ys, monkeypatch):
    with monkeypatch.context() as patch:
        patch.setattr(kernels, "_leaf", lambda b, xs, ys, gaps: _dense_leaf(b, xs, ys))
        return _builds(ast, xs, ys)


def _same_bytes(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.shape == w.shape and g.dtype == w.dtype
        assert g.tobytes() == w.tobytes()


_gen = np.random.default_rng(71)
EXACTNESS_GRIDS = {
    "linspace": (np.linspace(0.0, 12.0, 37),) * 2,
    "sorted-uniform": (np.sort(_gen.uniform(-3.0, 9.0, 45)),) * 2,
    "repeats": (np.sort(np.round(_gen.uniform(0.0, 5.0, 29) * 4.0) / 4.0),) * 2,
    "signed-zeros": (np.array([-1.5, -0.0, 0.0, 0.5, -0.0, 2.0, 3.25, 0.0, 7.0]),) * 2,
    "cross": (np.linspace(-2.0, 12.0, 23), np.sort(_gen.uniform(-1.0, 14.0, 13))),
}


@pytest.mark.parametrize("grid", sorted(EXACTNESS_GRIDS))
def test_gap_gather_is_bit_identical_to_full_matrix_formulas(grid, monkeypatch):
    xs, ys = EXACTNESS_GRIDS[grid]
    if grid != "cross":
        ys = xs
    table = kernels.gap_table(xs, ys)
    stationary = 0
    for ast in random_asts(300, seed=72):
        want = _dense_builds(ast, xs, ys, monkeypatch)
        _same_bytes(_builds(ast, xs, ys), want)
        _same_bytes(_builds(ast, xs, ys, table), want)
        stationary += any(
            b.kernel in (BaseKernel.SE, BaseKernel.PER, BaseKernel.WN)
            for b in ast.nodes.values()
        )
    assert stationary > 100


def test_gap_table_holds_each_distinct_gap_once_read_only():
    xs = np.array([0.0, 0.5, 1.0, 1.5, 4.0])
    ys = np.array([1.0, -0.0, 4.5])
    gaps, index = kernels.gap_table(xs, ys)
    assert gaps.tolist() == [0.0, 0.5, 1.0, 1.5, 3.0, 3.5, 4.0, 4.5]
    assert np.array_equal(gaps[index], np.abs(np.subtract.outer(xs, ys)))
    with pytest.raises(ValueError):
        gaps[0] = 1.0
    with pytest.raises(ValueError):
        index[0, 0] = 1


def test_gap_table_of_other_inputs_is_rejected():
    ast = tree(["+", ["PER", 0.9, 2.3], ["SE", 1.4]])
    xs = np.linspace(0.0, 3.0, 5)
    wrong = kernels.gap_table(xs[:4], xs)
    with pytest.raises(ValueError, match="gap table"):
        build_cov_matrix(ast, xs, gaps=wrong)
    with pytest.raises(ValueError, match="gap table"):
        cross_cov_matrix(ast, xs[:4], xs[:4], gaps=wrong)
    with pytest.raises(ValueError, match="gap table"):
        cov_matrices(ast, xs, wrong)
    with pytest.raises(ValueError, match="gap table"):
        leaf_cov_grads(ast.nodes[2], xs, wrong)


# ---------------------------------------------------------------------------
# Tree surgery


def test_subtree_nodes_reindexes_nothing():
    ast = tree(["+", ["SE", 1.5], ["*", ["C", 1.0], ["WN", 0.3]]])
    sub = subtree_nodes(ast.nodes, 3)
    assert set(sub) == {3, 6, 7}


def _rebase(nodes, new_root):
    # shift a tree rooted at 1 so it hangs at `new_root` instead
    out = {}
    for index, bundle in nodes.items():
        path = bin(index)[3:]  # bits below the old root
        out[int(bin(new_root)[2:] + path, 2)] = bundle
    return out


def test_replace_subtree_swaps_and_validates():
    host = tree(["+", ["SE", 1.5], ["WN", 0.3]])
    insert = tree(["*", ["C", 1.0], ["LIN", 0.2]])
    got = replace_subtree(host, 3, _rebase(insert.nodes, 3))
    assert structure_label(got) == "C * LIN + SE"
    # host untouched
    assert structure_label(host) == "SE + WN"


def test_replace_subtree_at_root_is_wholesale():
    host = tree(["+", ["SE", 1.5], ["WN", 0.3]])
    insert = tree(["C", 2.0])
    got = replace_subtree(host, 1, insert.nodes)
    assert structure_label(got) == "C"


def test_replace_subtree_rejects_misrooted_replacement():
    host = tree(["+", ["SE", 1.5], ["WN", 0.3]])
    insert = tree(["C", 2.0])
    with pytest.raises(StructureError):
        replace_subtree(host, 3, insert.nodes)


def test_hyper_sites_sorted_and_complete():
    ast = tree(["CP", 1.0, ["PER", 0.9, 2.0], ["WN", 0.4]])
    assert hyper_sites(ast) == [(1, 0), (2, 0), (2, 1), (3, 0)]


def test_with_hyper_replaces_one_site():
    ast = leaf("PER", 0.9, 2.0)
    site = HyperSite.from_constrained(3.5, 0.01)
    got = with_hyper(ast, 1, 1, site)
    assert got.nodes[1].hypers[1].constrained == 3.5
    assert got.nodes[1].hypers[0].constrained == 0.9
    # original untouched
    assert ast.nodes[1].hypers[1].constrained == 2.0


def test_with_hyper_rejects_wrong_offset():
    ast = leaf("SE", 1.5)
    with pytest.raises(StructureError):
        with_hyper(ast, 1, 0, HyperSite.from_constrained(1.5, 0.0))


# ---------------------------------------------------------------------------
# Labels


def test_label_orders_operands():
    assert structure_label(tree(["+", ["WN", 1.0], ["SE", 1.5]])) == "SE + WN"
    assert structure_label(tree(["+", ["SE", 1.5], ["WN", 1.0]])) == "SE + WN"


def test_label_flattens_nested_same_operator():
    ast = tree(["+", ["SE", 1.5], ["+", ["WN", 1.0], ["C", 1.0]]])
    assert structure_label(ast) == "C + SE + WN"


def test_label_parenthesizes_sum_under_product():
    ast = tree(["*", ["+", ["SE", 1.5], ["C", 1.0]], ["LIN", 0.2]])
    assert structure_label(ast) == "(C + SE) * LIN"


def test_label_keeps_changepoint_order():
    ast = tree(["CP", 0.5, ["*", ["LIN", 0.2], ["WN", 1.0]], ["WN", 1.0]])
    assert structure_label(ast) == "CP(LIN * WN, WN)"
    flipped = tree(["CP", 0.5, ["WN", 1.0], ["*", ["LIN", 0.2], ["WN", 1.0]]])
    assert structure_label(flipped) == "CP(WN, LIN * WN)"


def test_label_ignores_hyper_values():
    assert structure_label(leaf("SE", 1.5)) == structure_label(leaf("SE", 9.9))


def test_label_mixed_depth():
    ast = tree(
        ["+", ["*", ["PER", 0.9, 2.0], ["LIN", 0.3]], ["CP", 1.0, ["C", 1.0], ["SE", 1.5]]]
    )
    assert structure_label(ast) == "CP(C, SE) + LIN * PER"


# ---------------------------------------------------------------------------
# Serialization


def test_nested_roundtrip_exact_structure():
    for ast in random_asts(40, seed=15):
        back = from_nested(to_nested(ast))
        assert structure_label(back) == structure_label(ast)
        assert set(back.nodes) == set(ast.nodes)
        for node in ast.nodes:
            a, b = ast.nodes[node], back.nodes[node]
            assert a.is_branch == b.is_branch
            assert a.operator == b.operator
            assert a.kernel == b.kernel
            for sa, sb in zip(a.hypers, b.hypers):
                assert sb.constrained == pytest.approx(sa.constrained, rel=1e-12)


def test_nested_literals():
    obj = ["+", ["SE", 1.5], ["WN", 0.25]]
    got = to_nested(from_nested(obj))
    assert got[0] == "+"
    assert got[1][0] == "SE" and got[1][1] == pytest.approx(1.5, rel=1e-12)
    assert got[2][0] == "WN" and got[2][1] == pytest.approx(0.25, rel=1e-12)


def test_from_nested_rejects_garbage():
    for bad in (
        ["SE"],                      # missing hyper
        ["SE", 1.5, 2.0],            # extra hyper
        ["XX", 1.0],                 # unknown tag
        ["+", ["SE", 1.5]],          # missing operand
        ["CP", ["C", 1.0], ["C", 1.0]],  # missing location
        ["CP", "mid", ["C", 1.0], ["C", 1.0]],  # location not a number
        ["SE", "wide"],              # hyper not a number
        ["SE", 0.01],                # at the offset floor
        ["CP", 0.0, ["C", 1.0], ["C", 1.0]],  # location must be positive
        42,                          # not a list at all
        [],
    ):
        with pytest.raises(StructureError):
            from_nested(bad)


def test_from_nested_allows_depth_past_the_prior_cap():
    # structural depth is unbounded; only the prior penalizes it
    obj = ["SE", 1.5]
    for _ in range(11):
        obj = ["+", obj, ["WN", 0.5]]
    ast = from_nested(obj)
    assert max(node_depth(n) for n in ast.nodes) == 12


def test_ast_len_counts_nodes():
    assert len(leaf("SE", 1.5)) == 1
    assert len(tree(["+", ["SE", 1.5], ["WN", 0.3]])) == 3
