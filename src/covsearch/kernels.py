"""Covariance kernel ASTs.

A kernel is a binary tree stored as a sparse map from heap indices to
node bundles: the root is 1 and the children of node n are 2n and 2n+1.
Leaves are base kernels, internal nodes combine their two children with
an operator. Every positive hyperparameter h is carried next to its
gradient-friendly unconstrained coordinate t, related by

    h = softplus(-t) + offset

so that t ~ Logistic(0, 1) induces h - offset ~ Exponential(1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Mapping

import numpy as np

from .errors import NumericError, StructureError

# Width of the changepoint gate. Fixed rather than inferred.
CP_DECAY = 0.1

# Additive floor keeping SE and PER hypers away from 0, where their
# covariances become numerically degenerate.
LENGTHSCALE_OFFSET = 0.01


class BaseKernel(Enum):
    WN = "WN"
    C = "C"
    LIN = "LIN"
    SE = "SE"
    PER = "PER"


class Operator(Enum):
    SUM = "+"
    PRODUCT = "*"
    CHANGEPOINT = "CP"


# Positivity offsets, one entry per hyperparameter site of each node
# kind: a base kernel or an operator.
HYPER_OFFSETS = {
    BaseKernel.WN: (0.0,),
    BaseKernel.C: (0.0,),
    BaseKernel.LIN: (0.0,),
    BaseKernel.SE: (LENGTHSCALE_OFFSET,),
    BaseKernel.PER: (LENGTHSCALE_OFFSET, LENGTHSCALE_OFFSET),
    Operator.SUM: (),
    Operator.PRODUCT: (),
    Operator.CHANGEPOINT: (0.0,),
}


def softplus(z: float) -> float:
    z = float(z)
    return max(z, 0.0) + math.log1p(math.exp(-abs(z)))


@dataclass(frozen=True)
class HyperSite:
    """One positive hyperparameter with both of its coordinates."""

    unconstrained: float
    constrained: float
    offset: float

    @classmethod
    def from_unconstrained(cls, t: float, offset: float = 0.0) -> "HyperSite":
        t = float(t)
        offset = float(offset)
        if not math.isfinite(t):
            raise StructureError(f"non-finite unconstrained hyper {t!r}")
        h = softplus(-t) + offset
        # Past t ~ 41.6, softplus(-t) no longer moves an offset of 0.01
        # in floats; past t ~ 745 it underflows to 0.
        if h <= offset:
            raise StructureError(
                f"unconstrained hyper {t!r} maps onto its offset {offset!r}"
            )
        return cls(t, h, offset)

    @classmethod
    def from_constrained(cls, h: float, offset: float = 0.0) -> "HyperSite":
        h = float(h)
        offset = float(offset)
        gap = h - offset
        if not math.isfinite(h) or gap <= 0.0:
            raise StructureError(
                f"constrained hyper {h!r} must exceed its offset {offset!r}"
            )
        # Invert gap = softplus(-t). Above ~30 the exact form overflows
        # and softplus is the identity to double precision anyway.
        if gap > 30.0:
            t = -gap
        else:
            t = -math.log(math.expm1(gap))
        return cls(t, h, offset)


@dataclass(frozen=True)
class NodeBundle:
    """Payload of one AST node: its kind, a base kernel (a leaf) or an
    operator (a branch), and one hyper site per `HYPER_OFFSETS[kind]`."""

    kind: BaseKernel | Operator
    hypers: tuple[HyperSite, ...] = ()

    @property
    def is_branch(self) -> bool:
        return isinstance(self.kind, Operator)


def node_depth(index: int) -> int:
    """Depth of a heap index, with the root at depth 1."""
    return int(index).bit_length()


def validate_nodes(nodes: Mapping[int, NodeBundle]) -> None:
    """Raise StructureError unless `nodes` encodes a well-formed tree."""
    if 1 not in nodes:
        raise StructureError("tree has no root node")
    for index, bundle in nodes.items():
        if not isinstance(index, int) or index < 1:
            raise StructureError(f"bad node index {index!r}")
        if index != 1 and index // 2 not in nodes:
            raise StructureError(f"node {index} is detached from the tree")
        if not isinstance(bundle.kind, (BaseKernel, Operator)):
            raise StructureError(f"node {index}: unknown kind {bundle.kind!r}")
        if index != 1 and not nodes[index // 2].is_branch:
            raise StructureError(f"node {index} hangs off a leaf")
        if bundle.is_branch:
            if 2 * index not in nodes or 2 * index + 1 not in nodes:
                raise StructureError(f"branch node {index} is missing a child")
        elif 2 * index in nodes or 2 * index + 1 in nodes:
            raise StructureError(f"leaf node {index} has children")
        expected = HYPER_OFFSETS[bundle.kind]
        if len(bundle.hypers) != len(expected):
            raise StructureError(
                f"node {index}: expected {len(expected)} hypers, "
                f"got {len(bundle.hypers)}"
            )
        for slot, (site, offset) in enumerate(zip(bundle.hypers, expected)):
            if site.offset != offset:
                raise StructureError(
                    f"node {index} slot {slot}: offset {site.offset} should be {offset}"
                )
            if not math.isfinite(site.constrained) or site.constrained <= site.offset:
                raise StructureError(
                    f"node {index} slot {slot}: constrained value "
                    f"{site.constrained!r} outside support"
                )


@dataclass(frozen=True)
class KernelAst:
    """An immutable kernel tree, validated when it is constructed.

    A tree is checked once, where it enters: here, which `from_nested`
    and `prior.sample_ast` go through. The library's own edits
    (`replace_subtree`, `with_hyper`) splice in parts that are valid by
    construction and build the result through `_trusted`, unchecked.
    """

    nodes: Mapping[int, NodeBundle]

    def __post_init__(self):
        frozen = dict(self.nodes)
        validate_nodes(frozen)
        object.__setattr__(self, "nodes", frozen)

    @classmethod
    def _trusted(cls, nodes: dict[int, NodeBundle]) -> "KernelAst":
        """A tree of `nodes`, which the caller has made sure form a valid tree."""
        ast = object.__new__(cls)
        object.__setattr__(ast, "nodes", nodes)
        return ast

    def __len__(self) -> int:
        return len(self.nodes)


def replace_subtree(
    ast: KernelAst, root: int, replacement: Mapping[int, NodeBundle]
) -> KernelAst:
    """New tree with the subtree at `root` swapped for `replacement`.

    `root` is a node of `ast`, and `replacement` a valid subtree rooted
    at `root`, as `prior.sample_subtree(cfg, root, rng)` draws one.
    Neither is checked.
    """
    # A node lies under `root` when its index, shifted down to `root`'s
    # depth, is `root`.
    depth = node_depth(root)
    kept = {
        index: bundle
        for index, bundle in ast.nodes.items()
        if index >> max(node_depth(index) - depth, 0) != root
    }
    kept.update(replacement)
    return KernelAst._trusted(kept)


def hyper_sites(ast: KernelAst) -> list[tuple[int, int]]:
    """All (node index, slot) hyperparameter addresses, in a fixed order."""
    sites = []
    for index in sorted(ast.nodes):
        for slot in range(len(ast.nodes[index].hypers)):
            sites.append((index, slot))
    return sites


def with_hyper(ast: KernelAst, node: int, slot: int, site: HyperSite) -> KernelAst:
    """New tree with a single hyperparameter site replaced.

    `site` must carry the slot's offset, as a site drawn or stepped from
    the old one does; `HyperSite`'s constructors put it in support.
    Nothing is checked.
    """
    bundle = ast.nodes[node]
    hypers = list(bundle.hypers)
    hypers[slot] = site
    nodes = dict(ast.nodes)
    nodes[node] = NodeBundle(bundle.kind, tuple(hypers))
    return KernelAst._trusted(nodes)


# ---------------------------------------------------------------------------
# Covariance semantics


def gap_table(xs, ys) -> tuple[np.ndarray, np.ndarray]:
    """Sorted distinct values of |x_i - y_j|, and each pair's index among them.

    Returns the gaps and their (len(xs), len(ys)) index, both read-only.
    A build given this table evaluates SE, PER and WN once per distinct
    gap instead of once per pair (see `_leaf`). Making it sorts all
    n * m gaps, which costs about as much as two full PER builds, and
    its index is as large as the covariance; so it belongs with inputs
    that are built on many times, as each `Dataset` keeps the table of
    its own inputs.
    """
    xs, ys = _as_inputs(xs), _as_inputs(ys)
    gaps, index = np.unique(np.abs(np.subtract.outer(xs, ys)), return_inverse=True)
    index = index.reshape(xs.size, ys.size)
    gaps.flags.writeable = False
    index.flags.writeable = False
    return gaps, index


def _leaf(bundle: NodeBundle, xs: np.ndarray, ys: np.ndarray, gaps=None):
    """The meaning of each base kernel, written once.

    Returns the leaf's covariance between inputs `xs` and `ys`, broadcast
    against each other, and a callable giving d cov / d h for each
    constrained hyper, built on request from the same intermediates. The
    builders pass a column `xs[:, None]` and a vector `ys` for the n x m
    matrix; two vectors give k(x_i, y_i) pointwise.

    SE, PER and WN depend on x and y only through d = |x - y|
    (`_distance_leaf`). With a `gap_table` of the inputs they are
    evaluated once per distinct gap and gathered into the n x m matrix;
    without one, on every pair. The two give the same bits, each entry
    being the same IEEE operations on the same double: d * d equals
    (x - y) * (x - y) exactly, and for finite inputs x == y exactly when
    d == 0, so WN's ties are the zero gaps.
    """
    h = [site.constrained for site in bundle.hypers]
    kind = bundle.kind
    if kind is BaseKernel.C:
        shape = np.broadcast_shapes(xs.shape, ys.shape)
        return np.full(shape, h[0]), lambda: [np.ones(shape)]
    if kind is BaseKernel.LIN:
        value = (xs - h[0]) * (ys - h[0])
        return value, lambda: [(h[0] - xs) + (h[0] - ys)]
    if gaps is None:
        return _distance_leaf(bundle, np.abs(xs - ys))
    distinct, index = gaps
    value, jacobian = _distance_leaf(bundle, distinct)
    return value.take(index), lambda: [jac.take(index) for jac in jacobian()]


def _distance_leaf(bundle: NodeBundle, d: np.ndarray):
    """A WN, SE or PER leaf's value and Jacobian callable at the distances `d`."""
    h = [site.constrained for site in bundle.hypers]
    kind = bundle.kind
    if kind is BaseKernel.WN:
        ties = (d == 0.0).astype(float)
        return h[0] * ties, lambda: [ties]
    if kind is BaseKernel.SE:
        k = np.exp(-0.5 * d * d / (h[0] * h[0]))
        return k, lambda: [k * d**2 / h[0] ** 3]
    if kind is not BaseKernel.PER:
        raise StructureError(f"unknown base kernel {kind!r}")
    ang = np.pi * d / h[1]
    s = np.sin(ang)
    k = np.exp(-2.0 * s * s / (h[0] * h[0]))

    def jacobian():
        dk_dh = k * 4.0 * s * s / h[0] ** 3
        dk_dp = k * (2.0 * np.pi * d / (h[0] ** 2 * h[1] ** 2)) * np.sin(2.0 * ang)
        return [dk_dh, dk_dp]

    return k, jacobian


def _sigmoid(z: np.ndarray) -> np.ndarray:
    """Logistic function, with exp taken only of -|z| so it never overflows."""
    e = np.exp(-np.abs(z))
    return np.where(z >= 0.0, 1.0 / (1.0 + e), e / (1.0 + e))


def _cross(
    nodes: Mapping[int, NodeBundle],
    node: int,
    xs: np.ndarray,
    ys: np.ndarray,
    gaps,
    sink: dict[int, np.ndarray] | None = None,
) -> np.ndarray:
    bundle = nodes[node]
    if not bundle.is_branch:
        out = _leaf(bundle, xs, ys, gaps)[0]
    else:
        left = _cross(nodes, 2 * node, xs, ys, gaps, sink)
        right = _cross(nodes, 2 * node + 1, xs, ys, gaps, sink)
        op = bundle.kind
        if op is Operator.SUM:
            out = left + right
        elif op is Operator.PRODUCT:
            out = left * right
        elif op is Operator.CHANGEPOINT:
            loc = bundle.hypers[0].constrained
            sx = _sigmoid((loc - xs) / CP_DECAY)
            sy = _sigmoid((loc - ys) / CP_DECAY)
            out = sx * sy * left + (1.0 - sx) * (1.0 - sy) * right
        else:
            raise StructureError(f"unknown operator {op!r}")
    if sink is not None:
        sink[node] = out
    return out


def _as_inputs(xs) -> np.ndarray:
    arr = np.asarray(xs, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"inputs must be one dimensional, got shape {arr.shape}")
    if arr.size == 0:
        raise ValueError("inputs are empty")
    if not np.all(np.isfinite(arr)):
        raise NumericError("non-finite kernel inputs")
    return arr


def _check_gaps(gaps, xs: np.ndarray, ys: np.ndarray) -> None:
    if gaps is not None and gaps[1].shape != (xs.size, ys.size):
        raise ValueError(
            f"gap table of shape {gaps[1].shape} for {xs.size} x {ys.size} inputs"
        )


def build_cov_matrix(ast: KernelAst, xs, gaps=None) -> np.ndarray:
    """Dense covariance matrix of the tree over a vector of inputs.

    `gaps` is `gap_table(xs, xs)` when the caller keeps it; the matrix
    is the same, built faster.
    """
    arr = _as_inputs(xs)
    _check_gaps(gaps, arr, arr)
    return _cross(ast.nodes, 1, arr[:, None], arr, gaps)


def cov_diagonal(ast: KernelAst, xs) -> np.ndarray:
    """k(x, x) at each input, bit for bit `build_cov_matrix(ast, xs).diagonal()`."""
    arr = _as_inputs(xs)
    return _cross(ast.nodes, 1, arr, arr, None)


def cross_cov_matrix(ast: KernelAst, xs, ys, gaps=None) -> np.ndarray:
    """Covariance between two input vectors, shape (len(xs), len(ys)).

    `gaps` is `gap_table(xs, ys)`, or None, as in `build_cov_matrix`.
    """
    xs, ys = _as_inputs(xs), _as_inputs(ys)
    _check_gaps(gaps, xs, ys)
    return _cross(ast.nodes, 1, xs[:, None], ys, gaps)


def eval_kernel(ast: KernelAst, x: float, y: float) -> float:
    """Evaluate the tree's covariance function at a pair of inputs."""
    return float(cross_cov_matrix(ast, [x], [y])[0, 0])


def cov_matrices(ast: KernelAst, xs, gaps=None) -> dict[int, np.ndarray]:
    """Covariance matrices of every subtree at once, keyed by node index.

    One pass shares the leaf work with the root matrix; the reverse-mode
    gradient needs all of these. `gaps` is as in `build_cov_matrix`.
    """
    arr = _as_inputs(xs)
    _check_gaps(gaps, arr, arr)
    sink: dict[int, np.ndarray] = {}
    _cross(ast.nodes, 1, arr[:, None], arr, gaps, sink)
    return sink


def leaf_cov_grads(bundle: NodeBundle, xs: np.ndarray, gaps=None) -> list[np.ndarray]:
    """d cov / d h for each constrained hyper of a leaf, as dense matrices.

    `gaps` is as in `build_cov_matrix`.
    """
    if bundle.is_branch:
        raise StructureError("leaf_cov_grads called on a branch node")
    xs = np.asarray(xs, dtype=float)
    _check_gaps(gaps, xs, xs)
    _, jacobian = _leaf(bundle, xs[:, None], xs, gaps)
    return jacobian()


def contract_leaf(bundle: NodeBundle, adjoint: np.ndarray, xs, gaps) -> list[float]:
    """sum_ij adjoint_ij d cov_ij / d h for each constrained hyper of a leaf.

    `gaps` is `gap_table(xs, xs)`. SE and PER depend on the inputs only
    through their gap, so the adjoint is summed over each distinct gap
    and the sums are dotted with the Jacobian per gap; LIN and C
    contract the dense matrices of `leaf_cov_grads`.
    """
    if bundle.kind in (BaseKernel.SE, BaseKernel.PER):
        distinct, index = gaps
        sums = np.bincount(index.ravel(), weights=adjoint.ravel(), minlength=distinct.size)
        return [float(jac @ sums) for jac in _distance_leaf(bundle, distinct)[1]()]
    return [float(np.sum(adjoint * jac)) for jac in leaf_cov_grads(bundle, xs, gaps)]


# ---------------------------------------------------------------------------
# Structure labels


def _operands(nodes: Mapping[int, NodeBundle], node: int, op: Operator) -> list[int]:
    if nodes[node].kind is op:
        return _operands(nodes, 2 * node, op) + _operands(nodes, 2 * node + 1, op)
    return [node]


def _render(nodes: Mapping[int, NodeBundle], node: int) -> tuple[str, Operator | None]:
    """Render a node; also report which flattenable operator produced it."""
    kind = nodes[node].kind
    if isinstance(kind, BaseKernel):
        return kind.value, None
    if kind is Operator.CHANGEPOINT:
        left, _ = _render(nodes, 2 * node)
        right, _ = _render(nodes, 2 * node + 1)
        return f"CP({left}, {right})", None
    parts = []
    for operand in _operands(nodes, node, kind):
        text, inner = _render(nodes, operand)
        if kind is Operator.PRODUCT and inner is Operator.SUM:
            text = f"({text})"
        parts.append(text)
    return f" {kind.value} ".join(sorted(parts)), kind


def structure_label(ast: KernelAst) -> str:
    """Canonical text form of the tree shape, ignoring hyperparameters.

    Operands of + and * are flattened and sorted, so trees that differ
    only by operand order or association share a label.
    """
    text, _ = _render(ast.nodes, 1)
    return text


# ---------------------------------------------------------------------------
# Serialization

_TAGS = {kind.value: kind for enum in (BaseKernel, Operator) for kind in enum}


def to_nested(ast: KernelAst, node: int = 1):
    """Nested-list form of every node: [tag, *hypers, *children], with
    hypers as constrained values, e.g. ["PER", l, p], ["+", l, r] and
    ["CP", loc, l, r]."""
    if node not in ast.nodes:
        raise StructureError(f"no node {node} in tree")
    bundle = ast.nodes[node]
    out = [bundle.kind.value] + [site.constrained for site in bundle.hypers]
    if bundle.is_branch:
        out += [to_nested(ast, 2 * node), to_nested(ast, 2 * node + 1)]
    return out


def _build_nested(obj, node: int, out: dict[int, NodeBundle]) -> None:
    if not isinstance(obj, (list, tuple)) or not obj:
        raise StructureError(f"expected a non-empty list, got {obj!r}")
    tag = obj[0]
    if not isinstance(tag, str) or tag not in _TAGS:
        raise StructureError(f"unknown node tag {tag!r}")
    kind = _TAGS[tag]
    offsets = HYPER_OFFSETS[kind]
    arity = 2 if isinstance(kind, Operator) else 0
    if len(obj) != 1 + len(offsets) + arity:
        raise StructureError(
            f"{tag} takes {len(offsets)} hypers and {arity} children, "
            f"got {len(obj) - 1} entries"
        )
    out[node] = NodeBundle(
        kind,
        tuple(
            HyperSite.from_constrained(_as_float(v), off)
            for v, off in zip(obj[1:], offsets)
        ),
    )
    for i, child in enumerate(obj[1 + len(offsets) :]):
        _build_nested(child, 2 * node + i, out)


def _as_float(value) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise StructureError(f"expected a number, got {value!r}")
    return float(value)


def from_nested(obj) -> KernelAst:
    """Parse the nested-list form back into a tree."""
    nodes: dict[int, NodeBundle] = {}
    _build_nested(obj, 1, nodes)
    return KernelAst(nodes)
