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
from typing import Iterator, Mapping

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


# Positivity offsets, one entry per hyperparameter site of each node kind.
KERNEL_HYPER_OFFSETS = {
    BaseKernel.WN: (0.0,),
    BaseKernel.C: (0.0,),
    BaseKernel.LIN: (0.0,),
    BaseKernel.SE: (LENGTHSCALE_OFFSET,),
    BaseKernel.PER: (LENGTHSCALE_OFFSET, LENGTHSCALE_OFFSET),
}
OPERATOR_HYPER_OFFSETS = {
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
        if not math.isfinite(t):
            raise StructureError(f"non-finite unconstrained hyper {t!r}")
        return cls(t, softplus(-t) + float(offset), float(offset))

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
    """Payload of one AST node: either a base kernel or an operator."""

    is_branch: bool
    operator: Operator | None
    kernel: BaseKernel | None
    hypers: tuple[HyperSite, ...]

    @classmethod
    def leaf(cls, kernel: BaseKernel, hypers) -> "NodeBundle":
        return cls(False, None, kernel, tuple(hypers))

    @classmethod
    def branch(cls, operator: Operator, hypers=()) -> "NodeBundle":
        return cls(True, operator, None, tuple(hypers))


def node_depth(index: int) -> int:
    """Depth of a heap index, with the root at depth 1."""
    return int(index).bit_length()


def _expected_offsets(bundle: NodeBundle) -> tuple[float, ...]:
    if bundle.is_branch:
        return OPERATOR_HYPER_OFFSETS[bundle.operator]
    return KERNEL_HYPER_OFFSETS[bundle.kernel]


def validate_nodes(nodes: Mapping[int, NodeBundle]) -> None:
    """Raise StructureError unless `nodes` encodes a well-formed tree."""
    if 1 not in nodes:
        raise StructureError("tree has no root node")
    for index, bundle in nodes.items():
        if not isinstance(index, int) or index < 1:
            raise StructureError(f"bad node index {index!r}")
        if index > 1 and index // 2 not in nodes:
            raise StructureError(f"node {index} is detached from the tree")
        if index > 1 and not nodes[index // 2].is_branch:
            raise StructureError(f"node {index} hangs off a leaf")
        if bundle.is_branch:
            if bundle.operator is None or bundle.kernel is not None:
                raise StructureError(f"node {index}: malformed branch bundle")
            if 2 * index not in nodes or 2 * index + 1 not in nodes:
                raise StructureError(f"branch node {index} is missing a child")
        else:
            if bundle.kernel is None or bundle.operator is not None:
                raise StructureError(f"node {index}: malformed leaf bundle")
            if 2 * index in nodes or 2 * index + 1 in nodes:
                raise StructureError(f"leaf node {index} has children")
        expected = _expected_offsets(bundle)
        if len(bundle.hypers) != len(expected):
            raise StructureError(
                f"node {index}: expected {len(expected)} hypers, "
                f"got {len(bundle.hypers)}"
            )
        for slot, (site, offset) in enumerate(zip(bundle.hypers, expected)):
            if site.offset != offset:
                raise StructureError(
                    f"node {index} slot {slot}: offset {site.offset} "
                    f"should be {offset}"
                )
            if not math.isfinite(site.constrained) or (
                site.constrained <= site.offset
            ):
                raise StructureError(
                    f"node {index} slot {slot}: constrained value "
                    f"{site.constrained!r} outside support"
                )


@dataclass(frozen=True)
class KernelAst:
    """An immutable, validated kernel tree."""

    nodes: Mapping[int, NodeBundle]

    def __post_init__(self):
        frozen = dict(self.nodes)
        validate_nodes(frozen)
        object.__setattr__(self, "nodes", frozen)

    def __len__(self) -> int:
        return len(self.nodes)

    @property
    def size(self) -> int:
        return len(self.nodes)


def subtree_indices(nodes: Mapping[int, NodeBundle], root: int) -> Iterator[int]:
    """Heap indices of the subtree rooted at `root`, depth first."""
    stack = [root]
    while stack:
        index = stack.pop()
        if index not in nodes:
            continue
        yield index
        if nodes[index].is_branch:
            stack.append(2 * index + 1)
            stack.append(2 * index)


def subtree_nodes(nodes: Mapping[int, NodeBundle], root: int) -> dict[int, NodeBundle]:
    return {index: nodes[index] for index in subtree_indices(nodes, root)}


def replace_subtree(
    ast: KernelAst, root: int, replacement: Mapping[int, NodeBundle]
) -> KernelAst:
    """New tree with the subtree at `root` swapped for `replacement`.

    `replacement` must itself be rooted at `root`.
    """
    if root not in ast.nodes:
        raise StructureError(f"no node {root} to replace")
    if root not in replacement:
        raise StructureError(f"replacement is not rooted at {root}")
    kept = dict(ast.nodes)
    for index in subtree_nodes(ast.nodes, root):
        del kept[index]
    kept.update(replacement)
    return KernelAst(kept)


def hyper_sites(ast: KernelAst) -> list[tuple[int, int]]:
    """All (node index, slot) hyperparameter addresses, in a fixed order."""
    sites = []
    for index in sorted(ast.nodes):
        for slot in range(len(ast.nodes[index].hypers)):
            sites.append((index, slot))
    return sites


def with_hyper(ast: KernelAst, node: int, slot: int, site: HyperSite) -> KernelAst:
    """New tree with a single hyperparameter site replaced."""
    bundle = ast.nodes[node]
    hypers = list(bundle.hypers)
    hypers[slot] = site
    nodes = dict(ast.nodes)
    nodes[node] = NodeBundle(
        bundle.is_branch, bundle.operator, bundle.kernel, tuple(hypers)
    )
    return KernelAst(nodes)


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

    Returns the leaf's covariance between two input vectors, and a
    callable giving d cov / d h for each constrained hyper, built on
    request from the same intermediates.

    SE, PER and WN depend on x and y only through d = |x - y|. With a
    `gap_table` of the inputs they are evaluated once per distinct gap
    and gathered into the n x m matrix; without one, on every pair. The
    two give the same bits, each entry being the same IEEE operations on
    the same double: d * d equals (x - y) * (x - y) exactly, and for
    finite inputs x == y exactly when d == 0, so WN's ties are the zero
    gaps.
    """
    h = [site.constrained for site in bundle.hypers]
    kind = bundle.kernel
    if kind is BaseKernel.C:
        shape = (xs.size, ys.size)
        return np.full(shape, h[0]), lambda: [np.ones(shape)]
    if kind is BaseKernel.LIN:
        value = np.outer(xs - h[0], ys - h[0])
        return value, lambda: [np.add.outer(h[0] - xs, h[0] - ys)]
    d, index = (np.abs(np.subtract.outer(xs, ys)), None) if gaps is None else gaps

    def full(per_gap: np.ndarray) -> np.ndarray:
        return per_gap if index is None else per_gap.take(index)

    if kind is BaseKernel.WN:
        ties = (d == 0.0).astype(float)
        return full(h[0] * ties), lambda: [full(ties)]
    if kind is BaseKernel.SE:
        k = np.exp(-0.5 * d * d / (h[0] * h[0]))
        return full(k), lambda: [full(k * d**2 / h[0] ** 3)]
    if kind is not BaseKernel.PER:
        raise StructureError(f"unknown base kernel {kind!r}")
    ang = np.pi * d / h[1]
    s = np.sin(ang)
    k = np.exp(-2.0 * s * s / (h[0] * h[0]))

    def jacobian():
        dk_dh = k * 4.0 * s * s / h[0] ** 3
        dk_dp = k * (2.0 * np.pi * d / (h[0] ** 2 * h[1] ** 2)) * np.sin(2.0 * ang)
        return [full(dk_dh), full(dk_dp)]

    return full(k), jacobian


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
        op = bundle.operator
        if op is Operator.SUM:
            out = left + right
        elif op is Operator.PRODUCT:
            out = left * right
        elif op is Operator.CHANGEPOINT:
            loc = bundle.hypers[0].constrained
            sx = _sigmoid((loc - xs) / CP_DECAY)
            sy = _sigmoid((loc - ys) / CP_DECAY)
            out = np.outer(sx, sy) * left + np.outer(1.0 - sx, 1.0 - sy) * right
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


def build_cov_matrix(ast: KernelAst, xs, node: int = 1, gaps=None) -> np.ndarray:
    """Dense covariance matrix of the (sub)tree over a vector of inputs.

    `gaps` is `gap_table(xs, xs)` when the caller keeps it; the matrix
    is the same, built faster.
    """
    if node not in ast.nodes:
        raise StructureError(f"no node {node} in tree")
    arr = _as_inputs(xs)
    _check_gaps(gaps, arr, arr)
    return _cross(ast.nodes, node, arr, arr, gaps)


def cross_cov_matrix(ast: KernelAst, xs, ys, node: int = 1, gaps=None) -> np.ndarray:
    """Covariance between two input vectors, shape (len(xs), len(ys)).

    `gaps` is `gap_table(xs, ys)`, or None, as in `build_cov_matrix`.
    """
    if node not in ast.nodes:
        raise StructureError(f"no node {node} in tree")
    xs, ys = _as_inputs(xs), _as_inputs(ys)
    _check_gaps(gaps, xs, ys)
    return _cross(ast.nodes, node, xs, ys, gaps)


def eval_kernel(ast: KernelAst, x: float, y: float, node: int = 1) -> float:
    """Evaluate the (sub)tree's covariance function at a pair of inputs."""
    return float(cross_cov_matrix(ast, [x], [y], node)[0, 0])


def cov_matrices(ast: KernelAst, xs, gaps=None) -> dict[int, np.ndarray]:
    """Covariance matrices of every subtree at once, keyed by node index.

    One pass shares the leaf work with the root matrix; the reverse-mode
    gradient needs all of these. `gaps` is as in `build_cov_matrix`.
    """
    arr = _as_inputs(xs)
    _check_gaps(gaps, arr, arr)
    sink: dict[int, np.ndarray] = {}
    _cross(ast.nodes, 1, arr, arr, gaps, sink)
    return sink


def leaf_cov_grads(bundle: NodeBundle, xs: np.ndarray, gaps=None) -> list[np.ndarray]:
    """d cov / d h for each constrained hyper of a leaf, as dense matrices.

    `gaps` is as in `build_cov_matrix`.
    """
    if bundle.is_branch:
        raise StructureError("leaf_cov_grads called on a branch node")
    xs = np.asarray(xs, dtype=float)
    _check_gaps(gaps, xs, xs)
    _, jacobian = _leaf(bundle, xs, xs, gaps)
    return jacobian()


# ---------------------------------------------------------------------------
# Structure labels

_FLATTENABLE = (Operator.SUM, Operator.PRODUCT)


def _operands(nodes: Mapping[int, NodeBundle], node: int, op: Operator) -> list[int]:
    bundle = nodes[node]
    if bundle.is_branch and bundle.operator is op:
        return _operands(nodes, 2 * node, op) + _operands(nodes, 2 * node + 1, op)
    return [node]


def _render(nodes: Mapping[int, NodeBundle], node: int) -> tuple[str, Operator | None]:
    """Render a node; also report which flattenable operator produced it."""
    bundle = nodes[node]
    if not bundle.is_branch:
        return bundle.kernel.value, None
    op = bundle.operator
    if op is Operator.CHANGEPOINT:
        left, _ = _render(nodes, 2 * node)
        right, _ = _render(nodes, 2 * node + 1)
        return f"CP({left}, {right})", None
    parts = []
    for operand in _operands(nodes, node, op):
        text, inner = _render(nodes, operand)
        if op is Operator.PRODUCT and inner is Operator.SUM:
            text = f"({text})"
        parts.append(text)
    return f" {op.value} ".join(sorted(parts)), op


def structure_label(ast: KernelAst, node: int = 1) -> str:
    """Canonical text form of the tree shape, ignoring hyperparameters.

    Operands of + and * are flattened and sorted, so trees that differ
    only by operand order or association share a label.
    """
    if node not in ast.nodes:
        raise StructureError(f"no node {node} in tree")
    text, _ = _render(ast.nodes, node)
    return text


# ---------------------------------------------------------------------------
# Serialization

_KERNEL_TAGS = {kind.value: kind for kind in BaseKernel}
_OPERATOR_TAGS = {op.value: op for op in Operator}


def to_nested(ast: KernelAst, node: int = 1):
    """Nested-list form: ["+", l, r], ["*", l, r], ["CP", loc, l, r],
    or [tag, h0, ...] for leaves. Floats are constrained values."""
    if node not in ast.nodes:
        raise StructureError(f"no node {node} in tree")
    bundle = ast.nodes[node]
    if not bundle.is_branch:
        return [bundle.kernel.value] + [site.constrained for site in bundle.hypers]
    left = to_nested(ast, 2 * node)
    right = to_nested(ast, 2 * node + 1)
    if bundle.operator is Operator.CHANGEPOINT:
        return ["CP", bundle.hypers[0].constrained, left, right]
    return [bundle.operator.value, left, right]


def _build_nested(obj, node: int, out: dict[int, NodeBundle]) -> None:
    if not isinstance(obj, (list, tuple)) or not obj:
        raise StructureError(f"expected a non-empty list, got {obj!r}")
    tag = obj[0]
    if tag in _KERNEL_TAGS:
        kind = _KERNEL_TAGS[tag]
        offsets = KERNEL_HYPER_OFFSETS[kind]
        values = obj[1:]
        if len(values) != len(offsets):
            raise StructureError(
                f"{tag} takes {len(offsets)} hypers, got {len(values)}"
            )
        hypers = tuple(
            HyperSite.from_constrained(_as_float(v), off)
            for v, off in zip(values, offsets)
        )
        out[node] = NodeBundle.leaf(kind, hypers)
        return
    if tag in _OPERATOR_TAGS:
        op = _OPERATOR_TAGS[tag]
        if op is Operator.CHANGEPOINT:
            if len(obj) != 4:
                raise StructureError("CP takes a location and two children")
            loc = HyperSite.from_constrained(_as_float(obj[1]), 0.0)
            out[node] = NodeBundle.branch(op, (loc,))
            children = obj[2:]
        else:
            if len(obj) != 3:
                raise StructureError(f"{tag!r} takes exactly two children")
            out[node] = NodeBundle.branch(op)
            children = obj[1:]
        _build_nested(children[0], 2 * node, out)
        _build_nested(children[1], 2 * node + 1, out)
        return
    raise StructureError(f"unknown node tag {tag!r}")


def _as_float(value) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise StructureError(f"expected a number, got {value!r}")
    return float(value)


def from_nested(obj) -> KernelAst:
    """Parse the nested-list form back into a tree."""
    nodes: dict[int, NodeBundle] = {}
    _build_nested(obj, 1, nodes)
    return KernelAst(nodes)
