"""Trainable classifiers with per-attribute-subset training and caching.

The built-in learners are deliberately self-contained and fully deterministic:
for a fixed (spec, dataset, subset) every confidence value is bit-reproducible
across runs and whatever order a cache trains its subsets in.  Influence
computations retrain a model for every attribute subset they touch, so
:class:`SubsetModelCache` trains each distinct subset at most once, and its
split memo searches each (tree, node, column) split once across them: one
entry per search it runs, its memory offset on forests by leaves that keep
only their voted class.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .dataset import AttributeSubset, Dataset, project
from .errors import DataError

MODEL_KINDS = ("random_forest", "decision_tree", "prior_baseline")


@dataclass(frozen=True)
class ModelSpec:
    """Learner choice plus hyperparameters; ``seed`` fixes all randomness."""

    kind: str = "random_forest"
    tree_count: int = 100
    max_depth: int | None = None
    min_leaf: int = 1
    seed: int = 0

    def __post_init__(self):
        if self.kind not in MODEL_KINDS:
            raise ValueError(f"unknown model kind {self.kind!r}; choose from {MODEL_KINDS}")
        if self.tree_count < 1:
            raise ValueError("tree_count must be >= 1")
        if self.max_depth is not None and self.max_depth < 1:
            raise ValueError("max_depth must be >= 1 or None")
        if self.min_leaf < 1:
            raise ValueError("min_leaf must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")


class _TreeNode:
    """Binary CART node; ``leaf`` is a forest leaf's vote, a class-frequency vector, or None."""

    __slots__ = ("feature", "threshold", "left", "right", "leaf")

    def __init__(self, leaf=None, feature=-1, threshold=0.0, left=None, right=None):
        self.feature = feature
        self.threshold = threshold
        self.left = left
        self.right = right
        self.leaf = leaf


def _feature_split(col: np.ndarray, y: np.ndarray, classes: np.ndarray, min_leaf: int):
    """Lowest-Gini-cost (cost, threshold) split of a column or None; ties go left."""
    m = col.shape[0]
    order = np.argsort(col, kind="stable")
    xs = col[order]
    ys = y[order]
    if xs[0] == xs[-1]:
        return None
    cum = np.cumsum(ys[:, None] == classes, axis=0)  # (m, C) prefix counts
    sizes = np.arange(1, m)                          # left side sizes
    left = cum[:-1]
    right = cum[-1] - left
    # weighted Gini cost; minimizing it maximizes sum(l^2)/|l| + sum(r^2)/|r|
    purity = (left * left).sum(axis=1) / sizes + (right * right).sum(axis=1) / (m - sizes)
    cost = 1.0 - purity / m
    valid = (xs[:-1] < xs[1:]) & (sizes >= min_leaf) & (m - sizes >= min_leaf)
    if not valid.any():
        return None
    cost = np.where(valid, cost, math.inf)
    pos = int(np.argmin(cost))  # first minimum -> lowest threshold
    thr = (xs[pos] + xs[pos + 1]) / 2.0
    if thr <= xs[pos]:  # midpoint rounded down to the left value
        thr = xs[pos + 1]
    return float(cost[pos]), float(thr)


def _best_split(X: np.ndarray, rows: np.ndarray, y: np.ndarray, n_classes: int,
                features: Sequence[int], min_leaf: int, memo: dict, key, cols):
    """Lowest-Gini-cost split of ``X[rows]`` over the given features.

    ``memo[key, cols[f]]`` holds feature f's split at this node once searched.
    Ties are broken toward the lowest feature index, then the lowest
    threshold, by scanning features in ascending order and accepting only
    strict cost improvements.
    """
    best_cost, best = math.inf, None
    classes = np.arange(n_classes)
    for f in features:
        found = memo.get((key, cols[f]), False)
        if found is False:
            found = memo[key, cols[f]] = _feature_split(X[rows, f], y, classes, min_leaf)
        if found is not None and found[0] < best_cost:
            best_cost, best = found[0], (f, found[1])
    return best


def _fit_tree(X: np.ndarray, y: np.ndarray, n_classes: int, spec: ModelSpec,
              rng: np.random.Generator | None, memo: dict, key, cols) -> _TreeNode:
    """Grow a CART tree; ``rng`` draws the per-split feature sample (forests only),
    ``key`` is the root's key in ``memo`` and ``cols[f]`` the dataset column of X[:, f]."""
    q = X.shape[1]
    max_feats = q if rng is None else max(1, math.isqrt(q))
    root = _TreeNode()
    # (node, key, row index array, depth); children are pushed right-then-left
    # so the left subtree is grown first, keeping rng consumption deterministic.
    stack = [(root, key, np.arange(X.shape[0]), 0)]
    while stack:
        node, key, rows, depth = stack.pop()
        ys = y[rows]
        if (
            ys.shape[0] < 2 * spec.min_leaf
            or (spec.max_depth is not None and depth >= spec.max_depth)
            or (ys == ys[0]).all()
        ):
            _make_leaf(node, ys, n_classes, rng is not None)
            continue
        if rng is None or max_feats >= q:
            features: Sequence[int] = range(q)
        else:
            features = np.sort(rng.choice(q, size=max_feats, replace=False))
        split = _best_split(X, rows, ys, n_classes, features, spec.min_leaf, memo, key, cols)
        if split is None:
            _make_leaf(node, ys, n_classes, rng is not None)
            continue
        f, thr = split
        node.feature, node.threshold = f, thr
        go_left = X[rows, f] < thr
        node.left, node.right = _TreeNode(), _TreeNode()
        stack.append((node.right, (key, cols[f], thr, False), rows[~go_left], depth + 1))
        stack.append((node.left, (key, cols[f], thr, True), rows[go_left], depth + 1))
    return root


def _make_leaf(node: _TreeNode, ys: np.ndarray, n_classes: int, vote: bool = False) -> None:
    counts = np.bincount(ys, minlength=n_classes)
    node.leaf = int(np.argmax(counts)) if vote else counts / counts.sum()


def _leaves(root: _TreeNode, columns: list[list[float]], rows: list[int]):
    """Yield (leaf, rows) for every leaf that some of ``rows`` descend to;
    ``columns[f][r]`` is feature f of row r."""
    # Plain lists, not index arrays: the calls see few rows, where a list costs
    # no more than numpy indexing and, unlike it, never releases the
    # interpreter lock to a concurrent benchmark cell.
    stack = [(root, rows)]
    while stack:
        node, rows = stack.pop()
        if node.leaf is not None:
            yield node, rows
            continue
        col, thr = columns[node.feature], node.threshold
        for child, go_left in ((node.right, False), (node.left, True)):
            part = [r for r in rows if (col[r] < thr) == go_left]
            if part:
                stack.append((child, part))


class TrainedModelHandle:
    """A fitted classifier for one attribute subset.

    ``confidences`` reads the subset's columns of full dataset rows.  One tree
    (the prior baseline is a one-leaf tree) gives its leaf's class frequencies,
    a forest each class's share of the tree votes: entries in [0, 1] summing to 1.
    """

    def __init__(self, subset: AttributeSubset, class_set: tuple, trees: list[_TreeNode],
                 vote: bool):
        self.subset = subset
        self.class_set = class_set
        self._trees = trees
        self._vote = vote

    def confidences(self, X) -> np.ndarray:
        """Rows x classes confidences for a rows x n matrix, columns ordered by class_set."""
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self.subset.n:
            raise ValueError(f"instances of shape {X.shape}; expected rows of "
                             f"{self.subset.n} values")
        m, n_classes = X.shape[0], len(self.class_set)
        columns, rows = [X[:, j].tolist() for j in self.subset.indices()], list(range(m))
        if not self._vote:
            probs = {r: node.leaf for node, part in _leaves(self._trees[0], columns, rows)
                     for r in part}
            return np.array([probs[r] for r in rows], dtype=np.float64).reshape(m, n_classes)
        votes = [[0] * n_classes for _ in rows]
        for tree in self._trees:
            for node, part in _leaves(tree, columns, rows):
                for r in part:
                    votes[r][node.leaf] += 1
        return np.array(votes, dtype=np.float64).reshape(m, n_classes) / len(self._trees)

    def predict_classes(self, X) -> np.ndarray:
        """Index of each row's most-confident class; ties go to the lowest index."""
        return np.argmax(self.confidences(X), axis=1)


def train(spec: ModelSpec, d: Dataset, s: AttributeSubset,
          memo: dict | None = None) -> TrainedModelHandle:
    """Fit ``spec`` on ``project(d, s)``.

    The empty subset always yields the prior baseline: a constant predictor
    returning each class's empirical frequency.  Degenerate training data
    (a single label value) produces a constant predictor, not an error.
    Fits of one ``spec`` and ``d`` may share a split ``memo`` (see :class:`SubsetModelCache`).
    """
    if s.n != d.n_attributes:
        raise ValueError(f"subset over {s.n} attributes for a dataset with {d.n_attributes}")
    if d.n_classes < 2:
        raise DataError("training requires at least 2 classes")
    y = d.label_indices()
    n_classes = d.n_classes
    if s.size == 0 or spec.kind == "prior_baseline":
        prior = _TreeNode()
        _make_leaf(prior, y, n_classes)
        return TrainedModelHandle(s, d.class_set, [prior], vote=False)

    X = project(d, s).features
    memo = {} if memo is None else memo
    if spec.kind == "decision_tree":
        tree = _fit_tree(X, y, n_classes, spec, None, memo, 0, s.indices())
        return TrainedModelHandle(s, d.class_set, [tree], vote=False)

    trees = []
    m = X.shape[0]
    for t in range(spec.tree_count):
        # the bootstrap is drawn first, so tree t's rows do not depend on s
        rng = np.random.default_rng([spec.seed, t])
        rows = rng.integers(0, m, size=m)
        trees.append(_fit_tree(X[rows], y[rows], n_classes, spec, rng, memo, t, s.indices()))
    return TrainedModelHandle(s, d.class_set, trees, vote=True)


class SubsetModelCache:
    """At-most-once model training per distinct attribute subset, for one thread.

    The cache owns its model spec and dataset: ``get_or_train(s)`` returns
    ``train(cache.spec, cache.dataset, s)``.  A fit that raises, or is
    interrupted, leaves no entry; the next call for the subset trains again.
    A cache is used by one thread: concurrent work builds a cache each.

    All fits share one split memo: (node key, dataset column) -> that column's
    (cost, threshold) split or None, where a node key is the tree index and
    the (column, threshold, side) of each split above the node.  Tree t's rows
    (all rows, or a bootstrap drawn before any subset-dependent draw) do not
    depend on the subset, so a key names the same rows in every model and
    output stays bit-identical.
    """

    def __init__(self, spec: ModelSpec, dataset: Dataset):
        self.spec = spec
        self.dataset = dataset
        self._handles: dict[AttributeSubset, TrainedModelHandle] = {}
        self._splits: dict = {}

    @property
    def training_count(self) -> int:
        """Number of distinct subsets trained so far."""
        return len(self._handles)

    def __contains__(self, s: AttributeSubset) -> bool:
        return s in self._handles

    def get_or_train(self, s: AttributeSubset) -> TrainedModelHandle:
        handle = self._handles.get(s)
        if handle is None:
            handle = self._handles[s] = train(self.spec, self.dataset, s, self._splits)
        return handle
