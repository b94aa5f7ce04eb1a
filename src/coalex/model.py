"""Trainable classifiers with per-attribute-subset training and caching.

The built-in learners are deliberately self-contained and fully deterministic:
for a fixed (spec, dataset, subset) every confidence value is bit-reproducible
across runs and whatever order its trees are grown in.  Influence computations
need a model for every attribute subset they touch; :class:`SubsetModelCache`
holds them.  :func:`grow_trees` grows tree t of many subset models from one
memo: the tree's bootstrap and feature draws, and each node's rows, leaf and
per-column split search, are computed once for all of them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dataset import AttributeSubset, Dataset
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
    rows = splits = None  # see _Record

    def __init__(self, leaf=None, feature=-1, threshold=0.0):
        self.feature, self.threshold, self.leaf = feature, threshold, leaf
        self.left = self.right = None


class _Record(_TreeNode):
    """A node that can still split, as a growth memo records it: its ``rows``, and
    ``splits[c]``, dataset column c's split there once searched (see ``_grow``)."""

    __slots__ = ("rows", "splits")


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


def _leaf(ys: np.ndarray, n_classes: int, vote: bool):
    counts = np.bincount(ys, minlength=n_classes)
    return int(np.argmax(counts)) if vote else counts / counts.sum()


def _record(rows: np.ndarray, yb: np.ndarray, depth: int, spec: ModelSpec, n_classes: int,
            vote: bool, width: int) -> _TreeNode:
    """A node's memo record: its leaf if it cannot split, else a node keeping its rows."""
    ys = yb[rows]
    deep = spec.max_depth is not None and depth >= spec.max_depth
    if deep or ys.shape[0] < 2 * spec.min_leaf or (ys == ys[0]).all():
        return _TreeNode(_leaf(ys, n_classes, vote))
    node = _Record()
    node.rows, node.splits = rows, [False] * width
    return node


def _grow(memo: dict, spec: ModelSpec, d: Dataset, t: int, cols: tuple) -> _TreeNode:
    """Tree t of the model over dataset columns ``cols``, grown from ``memo``.

    ``memo[t]``: tree t's dataset columns over its rows (all rows, or its
    bootstrap), their labels, its generator, the generator's state after the
    bootstrap, and its root record.  ``memo[t, q]``: the sorted feature samples
    tree t has drawn for q-column subsets, and the state after them.  A
    record's ``splits[c]`` is False until column c is searched there, then None
    or (cost, threshold), and (cost, threshold, left, right records) once a model
    splits on it.  A model draws, searches and partitions only what none did before.
    Each write is one assignment, so an interrupt leaves the memo consistent.
    """
    vote, n_classes = spec.kind == "random_forest", d.n_classes
    if t not in memo:
        yb, XT, rng, state = d.label_indices(), d.features.T, None, None
        if vote:  # the bootstrap is drawn first, so tree t's rows do not depend on the subset
            rng = np.random.default_rng([spec.seed, t])
            boot = rng.integers(0, d.n_instances, size=d.n_instances)
            XT, yb, state = d.features[boot].T, yb[boot], rng.bit_generator.state
        root = _record(np.arange(d.n_instances, dtype=np.int32), yb, 0, spec, n_classes, vote,
                       d.n_attributes)
        memo[t] = np.ascontiguousarray(XT), yb, rng, state, root
    XT, yb, rng, state, root = memo[t]
    q = len(cols)
    k = max(1, math.isqrt(q)) if vote else q
    samples, state = memo.get((t, q), ((), state))
    classes, drawn, top = np.arange(n_classes), 0, _TreeNode()
    # (record, depth, parent, side); children are pushed right-then-left so the
    # left subtree is grown first, in the order the feature samples are drawn.
    stack = [(root, 0, top, "left")]
    while stack:
        node, depth, parent, side = stack.pop()
        rows, splits = node.rows, node.splits
        if rows is not None:
            if k < q:
                if drawn == len(samples):
                    # draw from the stored state, then publish samples and state in
                    # one assignment: an interrupted draw leaves the memo unchanged
                    rng.bit_generator.state = state
                    sample = np.sort(rng.choice(q, size=k, replace=False)).tolist()
                    memo[t, q] = samples, state = samples + (sample,), rng.bit_generator.state
                features = samples[drawn]
                drawn += 1
            else:
                features = range(q)
            # ascending features, strict improvements: ties go to the lowest column
            best_cost, best, ys = math.inf, None, None
            for f in features:
                found = splits[cols[f]]
                if found is False:
                    ys = yb[rows] if ys is None else ys
                    found = splits[cols[f]] = _feature_split(XT[cols[f]][rows], ys,
                                                             classes, spec.min_leaf)
                if found is not None and found[0] < best_cost:
                    best_cost, best = found[0], f
            if best is None:
                if node.leaf is None:
                    node.leaf = _leaf(yb[rows], n_classes, vote)
            else:
                c = cols[best]
                found = splits[c]
                if len(found) == 2:  # the first split here on column c: partition
                    go_left = XT[c][rows] < found[1]
                    found = splits[c] = found + tuple(
                        _record(part, yb, depth + 1, spec, n_classes, vote, len(splits))
                        for part in (rows[go_left], rows[~go_left]))
                node = _TreeNode(feature=best, threshold=found[1])
                stack.append((found[3], depth + 1, node, "right"))
                stack.append((found[2], depth + 1, node, "left"))
        setattr(parent, side, node)
    return top.left


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
            probs = np.empty((m, n_classes))
            for node, part in _leaves(self._trees[0], columns, rows):
                probs[part] = node.leaf
            return probs
        votes = [[0] * n_classes for _ in rows]
        for tree in self._trees:
            for node, part in _leaves(tree, columns, rows):
                for r in part:
                    votes[r][node.leaf] += 1
        return np.array(votes, dtype=np.float64).reshape(m, n_classes) / len(self._trees)

    def predict_classes(self, X) -> np.ndarray:
        """Index of each row's most-confident class; ties go to the lowest index."""
        return np.argmax(self.confidences(X), axis=1)


def train(spec: ModelSpec, d: Dataset, s: AttributeSubset) -> TrainedModelHandle:
    """Fit ``spec`` on the columns of ``d`` in ``s``.

    The empty subset always yields the prior baseline: a constant predictor
    returning each class's empirical frequency.  Degenerate training data
    (a single label value) produces a constant predictor, not an error.
    """
    if s.n != d.n_attributes:
        raise ValueError(f"subset over {s.n} attributes for a dataset with {d.n_attributes}")
    if d.n_classes < 2:
        raise DataError("training requires at least 2 classes")
    if s.size == 0 or spec.kind == "prior_baseline":
        prior = _TreeNode(_leaf(d.label_indices(), d.n_classes, vote=False))
        return TrainedModelHandle(s, d.class_set, [prior], vote=False)
    return train_many(spec, d, [s])[0]


def grow_trees(spec: ModelSpec, d: Dataset, t: int, subsets: list[AttributeSubset]):
    """Yield tree t of the model on each of ``subsets`` (none empty, ``spec``
    not the prior baseline), in order, grown from one memo (see ``_grow``).

    A node is named by the (column, threshold, side) of each split above it.
    Tree t's rows (all rows, or a bootstrap drawn before any subset-dependent
    draw) and its j-th feature sample for q-column subsets do not depend on
    the subset, so a node has the same rows, leaf and column splits in every
    model, and the memo computes each of them once.
    """
    memo = {}
    for s in subsets:
        yield _grow(memo, spec, d, t, s.indices())


def train_many(spec: ModelSpec, d: Dataset,
               subsets: list[AttributeSubset]) -> list[TrainedModelHandle]:
    """``train`` on each of ``subsets`` (none empty, ``spec`` not the prior
    baseline), tree-major: tree t of every model grows from one memo."""
    vote = spec.kind == "random_forest"
    trees = [[] for _ in subsets]
    for t in range(spec.tree_count if vote else 1):
        for model, tree in zip(trees, grow_trees(spec, d, t, subsets)):
            model.append(tree)
    return [TrainedModelHandle(s, d.class_set, model, vote) for s, model in zip(subsets, trees)]


def tree_values(spec: ModelSpec, d: Dataset, t: int, subsets: list[AttributeSubset],
                X: np.ndarray, target_idx: list[int]) -> np.ndarray:
    """Tree t of the model on each of ``subsets`` (see :func:`grow_trees`) at
    the rows of X: entry (i, r) is its confidence for class ``target_idx[r]``,
    a forest tree's vote (1 or 0) or a decision tree's class frequency.  Summed
    over a forest's trees and divided by their count, these are ``train``'s
    confidences bit for bit.  The memo is dropped on return."""
    vote, rows, idx = spec.kind == "random_forest", np.arange(len(X)), np.asarray(target_idx)
    values = [TrainedModelHandle(s, d.class_set, [tree], vote).confidences(X)[rows, idx]
              for s, tree in zip(subsets, grow_trees(spec, d, t, subsets))]
    return np.array(values).reshape(len(subsets), len(X))


class SubsetModelCache:
    """At-most-once model training per distinct attribute subset, for one thread.

    The cache owns its model spec and dataset: ``get_or_train(s)`` returns
    ``train(cache.spec, cache.dataset, s)`` and holds it; ``train_all`` holds
    :func:`train_many`'s models.  A fit that raises, or is interrupted, leaves
    no entry.  A cache is used by one thread: concurrent work builds a cache
    each.  ``add_grown`` counts subsets a tree pass trained without keeping
    their models, so ``get_or_train`` trains such a subset again if asked.
    """

    def __init__(self, spec: ModelSpec, dataset: Dataset):
        self.spec = spec
        self.dataset = dataset
        self._handles: dict[AttributeSubset, TrainedModelHandle | None] = {}  # None: grown

    @property
    def training_count(self) -> int:
        """Number of distinct subsets trained so far, whether held or only grown."""
        return len(self._handles)

    def __contains__(self, s: AttributeSubset) -> bool:
        return s in self._handles

    def holds(self, s: AttributeSubset) -> bool:
        return self._handles.get(s) is not None

    def add_grown(self, subsets) -> None:
        for s in subsets:
            self._handles.setdefault(s, None)

    def train_all(self, subsets: list[AttributeSubset]) -> None:
        """Hold a model for each of ``subsets`` (none empty); all are added or none."""
        todo = [s for s in subsets if not self.holds(s)]
        self._handles.update(zip(todo, train_many(self.spec, self.dataset, todo)))

    def get_or_train(self, s: AttributeSubset) -> TrainedModelHandle:
        handle = self._handles.get(s)
        if handle is None:
            handle = self._handles[s] = train(self.spec, self.dataset, s)
        return handle
