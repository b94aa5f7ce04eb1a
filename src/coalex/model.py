"""Trainable classifiers with per-attribute-subset training and caching.

The built-in learners are deliberately self-contained and fully
deterministic: for a fixed (spec, dataset, subset) every confidence value
is bit-reproducible across runs and thread schedules.  Influence
computations retrain a model for every attribute subset they touch, so
:class:`SubsetModelCache` guarantees at-most-once training per distinct
subset.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .dataset import AttributeSubset, ClassTarget, Dataset, class_prior, project
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
    """Binary CART node; leaves carry a class-frequency vector."""

    __slots__ = ("feature", "threshold", "left", "right", "probs")

    def __init__(self, probs=None, feature=-1, threshold=0.0, left=None, right=None):
        self.feature = feature
        self.threshold = threshold
        self.left = left
        self.right = right
        self.probs = probs

    @property
    def is_leaf(self) -> bool:
        return self.probs is not None


def _best_split(X: np.ndarray, y: np.ndarray, n_classes: int,
                features: Sequence[int], min_leaf: int):
    """Lowest-Gini-cost split over the given features.

    Ties are broken toward the lowest feature index, then the lowest
    threshold, by scanning features in ascending order and accepting only
    strict cost improvements.
    """
    m = X.shape[0]
    best_cost = math.inf
    best = None
    classes = np.arange(n_classes)
    for f in features:
        col = X[:, f]
        order = np.argsort(col, kind="stable")
        xs = col[order]
        ys = y[order]
        if xs[0] == xs[-1]:
            continue
        cum = np.cumsum(ys[:, None] == classes, axis=0)  # (m, C) prefix counts
        sizes = np.arange(1, m)                          # left side sizes
        left = cum[:-1]
        right = cum[-1] - left
        # weighted Gini cost; minimizing it maximizes sum(l^2)/|l| + sum(r^2)/|r|
        purity = (left * left).sum(axis=1) / sizes + (right * right).sum(axis=1) / (m - sizes)
        cost = 1.0 - purity / m
        valid = (xs[:-1] < xs[1:]) & (sizes >= min_leaf) & (m - sizes >= min_leaf)
        if not valid.any():
            continue
        cost = np.where(valid, cost, math.inf)
        pos = int(np.argmin(cost))  # first minimum -> lowest threshold
        if cost[pos] < best_cost:
            thr = (xs[pos] + xs[pos + 1]) / 2.0
            if thr <= xs[pos]:  # midpoint rounded down to the left value
                thr = xs[pos + 1]
            best_cost = cost[pos]
            best = (f, float(thr))
    return best


def _fit_tree(X: np.ndarray, y: np.ndarray, n_classes: int, spec: ModelSpec,
              rng: np.random.Generator | None) -> _TreeNode:
    """Grow a CART tree; ``rng`` draws the per-split feature sample (forests only)."""
    q = X.shape[1]
    max_feats = q if rng is None else max(1, math.isqrt(q))
    root = _TreeNode()
    # (node, row index array, depth); children are pushed right-then-left so
    # the left subtree is grown first, keeping rng consumption deterministic.
    stack = [(root, np.arange(X.shape[0]), 0)]
    while stack:
        node, rows, depth = stack.pop()
        ys = y[rows]
        if (
            ys.shape[0] < 2 * spec.min_leaf
            or (spec.max_depth is not None and depth >= spec.max_depth)
            or (ys == ys[0]).all()
        ):
            _make_leaf(node, ys, n_classes)
            continue
        if rng is None or max_feats >= q:
            features: Sequence[int] = range(q)
        else:
            features = np.sort(rng.choice(q, size=max_feats, replace=False))
        split = _best_split(X[rows], ys, n_classes, features, spec.min_leaf)
        if split is None:
            _make_leaf(node, ys, n_classes)
            continue
        f, thr = split
        node.feature, node.threshold = f, thr
        go_left = X[rows, f] < thr
        node.left, node.right = _TreeNode(), _TreeNode()
        stack.append((node.right, rows[~go_left], depth + 1))
        stack.append((node.left, rows[go_left], depth + 1))
    return root


def _make_leaf(node: _TreeNode, ys: np.ndarray, n_classes: int) -> None:
    counts = np.bincount(ys, minlength=n_classes).astype(np.float64)
    node.probs = counts / counts.sum()


def _walk(node: _TreeNode, x: np.ndarray) -> np.ndarray:
    while not node.is_leaf:
        node = node.left if x[node.feature] < node.threshold else node.right
    return node.probs


class TrainedModelHandle:
    """A fitted classifier for one attribute subset.

    ``confidence`` accepts either a full dataset row (projected internally)
    or a row already restricted to the subset's attributes.  Confidence
    vectors are probability-like: entries in [0, 1] summing to 1.
    """

    def __init__(self, spec: ModelSpec, subset: AttributeSubset,
                 class_set: tuple, kind: str, trees=None, priors=None):
        self.spec = spec
        self.subset = subset
        self.class_set = class_set
        self._kind = kind
        self._trees = trees
        self._priors = priors
        self._columns = np.array(subset.indices(), dtype=np.intp)

    def _project(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 1:
            raise ValueError("expected a single instance row")
        if x.shape[0] == self.subset.n:
            return x[self._columns]
        if x.shape[0] == self.subset.size:
            return x
        raise ValueError(
            f"instance has {x.shape[0]} values; expected {self.subset.n} (full row) "
            f"or {self.subset.size} (projected)"
        )

    def confidences(self, x) -> np.ndarray:
        """Per-class confidence vector for one instance, ordered by class_set."""
        if self._kind == "prior_baseline":
            return self._priors.copy()
        xp = self._project(x)
        if self._kind == "decision_tree":
            return _walk(self._trees[0], xp).copy()
        votes = np.zeros(len(self.class_set))
        for tree in self._trees:
            votes[int(np.argmax(_walk(tree, xp)))] += 1.0
        return votes / len(self._trees)

    def confidence(self, x, c: ClassTarget) -> float:
        if not 0 <= c.index < len(self.class_set) or self.class_set[c.index] != c.class_id:
            raise DataError(f"class target {c} not in the training class_set")
        return float(self.confidences(x)[c.index])

    def predict_class(self, x) -> int:
        """Index of the most-confident class; ties go to the lowest index."""
        return int(np.argmax(self.confidences(x)))

    def predict_classes(self, X) -> np.ndarray:
        return np.array([self.predict_class(row) for row in np.asarray(X, dtype=np.float64)],
                        dtype=np.intp)


def train(spec: ModelSpec, d: Dataset, s: AttributeSubset) -> TrainedModelHandle:
    """Fit ``spec`` on ``project(d, s)``.

    The empty subset always yields the prior baseline: a constant predictor
    returning each class's empirical frequency.  Degenerate training data
    (a single label value) produces a constant predictor, not an error.
    """
    if s.n != d.n_attributes:
        raise ValueError(f"subset over {s.n} attributes for a dataset with {d.n_attributes}")
    if d.n_classes < 2:
        raise DataError("training requires at least 2 classes")
    if s.size == 0 or spec.kind == "prior_baseline":
        priors = np.array([class_prior(d, d.class_target(c)) for c in d.class_set])
        return TrainedModelHandle(spec, s, d.class_set, "prior_baseline", priors=priors)

    dp = project(d, s)
    X = dp.features
    y = dp.label_indices()
    n_classes = d.n_classes
    if spec.kind == "decision_tree":
        tree = _fit_tree(X, y, n_classes, spec, rng=None)
        return TrainedModelHandle(spec, s, d.class_set, "decision_tree", trees=[tree])

    trees = []
    m = X.shape[0]
    for t in range(spec.tree_count):
        rng = np.random.default_rng([spec.seed, t])
        rows = rng.integers(0, m, size=m)
        trees.append(_fit_tree(X[rows], y[rows], n_classes, spec, rng))
    return TrainedModelHandle(spec, s, d.class_set, "random_forest", trees=trees)


class SubsetModelCache:
    """At-most-once model training per distinct attribute subset.

    The cache owns its model spec and dataset: ``get_or_train(s)`` returns
    ``train(cache.spec, cache.dataset, s)``.  Thread-safe: concurrent calls
    for the same subset block on a single in-flight fit; distinct subsets
    train in parallel.  A fit that raises an ``Exception`` is remembered and
    re-raised for that subset; an interrupted fit is not, and the next call
    for the subset trains again.
    """

    def __init__(self, spec: ModelSpec, dataset: Dataset):
        self.spec = spec
        self.dataset = dataset
        self._lock = threading.Lock()
        self._handles: dict[AttributeSubset, TrainedModelHandle] = {}
        self._inflight: dict[AttributeSubset, threading.Event] = {}
        self._failures: dict[AttributeSubset, Exception] = {}
        self._trained = 0

    @property
    def training_count(self) -> int:
        """Number of distinct subsets trained so far."""
        with self._lock:
            return self._trained

    def __contains__(self, s: AttributeSubset) -> bool:
        with self._lock:
            return s in self._handles

    def get_or_train(self, s: AttributeSubset) -> TrainedModelHandle:
        while True:
            with self._lock:
                handle = self._handles.get(s)
                if handle is not None:
                    return handle
                if s in self._failures:
                    raise self._failures[s]
                event = self._inflight.get(s)
                if event is None:
                    event = self._inflight[s] = threading.Event()
                    break
            event.wait()  # then look again: trained, failed, or interrupted
        try:
            handle = train(self.spec, self.dataset, s)
        except BaseException as exc:
            with self._lock:
                if isinstance(exc, Exception):
                    self._failures[s] = exc
                del self._inflight[s]
            event.set()
            raise
        with self._lock:
            self._handles[s] = handle
            self._trained += 1
            del self._inflight[s]
        event.set()
        return handle
