"""Trainable classifiers with per-attribute-subset training and caching.

The built-in learners are deliberately self-contained and fully deterministic:
for a fixed (spec, dataset, subset) every confidence value is bit-reproducible
across runs and whatever order its trees are grown in.  Influence computations
need a model for every attribute subset they touch; :class:`SubsetModelCache`
holds them.  :func:`tree_values` grows tree t of many subset models in one
lockstep pass: each round advances every model's walk, a walk that draws no
features over its whole frontier and one that draws by one node, and runs one
split search for all of them (up to ``ROUND_ROWS`` rows), and each node is
computed once for all models.  The search sorts one integer key per row,
segment x N + the row's rank in its column, ranked once per tree.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass

import numpy as np

from .dataset import AttributeSubset, Dataset
from .errors import DataError

MODEL_KINDS = ("random_forest", "decision_tree", "prior_baseline")
_NO_ROWS = np.empty(0, dtype=np.intp)  # shared by the many memo nodes no row of X reaches
ROUND_ROWS = 1 << 17  # a round takes no more records once it searches and places this many rows


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

    def __init__(self, leaf=None, feature=-1, threshold=0.0):
        self.feature, self.threshold, self.leaf = feature, threshold, leaf
        self.left = self.right = None


class _Record(_TreeNode):
    """A memo node of tree t: its depth, leaf, training ``rows`` (None if it cannot
    split), rows ``ex`` of X, and ``splits[c]``: False until column c is searched,
    then None or [cost, threshold], extended by the child records once used."""

    __slots__ = ("depth", "rows", "ex", "splits")


def _records(parts: list, exs: list, depths: list, yb: np.ndarray, spec: ModelSpec,
             n_classes: int, width: int) -> list[_Record]:
    """The records of the nodes with training rows ``parts[i]``, rows of X ``exs[i]``
    and depth ``depths[i]``; a forest leaf votes for its lowest most frequent label."""
    lens = np.array([len(rows) for rows in parts])
    cells = np.repeat(np.arange(len(parts)) * n_classes, lens) + yb[np.concatenate(parts)]
    counts = np.bincount(cells, minlength=len(parts) * n_classes).reshape(-1, n_classes)
    leaves = (counts.argmax(axis=1).tolist() if spec.kind == "random_forest"
              else counts / counts.sum(axis=1)[:, None])
    nodes = [_Record(leaf) for leaf in leaves]
    for node, rows, ex, depth, pure in zip(nodes, parts, exs, depths,
                                           (counts.max(axis=1) == lens).tolist()):
        node.depth, node.ex, node.rows, node.splits = depth, ex, rows, [False] * width
        if pure or len(rows) < 2 * spec.min_leaf or depth == spec.max_depth:
            node.rows = node.splits = None
    return nodes


def _presort(Xb: np.ndarray, yb: np.ndarray):
    """Per column c, ``rank[c, r]``: row r's position in a stable argsort of
    ``Xb[:, c]``; and the column's values and labels in that order, flat."""
    order = np.argsort(Xb, axis=0, kind="stable").T
    rank = np.empty_like(order)
    rank[np.arange(len(order))[:, None], order] = np.arange(len(Xb))
    return rank, np.take_along_axis(Xb.T, order, 1).ravel(), yb[order].ravel()


def _split_search(pairs: list, presort, n_classes: int, min_leaf: int):
    """Set ``record.splits[c]`` for each (record, c) of ``pairs`` to the lowest-Gini-cost
    [cost, threshold] split of the record's rows on column c, or None.

    One segmented scan does per segment what a one-column search does, in the same
    integer and float operations: a stable sort (one integer key per row, segment x N
    + its ``_presort`` rank), prefix class counts, the cost ``1 - (sum l^2/|l| + sum
    r^2/|r|) / m`` at each gap between distinct values, the first minimum, and its
    midpoint, or its right value if that rounds down to the left."""
    rank, sorted_x, sorted_y = presort
    lens, cols = np.array([len(node.rows) for node, _ in pairs]), [c for _, c in pairs]
    seg, size = np.repeat(np.arange(len(pairs)), lens), rank.shape[1]
    key = np.sort(seg * size + rank[np.repeat(cols, lens), np.concatenate(
        [node.rows for node, _ in pairs])])  # a segment's rows in its column's order
    flat = key + np.repeat((np.array(cols) - np.arange(len(pairs))) * size, lens)
    xs, ys = sorted_x[flat], sorted_y[flat]
    starts = np.cumsum(lens) - lens
    g = np.flatnonzero(seg[1:] == seg[:-1])  # gap g lies between sorted values g and g + 1
    gs = seg[g]
    first, m = starts[gs], lens[gs]
    sizes, left_sq, right_sq = g - first + 1, 0, 0
    for k in range(n_classes):  # sum l^2 and sum r^2 in integers, one class at a time
        cum = np.concatenate([[0], np.cumsum(ys == k)])
        left = cum[g + 1] - cum[first]
        left_sq, right_sq = left_sq + left * left, right_sq + (cum[first + m] - cum[g + 1]) ** 2
    purity = left_sq / sizes + right_sq / (m - sizes)
    valid = (xs[g] < xs[g + 1]) & (sizes >= min_leaf) & (m - sizes >= min_leaf)
    cost = np.where(valid, 1.0 - purity / m, math.inf)
    best = np.minimum.reduceat(cost, starts - np.arange(len(pairs)))
    hit = np.flatnonzero(cost == best[gs])
    pos = g[hit[np.searchsorted(gs[hit], np.arange(len(pairs)))]]  # first minima
    thr = (xs[pos] + xs[pos + 1]) / 2.0
    thr = np.where(thr <= xs[pos], xs[pos + 1], thr)
    for (node, c), low, at in zip(pairs, best.tolist(), thr.tolist()):
        node.splits[c] = [low, at] if low < math.inf else None


def _cut(parts: list, X: np.ndarray, cols: list, thresholds: list) -> list:
    """For each index array ``parts[i]``, its rows r with ``X[r, cols[i]] <
    thresholds[i]``, then its other rows, each in order."""
    seg = np.repeat(np.arange(len(parts)), [len(rows) for rows in parts])
    cat = np.concatenate(parts)
    side = 2 * seg + (X[cat, np.array(cols)[seg]] >= np.array(thresholds)[seg])
    ends = np.cumsum(np.bincount(side, minlength=2 * len(parts))).tolist()
    cat = cat[np.argsort(side, kind="stable")]
    return [cat[a:b] if a < b else _NO_ROWS for a, b in zip([0] + ends, ends)]


class _Walk:
    """One model's walk of tree t: index, columns, sample size k (0: no draws), samples
    used, a stack of (holder, key, parent, side) for ``holder[key]``, rows of X left."""

    __slots__ = ("i", "cols", "k", "drawn", "stack", "pending")


def _grow(spec: ModelSpec, d: Dataset, t: int, cols_list: list, X=None, write=None):
    """Tree t of the model over each of ``cols_list``, grown in lockstep from one memo.
    Without X, returns the trees.  With X, builds none, and calls ``write(events)``
    once per round with a (walk index, leaf record) pair for each leaf rows of X reach.

    Tree t's rows (all rows, or a bootstrap drawn before any subset-dependent draw)
    and its j-th feature sample for q-column subsets do not depend on the subset,
    so a node, named by the (column, threshold, side) of each split above it, has
    the same rows, leaf and column splits in every model: the memo computes each
    once.  A round moves every walk, depth first and left first, to its next
    splittable record, or, if it draws no features, to every record on its stack,
    as its splits do not depend on the order it visits them in; searches the
    (record, column) pairs the walks' samples ask for and none did before, in one
    ``_split_search`` over tree t's ``_presort``; takes each walk's best split; and
    cuts the rows of each new (record, column) split.  A round takes no more
    records once it has ``ROUND_ROWS`` rows to search or to place in leaves; the
    rest wait for the next round.  A walk stops once its rows of X are in leaves,
    and one that draws no features skips subtrees they miss; one that draws must
    grow those, as their draws shift its later samples."""
    vote, n_classes, width = spec.kind == "random_forest", d.n_classes, d.n_attributes
    yb, Xb, rng = d.label_indices(), d.features, None
    if vote:  # the bootstrap is drawn first, so tree t's rows do not depend on the subset
        rng = np.random.default_rng([spec.seed, t])
        boot = rng.integers(0, d.n_instances, size=d.n_instances)
        Xb, yb = d.features[boot], yb[boot]
    presort = _presort(Xb, yb)
    roots = _records([np.arange(d.n_instances, dtype=np.int32)],
                     [None if X is None else np.arange(len(X))], [0], yb, spec, n_classes, width)
    samples = {q: ([], copy.deepcopy(rng)) for q in {len(cols) for cols in cols_list}}
    tops, walks = [_TreeNode() for _ in cols_list], [_Walk() for _ in cols_list]
    pending = -1 if X is None else len(X)
    for i, (w, cols) in enumerate(zip(walks, cols_list)):
        k = max(1, math.isqrt(len(cols))) if vote else 0
        w.i, w.cols, w.k, w.drawn, w.pending = i, cols, k * (k < len(cols)), 0, pending
        w.stack = [(roots, 0, None if X is not None else tops[i], "left")]

    def place(w, node, parent, side):  # hang a leaf on the tree, or note the rows of X there
        if parent is not None:
            setattr(parent, side, node)
            return 0
        if len(node.ex):
            events.append((w.i, node))
            w.pending -= len(node.ex)  # at 0, the rest of the tree changes no value
        return len(node.ex)

    while walks:
        at, pairs, cuts, events, load = [], [], [], [], 0
        for w in walks:  # to the next splittable records, placing leaves on the way
            while w.stack and w.pending and load < ROUND_ROWS:
                holder, key, parent, side = w.stack.pop()
                node, cols = holder[key], w.cols
                if node.rows is None or not (w.k or X is None or len(node.ex)):
                    load += place(w, node, parent, side)  # a leaf, or a subtree no X reaches
                    continue
                features = range(len(cols))
                if w.k:
                    drawn, gen = samples[len(cols)]
                    if w.drawn == len(drawn):
                        drawn.append(np.sort(gen.choice(len(cols), w.k, replace=False)).tolist())
                    features = drawn[w.drawn]
                    w.drawn += 1
                for f in features:
                    if node.splits[cols[f]] is False:
                        node.splits[cols[f]] = None  # searched in this round
                        pairs.append((node, cols[f]))
                        load += len(node.rows)
                at.append((w, node, parent, side, features))
                if w.k:  # a drawing walk's j-th sample is for its j-th record, depth first
                    break
        if pairs:
            _split_search(pairs, presort, n_classes, spec.min_leaf)
        for w, node, parent, side, features in at:
            splits, cols = node.splits, w.cols  # the lowest cost; on ties the lowest column
            best = min(((splits[cols[f]][0], f) for f in features if splits[cols[f]] is not None),
                       default=(None, None))[1]
            if best is None:
                place(w, node, parent, side)
                continue
            found = splits[cols[best]]
            if len(found) == 2:  # the first split here on this column: cut below
                cuts.append((node, cols[best], found))
                found += [None, None]
            if parent is not None:
                setattr(parent, side, parent := _TreeNode(feature=best, threshold=found[1]))
            w.stack += [(found, 3, parent, "right"), (found, 2, parent, "left")]
        if cuts:
            nodes, cs, thr = zip(*[(node, c, found[1]) for node, c, found in cuts])
            exs = [None] * 2 * len(cuts) if X is None else _cut([n.ex for n in nodes], X, cs, thr)
            kids = _records(_cut([n.rows for n in nodes], Xb, cs, thr), exs,
                            [n.depth + 1 for n in nodes for _ in "lr"], yb, spec, n_classes, width)
            for j, (*_, found) in enumerate(cuts):
                found[2:] = kids[2 * j:2 * j + 2]
        if events:
            write(events)
        walks = [w for w in walks if w.stack and w.pending]
    return [top.left for top in tops]


def _leaves(root: _TreeNode, columns: list[list[float]], rows: list[int]):
    """Yield (leaf, rows) for every leaf that some of ``rows`` descend to;
    ``columns[f][r]`` is feature f of row r."""
    # Plain lists, not index arrays: the calls see few rows, where a list is
    # faster than numpy indexing.
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
        prior = _TreeNode(np.bincount(d.label_indices(), minlength=d.n_classes) / d.n_instances)
        return TrainedModelHandle(s, d.class_set, [prior], vote=False)
    vote = spec.kind == "random_forest"
    trees = [_grow(spec, d, t, [s.indices()])[0] for t in range(spec.tree_count if vote else 1)]
    return TrainedModelHandle(s, d.class_set, trees, vote)


def tree_values(spec: ModelSpec, d: Dataset, t: int, subsets: list[AttributeSubset],
                X: np.ndarray, target_idx: list[int], out: np.ndarray, rows) -> None:
    """Add tree t of the model on each of ``subsets`` (none empty, ``spec`` not
    the prior baseline) at the rows of X to ``out``: subset i adds its
    confidence for class ``target_idx[r]`` at row r, a forest tree's vote (1 or
    0) or a decision tree's class frequency, to ``out[rows[i], r]``.  Summed
    over a forest's trees and divided by their count, these are ``train``'s
    confidences bit for bit.  All subsets grow in one lockstep pass (``_grow``)."""
    vote, tidx, rows = spec.kind == "random_forest", np.asarray(target_idx), np.asarray(rows)

    def write(events):  # a round's (walk, leaf) pairs: the leaf's value at each of its rows
        walks, leaves = zip(*events)
        ex = np.concatenate([leaf.ex for leaf in leaves])
        which = np.repeat(np.arange(len(leaves)), [len(leaf.ex) for leaf in leaves])
        found = np.array([leaf.leaf for leaf in leaves])
        values = (found[which] == tidx[ex]).astype(float) if vote else found[which, tidx[ex]]
        out[rows[list(walks)][which], ex] += values

    _grow(spec, d, t, [s.indices() for s in subsets], X, write)


class SubsetModelCache:
    """At-most-once model training per distinct attribute subset, for one thread.

    The cache owns its model spec and dataset: ``get_or_train(s)`` returns
    ``train(cache.spec, cache.dataset, s)`` and holds it.  A fit that raises, or
    is interrupted, leaves no entry.  ``add_grown`` counts subsets a tree pass
    trained without keeping their models, so ``get_or_train`` trains such a
    subset again if asked.
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

    def get_or_train(self, s: AttributeSubset) -> TrainedModelHandle:
        handle = self._handles.get(s)
        if handle is None:
            handle = self._handles[s] = train(self.spec, self.dataset, s)
        return handle
