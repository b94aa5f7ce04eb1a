"""Trainable classifiers with per-attribute-subset training and caching.

The built-in learners are deliberately self-contained and fully deterministic:
for a fixed (spec, dataset, subset) every confidence value is bit-reproducible
across runs and whatever order its trees are grown in.  Influence computations
need a model for every attribute subset they touch; :class:`SubsetModelCache`
holds them.  :func:`train` and :func:`tree_values` grow every tree of a slice,
for one subset model or many, in one lockstep pass (``_grow``) over an
array-backed memo (``_Memo``), where each node and each (node, column) split
is computed once for all models.  A round advances every walk, one that draws
features by one node and one that draws none over its whole frontier, and runs
one split search for all trees and models (up to ``ROUND_ROWS`` rows).  The
search sorts one integer key per row, segment x N + the dataset row's rank in
its column, ranked once per pass.  A pass takes as many trees as its memo
holds in about ``PASS_BYTES`` (``_passes``).
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass

import numpy as np

from .dataset import AttributeSubset, Dataset
from .errors import DataError

MODEL_KINDS = ("random_forest", "decision_tree", "prior_baseline")
ROUND_ROWS = 1 << 17  # a round takes no more nodes once it searches, places or looks up this many
PASS_BYTES = 1 << 24  # a tree pass takes as many trees as its memo holds in about this many bytes


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


class _Grown:
    """Arrays that grow together along their first axis, doubling their room as
    needed; the first ``n`` rows are in use."""

    def __init__(self, **arrays):
        self.n = 0
        self.__dict__.update(arrays)

    def add(self, **values) -> int:
        """Append rows: as many as the first of ``values`` has, each name's rows or
        one scalar for all of them.  Returns the index of the first."""
        lo = self.n
        self.n = hi = lo + len(next(iter(values.values())))
        for name, value in values.items():
            a = getattr(self, name)
            if hi > len(a):
                grown = np.empty((2 * hi,) + a.shape[1:], a.dtype)
                grown[:lo] = a[:lo]
                setattr(self, name, a := grown)
            a[lo:hi] = value
        return lo


def _runs(flat: np.ndarray, starts: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """The runs ``flat[starts[i]:starts[i] + lens[i]]``, concatenated."""
    return flat[np.repeat(starts - np.cumsum(lens) + lens, lens) + np.arange(lens.sum())]


def _firsts(key: np.ndarray) -> np.ndarray:
    """The index of the first occurrence of each distinct value of ``key``.  Sorting
    does what ``np.unique`` does, which imports ``numpy.ma`` on its first call."""
    order = np.argsort(key, kind="stable")
    first = np.ones(len(key), dtype=bool)
    first[1:] = key[order[1:]] != key[order[:-1]]
    return order[first]


def _presort(X: np.ndarray, y: np.ndarray):
    """Per column c, ``rank[c, r]``: row r's position in a stable argsort of
    ``X[:, c]``; and the column's values and labels in that order, flat."""
    order = np.argsort(X, axis=0, kind="stable").T
    rank = np.empty_like(order)
    rank[np.arange(len(order))[:, None], order] = np.arange(len(X))
    return rank, np.take_along_axis(X.T, order, 1).ravel(), y[order].ravel()


def _split_search(cols: np.ndarray, lens: np.ndarray, rows: np.ndarray, presort,
                  n_classes: int, min_leaf: int):
    """The lowest-Gini-cost split of each (rows, column) pair: pair i holds the next
    ``lens[i]`` of ``rows`` (dataset rows, repeats allowed) and column ``cols[i]``.
    Returns each pair's cost (inf if it has no split) and threshold.

    One segmented scan does per segment what a one-column search does, in the same
    integer and float operations: a stable sort (one integer key per row, segment x N
    + its ``_presort`` rank), prefix class counts, the cost ``1 - (sum l^2/|l| + sum
    r^2/|r|) / m`` at each gap between distinct values, the first minimum, and its
    midpoint, or its right value if that rounds down to the left.  Repeated rows share
    a rank, and rows tied in value never change a split: only gaps between distinct
    values are valid, and the counts there do not depend on the order of tied rows."""
    rank, sorted_x, sorted_y = presort
    n, size = len(cols), rank.shape[1]
    seg = np.repeat(np.arange(n), lens)
    key = np.sort(seg * size + rank[np.repeat(cols, lens), rows])  # a segment's rows in order
    flat = key + np.repeat((cols - np.arange(n)) * size, lens)
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
    best = np.minimum.reduceat(cost, starts - np.arange(n))
    hit = np.flatnonzero(cost == best[gs])
    pos = g[hit[np.searchsorted(gs[hit], np.arange(n))]]  # first minima
    thr = (xs[pos] + xs[pos + 1]) / 2.0
    return best, np.where(thr <= xs[pos], xs[pos + 1], thr)


class _Memo:
    """The nodes of one tree pass, as rows of arrays.  Node i has the value
    ``nodes.leaf[i]`` (class frequencies, or a forest's vote one-hot) and rows
    ``nodes.ex*`` of X; a node that can split owns table row ``nodes.tab[i]`` (-1
    for a leaf) with its depth, its training rows (dataset rows) and, per column c,
    ``cost``/``thr`` of its best split on c (NaN until searched, inf if none) and
    ``kid``, its left child there (the right one is next), -1 until cut."""

    def __init__(self, spec: ModelSpec, d: Dataset, X):
        self.spec, self.F, self.y = spec, d.features, d.label_indices()
        self.X = np.empty((0, d.n_attributes)) if X is None else X
        self.presort = _presort(self.F, self.y)
        ints, width = np.empty(0, dtype=np.intp), d.n_attributes
        self.nodes = _Grown(leaf=np.empty((0, d.n_classes)), ex0=ints, exn=ints, tab=ints)
        self.tables = _Grown(start=ints, size=ints, depth=ints, cost=np.empty((0, width)),
                             thr=np.empty((0, width)), kid=np.empty((0, width), dtype=np.intp))
        self.rows, self.exs = (_Grown(v=np.empty(0, dtype=np.int32)) for _ in "re")

    @property
    def nbytes(self) -> int:
        return sum(a.nbytes for part in (self.nodes, self.tables, self.rows, self.exs)
                   for a in vars(part).values() if isinstance(a, np.ndarray))

    def add(self, rows, lens, ex, ex_lens, depth) -> np.ndarray:
        """Nodes with the training rows ``rows`` and rows ``ex`` of X, in runs of ``lens``
        and ``ex_lens``, at ``depth``; returns their indices.  A forest leaf votes for
        its lowest most frequent label.  Only nodes that can split keep their rows."""
        spec, n, C = self.spec, len(lens), self.nodes.leaf.shape[1]
        counts = np.bincount(np.repeat(np.arange(n) * C, lens) + self.y[rows],
                             minlength=n * C).reshape(n, C)
        leaf = (np.eye(C)[counts.argmax(axis=1)] if spec.kind == "random_forest"
                else counts / counts.sum(axis=1)[:, None])
        split = ((counts.max(axis=1) < lens) & (lens >= 2 * spec.min_leaf)
                 & (depth != (spec.max_depth or -1)))
        sizes, tab = lens[split], np.full(n, -1)
        start = self.rows.add(v=rows[np.repeat(split, lens)]) + np.cumsum(sizes) - sizes
        tab[split] = self.tables.add(start=start, size=sizes, depth=depth[split], cost=np.nan,
                                     thr=0.0, kid=-1) + np.arange(len(sizes))
        ex0 = self.exs.add(v=ex) + np.cumsum(ex_lens) - ex_lens
        return self.nodes.add(leaf=leaf, ex0=ex0, exn=ex_lens, tab=tab) + np.arange(n)

    def cut(self, nodes, cols, thr) -> None:
        """Cut node ``nodes[i]`` on column ``cols[i]`` at ``thr[i]``: its rows below the
        threshold, then its others, each in order, make its two children."""
        t, n, parts, tables = self.nodes.tab[nodes], len(nodes), [], self.tables
        for M, flat, starts, lens in ((self.F, self.rows.v, tables.start[t], tables.size[t]),
                                      (self.X, self.exs.v, self.nodes.ex0[nodes],
                                       self.nodes.exn[nodes])):
            rows, seg = _runs(flat, starts, lens), np.repeat(np.arange(n), lens)
            side = 2 * seg + (M[rows, cols[seg]] >= thr[seg])
            parts += [rows[np.argsort(side, kind="stable")], np.bincount(side, minlength=2 * n)]
        tables.kid[t, cols] = self.add(*parts, np.repeat(tables.depth[t] + 1, 2))[::2]


def _grow(spec: ModelSpec, d: Dataset, trees: list, cols_list: list, X=None, write=None):
    """Trees ``trees`` of the model over each of ``cols_list``, grown in one lockstep
    pass from one memo; returns the memo and, without X, the trees, tree-major.  With
    X, builds none, and calls ``write(subsets, rows, leaves)`` once per round with the
    subset index, row of X and leaf value of each row of X that reached a leaf.

    Tree t's rows (all rows, or a bootstrap drawn before any subset-dependent draw)
    and its j-th feature sample for q-column subsets do not depend on the subset,
    so a node, named by its tree and the (column, threshold, side) of each split
    above it, has the same rows, leaf and column splits in every model: the memo
    computes each once.  Each (tree, subset) has a walk.  A round takes, of every
    walk that draws features, the node on top of its stack (its j-th sample is for
    its j-th splittable node, depth first and left first), and of every other walk
    all of its nodes, as their splits do not depend on the order they are taken in;
    searches the (node, column) pairs their samples ask for and none did before, in
    one ``_split_search``; takes each walk's first lowest-cost split; and cuts each
    new (node, column) split once.  Leaves are placed as they appear.  A round takes
    no more nodes once it has ``ROUND_ROWS`` rows to search, to place in leaves, or
    pairs to look up; the rest wait.  A walk stops once its rows of X are in leaves,
    and one that draws no features skips subtrees they miss; one that draws must
    grow those, as their draws shift its later samples."""
    memo, vote = _Memo(spec, d, X), spec.kind == "random_forest"
    N, width, T, S = d.n_instances, d.n_attributes, len(trees), len(cols_list)
    q = np.array([len(cols) for cols in cols_list])
    k = np.array([max(1, math.isqrt(n)) if vote else 0 for n in q.tolist()])
    k[k >= q] = 0  # a sample of every column draws nothing
    colmat = np.zeros((S, q.max()), dtype=np.intp)  # row i: the columns of cols_list[i]
    colmat[np.repeat(np.arange(S), q), np.arange(q.sum()) - np.repeat(np.cumsum(q) - q, q)] = \
        np.concatenate(cols_list)
    gens = [np.random.default_rng([spec.seed, t]) if vote else None for t in trees]
    boots = [rng.integers(0, N, size=N) if vote else np.arange(N) for rng in gens]
    nx = 0 if X is None else len(X)
    roots = memo.add(np.concatenate(boots), np.full(T, N), np.tile(np.arange(nx), T),
                     np.full(T, nx), np.zeros(T, dtype=np.intp))
    sub, tree = np.tile(np.arange(S), T), np.repeat(np.arange(T), S)  # walk i's model and tree
    wk, wq, drawn = k[sub], q[sub], np.zeros(T * S, dtype=np.intp)
    pending = np.full(T * S, -1 if X is None else nx)  # rows of X not yet in a leaf
    group = tree * (width + 1) + wq  # walks of one tree and subset size share their samples
    samples = np.zeros((0, T * (width + 1), k.max()), dtype=np.intp)  # [j, group]: j-th sample
    made, gen_of = np.zeros(T * (width + 1), dtype=np.intp), {}
    tops = [_TreeNode() for _ in range(T * S)] if X is None else []
    pw = pr = ps = taken = np.empty(0, dtype=np.intp)  # the walks' stacks, grouped by walk
    w, r, s, leaf = np.arange(T * S), roots[tree], np.arange(T * S), np.zeros(T * S, dtype=bool)
    while True:  # place the leaves (w, r, s) and push the other nodes onto the stacks
        grow = (memo.nodes.tab[r] >= 0) & ~leaf
        if X is not None:
            grow &= (wk[w] > 0) | (memo.nodes.exn[r] > 0)
        at, lw, lr = s[~grow].tolist(), w[~grow], r[~grow]
        if X is None:
            found = memo.nodes.leaf[lr]
            for slot, value in zip(at, found.argmax(axis=1).tolist() if vote else found):
                tops[slot].leaf = value
        else:
            n = memo.nodes.exn[lr]
            which = np.repeat(np.arange(len(lr)), n)
            write(sub[lw[which]], _runs(memo.exs.v, memo.nodes.ex0[lr], n),
                  memo.nodes.leaf[lr[which]])
            np.subtract.at(pending, lw, n)  # at 0, the rest of the tree changes no value
        keep = np.ones(len(pw), dtype=bool)
        keep[taken] = False
        pw, pr, ps = (np.concatenate([a[keep], b[grow]]) for a, b in ((pw, w), (pr, r), (ps, s)))
        order = np.argsort(pw, kind="stable")
        order = order[pending[pw[order]] != 0]
        pw, pr, ps = pw[order], pr[order], ps[order]
        if not len(pw):
            return memo, tops[:T * S]
        top = np.ones(len(pw), dtype=bool)
        top[:-1] = pw[1:] != pw[:-1]
        taken = np.flatnonzero(top | (wk[pw] == 0))
        npos = np.where(wk[pw[taken]] > 0, wk[pw[taken]], wq[pw[taken]])
        load = npos + memo.nodes.exn[pr[taken]]
        taken = taken[np.cumsum(load) - load < ROUND_ROWS]
        w, r, npos = pw[taken], pr[taken], npos[:len(taken)]
        pos = np.tile(np.arange(max(npos.max(), k.max())), (len(taken), 1))  # positions asked for
        dr = np.flatnonzero(wk[w] > 0)
        if len(dr):  # the drawn positions, drawing more samples where none is there yet
            g, j = group[w[dr]], drawn[w[dr]]
            need = np.zeros_like(made)
            np.maximum.at(need, g, j + 1)
            if need.max() > len(samples):
                samples = np.concatenate([samples, np.zeros_like(samples, shape=(
                    max(need.max(), len(samples)),) + samples.shape[1:])])
            for gi in np.flatnonzero(need > made).tolist():
                if gi not in gen_of:  # a copy of the tree's generator, as its bootstrap left it
                    gen_of[gi] = np.random.Generator(copy.copy(gens[gi // (width + 1)]
                                                               .bit_generator))
                n, kq = gi % (width + 1), max(1, math.isqrt(gi % (width + 1)))
                for jj in range(made[gi], need[gi]):
                    samples[jj, gi, :kq] = np.sort(gen_of[gi].choice(n, kq, replace=False))
                made[gi] = need[gi]
            pos[dr, :k.max()] = samples[j, g]
        valid = np.arange(pos.shape[1]) < npos[:, None]
        cols = colmat[sub[w][:, None], np.where(valid, pos, 0)]
        t = memo.nodes.tab[r]
        ce, ck = np.nonzero(valid)
        ct, cc = t[ce], cols[ce, ck]
        new = np.flatnonzero(np.isnan(memo.tables.cost[ct, cc]))
        pairs = new[_firsts(ct[new] * width + cc[new])]  # each pair at the first walk asking
        load = load[:len(taken)] + np.bincount(ce[pairs], memo.tables.size[ct[pairs]],
                                               minlength=len(taken))
        m = np.count_nonzero(np.cumsum(load) - load < ROUND_ROWS)
        taken, w, r, s, t, pos, valid, cols = (a[:m] for a in (taken, w, r, ps[taken], t, pos,
                                                               valid, cols))
        drawn[w[wk[w] > 0]] += 1
        pairs, c = pairs[ce[pairs] < m], np.searchsorted(ce, m)
        if len(pairs):
            pt, pc = ct[pairs], cc[pairs]
            lens = memo.tables.size[pt]
            memo.tables.cost[pt, pc], memo.tables.thr[pt, pc] = _split_search(
                pc, lens, _runs(memo.rows.v, memo.tables.start[pt], lens), memo.presort,
                d.n_classes, spec.min_leaf)
        costs = np.full(valid.shape, math.inf)
        costs[valid] = memo.tables.cost[ct[:c], cc[:c]]
        best = costs.argmin(axis=1)  # the lowest cost; on ties the lowest column
        leaf = ~np.isfinite(costs[np.arange(m), best])
        e = np.flatnonzero(~leaf)
        st, sc = t[e], cols[e, best[e]]
        fresh = np.flatnonzero(memo.tables.kid[st, sc] < 0)
        fresh = fresh[_firsts(st[fresh] * width + sc[fresh])]
        if len(fresh):
            memo.cut(r[e[fresh]], sc[fresh], memo.tables.thr[st[fresh], sc[fresh]])
        kid = memo.tables.kid[st, sc]
        kids = len(tops) + np.arange(2 * len(e))
        if X is None:  # hang the splits on the trees, with new nodes for the children
            for slot, f, at in zip(s[e].tolist(), pos[e, best[e]].tolist(),
                                   memo.tables.thr[st, sc].tolist()):
                node = tops[slot]
                node.feature, node.threshold = f, at
                node.right, node.left = _TreeNode(), _TreeNode()
                tops += [node.right, node.left]
        w = np.concatenate([w[leaf], np.repeat(w[e], 2)])  # right child under left, per walk
        r = np.concatenate([r[leaf], np.stack([kid + 1, kid], axis=1).ravel()])
        s = np.concatenate([s[leaf], kids])
        leaf = np.concatenate([np.ones(m - len(e), dtype=bool), np.zeros(2 * len(e), dtype=bool)])


def _passes(spec: ModelSpec, d: Dataset, trees, cols_list: list, X=None, write=None) -> list:
    """Grow ``trees`` (see ``_grow``) in passes whose memo holds about ``PASS_BYTES``,
    so that deep trees of many subset models do not all share one memo.  The first pass
    takes as many trees as fit a bound on one tree's memo: each walk builds at most 2N
    nodes (2^(d+1) at depth cap d), each with 24 bytes per column.  Each later pass
    takes as many as fit the bytes per tree measured on the pass before.  Returns
    ``train``'s trees, tree-major."""
    trees, grown, reach = list(trees), [], 2 * d.n_instances
    if spec.max_depth is not None:
        reach = min(reach, 2 << spec.max_depth)
    size = PASS_BYTES / (len(cols_list) * reach * 24 * d.n_attributes)
    while trees:
        size = max(1, int(size))
        memo, tops = _grow(spec, d, trees[:size], cols_list, X, write)
        grown += tops
        trees, size = trees[size:], PASS_BYTES * size / memo.nbytes
    return grown


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
    trees = _passes(spec, d, range(spec.tree_count if vote else 1), [s.indices()])
    return TrainedModelHandle(s, d.class_set, trees, vote)


def tree_values(spec: ModelSpec, d: Dataset, trees, subsets: list[AttributeSubset],
                X: np.ndarray, target_idx: list[int], out: np.ndarray, rows) -> None:
    """Add each tree t of ``trees`` (a tree index, or several) of the model on each
    of ``subsets`` (none empty, ``spec`` not the prior baseline) at the rows of X to
    ``out``: subset i adds its confidence for class ``target_idx[r]`` at row r, a
    forest tree's vote (1 or 0) or a decision tree's class frequency, to ``out[rows[i],
    r]``.  Summed over a forest's trees and divided by their count, these are
    ``train``'s confidences bit for bit.  All the trees of all subsets grow in lockstep
    passes (``_passes``)."""
    tidx, rows = np.asarray(target_idx), np.asarray(rows)

    def write(subs, ex, leaves):  # np.add.at: two trees may reach one (subset, row) in a round
        np.add.at(out, (rows[subs], ex), leaves[np.arange(len(ex)), tidx[ex]])

    _passes(spec, d, [trees] if isinstance(trees, int) else trees,
            [s.indices() for s in subsets], X, write)


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
