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
holds in about ``PASS_BYTES`` (``_passes``).  A trained model keeps its passes'
node arrays as flat-array trees, and descends all of them at once.
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
    ``kid``, its left child there (the right one is next), -1 until cut.  The
    trees of the pass start at nodes ``roots``."""

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
    pass from one memo, which it returns.  With X, it calls ``write(subsets, rows,
    leaves)`` once per round with the subset index, row of X and leaf value of each row
    of X that reached a leaf.

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
    memo.roots = memo.add(np.concatenate(boots), np.full(T, N), np.tile(np.arange(nx), T),
                          np.full(T, nx), np.zeros(T, dtype=np.intp))
    sub, tree = np.tile(np.arange(S), T), np.repeat(np.arange(T), S)  # walk i's model and tree
    wk, wq, drawn = k[sub], q[sub], np.zeros(T * S, dtype=np.intp)
    pending = np.full(T * S, -1 if X is None else nx)  # rows of X not yet in a leaf
    group = tree * (width + 1) + wq  # walks of one tree and subset size share their samples
    samples = np.zeros((0, T * (width + 1), k.max()), dtype=np.intp)  # [j, group]: j-th sample
    made, gen_of = np.zeros(T * (width + 1), dtype=np.intp), {}
    pw = pr = taken = np.empty(0, dtype=np.intp)  # the walks' stacks, grouped by walk
    w, r, leaf = np.arange(T * S), memo.roots[tree], np.zeros(T * S, dtype=bool)
    while True:  # place the leaves (w, r) and push the other nodes onto the stacks
        grow = (memo.nodes.tab[r] >= 0) & ~leaf
        if X is not None:
            grow &= (wk[w] > 0) | (memo.nodes.exn[r] > 0)
            lw, lr = w[~grow], r[~grow]
            n = memo.nodes.exn[lr]
            which = np.repeat(np.arange(len(lr)), n)
            write(sub[lw[which]], _runs(memo.exs.v, memo.nodes.ex0[lr], n),
                  memo.nodes.leaf[lr[which]])
            np.subtract.at(pending, lw, n)  # at 0, the rest of the tree changes no value
        keep = np.ones(len(pw), dtype=bool)
        keep[taken] = False
        pw, pr = (np.concatenate([a[keep], b[grow]]) for a, b in ((pw, w), (pr, r)))
        order = np.argsort(pw, kind="stable")
        order = order[pending[pw[order]] != 0]
        pw, pr = pw[order], pr[order]
        if not len(pw):
            return memo
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
        taken, w, r, t, valid, cols = (a[:m] for a in (taken, w, r, t, valid, cols))
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
        w = np.concatenate([w[leaf], np.repeat(w[e], 2)])  # right child under left, per walk
        r = np.concatenate([r[leaf], np.stack([kid + 1, kid], axis=1).ravel()])
        leaf = np.concatenate([np.ones(m - len(e), dtype=bool), np.zeros(2 * len(e), dtype=bool)])


def _passes(spec: ModelSpec, d: Dataset, trees, cols_list: list, X=None, write=None):
    """Grow ``trees`` (see ``_grow``) in passes whose memo holds about ``PASS_BYTES``,
    so that deep trees of many subset models do not all share one memo, and yield
    each pass's memo.  The first pass takes as many trees as fit a bound on one
    tree's memo: each walk builds at most 2N nodes (2^(d+1) at depth cap d), each with
    24 bytes per column.  Each later pass takes as many as fit the bytes per tree
    measured on the pass before."""
    trees, reach = list(trees), 2 * d.n_instances
    if spec.max_depth is not None:
        reach = min(reach, 2 << spec.max_depth)
    size = PASS_BYTES / (len(cols_list) * reach * 24 * d.n_attributes)
    while trees:
        size = max(1, int(size))
        memo = _grow(spec, d, trees[:size], cols_list, X, write)
        yield memo
        trees, size = trees[size:], PASS_BYTES * size / memo.nbytes


class TrainedModelHandle:
    """A fitted classifier for one attribute subset: flat-array trees, as its passes'
    memos grew them.  Node i splits on dataset column ``feature[i]`` (-1 for a leaf)
    at ``thr[i]``; a row below it goes to node ``left[i]``, any other to
    ``left[i] + 1``.  ``leaf[i]`` is its class frequencies, or a forest tree's vote
    one-hot, and the trees start at ``roots``.  The prior baseline is one leaf.

    ``confidences`` reads the subset's columns of full dataset rows and gives the
    mean over the trees of the leaves the rows reach: entries in [0, 1] summing to 1.
    """

    def __init__(self, subset: AttributeSubset, class_set: tuple, feature, thr, left, leaf,
                 roots):
        self.subset = subset
        self.class_set = class_set
        self._feature, self._thr, self._left, self._leaf, self._roots = (
            feature, thr, left, leaf, roots)

    def confidences(self, X) -> np.ndarray:
        """Rows x classes confidences for a rows x n matrix, columns ordered by class_set."""
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self.subset.n:
            raise ValueError(f"instances of shape {X.shape}; expected rows of "
                             f"{self.subset.n} values")
        T, feature, out = len(self._roots), self._feature, np.empty((len(X), len(self.class_set)))
        step = max(1, ROUND_ROWS // T)
        for lo in range(0, len(X), step):  # blocks of about ROUND_ROWS (tree, row) pairs
            x = X[lo:lo + step]
            node = np.repeat(self._roots, len(x))  # pair p: tree p // len(x) at row p % len(x)
            at = np.arange(len(node))
            while len(at := at[feature[node[at]] >= 0]):  # the pairs not at a leaf go down
                n = node[at]
                node[at] = self._left[n] + ~(x[at % len(x), feature[n]] < self._thr[n])
            out[lo:lo + step] = self._leaf[node].reshape(T, len(x), -1).sum(axis=0) / T
        return out

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
        prior = np.bincount(d.label_indices(), minlength=d.n_classes) / d.n_instances
        zero = np.zeros(1, dtype=np.intp)  # one tree: a leaf at node 0
        return TrainedModelHandle(s, d.class_set, zero - 1, np.zeros(1), zero, prior[None], zero)
    trees, at = [], 0
    for memo in _passes(spec, d, range(spec.tree_count if spec.kind == "random_forest" else 1),
                        [s.indices()]):
        n, tables = memo.nodes.n, memo.tables
        feature, thr, left = np.full(n, -1), np.zeros(n), np.zeros(n, dtype=np.intp)
        t, c = np.nonzero(tables.kid[:tables.n] >= 0)  # one walk per tree: one cut at most
        node = np.flatnonzero(memo.nodes.tab[:n] >= 0)[t]  # tables are added in node order
        feature[node], thr[node], left[node] = c, tables.thr[t, c], tables.kid[t, c] + at
        trees.append((feature, thr, left, memo.nodes.leaf[:n], memo.roots + at))
        at += n
    return TrainedModelHandle(s, d.class_set, *(np.concatenate(a) for a in zip(*trees)))


def tree_values(spec: ModelSpec, d: Dataset, trees, subsets: list[AttributeSubset],
                X: np.ndarray, target_idx: list[int], out: np.ndarray, rows) -> None:
    """Add each tree t of ``trees`` (a sequence of tree indices) of the model on each
    of ``subsets`` (none empty, ``spec`` not the prior baseline) at the rows of X to
    ``out``: subset i adds its confidence for class ``target_idx[r]`` at row r, a
    forest tree's vote (1 or 0) or a decision tree's class frequency, to ``out[rows[i],
    r]``.  Summed over a forest's trees and divided by their count, these are
    ``train``'s confidences bit for bit.  All the trees of all subsets grow in lockstep
    passes (``_passes``), one memo at a time."""
    tidx, rows = np.asarray(target_idx), np.asarray(rows)

    def write(subs, ex, leaves):  # np.add.at: two trees may reach one (subset, row) in a round
        np.add.at(out, (rows[subs], ex), leaves[np.arange(len(ex)), tidx[ex]])

    for _ in _passes(spec, d, trees, [s.indices() for s in subsets], X, write):
        pass


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
