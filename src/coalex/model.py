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
its column, ranked once per dataset (``Dataset.presorted``).  A pass takes as
many trees as its memo holds in about ``PASS_BYTES`` (``_passes``).  Whatever
its size, a round makes about 80 numpy calls and a pass about 70 more: on a
2-vCPU host a small pass costs about 0.2 ms a round and 0.2 ms a pass, on top
of the work proportional to its rows.  A trained model keeps its passes' node
arrays as flat-array trees, and descends all of them at once, one level a step.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass
from itertools import chain

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
        self.n = self.room = 0
        self.names = tuple(arrays)
        self.__dict__.update(arrays)

    def add(self, *values) -> int:
        """Append rows: as many as the first of ``values`` has, and for each array in
        order its rows or one scalar for all of them.  Returns the index of the first."""
        lo, arrays = self.n, self.__dict__
        self.n = hi = lo + len(values[0])
        if hi > self.room:
            self.room = 2 * hi
            for name in self.names:
                a = arrays[name]
                arrays[name] = grown = np.empty((2 * hi,) + a.shape[1:], a.dtype)
                grown[:lo] = a[:lo]
        for name, value in zip(self.names, values):
            arrays[name][lo:hi] = value
        return lo


def _runs(flat: np.ndarray, starts: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """The runs ``flat[starts[i]:starts[i] + lens[i]]``, concatenated."""
    ends = lens.cumsum()
    return flat[(starts - ends + lens).repeat(lens) + np.arange(ends[-1] if len(ends) else 0)]


def _firsts(key: np.ndarray) -> np.ndarray:
    """The index of the first occurrence of each distinct value of ``key``.  Sorting
    does what ``np.unique`` does, which imports ``numpy.ma`` on its first call."""
    order = key.argsort(kind="stable")
    ordered, first = key[order], np.empty(len(key), dtype=bool)
    first[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    return order[first]


def _taken(load: np.ndarray) -> int:
    """How many of a round's nodes, in order, with these loads it takes: each while the
    loads before it sum to less than ``ROUND_ROWS``."""
    if load.sum() - load[-1] < ROUND_ROWS:
        return len(load)
    return int((load.cumsum() - load).searchsorted(ROUND_ROWS))


def _partition(M, flat, starts, lens, thr, cols):
    """Split each run ``flat[starts[i]:starts[i] + lens[i]]`` of rows of the C-ordered
    matrix M into part 2i, its rows below ``thr[i]`` on column ``cols[i]``, then part
    2i + 1, its others, each in order.  Returns the rows, each part's length, and each
    row's part."""
    rows = _runs(flat, starts, lens)
    at = rows * np.intp(M.shape[1]) + cols.repeat(lens)
    side = np.arange(0, 2 * len(lens), 2).repeat(lens) + (M.ravel()[at] >= thr.repeat(lens))
    order = side.argsort(kind="stable")
    return rows[order], np.bincount(side, minlength=2 * len(lens)), side[order]


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
    values are valid, and the counts there do not depend on the order of tied rows.
    The last class's counts are the sizes less the other classes' counts."""
    rank, sorted_x, sorted_y = presort
    n, size = len(cols), rank.shape[1]
    base, at = (np.arange(n) * size).repeat(lens), (cols * size).repeat(lens)
    key = base + rank.ravel()[at + rows]
    key.sort()  # a segment's rows in order
    key += at - base
    xs, ys = sorted_x[key], sorted_y[key]
    del base, at, key  # the search's largest round sets the pass's peak memory
    ends = lens.cumsum()
    starts = ends - lens
    # gap i lies between sorted values i and i + 1; a segment's last gap has rest 0
    first, end = starts.repeat(lens)[:-1], ends.repeat(lens)[:-1]
    m = end - first
    sizes = np.arange(1, len(ys)) - first
    rest = m - sizes
    cum = np.zeros(len(ys) + 1, dtype=np.intp)
    for k in range(n_classes - 1):  # sum l^2 and sum r^2 in integers, one class at a time
        (ys == k).cumsum(out=cum[1:])
        left, right = cum[1:-1] - cum[first], cum[end] - cum[1:-1]
        if k:
            left_sq += left * left
            right_sq += right * right
            left_n += left
            right_n += right
        else:
            left_sq, right_sq, left_n, right_n = left * left, right * right, left, right
    del first, end, cum, left, right
    left_n -= sizes  # minus the last class's counts
    right_n -= rest
    left_sq += left_n * left_n
    right_sq += right_n * right_n
    purity = left_sq / sizes + right_sq / np.maximum(rest, 1)  # not 0 / 0 at a last gap
    valid = (xs[:-1] < xs[1:]) & (np.minimum(sizes, rest) >= min_leaf)
    cost = np.where(valid, 1.0 - purity / m, math.inf)
    best = np.minimum.reduceat(cost, starts)
    hit = (cost == best.repeat(lens)[:-1]).nonzero()[0]
    pos = hit[hit.searchsorted(starts)]  # first minima
    lo, hi = xs[pos], xs[pos + 1]
    thr = (lo + hi) / 2.0
    return best, np.where(thr <= lo, hi, thr)


class _Memo:
    """The nodes of one tree pass, as rows of arrays.  Node i has the value
    ``nodes.leaf[i]`` (class frequencies, or a forest's vote one-hot) and rows
    ``nodes.ex*`` of X; a node that can split owns table row ``nodes.tab[i]`` (-1
    for a leaf) with its depth, its training rows (dataset rows) and, per column c,
    ``cost``/``thr`` of its best split on c (NaN until searched, inf if none) and
    ``kid``, its left child there (the right one is next), -1 until cut.  The
    trees of the pass start at nodes ``roots``."""

    def __init__(self, spec: ModelSpec, d: Dataset, X):
        self.spec, self.y, self.presort = spec, d.label_indices(), d.presorted
        self.vote, self.depth_cap = spec.kind == "random_forest", spec.max_depth or -1
        self.eye = np.eye(d.n_classes)  # a forest leaf's vote for class c: row c
        self.F, self.X = d.features, None if X is None else np.ascontiguousarray(X)
        ints, width = np.empty(0, dtype=np.intp), d.n_attributes
        self.nodes = _Grown(leaf=np.empty((0, d.n_classes)), ex0=ints, exn=ints, tab=ints)
        self.tables = _Grown(start=ints, size=ints, depth=ints, cost=np.empty((0, width)),
                             kid=np.empty((0, width), dtype=np.intp), thr=np.empty((0, width)))
        self.rows, self.exs = (_Grown(v=np.empty(0, dtype=np.int32)) for _ in "re")

    @property
    def nbytes(self) -> int:
        return sum(a.nbytes for part in (self.nodes, self.tables, self.rows, self.exs)
                   for a in vars(part).values() if isinstance(a, np.ndarray))

    def add(self, rows, lens, ex, ex_lens, depth, seg) -> int:
        """Nodes with the training rows ``rows`` and rows ``ex`` of X, in runs of ``lens``
        and ``ex_lens`` (``seg``: the run of each training row), at ``depth``; returns
        the index of the first.  A forest leaf votes for its lowest most frequent label.
        Only nodes that can split keep their rows."""
        n, C = len(lens), self.nodes.leaf.shape[1]
        counts = np.bincount(seg * C + self.y[rows], minlength=n * C).reshape(n, C)
        split = ((counts.max(axis=1) < lens) & (lens >= 2 * self.spec.min_leaf)
                 & (depth != self.depth_cap))
        sizes = lens[split]
        start = self.rows.add(rows[split[seg]]) - sizes + sizes.cumsum()
        first = self.tables.add(start, sizes, depth[split], np.nan, -1)
        tab = np.where(split, split.cumsum() + (first - 1), -1)
        leaf = self.eye[counts.argmax(axis=1)] if self.vote else counts / lens[:, None]
        return self.nodes.add(leaf, self.exs.add(ex) - ex_lens + ex_lens.cumsum(), ex_lens, tab)

    def cut(self, nodes, pairs) -> None:
        """Cut node ``nodes[i]`` at its (table, column) pair ``pairs[i]`` (flat): its rows
        below the pair's threshold, then its others, each in order, make its two
        children.  A child of fewer than ``min_leaf`` rows, which no searched split
        makes, raises ``RuntimeError``: the pass would grow its sibling forever."""
        tables, n = self.tables, len(nodes)
        t, cols = np.divmod(pairs, tables.cost.shape[1])
        split = tables.thr.ravel()[pairs], cols
        rows, lens, seg = _partition(self.F, self.rows.v, tables.start[t], tables.size[t],
                                     *split)
        if lens.min() < self.spec.min_leaf:
            raise RuntimeError(f"a cut left a child of {lens.min()} training rows")
        ex, ex_lens, _ = (_partition(self.X, self.exs.v, self.nodes.ex0[nodes],
                                     self.nodes.exn[nodes], *split) if self.X is not None
                          else (rows[:0], np.zeros(2 * n, dtype=np.intp), None))
        first = self.add(rows, lens, ex, ex_lens, (tables.depth[t] + 1).repeat(2), seg)
        tables.kid.ravel()[pairs] = np.arange(first, first + 2 * n, 2)


def _grow(spec: ModelSpec, d: Dataset, trees: list, cols_list: list, X=None, write=None):
    """Trees ``trees`` of the model over each of ``cols_list``, grown in one lockstep
    pass from one memo, which it returns.  With X, it calls ``write(subsets, rows,
    leaf, nodes)`` with each row of X that reached a leaf, its subset index, and its
    leaf ``nodes`` of the memo's leaf values ``leaf``: once it holds ``ROUND_ROWS``
    such rows, and once at the end.

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
    q = np.fromiter(map(len, cols_list), np.intp, S)
    k = np.array([max(1, math.isqrt(n)) if vote else 0 for n in range(width + 1)])[q]
    k[k >= q] = 0  # a sample of every column draws nothing
    kmax, qmax = int(k.max()), int(q.max())
    colmat = np.zeros((S, qmax), dtype=np.intp)  # row i: the columns of cols_list[i], then 0
    colmat[np.arange(qmax) < q[:, None]] = np.fromiter(chain.from_iterable(cols_list), np.intp)
    asks = np.where(k > 0, k, q)  # the positions a node of each model asks for
    asked = np.arange(qmax) < asks[:, None]
    gens = [np.random.default_rng([spec.seed, t]) if vote else None for t in trees]
    boots = [rng.integers(0, N, size=N) if vote else np.arange(N) for rng in gens]
    nx = 0 if X is None else len(X)
    first = memo.add(np.concatenate(boots), np.full(T, N),
                     np.arange(nx)[None].repeat(T, axis=0).ravel(), np.full(T, nx),
                     np.zeros(T, dtype=np.intp), np.arange(T).repeat(N))
    memo.roots = np.arange(first, first + T)
    walks = np.arange(T * S)
    sub, tree = walks % S, walks // S  # walk i's model and tree
    draws, ask, drawn = k[sub] > 0, asks[sub], np.zeros(T * S, dtype=np.intp)
    # rows of X not yet in a leaf, counted down if some walk draws
    pending = np.full(T * S + 1, -1 if X is None else nx)
    pending[-1] = 0  # walk T * S: none, so its stack entries drop
    group = tree * (width + 1) + q[sub]  # walks of one tree and subset size share their samples
    samples = np.zeros((0, T * (width + 1), kmax), dtype=np.intp)  # [j, group]: j-th sample
    made, gen_of = np.zeros(T * (width + 1), dtype=np.intp), {}
    right_left = np.array([1, 0])
    placed, held = [], 0  # the (walk, leaf) pairs not yet written, and their rows of X
    pw = pr = np.empty(0, dtype=np.intp)  # the walks' stacks, grouped by walk
    taken = None  # the stack entries a round took, if not all
    w, r, nl = walks, memo.roots[tree], 0  # arriving nodes; the first nl have no split
    while True:  # place the leaves among (w, r) and push the other nodes onto the stacks
        grow = memo.nodes.tab[r] >= 0
        grow[:nl] = False
        if X is not None:
            n = memo.nodes.exn[r]
            grow &= (draws[w] | (n > 0)) if kmax else n > 0
            stop = ~grow
            lw, n = w[stop], n[stop]
            if kmax:  # at 0, the rest of the tree changes no value
                np.subtract.at(pending, lw, n)
            placed.append((lw, r[stop]))
            held += int(n.sum())
        if taken is None:  # every node on the stacks was taken
            pw, pr = w[grow], r[grow]
        else:  # the new nodes go on top; the taken ones go, as walk T * S has no rows pending
            pw[taken] = T * S
            order = (pw := np.concatenate([pw, w[grow]])).argsort(kind="stable")
            pw, pr = pw[order], np.concatenate([pr, r[grow]])[order]
        if kmax or taken is not None:  # a walk that draws stops once its rows are placed
            live = pending[pw] != 0
            pw, pr = pw[live], pr[live]
        if placed and (held >= ROUND_ROWS or not len(pw)):
            lw, lr = (np.concatenate(a) for a in zip(*placed))
            n = memo.nodes.exn[lr]
            which = np.arange(len(lr)).repeat(n)
            write(sub[lw][which], _runs(memo.exs.v, memo.nodes.ex0[lr], n), memo.nodes.leaf,
                  lr[which])
            placed, held = [], 0
        if not len(pw):
            return memo
        w, r, taken = pw, pr, None
        if kmax and (drawing := draws[pw]).any():  # of a walk that draws, its top node only
            top = np.empty(len(pw), dtype=bool)
            top[-1] = True
            np.not_equal(pw[1:], pw[:-1], out=top[:-1])
            taken = (top | ~drawing).nonzero()[0]
            w, r = pw[taken], pr[taken]
        load = ask[w] + memo.nodes.exn[r]
        if (m := _taken(load)) < len(w):  # the others wait
            taken = np.arange(m) if taken is None else taken[:m]
            w, r, load = w[:m], r[:m], load[:m]
        s = sub[w]
        valid, cols = asked[s], colmat[s]  # a walk that draws nothing asks for all its columns
        dr = draws[w].nonzero()[0] if kmax else ()
        if len(dr):  # the drawn positions, drawing more samples where none is there yet
            g, j = group[w[dr]], drawn[w[dr]]
            need = np.zeros_like(made)
            np.maximum.at(need, g, j + 1)
            if need.max() > len(samples):
                samples = np.concatenate([samples, np.zeros_like(samples, shape=(
                    max(need.max(), len(samples)),) + samples.shape[1:])])
            for gi in (need > made).nonzero()[0].tolist():
                if gi not in gen_of:  # a copy of the tree's generator, as its bootstrap left it
                    gen_of[gi] = np.random.Generator(copy.copy(gens[gi // (width + 1)]
                                                               .bit_generator))
                n, kq = gi % (width + 1), max(1, math.isqrt(gi % (width + 1)))
                for jj in range(made[gi], need[gi]):
                    samples[jj, gi, :kq] = np.sort(gen_of[gi].choice(n, kq, replace=False))
                made[gi] = need[gi]
            cols[dr, :kmax] = colmat[s[dr][:, None], samples[j, g]]
        at = memo.nodes.tab[r][:, None] * width + cols  # the (table, column) pairs, flat
        new = valid & np.isnan(memo.tables.cost.ravel()[at])
        keys = at[new]
        first = _firsts(keys)  # each new pair at the first walk asking
        pairs = keys[first]
        pt, pc = np.divmod(pairs, width)
        lens = memo.tables.size[pt]
        if load.sum() + lens.sum() >= ROUND_ROWS:  # with the searches, perhaps fewer
            asker = new.nonzero()[0][first]
            m = _taken(load + np.bincount(asker, lens, minlength=len(w)))
            taken = np.arange(m) if taken is None else taken[:m]
            w, r, valid, at = w[:m], r[:m], valid[:m], at[:m]
            pairs, pt, pc, lens = (a[asker < m] for a in (pairs, pt, pc, lens))
        if len(dr):
            drawn[w] += draws[w]  # one entry per walk that draws
        if len(pairs):
            tables = memo.tables
            tables.cost.ravel()[pairs], tables.thr.ravel()[pairs] = _split_search(
                pc, lens, _runs(memo.rows.v, tables.start[pt], lens), memo.presort,
                d.n_classes, spec.min_leaf)
        costs = np.where(valid, memo.tables.cost.ravel()[at], math.inf)
        best = costs.argmin(axis=1) + np.arange(0, costs.size, costs.shape[1])
        leaf = costs.ravel()[best] == math.inf
        e = (~leaf).nonzero()[0]  # the lowest cost; on ties the lowest column
        chosen = at.ravel()[best[e]]
        fresh = (memo.tables.kid.ravel()[chosen] < 0).nonzero()[0]
        if len(fresh):
            fresh = fresh[_firsts(chosen[fresh])]
            memo.cut(r[e[fresh]], chosen[fresh])
        kid, nl = memo.tables.kid.ravel()[chosen], len(w) - len(e)
        w = np.concatenate([w[leaf], w[e].repeat(2)])  # right child under left, per walk
        r = np.concatenate([r[leaf], (kid[:, None] + right_left).ravel()])


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
    """A fitted classifier for one attribute subset: flat-array trees ``depth`` levels
    deep at most, as its passes' memos grew them.  Node i splits on dataset column
    ``feature[i]`` at ``thr[i]``; a row below it goes to node ``left[i]``, any other
    to ``left[i] + 1``.  A leaf has feature -1, threshold -inf and ``left[i] = i - 1``,
    so every row stays there.  ``leaf[i]`` is its class frequencies, or a forest
    tree's vote one-hot, and the trees start at ``roots``.  The prior baseline is one
    leaf.

    ``confidences`` reads the subset's columns of full dataset rows and gives the
    mean over the trees of the leaves the rows reach: entries in [0, 1] summing to 1.
    """

    def __init__(self, subset: AttributeSubset, class_set: tuple, feature, thr, left, leaf,
                 roots, depth: int):
        self.subset = subset
        self.class_set = class_set
        self._feature, self._thr, self._left, self._leaf, self._roots, self._depth = (
            feature, thr, left, leaf, roots, depth)
        self._right = left + 1

    def confidences(self, X) -> np.ndarray:
        """Rows x classes confidences for a rows x n matrix, columns ordered by class_set."""
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self.subset.n:
            raise ValueError(f"instances of shape {X.shape}; expected rows of "
                             f"{self.subset.n} values")
        T, C, blocks = len(self._roots), len(self.class_set), []
        step = max(1, ROUND_ROWS // T)
        for lo in range(0, len(X) or 1, step):  # blocks of about ROUND_ROWS (tree, row) pairs
            x = X[lo:lo + step]
            node = self._roots.repeat(len(x))  # pair p: tree p // len(x) at row p % len(x)
            at = np.arange(0, x.size, x.shape[1])[None].repeat(T, 0).ravel()  # its row's start
            x = x.ravel()
            for _ in range(self._depth):  # every pair one level down, or staying at its leaf
                node = self._right[node] - (x[at + self._feature[node]] < self._thr[node])
            blocks.append(self._leaf.take(node, 0).reshape(T, -1, C).sum(axis=0) / T)
        return blocks[0] if len(blocks) == 1 else np.concatenate(blocks)

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
        return TrainedModelHandle(s, d.class_set, zero - 1, np.full(1, -math.inf), zero - 1,
                                  prior[None], zero, 0)
    trees, at, depth = [], 0, 0
    for memo in _passes(spec, d, range(spec.tree_count if spec.kind == "random_forest" else 1),
                        [s.indices()]):
        n, tables = memo.nodes.n, memo.tables
        feature, thr, left = np.full(n, -1), np.full(n, -math.inf), np.arange(at - 1, at + n - 1)
        t, c = np.nonzero(tables.kid[:tables.n] >= 0)  # one walk per tree: one cut at most
        node = np.flatnonzero(memo.nodes.tab[:n] >= 0)[t]  # tables are added in node order
        feature[node], thr[node], left[node] = c, tables.thr[t, c], tables.kid[t, c] + at
        trees.append((feature, thr, left, memo.nodes.leaf[:n], memo.roots + at))
        at, depth = at + n, max(depth, tables.depth[t].max(initial=-1) + 1)
    return TrainedModelHandle(s, d.class_set, *(np.concatenate(a) for a in zip(*trees)),
                              int(depth))


def tree_values(spec: ModelSpec, d: Dataset, trees, subsets: list[AttributeSubset],
                X: np.ndarray, target_idx: list[int], out: np.ndarray, rows) -> None:
    """Add each tree t of ``trees`` (a sequence of tree indices) of the model on each
    of ``subsets`` (none empty, ``spec`` not the prior baseline) at the rows of X to
    the C-contiguous ``out``: subset i adds its confidence for class ``target_idx[r]``
    at row r, a forest tree's vote (1 or 0) or a decision tree's class frequency, to
    ``out[rows[i], r]``.  Summed over a forest's trees and divided by their count, these are
    ``train``'s confidences bit for bit.  All the trees of all subsets grow in lockstep
    passes (``_passes``), one memo at a time."""
    if not out.flags.c_contiguous:
        raise ValueError("out must be C-contiguous")
    tidx, flat = np.asarray(target_idx), out.reshape(-1)
    base = np.asarray(rows) * out.shape[1]  # the index in ``flat`` of each row's start

    def write(subs, ex, leaf, nodes):  # np.add.at: two trees may reach one (subset, row)
        np.add.at(flat, base[subs] + ex, leaf[nodes, tidx[ex]])

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
