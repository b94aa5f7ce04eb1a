"""A plain recursive CART grower, kept as an oracle for the lockstep tree pass.

It grows one subset model at a time, the way the per-subset grower did before
the pass fused them: a forest tree draws its bootstrap first from
``default_rng([seed, t])``, then one sorted feature sample per splittable node,
depth first and left first; a node takes the first lowest-cost split, the
lowest column on ties, at the midpoint between two distinct values (or the
right value where the midpoint rounds down to the left one).  Nothing here runs
through ``coalex.model``'s pass, so the test below checks the pass against an
independent grower on random tables, and the digests in ``test_model.py`` pin
six fixed ones.
"""

import math

import numpy as np
from hypothesis import given, settings, strategies as st

from coalex import AttributeSubset, ModelSpec, train
from coalex.influence import _forest_rows

from conftest import dataset_from


def split(col, y, n_classes, min_leaf):
    """The lowest-Gini-cost (cost, threshold) split of one column, or None."""
    order = np.argsort(col, kind="stable")
    xs, m = col[order], len(col)
    cum = np.cumsum(y[order][:, None] == np.arange(n_classes), axis=0)
    sizes, left = np.arange(1, m), cum[:-1]
    right = cum[-1] - left
    purity = (left * left).sum(axis=1) / sizes + (right * right).sum(axis=1) / (m - sizes)
    cost = 1.0 - purity / m
    valid = (xs[:-1] < xs[1:]) & (sizes >= min_leaf) & (m - sizes >= min_leaf)
    if not valid.any():
        return None
    pos = int(np.argmin(np.where(valid, cost, math.inf)))  # the first minimum
    thr = (xs[pos] + xs[pos + 1]) / 2.0
    return cost[pos], xs[pos + 1] if thr <= xs[pos] else thr


def reference_trees(spec, d, cols):
    """The trees of ``spec`` on dataset columns ``cols``: a leaf is its class frequencies
    (a forest's: a one-hot vote for its lowest most frequent class), a split is
    (column position, threshold, left tree, right tree)."""
    vote, C, N, q = spec.kind == "random_forest", d.n_classes, d.n_instances, len(cols)
    X, y, k = d.features[:, list(cols)], d.label_indices(), max(1, math.isqrt(q))

    def grow(rows, depth, rng):
        counts = np.bincount(y[rows], minlength=C)
        leaf = np.eye(C)[counts.argmax()] if vote else counts / counts.sum()
        if (len(rows) < 2 * spec.min_leaf or depth == spec.max_depth
                or counts.max() == len(rows)):
            return leaf
        drawn = vote and k < q
        best = None
        for f in np.sort(rng.choice(q, k, replace=False)) if drawn else range(q):
            found = split(X[rows, f], y[rows], C, spec.min_leaf)
            if found is not None and (best is None or found[0] < best[0]):
                best = (found[0], f, found[1])
        if best is None:
            return leaf
        _, f, thr = best
        below = X[rows, f] < thr
        return f, thr, grow(rows[below], depth + 1, rng), grow(rows[~below], depth + 1, rng)

    trees = []
    for t in range(spec.tree_count if vote else 1):
        rng = np.random.default_rng([spec.seed, t])
        trees.append(grow(rng.integers(0, N, size=N) if vote else np.arange(N), 0, rng))
    return trees


def reference_confidences(trees, X, cols):
    """The mean over ``trees`` of the leaf each row of X (full dataset rows) reaches."""
    def leaf(tree, x):
        while isinstance(tree, tuple):
            f, thr, below, above = tree
            tree = below if x[cols[f]] < thr else above
        return tree

    return np.array([sum(leaf(tree, x) for tree in trees) / len(trees) for x in X])


@st.composite
def tables(draw):
    """A table of 1-6 attributes, 4-59 rows and 2-3 classes, with values rounded to 0-2
    decimals to force ties in value and cost; some values move up one double, so that
    a midpoint can round down to the lower value."""
    n, m = draw(st.integers(1, 6)), draw(st.integers(4, 59))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = np.round(rng.normal(size=(m, n)), draw(st.integers(0, 2)))
    nudge = rng.random((m, n)) < draw(st.sampled_from([0.0, 0.3]))
    x[nudge] = np.nextafter(x[nudge], np.inf)
    labels = rng.integers(0, draw(st.integers(2, 3)), size=m)
    labels[:2] = [0, 1]  # at least two classes
    return dataset_from(x, [f"c{v}" for v in labels]), rng


specs = st.builds(
    lambda kind, trees, depth, min_leaf, seed: ModelSpec(kind=kind, tree_count=trees,
                                                         max_depth=depth, min_leaf=min_leaf,
                                                         seed=seed),
    st.sampled_from(["decision_tree", "random_forest"]), st.integers(1, 5),
    st.sampled_from([None, 1, 2, 4]), st.integers(1, 3), st.integers(0, 1000))


@settings(deadline=None)
@given(tables(), specs)
def test_the_pass_grows_the_reference_models(table, spec):
    """Every subset model ``train`` fits, and every value-table row a pass fills at
    ``jobs`` 1 and 2, equals the reference grower's, bit for bit, at the training rows
    and at 5 rows that are not training rows."""
    d, rng = table
    n = d.n_attributes
    X = np.vstack([d.features, np.round(rng.normal(size=(5, n)), 1)])
    target_idx = rng.integers(0, d.n_classes, size=len(X)).tolist()
    subsets = [AttributeSubset(mask, n) for mask in range(1, 1 << n)]
    want = np.array([reference_confidences(reference_trees(spec, d, s.indices()), X,
                                           s.indices()) for s in subsets])
    for s, conf in zip(subsets, want):
        assert train(spec, d, s).confidences(X).tobytes() == conf.tobytes()
    rows = want[:, np.arange(len(X)), target_idx]
    for jobs in (1, 2):
        V = np.zeros((len(subsets), len(X)))
        _forest_rows(spec, d, subsets, X, target_idx, jobs, V, range(len(subsets)))
        assert V.tobytes() == rows.tobytes()
