import hashlib

import numpy as np
import pytest

from coalex import (
    AttributeSubset,
    DataError,
    ModelSpec,
    SubsetModelCache,
    complete_influence,
    subset_eval,
    train,
)
from coalex.influence import complete_plan
from coalex.model import tree_values

from conftest import class_prior, dataset_from


def tree_shapes(handle, spec):
    """Each tree's (feature, threshold, leaf value) triples in preorder: a split's
    feature is its position in the subset and its leaf value None, a leaf is (-1, 0.0,
    its class frequencies), or its vote in a forest."""
    vote = spec.kind == "random_forest" and handle.subset.size > 0
    position = {c: i for i, c in enumerate(handle.subset.indices())}
    feature, left = handle._feature.tolist(), handle._left.tolist()
    shapes = []
    for root in handle._roots.tolist():
        shape, stack = [], [root]
        while stack:
            i = stack.pop()
            if feature[i] >= 0:
                shape.append((position[feature[i]], float(handle._thr[i]), None))
                stack += [left[i] + 1, left[i]]
            else:
                leaf = handle._leaf[i]
                shape.append((-1, 0.0, int(leaf.argmax()) if vote else leaf.tolist()))
        shapes.append(shape)
    return shapes


def assert_same_model(h, ref, d, spec):
    assert tree_shapes(h, spec) == tree_shapes(ref, spec)
    got, want = all_confidences(h, d), all_confidences(ref, d)
    assert got.tobytes() == want.tobytes()


@pytest.fixture
def five_attributes():
    """Five attributes with repeated values (tied split costs) and three classes."""
    rng = np.random.default_rng(5)
    x = np.round(rng.normal(size=(48, 5)), 1)
    x[:, 3] = np.round(x[:, 3])
    score = x[:, 0] + x[:, 1] * x[:, 2] - x[:, 3]
    labels = ["a" if v < -0.5 else "b" if v < 0.5 else "c" for v in score]
    return dataset_from(x, labels, name="five")


@pytest.fixture
def eight_binary_attributes():
    """Eight 0/1 attributes, 100 rows, a parity label with flips: forests draw features,
    and some nodes find no split among the drawn ones."""
    rng = np.random.default_rng(9)
    x = rng.integers(0, 2, size=(100, 8)).astype(float)
    parity = (x[:, 0] > 0) ^ (x[:, 4] > 0) ^ (x[:, 7] > 0)
    parity[rng.choice(100, size=5, replace=False)] ^= True
    return dataset_from(x, [str(int(v)) for v in parity], name="eight")


SHARED_SPECS = [ModelSpec(kind="decision_tree"),
                ModelSpec(kind="random_forest", tree_count=6, max_depth=3, seed=4),
                ModelSpec(kind="decision_tree", min_leaf=2, max_depth=3),
                ModelSpec(kind="random_forest", tree_count=4, min_leaf=2, seed=9)]
SHARED_SPEC_IDS = ["dt", "rf", "dt-min_leaf2", "rf-min_leaf2-no_depth_cap"]


def all_confidences(handle, d):
    return handle.confidences(d.features)


def confidence(handle, row, target):
    """The confidence for one class at one row."""
    return handle.confidences([row])[0, target.index]


class TestPriorBaseline:
    def test_confidence_is_class_prior(self, blob_dataset):
        d = blob_dataset
        spec = ModelSpec(kind="prior_baseline")
        h = train(spec, d, AttributeSubset.full(d.n_attributes))
        for c in d.class_set:
            target = d.class_target(c)
            expected = class_prior(d, target)
            for i in range(d.n_instances):
                assert confidence(h, d.instance(i), target) == expected

    def test_empty_subset_forces_baseline(self, blob_dataset):
        d = blob_dataset
        spec = ModelSpec(kind="random_forest", tree_count=5)
        h = train(spec, d, AttributeSubset(0, d.n_attributes))
        got = h.confidences(d.features[:1])[0]
        expected = [class_prior(d, d.class_target(c)) for c in d.class_set]
        np.testing.assert_array_equal(got, expected)

    def test_two_thirds(self):
        d = dataset_from([[0.0]] * 3, ["p", "p", "q"])
        h = train(ModelSpec(kind="prior_baseline"), d, AttributeSubset.full(1))
        assert confidence(h, [0.0], d.class_target("p")) == pytest.approx(2 / 3)


class TestDecisionTree:
    def test_perfect_stump(self, separable2):
        h = train(ModelSpec(kind="decision_tree"), separable2, AttributeSubset.full(1))
        assert confidence(h, [0.0], separable2.class_target("p")) == 1.0
        assert confidence(h, [0.0], separable2.class_target("q")) == 0.0
        assert confidence(h, [1.0], separable2.class_target("q")) == 1.0
        # a row at the threshold goes right, as the training rows were cut (>= thr)
        assert confidence(h, [0.5], separable2.class_target("q")) == 1.0

    def test_xor_single_attribute_is_uninformative(self, xor4):
        # projected to a0 the labels are [p,q] on each side: leaves stay 50/50
        h = train(ModelSpec(kind="decision_tree"), xor4,
                  AttributeSubset.from_indices([0], 2))
        p = xor4.class_target("p")
        prior = class_prior(xor4, p)
        for i in range(4):
            assert confidence(h, xor4.instance(i), p) == pytest.approx(prior)

    def test_xor_both_attributes_learnable(self, xor4):
        h = train(ModelSpec(kind="decision_tree"), xor4, AttributeSubset.full(2))
        for i, label in enumerate(xor4.labels):
            assert confidence(h, xor4.instance(i), xor4.class_target(label)) == 1.0

    def test_degenerate_labels_constant_predictor(self):
        d = dataset_from([[0.0], [1.0], [2.0]], ["p", "p", "p"], class_set=("p", "q"))
        h = train(ModelSpec(kind="decision_tree"), d, AttributeSubset.full(1))
        for x in ([0.0], [1.5], [99.0]):
            assert confidence(h, x, d.class_target("p")) == 1.0
            assert confidence(h, x, d.class_target("q")) == 0.0

    def test_max_depth_respected(self, blob_dataset):
        h = train(ModelSpec(kind="decision_tree", max_depth=1), blob_dataset,
                  AttributeSubset.full(3))
        # a depth-1 tree has at most 2 distinct confidence vectors
        rows = {tuple(v) for v in all_confidences(h, blob_dataset)}
        assert len(rows) <= 2

    def test_requires_two_classes(self):
        d = dataset_from([[0.0], [1.0]], ["p", "p"])
        with pytest.raises(DataError, match="2 classes"):
            train(ModelSpec(kind="decision_tree"), d, AttributeSubset.full(1))


class TestRandomForest:
    def test_bit_identical_retrains(self, blob_dataset):
        d = blob_dataset
        spec = ModelSpec(kind="random_forest", tree_count=50, seed=7)
        s = AttributeSubset.full(d.n_attributes)
        h1, h2 = train(spec, d, s), train(spec, d, s)
        np.testing.assert_array_equal(all_confidences(h1, d), all_confidences(h2, d))

    def test_confidence_is_vote_fraction(self, blob_dataset):
        d = blob_dataset
        spec = ModelSpec(kind="random_forest", tree_count=8, seed=1)
        h = train(spec, d, AttributeSubset.full(3))
        conf = all_confidences(h, d)
        # every entry is a multiple of 1/tree_count
        np.testing.assert_allclose(conf * 8, np.round(conf * 8), atol=1e-12)

    def test_normalization(self, blob_dataset):
        d = blob_dataset
        for kind in ("random_forest", "decision_tree", "prior_baseline"):
            spec = ModelSpec(kind=kind, tree_count=7, seed=3)
            h = train(spec, d, AttributeSubset.from_indices([0, 2], 3))
            sums = all_confidences(h, d).sum(axis=1)
            np.testing.assert_allclose(sums, 1.0, atol=1e-9)

    def test_subset_independence(self, blob_dataset):
        # perturbing columns outside the subset must not change anything
        d = blob_dataset
        spec = ModelSpec(kind="random_forest", tree_count=10, seed=5)
        s = AttributeSubset.from_indices([0], 3)
        h = train(spec, d, s)
        base = all_confidences(h, d)
        perturbed = d.features.copy()
        perturbed[:, 1] += 100.0
        perturbed[:, 2] *= -3.0
        d2 = dataset_from(perturbed, list(d.labels), names=d.attribute_names)
        h2 = train(spec, d2, s)
        np.testing.assert_array_equal(base, all_confidences(h2, d2))

    def test_seed_changes_model(self, blob_dataset):
        d = blob_dataset
        s = AttributeSubset.full(3)
        h1 = train(ModelSpec(kind="random_forest", tree_count=10, seed=1), d, s)
        h2 = train(ModelSpec(kind="random_forest", tree_count=10, seed=2), d, s)
        assert not np.array_equal(all_confidences(h1, d), all_confidences(h2, d))


class TestHandles:
    def test_rejects_bad_length(self, blob_dataset):
        h = train(ModelSpec(kind="decision_tree"), blob_dataset,
                  AttributeSubset.from_indices([0, 2], 3))
        for row in ([1.0, 2.0, 3.0, 4.0], [1.0, 2.0]):  # a row is always a full row
            with pytest.raises(ValueError, match="expected"):
                h.confidences([row])
        with pytest.raises(ValueError, match="expected"):
            h.confidences([1.0, 2.0, 3.0])  # a matrix, not one row

    @pytest.mark.parametrize("kind", ["decision_tree", "random_forest", "prior_baseline"])
    def test_batch_equals_row_by_row(self, blob_dataset, kind, monkeypatch):
        import coalex.model

        d = blob_dataset
        h = train(ModelSpec(kind=kind, tree_count=9, seed=3), d, AttributeSubset.full(3))
        batch = h.confidences(d.features)
        rows = np.vstack([h.confidences(d.features[i:i + 1]) for i in range(d.n_instances)])
        assert batch.shape == (d.n_instances, d.n_classes)
        assert batch.tobytes() == rows.tobytes()
        monkeypatch.setattr(coalex.model, "ROUND_ROWS", 20)  # blocks of 20 // trees rows
        assert h.confidences(d.features).tobytes() == batch.tobytes()
        assert np.array_equal(h.predict_classes(d.features), np.argmax(rows, axis=1))
        assert h.confidences(d.features[:0]).shape == (0, d.n_classes)


class TestSpecValidation:
    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown model kind"):
            ModelSpec(kind="svm")

    def test_bad_hyperparameters(self):
        with pytest.raises(ValueError):
            ModelSpec(tree_count=0)
        with pytest.raises(ValueError):
            ModelSpec(max_depth=0)
        with pytest.raises(ValueError):
            ModelSpec(min_leaf=0)


class TestSubsetModelCache:
    def test_single_training_per_subset(self, blob_dataset):
        d = blob_dataset
        spec = ModelSpec(kind="decision_tree")
        cache = SubsetModelCache(spec, d)
        s = AttributeSubset.from_indices([0], 3)
        h1 = cache.get_or_train(s)
        h2 = cache.get_or_train(AttributeSubset.from_indices([0], 3))
        assert h1 is h2
        assert cache.training_count == 1
        cache.get_or_train(AttributeSubset.from_indices([1], 3))
        assert cache.training_count == 2

    def test_counts_all_subsets_for_complete(self, xor4):
        from coalex import complete_influence

        spec = ModelSpec(kind="decision_tree")
        cache = SubsetModelCache(spec, xor4)
        complete_influence(cache, [0], [xor4.class_target("p")])
        assert cache.training_count == 2 ** 2  # all subsets incl. the empty baseline

    def test_interrupted_fit_is_not_cached(self, blob_dataset, monkeypatch):
        import coalex.model

        spec = ModelSpec(kind="decision_tree")
        s = AttributeSubset.full(3)
        real_train = coalex.model.train
        # an interrupt and a failing fit both leave no entry: the next call trains
        for raised in (KeyboardInterrupt(), RuntimeError("fit failed")):
            cache = SubsetModelCache(spec, blob_dataset)

            def raising(*args):
                raise raised

            monkeypatch.setattr(coalex.model, "train", raising)
            with pytest.raises(type(raised)):
                cache.get_or_train(s)
            monkeypatch.setattr(coalex.model, "train", real_train)
            assert s not in cache and cache.training_count == 0
            cache.get_or_train(s)
            assert s in cache and cache.training_count == 1


class TestSplitMemo:
    """Tree t of many subset models grows from one memo, and every model stays bit-identical."""

    @pytest.mark.parametrize("spec", SHARED_SPECS, ids=SHARED_SPEC_IDS)
    def test_cache_order_does_not_change_models(self, five_attributes, spec):
        d = five_attributes
        subsets = [AttributeSubset(mask, 5) for mask in complete_plan(5).masks]
        # three classes (frequency leaves), and width-1 subsets, where a forest draws nothing
        assert d.n_classes == 3 and any(s.size == 1 for s in subsets)
        forward, backward = SubsetModelCache(spec, d), SubsetModelCache(spec, d)
        for s in subsets:
            forward.get_or_train(s)
        for s in reversed(subsets):
            backward.get_or_train(s)
        for s in subsets:
            alone = train(spec, d, s)
            assert_same_model(forward.get_or_train(s), alone, d, spec)
            assert_same_model(backward.get_or_train(s), alone, d, spec)

    # (split searches, records built) for each tree when every row is explained, as
    # the per-subset grower that preceded the lockstep pass counted them: it searched
    # only the columns some model's feature sample asked for, each once per node.
    PARENT_COUNTS = [[(1221, 1067)],
                     [(62, 115), (97, 167), (104, 181), (86, 147), (47, 87), (86, 149)],
                     [(122, 157)],
                     [(281, 405), (409, 573), (372, 565), (352, 547)]]

    @pytest.mark.parametrize("spec, counts", list(zip(SHARED_SPECS, PARENT_COUNTS)),
                             ids=SHARED_SPEC_IDS)
    def test_each_leaf_and_split_is_computed_once(self, five_attributes, spec, counts,
                                                  monkeypatch):
        """A tree pass builds each node (a leaf or not) once, and searches each (node,
        column) pair once; since the counts equal the per-subset grower's, it searches
        no pair that no model's feature sample asked for."""
        import coalex.model

        d = five_attributes
        subsets = [AttributeSubset(mask, 5) for mask in complete_plan(5).masks[1:]]
        memos, built, searched = [], [], []
        grow, add, search = coalex.model._grow, coalex.model._Memo.add, coalex.model._split_search
        monkeypatch.setattr(coalex.model, "_grow", lambda *args: memos.append(grow(*args))
                            or memos[-1])
        monkeypatch.setattr(coalex.model._Memo, "add", lambda memo, rows, lens, *args:
                            built.append(len(lens)) or add(memo, rows, lens, *args))
        monkeypatch.setattr(coalex.model, "_split_search", lambda cols, *args:
                            searched.append(len(cols)) or search(cols, *args))
        for t, (searches, builds) in enumerate(counts):
            memos.clear()
            built.clear()
            searched.clear()
            tree_values(spec, d, [t], subsets, d.features, [0] * d.n_instances,
                        np.zeros((len(subsets), d.n_instances)), range(len(subsets)))
            [memo] = memos
            tables = memo.tables
            cost, kid = tables.cost[:tables.n], tables.kid[:tables.n]
            assert sum(built) == memo.nodes.n == builds
            assert sum(searched) == np.count_nonzero(~np.isnan(cost)) == searches
            # every node but the root is a child of exactly one cut (node, column) pair,
            # and every cut pair was searched and has a split
            cut = kid[kid >= 0]
            assert sorted(np.concatenate([cut, cut + 1]).tolist()) == list(range(1, builds))
            assert np.isfinite(cost[kid >= 0]).all()


def one_column_split(col, y, n_classes, min_leaf):
    """The per-column split search the segmented one replaced, kept as its reference:
    the lowest-Gini-cost (cost, threshold) split of one column, or None."""
    m = col.shape[0]
    order = np.argsort(col, kind="stable")
    xs, ys = col[order], y[order]
    cum = np.cumsum(ys[:, None] == np.arange(n_classes), axis=0)
    sizes = np.arange(1, m)
    left = cum[:-1]
    right = cum[-1] - left
    purity = (left * left).sum(axis=1) / sizes + (right * right).sum(axis=1) / (m - sizes)
    valid = (xs[:-1] < xs[1:]) & (sizes >= min_leaf) & (m - sizes >= min_leaf)
    if not valid.any():
        return None
    pos = int(np.argmin(np.where(valid, 1.0 - purity / m, np.inf)))  # the first minimum
    thr = (xs[pos] + xs[pos + 1]) / 2.0
    return float((1.0 - purity / m)[pos]), float(xs[pos + 1] if thr <= xs[pos] else thr)


class TestSplitSearch:
    @pytest.mark.parametrize("min_leaf", [1, 2, 3])
    @pytest.mark.parametrize("n_classes", [2, 3, 4])
    def test_segmented_search_equals_a_search_per_column(self, min_leaf, n_classes):
        """One segmented search over many (record, column) pairs gives each pair the
        floats of a search of that column alone: rounded values make ties in value
        and in cost, one column is constant, and one holds two adjacent doubles,
        whose midpoint rounds down to the lower one.  A bootstrap of the rows, as a
        forest tree trains on, repeats rows: equal values and labels at distinct
        positions."""
        from coalex.model import _presort, _split_search

        rng = np.random.default_rng(100 * min_leaf + n_classes)
        X = np.round(rng.normal(size=(60, 6)), 1)
        X[:, 5] = 1.0
        X[:, 3] = np.where(rng.random(60) < 0.5, 1.0, np.nextafter(1.0, 2.0))
        X[:, 4] = rng.integers(0, 2, size=60)
        y = rng.integers(0, n_classes, size=60)
        for boot in (np.arange(60), rng.integers(0, 60, size=60)):
            cols, parts = [], []
            for size in (2, 3, 5, 8, 13, 40, 60):
                rows = boot[np.sort(rng.choice(60, size=size, replace=False))]
                for c in rng.permutation(6)[:4].tolist():
                    cols.append(c)
                    parts.append(rows)
            found = _split_search(np.array(cols), np.array([len(rows) for rows in parts]),
                                  np.concatenate(parts), _presort(X, y), n_classes, min_leaf)
            for c, rows, low, at in zip(cols, parts, *(a.tolist() for a in found)):
                want = one_column_split(X[rows, c], y[rows], n_classes, min_leaf)
                assert (None if low == np.inf else (low, at)) == want


class TestEarlyStop:
    @pytest.mark.parametrize("spec", [ModelSpec(kind="decision_tree"),
                                      ModelSpec(kind="random_forest", tree_count=3, seed=2)],
                             ids=["dt", "rf-no_depth_cap"])
    def test_a_few_rows_give_the_columns_of_all_rows(self, five_attributes, spec,
                                                     monkeypatch):
        """A value at a row does not depend on the other rows of X, so a table over a
        few rows equals those columns of the table over all rows, bit for bit.  A walk
        that draws no features (all of a decision tree's) searches only nodes those
        rows reach; one that draws (a forest's over 2 or more columns) stops once its
        rows are in leaves, so it searches fewer (node, column) pairs than for all."""
        import coalex.model

        d = five_attributes
        subsets = [AttributeSubset(mask, 5) for mask in complete_plan(5).masks[1:]]
        drawing = [s for s in subsets if s.size > 1] if spec.kind == "random_forest" else subsets
        X = np.vstack([d.features, [[9.0, -9.0, 0.05, 0.0, 0.33]]])  # last: not a training row
        idx = [r % 3 for r in range(len(X))]
        grow, search, memos, searched = coalex.model._grow, coalex.model._split_search, [], []
        monkeypatch.setattr(coalex.model, "_grow", lambda *args: memos.append(grow(*args))
                            or memos[-1])
        monkeypatch.setattr(coalex.model, "_split_search", lambda cols, *args:
                            searched.append(len(cols)) or search(cols, *args))

        def table(rows, subsets):
            out = np.zeros((len(subsets), len(rows)))
            memos.clear()
            searched.clear()
            for t in range(spec.tree_count if spec.kind == "random_forest" else 1):
                tree_values(spec, d, [t], subsets, X[rows], [idx[r] for r in rows], out,
                            range(len(subsets)))
            return out, sum(searched)

        def searched_nodes_have_rows_of_x():
            for memo in memos:
                tab, exn = memo.nodes.tab[:memo.nodes.n], memo.nodes.exn[:memo.nodes.n]
                asked = ~np.isnan(memo.tables.cost[:memo.tables.n]).all(axis=1)
                assert (exn[tab >= 0][asked[tab[tab >= 0]]] > 0).all()

        every, _ = table(list(range(len(X))), subsets)
        searches = table(list(range(len(X))), drawing)[1]
        for rows in ([len(X) - 1], [7], [3, 17, len(X) - 1]):
            few, _ = table(rows, subsets)
            assert (few == every[:, rows]).all()
            if spec.kind == "decision_tree":
                searched_nodes_have_rows_of_x()
            assert table(rows, drawing)[1] < searches


class TestRounds:
    @pytest.mark.parametrize("depth", [2, 4])
    def test_a_tree_of_depth_d_searches_in_d_rounds(self, five_attributes, depth,
                                                    monkeypatch):
        """A walk that draws no features takes every record on its stack in one
        round, so a decision tree of depth d searches in at most d rounds, alone
        (``train``) or in lockstep with every subset model (``tree_values``)."""
        import coalex.model

        d = five_attributes
        spec = ModelSpec(kind="decision_tree", max_depth=depth)
        subsets = [AttributeSubset(mask, 5) for mask in complete_plan(5).masks[1:]]
        search, rounds = coalex.model._split_search, []
        monkeypatch.setattr(coalex.model, "_split_search", lambda pairs, *args:
                            rounds.append(len(pairs)) or search(pairs, *args))
        nodes = train(spec, d, AttributeSubset.full(5))._feature
        assert 0 < len(rounds) <= depth < len(nodes)
        rounds.clear()
        tree_values(spec, d, [0], subsets, d.features, [0] * d.n_instances,
                    np.zeros((len(subsets), d.n_instances)), range(len(subsets)))
        assert 0 < len(rounds) <= depth

    @pytest.mark.parametrize("spec", [ModelSpec(kind="decision_tree"),
                                      ModelSpec(kind="random_forest", tree_count=3, seed=2)],
                             ids=["dt", "rf-no_depth_cap"])
    def test_a_round_cap_of_a_few_rows_gives_the_same_vectors(self, five_attributes, spec,
                                                              monkeypatch):
        """Records past ``ROUND_ROWS`` wait for a later round.  No walk depends on
        the order it takes its records in, so influence keeps its bits, in one
        process and in forked workers."""
        import coalex.model

        d = five_attributes
        search, rounds = coalex.model._split_search, []
        monkeypatch.setattr(coalex.model, "_split_search", lambda pairs, *args:
                            rounds.append(len(pairs)) or search(pairs, *args))
        want = complete_influence(SubsetModelCache(spec, d), range(d.n_instances))
        uncapped = len(rounds)
        monkeypatch.setattr(coalex.model, "ROUND_ROWS", 5)
        for jobs in (1, 2):
            rounds.clear()
            got = complete_influence(SubsetModelCache(spec, d), range(d.n_instances), jobs=jobs)
            assert got == want
            assert jobs > 1 or len(rounds) > uncapped

    @pytest.mark.parametrize("spec", [ModelSpec(kind="decision_tree"),
                                      ModelSpec(kind="random_forest", tree_count=3, seed=2)],
                             ids=["dt", "rf-no_depth_cap"])
    def test_a_budget_of_one_tree_per_pass_gives_the_same_vectors(self, five_attributes, spec,
                                                                   monkeypatch):
        """A pass takes as many trees as fit ``PASS_BYTES``; the trees of a slice are
        independent, so one tree per pass keeps influence's bits, in one process and in
        forked workers, and makes more passes where there are several trees.  A model
        ``train`` joins from several passes has the trees and confidences of one pass."""
        import coalex.model

        d = five_attributes
        grow, passes = coalex.model._grow, []
        monkeypatch.setattr(coalex.model, "_grow", lambda spec, d, trees, *args:
                            passes.append(len(trees)) or grow(spec, d, trees, *args))
        want = complete_influence(SubsetModelCache(spec, d), range(d.n_instances))
        together = list(passes)
        one_pass = train(spec, d, AttributeSubset.full(5))
        monkeypatch.setattr(coalex.model, "PASS_BYTES", 1)
        assert_same_model(train(spec, d, AttributeSubset.full(5)), one_pass, d, spec)
        for jobs in (1, 2):
            passes.clear()
            got = complete_influence(SubsetModelCache(spec, d), range(d.n_instances), jobs=jobs)
            assert got == want
            assert set(passes) == {1}
            if jobs == 1 and spec.kind == "random_forest":
                assert len(passes) > len(together) and max(together) > 1


@pytest.fixture
def four_classes():
    """Four attributes and four classes, for frequency leaves of four entries."""
    rng = np.random.default_rng(44)
    x = np.round(rng.normal(size=(60, 4)), 1)
    score = x[:, 0] - x[:, 1] + x[:, 2] * x[:, 3]
    return dataset_from(x, ["abcd"[int(v)] for v in np.digitize(score, [-1.0, 0.0, 1.0])],
                        name="four")


def model_digest(spec, d):
    """sha1 over every subset model's tree shapes and confidences, as ``train`` fits
    them, and over ``tree_values`` tables of all rows and of rows 0-2."""
    digest, n = hashlib.sha1(), d.n_attributes
    masks = complete_plan(n).masks
    for mask in masks:
        h = train(spec, d, AttributeSubset(mask, n))
        digest.update(repr(tree_shapes(h, spec)).encode())
        digest.update(h.confidences(d.features).tobytes())
    subsets = [AttributeSubset(mask, n) for mask in masks[1:]]
    idx = [r % d.n_classes for r in range(d.n_instances)]
    for X, target in ((d.features, idx), (d.features[:3], idx[:3])):
        out = np.zeros((len(subsets), len(X)))
        for t in range(spec.tree_count if spec.kind == "random_forest" else 1):
            tree_values(spec, d, [t], subsets, X, target, out, range(len(subsets)))
        digest.update(out.tobytes())
    return digest.hexdigest()


# Digests of the models and tables grown by the per-subset grower that preceded the
# lockstep tree pass (each subset's tree grown by its own walk, one split search per
# (node, column)): an oracle that does not run through the code it checks.
PINNED_DIGESTS = {
    "five_attributes/dt": "792e5b5ddd8ef450d060312405f539f168a56a3b",
    "five_attributes/rf": "8406bcaf733419b22d873d41a6b03141e6abce3f",
    "five_attributes/dt-min_leaf2": "2068f71b7fefe5d6f146d0df2a7ae4d11765220e",
    "five_attributes/rf-min_leaf2-no_depth_cap": "ba958da336bfb7c8669b7d69ecba6bb2b210aab1",
    "eight_binary_attributes/rf-min_leaf3-no_depth_cap": "71b361f107e9793ccfd57e37558dd582c5e8556c",
    "four_classes/dt-four_classes": "879d36f97a444c258933b44a7463239a34943996",
}
DIGEST_CASES = ([("five_attributes", spec, i) for spec, i in zip(SHARED_SPECS, SHARED_SPEC_IDS)]
                + [("eight_binary_attributes",
                    ModelSpec(kind="random_forest", tree_count=4, min_leaf=3, seed=2),
                    "rf-min_leaf3-no_depth_cap"),
                   ("four_classes", ModelSpec(kind="decision_tree"), "dt-four_classes")])


@pytest.mark.parametrize("fixture, spec", [c[:2] for c in DIGEST_CASES],
                         ids=[c[2] for c in DIGEST_CASES])
def test_models_match_the_pinned_digests(request, fixture, spec):
    case = f"{fixture}/{request.node.callspec.id}"
    assert model_digest(spec, request.getfixturevalue(fixture)) == PINNED_DIGESTS[case]


def mask_major_rows(cache, subsets, X, target_idx):
    """The value-table rows of ``subsets``, one cached model at a time: the path
    influence took before it grew forests tree by tree, kept as a test oracle."""
    return np.array([subset_eval(cache, s, X, target_idx) for s in subsets])


class TestTreeValues:
    @pytest.mark.parametrize("spec", SHARED_SPECS, ids=SHARED_SPEC_IDS)
    @pytest.mark.parametrize("stride", [1, 2])
    def test_tree_major_table_equals_the_mask_major_one(self, five_attributes, spec, stride):
        """Summed in slices of trees t = w, w + stride, ... and divided once, tree
        values give the cache's confidences bit for bit, in either subset order."""
        d = five_attributes
        subsets = [AttributeSubset(mask, 5) for mask in complete_plan(5).masks[1:]]
        idx = [r % 3 for r in range(d.n_instances)]  # all three classes
        T = spec.tree_count if spec.kind == "random_forest" else 1

        def table(trees, order=subsets, rows=range(len(subsets))):
            out = np.zeros((len(subsets), d.n_instances))
            for t in trees:
                tree_values(spec, d, [t], order, d.features, idx, out, rows)
            return out

        counts = sum(table(range(w, T, stride)) for w in range(stride))
        oracle = mask_major_rows(SubsetModelCache(spec, d), subsets, d.features, idx)
        assert (counts / T == oracle).all()
        backward = table([0], subsets[::-1], range(len(subsets))[::-1])
        assert (backward == table([0])).all()

    def test_one_call_over_many_trees_adds_every_tree(self, five_attributes):
        """Trees of one pass place leaves in the same rounds: with one split per tree,
        several trees reach the same (subset, row) at once, and each adds its vote."""
        d = five_attributes
        spec = ModelSpec(kind="random_forest", tree_count=6, max_depth=1, seed=4)
        subsets = [AttributeSubset(mask, 5) for mask in complete_plan(5).masks[1:]]
        idx = [r % 3 for r in range(d.n_instances)]

        def table(slices):
            out = np.zeros((len(subsets), d.n_instances))
            for trees in slices:
                tree_values(spec, d, trees, subsets, d.features, idx, out, range(len(subsets)))
            return out

        together = table([range(6)])
        assert (together == table([t] for t in range(6))).all()
        assert together.max() > 1
