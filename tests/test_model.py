import itertools

import numpy as np
import pytest

from coalex import (
    AttributeSubset,
    DataError,
    ModelSpec,
    SubsetModelCache,
    subset_eval,
    train,
)
from coalex.influence import complete_plan
from coalex.model import _grow, tree_values

from conftest import class_prior, dataset_from


def tree_shape(root):
    """A tree's (feature, threshold, leaf value) triples in preorder."""
    shape, stack = [], [root]
    while stack:
        node = stack.pop()
        leaf = node.leaf.tolist() if isinstance(node.leaf, np.ndarray) else node.leaf
        shape.append((int(node.feature), node.threshold, leaf))
        stack += [n for n in (node.right, node.left) if n is not None]
    return shape


def tree_shapes(handle):
    return [tree_shape(root) for root in handle._trees]


def assert_same_model(h, ref, d):
    assert tree_shapes(h) == tree_shapes(ref)
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
    def test_batch_equals_row_by_row(self, blob_dataset, kind):
        d = blob_dataset
        h = train(ModelSpec(kind=kind, tree_count=9, seed=3), d, AttributeSubset.full(3))
        batch = h.confidences(d.features)
        rows = np.vstack([h.confidences(d.features[i:i + 1]) for i in range(d.n_instances)])
        assert batch.shape == (d.n_instances, d.n_classes)
        assert batch.tobytes() == rows.tobytes()
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

    @pytest.mark.parametrize("name", ["sort", "_feature_split", "_record", "_leaf"])
    def test_interrupted_fit_leaves_the_memo_consistent(self, eight_binary_attributes, name,
                                                         monkeypatch):
        """An interrupt in any feature draw (``np.sort``), split search, partition
        or leaf leaves a tree's memo as if that step had not started: growth from
        it goes on to the trees a fresh memo grows."""
        import coalex.model

        d = eight_binary_attributes
        spec = ModelSpec(kind="random_forest", tree_count=4, max_depth=4, seed=1)
        cols = [AttributeSubset(mask, 8).indices() for mask in (0xFF, 0b10110101, 0b01111110)]
        fresh = [[tree_shape(_grow({}, spec, d, t, c)) for c in cols] for t in range(2)]
        owner = np if name == "sort" else coalex.model
        real = getattr(owner, name)
        for stop in itertools.count(1):  # interrupt the stop-th call, until none is left
            calls, memos = [], [{}, {}]

            def interrupting(*args, **kwargs):
                calls.append(name)
                if len(calls) == stop:
                    raise KeyboardInterrupt
                return real(*args, **kwargs)

            monkeypatch.setattr(owner, name, interrupting)
            try:
                for t, memo in enumerate(memos):
                    for c in cols:
                        _grow(memo, spec, d, t, c)
            except KeyboardInterrupt:
                pass
            else:
                break
            finally:
                monkeypatch.setattr(owner, name, real)
            assert [[tree_shape(_grow(memo, spec, d, t, c)) for c in cols]
                    for t, memo in enumerate(memos)] == fresh
        assert stop > 3


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
            assert_same_model(forward.get_or_train(s), alone, d)
            assert_same_model(backward.get_or_train(s), alone, d)

    @pytest.mark.parametrize("spec", SHARED_SPECS, ids=SHARED_SPEC_IDS)
    def test_each_leaf_and_split_is_computed_once(self, five_attributes, spec, monkeypatch):
        """A tree pass grows tree t of every model from one memo, which builds each
        leaf and searches each (node, column) split once."""
        import coalex.model

        d = five_attributes
        subsets = [AttributeSubset(mask, 5) for mask in complete_plan(5).masks[1:]]
        counts, memos = {"_leaf": 0, "_feature_split": 0}, []
        for name in counts:
            def counting(*args, real=getattr(coalex.model, name), name=name):
                counts[name] += 1
                return real(*args)

            monkeypatch.setattr(coalex.model, name, counting)
        monkeypatch.setattr(coalex.model, "_grow",
                            lambda memo, *args: memos.append(memo) or _grow(memo, *args))
        for t in range(spec.tree_count if spec.kind == "random_forest" else 1):
            counts["_leaf"] = counts["_feature_split"] = 0
            memos.clear()
            tree_values(spec, d, t, subsets, d.features, [0] * d.n_instances,
                        np.zeros((len(subsets), d.n_instances)), range(len(subsets)))
            assert len(memos) == len(subsets) and all(m is memos[0] for m in memos)
            leaves = searched = 0
            stack = [memos[0][t][4]]
            while stack:
                node = stack.pop()
                leaves += node.leaf is not None
                for found in node.splits or ():
                    searched += found is not False
                    stack += found[2:] if found else []
            assert counts["_leaf"] == leaves  # every leaf is built once, then shared
            assert counts["_feature_split"] == searched  # one search per (node, column)


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
                tree_values(spec, d, t, order, d.features, idx, out, rows)
            return out

        counts = sum(table(range(w, T, stride)) for w in range(stride))
        oracle = mask_major_rows(SubsetModelCache(spec, d), subsets, d.features, idx)
        assert (counts / T == oracle).all()
        backward = table([0], subsets[::-1], range(len(subsets))[::-1])
        assert (backward == table([0])).all()
