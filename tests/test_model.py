import threading
import time

import numpy as np
import pytest

from coalex import (
    AttributeSubset,
    DataError,
    ModelSpec,
    SubsetModelCache,
    class_prior,
    train,
)

from conftest import dataset_from


def all_confidences(handle, d):
    return np.array([handle.confidences(row) for row in d.features])


class TestPriorBaseline:
    def test_confidence_is_class_prior(self, blob_dataset):
        d = blob_dataset
        spec = ModelSpec(kind="prior_baseline")
        h = train(spec, d, AttributeSubset.full(d.n_attributes))
        for c in d.class_set:
            target = d.class_target(c)
            expected = class_prior(d, target)
            for i in range(d.n_instances):
                assert h.confidence(d.instance(i), target) == expected

    def test_empty_subset_forces_baseline(self, blob_dataset):
        d = blob_dataset
        spec = ModelSpec(kind="random_forest", tree_count=5)
        h = train(spec, d, AttributeSubset.empty(d.n_attributes))
        got = h.confidences(d.instance(0))
        expected = [class_prior(d, d.class_target(c)) for c in d.class_set]
        np.testing.assert_array_equal(got, expected)

    def test_two_thirds(self):
        d = dataset_from([[0.0]] * 3, ["p", "p", "q"])
        h = train(ModelSpec(kind="prior_baseline"), d, AttributeSubset.full(1))
        assert h.confidence([0.0], d.class_target("p")) == pytest.approx(2 / 3)


class TestDecisionTree:
    def test_perfect_stump(self, separable2):
        h = train(ModelSpec(kind="decision_tree"), separable2, AttributeSubset.full(1))
        assert h.confidence([0.0], separable2.class_target("p")) == 1.0
        assert h.confidence([0.0], separable2.class_target("q")) == 0.0
        assert h.confidence([1.0], separable2.class_target("q")) == 1.0

    def test_xor_single_attribute_is_uninformative(self, xor4):
        # projected to a0 the labels are [p,q] on each side: leaves stay 50/50
        h = train(ModelSpec(kind="decision_tree"), xor4,
                  AttributeSubset.from_indices([0], 2))
        p = xor4.class_target("p")
        prior = class_prior(xor4, p)
        for i in range(4):
            assert h.confidence(xor4.instance(i), p) == pytest.approx(prior)

    def test_xor_both_attributes_learnable(self, xor4):
        h = train(ModelSpec(kind="decision_tree"), xor4, AttributeSubset.full(2))
        for i, label in enumerate(xor4.labels):
            assert h.confidence(xor4.instance(i), xor4.class_target(label)) == 1.0

    def test_degenerate_labels_constant_predictor(self):
        d = dataset_from([[0.0], [1.0], [2.0]], ["p", "p", "p"], class_set=("p", "q"))
        h = train(ModelSpec(kind="decision_tree"), d, AttributeSubset.full(1))
        for x in ([0.0], [1.5], [99.0]):
            assert h.confidence(x, d.class_target("p")) == 1.0
            assert h.confidence(x, d.class_target("q")) == 0.0

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
    def test_accepts_projected_or_full_row(self, blob_dataset):
        d = blob_dataset
        s = AttributeSubset.from_indices([0, 2], 3)
        h = train(ModelSpec(kind="decision_tree"), d, s)
        full_row = d.instance(0)
        projected = full_row[[0, 2]]
        c = d.class_target("lo")
        assert h.confidence(full_row, c) == h.confidence(projected, c)

    def test_rejects_bad_length(self, blob_dataset):
        h = train(ModelSpec(kind="decision_tree"), blob_dataset,
                  AttributeSubset.from_indices([0, 2], 3))
        with pytest.raises(ValueError, match="expected"):
            h.confidence([1.0, 2.0, 3.0, 4.0], blob_dataset.class_target("lo"))

    def test_rejects_foreign_class(self, blob_dataset):
        h = train(ModelSpec(kind="decision_tree"), blob_dataset, AttributeSubset.full(3))
        other = dataset_from([[0.0]], ["z"])
        with pytest.raises(DataError):
            h.confidence(blob_dataset.instance(0), other.class_target("z"))


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
        complete_influence(cache, 0, xor4.class_target("p"))
        assert cache.training_count == 2 ** 2  # all subsets incl. the empty baseline

    def test_concurrent_single_fit(self, blob_dataset):
        d = blob_dataset
        spec = ModelSpec(kind="random_forest", tree_count=20, seed=0)
        cache = SubsetModelCache(spec, d)
        s = AttributeSubset.full(3)
        handles = []
        barrier = threading.Barrier(8)

        def worker():
            barrier.wait()
            handles.append(cache.get_or_train(s))

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert cache.training_count == 1
        assert all(h is handles[0] for h in handles)

    def test_interrupted_fit_is_not_cached(self, blob_dataset, monkeypatch):
        import coalex.model

        spec = ModelSpec(kind="decision_tree")
        s = AttributeSubset.full(3)
        cache = SubsetModelCache(spec, blob_dataset)
        real_train = coalex.model.train

        def interrupted(*args):
            raise KeyboardInterrupt

        monkeypatch.setattr(coalex.model, "train", interrupted)
        with pytest.raises(KeyboardInterrupt):
            cache.get_or_train(s)
        monkeypatch.setattr(coalex.model, "train", real_train)
        assert s not in cache
        try:
            cache.get_or_train(s)
        except KeyboardInterrupt:
            pytest.fail("the interrupt was cached as a training failure")
        assert s in cache and cache.training_count == 1

    def test_waiter_trains_after_an_interrupted_fit(self, blob_dataset, monkeypatch):
        import coalex.model

        spec = ModelSpec(kind="decision_tree")
        s = AttributeSubset.full(3)
        cache = SubsetModelCache(spec, blob_dataset)
        real_train = coalex.model.train
        started, release = threading.Event(), threading.Event()
        calls, outcomes = [], []

        def first_fit_interrupted(*args):
            calls.append(args)
            if len(calls) == 1:
                started.set()
                release.wait(timeout=10)
                raise KeyboardInterrupt
            return real_train(*args)

        def owner():
            try:
                cache.get_or_train(s)
            except KeyboardInterrupt:
                outcomes.append("interrupted")

        def waiter():
            outcomes.append(cache.get_or_train(s))

        monkeypatch.setattr(coalex.model, "train", first_fit_interrupted)
        threads = [threading.Thread(target=owner), threading.Thread(target=waiter)]
        threads[0].start()
        assert started.wait(timeout=10)
        threads[1].start()
        time.sleep(0.1)  # let the waiter block on the in-flight fit
        release.set()
        for t in threads:
            t.join(timeout=10)
        assert not any(t.is_alive() for t in threads)
        assert len(calls) == 2 and cache.training_count == 1
        handles = [o for o in outcomes if o != "interrupted"]
        assert "interrupted" in outcomes and len(handles) == 1
        assert handles[0] is cache.get_or_train(s)

    def test_failed_fit_is_cached(self, blob_dataset, monkeypatch):
        import coalex.model

        spec = ModelSpec(kind="decision_tree")
        s = AttributeSubset.full(3)
        cache = SubsetModelCache(spec, blob_dataset)
        calls = []

        def failing(*args):
            calls.append(args)
            raise RuntimeError("fit failed")

        monkeypatch.setattr(coalex.model, "train", failing)
        for _ in range(2):
            with pytest.raises(RuntimeError, match="fit failed"):
                cache.get_or_train(s)
        assert len(calls) == 1
