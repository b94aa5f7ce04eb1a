import math
from fractions import Fraction
from itertools import chain, combinations, permutations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from coalex import (
    AttributeSubset,
    Coalition,
    ComplexityCapError,
    InfluenceVector,
    MethodConfig,
    ModelSpec,
    SubsetModelCache,
    class_prior,
    coalition_penalty,
    coalitional_influence,
    complete_influence,
    kdepth_influence,
    kdepth_penalty,
    predicted_class,
    shapley_penalty,
    subset_eval,
)
from coalex.evaluation import method_influence

from conftest import dataset_from

SPEC = ModelSpec(kind="decision_tree", max_depth=4, min_leaf=2, seed=0)


def nonempty_and_empty_subsets(items):
    items = sorted(items)
    return chain([()], *(combinations(items, r) for r in range(1, len(items) + 1)))


class TestPenalties:
    def test_shapley_closed_forms(self):
        assert shapley_penalty(0, 1) == 1.0
        assert shapley_penalty(1, 3) == pytest.approx(1 / 6, abs=0)
        assert shapley_penalty(0, 2) == 0.5

    def test_shapley_matches_fraction_oracle(self):
        for n in range(1, 15):
            for s in range(n):
                oracle = Fraction(math.factorial(s) * math.factorial(n - s - 1),
                                  math.factorial(n))
                assert shapley_penalty(s, n) == float(oracle)

    def test_shapley_normalizes_over_subsets(self):
        # brute-force sum over all subsets of the other n-1 attributes
        for n in range(1, 11):
            total = sum(shapley_penalty(len(sub), n)
                        for sub in nonempty_and_empty_subsets(range(n - 1)))
            assert total == pytest.approx(1.0, abs=1e-12)

    def test_shapley_range_errors(self):
        for bad in ((-1, 3), (3, 3), (0, 0)):
            with pytest.raises(ValueError):
                shapley_penalty(*bad)

    def test_kdepth_closed_forms(self):
        for n in (1, 2, 5, 9):
            assert kdepth_penalty(0, n, 1) == 1.0
        assert kdepth_penalty(1, 4, 2) == pytest.approx(1 / 6, abs=0)

    def test_kdepth_equals_shapley_at_full_depth(self):
        for n in range(1, 12):
            for s in range(n):
                assert kdepth_penalty(s, n, n) == shapley_penalty(s, n)

    def test_kdepth_range_errors(self):
        for bad in ((2, 4, 2), (0, 4, 5), (0, 4, 0)):
            with pytest.raises(ValueError):
                kdepth_penalty(*bad)

    def test_coalition_closed_forms(self):
        assert coalition_penalty(0, 1, [1]) == 1.0
        assert coalition_penalty(1, 3, [3, 2]) == pytest.approx(1 / 8, abs=0)

    def test_coalition_reduces_to_shapley_for_full_group(self):
        for n in range(1, 10):
            for s in range(n):
                assert coalition_penalty(s, n, [n]) == shapley_penalty(s, n)

    def test_coalition_range_errors(self):
        with pytest.raises(ValueError):
            coalition_penalty(3, 3, [3])
        with pytest.raises(ValueError):
            coalition_penalty(0, 3, [])
        with pytest.raises(ValueError):
            coalition_penalty(0, 3, [2, 4])  # group_size missing

    def test_large_n_log_space_close_to_exact(self):
        # beyond the exact-integer limit the log-gamma path takes over
        got = shapley_penalty(10, 25)
        oracle = Fraction(math.factorial(10) * math.factorial(14), math.factorial(25))
        assert got == pytest.approx(float(oracle), rel=1e-12)


def brute_force_permutation_shapley(cache, spec, d, i, target):
    """Independent oracle: average marginal contribution over attribute orders."""
    n = d.n_attributes
    x = d.instance(i)
    values = [Fraction(0)] * n
    evals = {}

    def ev(mask_indices):
        key = frozenset(mask_indices)
        if key not in evals:
            s = AttributeSubset.from_indices(key, n)
            evals[key] = subset_eval(cache, s, x, target)
        return evals[key]

    perms = list(permutations(range(n)))
    for order in perms:
        seen = set()
        for attr in order:
            before = ev(seen)
            seen = seen | {attr}
            after = ev(seen)
            values[attr] += Fraction(after - before)
    return [float(v / len(perms)) for v in values]


class TestSubsetEval:
    def test_empty_subset_is_class_prior(self, blob_dataset):
        from coalex import class_prior

        d = blob_dataset
        cache = SubsetModelCache(SPEC, d)
        target = d.class_target("hi")
        got = subset_eval(cache, AttributeSubset.empty(3), d.instance(0), target)
        assert got == class_prior(d, target)

    def test_full_subset_on_separable_data(self, separable2):
        cache = SubsetModelCache(ModelSpec(kind="decision_tree"), separable2)
        target = separable2.class_target("p")
        got = subset_eval(cache, AttributeSubset.full(1), separable2.instance(0), target)
        assert got == 1.0

    def test_repeat_calls_hit_cache(self, blob_dataset):
        d = blob_dataset
        cache = SubsetModelCache(SPEC, d)
        target = d.class_target("hi")
        s = AttributeSubset.from_indices([0, 1], 3)
        a = subset_eval(cache, s, d.instance(2), target)
        b = subset_eval(cache, s, d.instance(2), target)
        assert a == b
        assert cache.training_count == 1


class TestCompleteInfluence:
    def test_single_attribute(self, separable2):
        cache = SubsetModelCache(SPEC, separable2)
        target = separable2.class_target("p")
        v = complete_influence(cache, 0, target)
        expected = subset_eval(cache, AttributeSubset.full(1),
                               separable2.instance(0), target) - class_prior(separable2, target)
        assert v.values == (expected,)

    def test_matches_permutation_oracle(self):
        rng = np.random.default_rng(12)
        for n in (2, 3, 4):
            X = rng.normal(size=(30, n))
            labels = (X[:, 0] + X[:, -1] > 0).astype(int).tolist()
            d = dataset_from(X, labels, name=f"perm{n}")
            cache = SubsetModelCache(SPEC, d)
            target = d.class_target(1)
            got = complete_influence(cache, 3, target)
            oracle = brute_force_permutation_shapley(cache, SPEC, d, 3, target)
            np.testing.assert_allclose(got.values, oracle, atol=1e-12)

    def test_efficiency_identity(self, xor4):
        cache = SubsetModelCache(SPEC, xor4)
        target = xor4.class_target("p")
        for i in range(4):
            v = complete_influence(cache, i, target)
            full = subset_eval(cache, AttributeSubset.full(2),
                               xor4.instance(i), target)
            assert sum(v.values) == pytest.approx(full - class_prior(xor4, target), abs=1e-9)

    def test_constant_column_gets_zero(self):
        rng = np.random.default_rng(5)
        X = np.column_stack([rng.normal(size=40), np.full(40, 3.25), rng.normal(size=40)])
        labels = (X[:, 0] > 0).astype(int).tolist()
        d = dataset_from(X, labels, name="const-col")
        cache = SubsetModelCache(SPEC, d)
        v = complete_influence(cache, 0, d.class_target(1))
        assert abs(v.values[1]) < 1e-9

    def test_duplicate_columns_get_equal_influence(self):
        # adjacent duplicated columns: projections coincide, so equality is exact
        rng = np.random.default_rng(8)
        base = rng.normal(size=50)
        X = np.column_stack([base, base, rng.normal(size=50)])
        labels = (base + 0.3 * X[:, 2] > 0).astype(int).tolist()
        d = dataset_from(X, labels, name="dupcols")
        diffs = []
        for seed in range(3):
            spec = ModelSpec(kind="random_forest", tree_count=15, seed=seed)
            cache = SubsetModelCache(spec, d)
            v = complete_influence(cache, 1, d.class_target(1))
            diffs.append(v.values[0] - v.values[1])
        assert abs(np.mean(diffs)) <= 1e-6

    def test_cap_enforced(self):
        d = dataset_from(np.zeros((2, 21)) + np.arange(21), [0, 1])
        cache = SubsetModelCache(SPEC, d)
        with pytest.raises(ComplexityCapError, match="cap is 20"):
            complete_influence(cache, 0, d.class_target(0))
        assert cache.training_count == 0

    def test_deterministic_across_runs(self, blob_dataset):
        spec = ModelSpec(kind="random_forest", tree_count=10, seed=4)
        vs = []
        for _ in range(2):
            cache = SubsetModelCache(spec, blob_dataset)
            vs.append(complete_influence(cache, 2).values)
        assert vs[0] == vs[1]


class TestKdepthInfluence:
    def test_depth_one_is_marginal_vs_prior(self, blob_dataset):
        d = blob_dataset
        cache = SubsetModelCache(SPEC, d)
        target = d.class_target("hi")
        v = kdepth_influence(cache, 0, 1, target)
        prior = class_prior(d, target)
        for i in range(d.n_attributes):
            single = subset_eval(cache, AttributeSubset.from_indices([i], 3),
                                 d.instance(0), target)
            assert v.values[i] == pytest.approx(single - prior, abs=0)

    def test_full_depth_equals_complete(self, blob_dataset):
        d = blob_dataset
        cache = SubsetModelCache(SPEC, d)
        target = d.class_target("hi")
        memo = {}
        vc = complete_influence(cache, 1, target, eval_memo=memo)
        vk = kdepth_influence(cache, 1, d.n_attributes, target, eval_memo=memo)
        assert max(abs(a - b) for a, b in zip(vc.values, vk.values)) <= 1e-12

    def test_hand_expanded_k2_n3(self):
        # six-term expansion per attribute on a three-attribute dataset
        rng = np.random.default_rng(21)
        X = rng.normal(size=(25, 3))
        labels = ((X[:, 0] > 0) ^ (X[:, 1] > 0)).astype(int).tolist()
        d = dataset_from(X, labels, name="k2n3")
        cache = SubsetModelCache(SPEC, d)
        target = d.class_target(1)
        x = d.instance(4)
        got = kdepth_influence(cache, 4, 2, target)

        def ev(idx):
            return subset_eval(cache, AttributeSubset.from_indices(idx, 3), x, target)

        n = 3
        for i in range(3):
            others = [j for j in range(3) if j != i]
            expected = kdepth_penalty(0, n, 2) * (ev([i]) - ev([]))
            for j in others:
                expected += kdepth_penalty(1, n, 2) * (ev([i, j]) - ev([j]))
            assert got.values[i] == pytest.approx(expected, abs=1e-15)

    def test_k_range_validated(self, xor4):
        cache = SubsetModelCache(SPEC, xor4)
        with pytest.raises(ValueError):
            kdepth_influence(cache, 0, 0)
        with pytest.raises(ValueError):
            kdepth_influence(cache, 0, 3)


class TestCoalitionalInfluence:
    def test_singletons_equal_depth_one(self, blob_dataset):
        d = blob_dataset
        cache = SubsetModelCache(SPEC, d)
        target = d.class_target("lo")
        memo = {}
        v1 = kdepth_influence(cache, 5, 1, target, eval_memo=memo)
        vs = coalitional_influence(cache, 5, Coalition.singletons(3), target,
                                   eval_memo=memo)
        assert vs.values == v1.values

    def test_full_group_equals_complete(self, blob_dataset):
        d = blob_dataset
        cache = SubsetModelCache(SPEC, d)
        target = d.class_target("lo")
        memo = {}
        vc = complete_influence(cache, 5, target, eval_memo=memo)
        vg = coalitional_influence(cache, 5, Coalition.full_group(3), target,
                                   eval_memo=memo)
        assert max(abs(a - b) for a, b in zip(vc.values, vg.values)) <= 1e-12

    def test_paper_shape_groups(self):
        # G = {{A,B,C},{D}}: A draws on {A},{AB},{AC},{ABC}; D only on {D}
        rng = np.random.default_rng(31)
        X = rng.normal(size=(30, 4))
        labels = (X[:, 0] * X[:, 3] > 0).astype(int).tolist()
        d = dataset_from(X, labels, name="abc-d")
        cache = SubsetModelCache(SPEC, d)
        target = d.class_target(1)
        G = Coalition.from_index_sets([[0, 1, 2], [3]], 4)
        memo = {}
        v = coalitional_influence(cache, 2, G, target, eval_memo=memo)
        touched = {AttributeSubset(mask, 4).indices() for mask in memo}
        assert touched == {(), (0,), (1,), (2,), (3,),
                           (0, 1), (0, 2), (1, 2), (0, 1, 2)}
        d_influence = subset_eval(cache, AttributeSubset.from_indices([3], 4),
                                  d.instance(2), target) - class_prior(d, target)
        assert v.values[3] == pytest.approx(d_influence, abs=0)

    def test_overlapping_groups_follow_formula_literally(self):
        # shared subsets contribute once per group, with the shared denominator
        rng = np.random.default_rng(13)
        X = rng.normal(size=(24, 3))
        labels = ((X[:, 0] + X[:, 2] > 0)).astype(int).tolist()
        d = dataset_from(X, labels, name="overlap")
        cache = SubsetModelCache(SPEC, d)
        target = d.class_target(1)
        x = d.instance(7)
        G = Coalition.from_index_sets([[0, 1], [1, 2]], 3)
        got = coalitional_influence(cache, 7, G, target)

        def ev(idx):
            return subset_eval(cache, AttributeSubset.from_indices(idx, 3), x, target)

        w0 = coalition_penalty(0, 2, [2, 2])
        w1 = coalition_penalty(1, 2, [2, 2])
        expected_1 = (w0 * (ev([1]) - ev([])) + w1 * (ev([0, 1]) - ev([0]))
                      + w0 * (ev([1]) - ev([])) + w1 * (ev([1, 2]) - ev([2])))
        assert got.values[1] == pytest.approx(expected_1, abs=1e-15)
        # attribute 0 sits in one group of size 2
        expected_0 = (coalition_penalty(0, 2, [2]) * (ev([0]) - ev([]))
                      + coalition_penalty(1, 2, [2]) * (ev([0, 1]) - ev([1])))
        assert got.values[0] == pytest.approx(expected_0, abs=1e-15)

    def test_coverage_enforced(self, blob_dataset):
        cache = SubsetModelCache(SPEC, blob_dataset)
        G = Coalition.from_index_sets([[0, 1]], 3)
        with pytest.raises(ValueError, match="cover"):
            coalitional_influence(cache, 0, G)


class TestRequests:
    def test_predicted_class_default(self, blob_dataset):
        d = blob_dataset
        cache = SubsetModelCache(SPEC, d)
        target = predicted_class(cache, 0)
        full = cache.get_or_train(AttributeSubset.full(3))
        assert target.index == int(np.argmax(full.confidences(d.instance(0))))
        v = complete_influence(cache, 0)
        assert v.target == target

    def test_dispatch(self, blob_dataset):
        d = blob_dataset
        cache = SubsetModelCache(SPEC, d)
        target = d.class_target("hi")
        v = method_influence(cache, 1, MethodConfig("kdepth", k=1), None, target)
        assert v.method_tag == "kdepth:1"
        assert v.instance_index == 1


class TestMulticlass:
    def test_three_class_efficiency_and_normalization(self):
        rng = np.random.default_rng(55)
        X = rng.normal(size=(60, 3))
        labels = np.select([X[:, 0] > 0.5, X[:, 0] < -0.5], ["hi", "lo"], "mid").tolist()
        d = dataset_from(X, labels, name="threeway")
        assert d.n_classes == 3
        spec = ModelSpec(kind="random_forest", tree_count=9, seed=2)
        cache = SubsetModelCache(spec, d)
        for c in d.class_set:
            target = d.class_target(c)
            v = complete_influence(cache, 0, target)
            full = subset_eval(cache, AttributeSubset.full(3),
                               d.instance(0), target)
            assert sum(v.values) == pytest.approx(full - class_prior(d, target),
                                                  abs=1e-9)
        handle = cache.get_or_train(AttributeSubset.full(3))
        assert handle.confidences(d.instance(0)).sum() == pytest.approx(1.0, abs=1e-9)
        # per-class efficiency sums add up across classes: priors and full
        # confidences both sum to one, so the influence totals cancel
        totals = [sum(complete_influence(cache, 5, d.class_target(c)).values)
                  for c in d.class_set]
        assert sum(totals) == pytest.approx(0.0, abs=1e-9)


class TestInfluenceVector:
    def test_rejects_non_finite(self, blob_dataset):
        with pytest.raises(ValueError):
            InfluenceVector((math.nan,), 0, blob_dataset.class_target("hi"), "complete")

    def test_json_shape(self, blob_dataset):
        cache = SubsetModelCache(SPEC, blob_dataset)
        v = kdepth_influence(cache, 0, 1,
                             blob_dataset.class_target("hi"))
        doc = v.to_json(blob_dataset)
        assert doc["instance"] == 0
        assert doc["class"] == "hi"
        assert doc["method"] == "kdepth:1"
        assert list(doc["influences"]) == list(blob_dataset.attribute_names)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=1, max_value=9))
def test_kdepth_weights_sum_to_one_within_depth(n):
    # sum over subsets smaller than k of the depth-k weight is exactly 1
    for k in range(1, n + 1):
        total = Fraction(0)
        for r in range(k):
            total += math.comb(n - 1, r) * Fraction(
                math.factorial(r) * math.factorial(n - r - 1),
                k * math.factorial(n - 1))
        assert total == 1
