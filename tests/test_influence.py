import errno
import json
import math
import os
import signal
import threading
import time
from dataclasses import replace
from fractions import Fraction
from itertools import combinations, permutations
from math import factorial
from typing import Iterator, Sequence

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from coalex import (
    AttributeSubset,
    ComplexityCapError,
    DataError,
    InfluenceVector,
    MethodConfig,
    ModelSpec,
    SubsetModelCache,
    coalitional_influence,
    complete_influence,
    kdepth_influence,
    predicted_classes,
    subset_eval,
)
import coalex.influence
from coalex.dataset import ClassTarget
from coalex.evaluation import method_influence, run_benchmark
from coalex.influence import Plan, _plan, _weight, coalitional_plan, complete_plan, kdepth_plan

from conftest import class_prior, coalition_from, dataset_from, full_group, singletons

SPEC = ModelSpec(kind="decision_tree", max_depth=4, min_leaf=2, seed=0)


def expected_terms(groups, n, depth):
    """Fraction oracle of a plan's terms: for attribute i, (mask with i, mask without i, weight)
    for each group g holding i and each subset s of g - i smaller than ``depth``, by size, with
    weight |s|! (|g|-|s|-1)! / D_i, D_i = sum of min(depth, |h|) (|h|-1)! over h holding i."""
    f = math.factorial
    out = []
    for i in range(n):
        mine = [sorted(g) for g in groups if i in g]
        D = sum(min(depth, len(h)) * f(len(h) - 1) for h in mine)
        terms = []
        for g in mine:
            others = [j for j in g if j != i]
            for r in range(min(depth, len(g))):
                weight = float(Fraction(f(r) * f(len(g) - r - 1), D))
                for sub in combinations(others, r):
                    mask = sum(1 << j for j in sub)
                    terms.append((mask | 1 << i, mask, weight))
        out.append(terms)
    return out


# The generator-based plan builder that the array-based ``_plan`` replaced, kept verbatim
# as its reference: it lists each attribute's terms twice, through ``without(i)``, and
# finds each mask's row in a dict.


def subsets_by_size(indices: Sequence[int], max_size: int | None = None) -> Iterator[int]:
    """Yield the bit mask of every subset of ``indices`` in size-then-lexicographic order.

    The fixed order makes floating-point accumulations over subsets
    reproducible.  ``max_size`` bounds the largest subset yielded (inclusive).
    """
    indices = sorted(indices)
    top = len(indices) if max_size is None else min(max_size, len(indices))
    for r in range(top + 1):
        for combo in combinations(indices, r):
            yield sum(1 << i for i in combo)


def reference_plan(groups: Sequence[int], n: int, depth: int) -> Plan:
    """The plan of ``groups``, masks over n attributes, at ``depth``, by the one rule of the
    module docstring; each attribute's terms run over its groups in order, by subset size."""
    def without(i):  # (mask of s, weight) in term order
        mine = [(g, g.bit_count()) for g in groups if g >> i & 1]
        D = sum(min(depth, size) * factorial(size - 1) for _, size in mine)
        for g, size in mine:
            w = [_weight(s, size, D) for s in range(min(depth, size))]
            for mask in subsets_by_size([j for j in range(n) if j != i and g >> j & 1], depth - 1):
                yield mask, w[mask.bit_count()]

    masks = sorted({m for i in range(n) for s, _ in without(i) for m in (s, s | 1 << i)})
    row = {m: r for r, m in enumerate(masks)}
    plan_terms = []
    for i in range(n):
        subs, weights = zip(*without(i))
        plan_terms.append((np.array([row[s | 1 << i] for s in subs], dtype=np.int32),
                           np.array([row[s] for s in subs], dtype=np.int32),
                           np.array(weights)))
    return Plan(masks, tuple(plan_terms))


@st.composite
def group_families(draw):
    """(groups, n, depth): up to six group masks over n <= 10 attributes, in any order,
    repeated or nested, plus one group of the attributes they miss, if any."""
    n = draw(st.integers(min_value=1, max_value=10))
    groups = draw(st.lists(st.integers(min_value=1, max_value=(1 << n) - 1),
                           min_size=1, max_size=6))
    missed = (1 << n) - 1
    for g in groups:
        missed &= ~g
    return groups + [missed] * (missed > 0), n, draw(st.integers(min_value=1, max_value=n))


def plan_terms(plan):
    """A plan's terms as (mask with i, mask without i, weight), per attribute."""
    return [[(plan.masks[a], plan.masks[b], w)
             for a, b, w in zip(plus.tolist(), minus.tolist(), weights.tolist())]
            for plus, minus, weights in plan.terms]


class TestPenalties:
    """The weights the plans hold, against a Fraction oracle of the one rule; past the
    plans that can be built, the weight expression ``_plan`` calls."""

    def test_shapley_closed_forms(self):
        # the Shapley weight is the depth-n weight: n (n-1)! = n!
        assert complete_plan(1).terms[0][2].tolist() == [1.0]
        assert complete_plan(2).terms[0][2].tolist() == [0.5, 0.5]
        assert complete_plan(3).terms[0][2].tolist() == [1 / 3, 1 / 6, 1 / 6, 1 / 3]

    def test_shapley_matches_fraction_oracle(self):
        f = math.factorial
        for n in range(1, 13):
            assert plan_terms(complete_plan(n)) == expected_terms([set(range(n))], n, n)
        for n in range(13, 41):
            for s in range(n):
                assert _weight(s, n, f(n)) == float(Fraction(f(s) * f(n - s - 1), f(n)))

    def test_shapley_normalizes_over_subsets(self):
        # each attribute's terms are the 2^(n-1) subsets of the others, with weights summing to 1
        for n in range(1, 11):
            for plus, minus, weights in complete_plan(n).terms:
                assert len(set(minus.tolist())) == len(weights) == 1 << (n - 1)
                assert sum(map(Fraction, weights.tolist())) == pytest.approx(1, abs=1e-12)

    def test_shapley_range_errors(self):
        with pytest.raises(ValueError, match=r"k must be in \[1, 0\], got 0"):
            complete_plan(0)

    def test_kdepth_closed_forms(self):
        for n in (1, 2, 5, 9):
            assert [t[2].tolist() for t in kdepth_plan(n, 1).terms] == [[1.0]] * n
        assert kdepth_plan(4, 2).terms[0][2].tolist() == [1 / 2, 1 / 6, 1 / 6, 1 / 6]

    def test_kdepth_range_errors(self):
        for k in (-1, 0, 5):
            with pytest.raises(ValueError, match=rf"k must be in \[1, 4\], got {k}"):
                kdepth_plan(4, k)

    def test_coalition_closed_forms(self):
        assert coalitional_plan(singletons(1)).terms[0][2].tolist() == [1.0]
        # attribute 2 sits in a group of 3 and one of 2: D = 3! + 2! = 8
        G = coalition_from([[0, 1, 2], [2, 3]], 4)
        assert coalitional_plan(G).terms[2][2].tolist() == [2 / 8, 1 / 8, 1 / 8, 2 / 8,
                                                            1 / 8, 1 / 8]

    def test_coalition_reduces_to_shapley_for_full_group(self):
        for n in range(1, 11):
            assert (plan_terms(coalitional_plan(full_group(n)))
                    == expected_terms([set(range(n))], n, n))

    def test_coalition_range_errors(self):
        for sets, n, missing in (([[0, 1]], 3, [2]), ([[0], [2]], 4, [1, 3])):
            with pytest.raises(ValueError, match=rf"does not cover attributes \{missing}"):
                coalitional_plan(coalition_from(sets, n))

    def test_large_n_log_space_close_to_exact(self):
        # past the complete-influence cap the weight is still the exact ratio, rounded once
        got = _weight(10, 25, math.factorial(25))
        oracle = Fraction(math.factorial(10) * math.factorial(14), math.factorial(25))
        assert got == float(oracle)

    @pytest.mark.parametrize("n", range(1, 13))
    def test_kdepth_plans_match_fraction_oracle(self, n):
        for k in range(1, n + 1):
            assert plan_terms(kdepth_plan(n, k)) == expected_terms([set(range(n))], n, k)

    def test_overlapping_coalitions_match_fraction_oracle(self):
        # D_i = sum of |h|! over the groups h holding i; nested groups are kept apart
        for sets, n in (([[0, 1, 2], [2, 3]], 4), ([[0, 1], [1, 2], [0, 2]], 3),
                        ([[0, 1, 2], [2, 3], [3, 4, 5], [1, 5]], 6),
                        ([[0, 1, 2, 3], [1, 2], [4]], 5),
                        ([[0, 1, 2, 3, 4, 5, 6], [5, 6, 7, 8], [0, 8, 9], [9, 10, 11]], 12)):
            G = coalition_from(sets, n)
            assert (plan_terms(coalitional_plan(G))
                    == expected_terms([set(g.indices()) for g in G.groups], n, n))

    def test_kdepth_and_coalition_match_fraction_oracle(self):
        # the weight expression _plan calls, at sizes past any plan that can be built
        f = math.factorial
        for n in range(1, 41):
            for s in range(n):
                rest = f(s) * f(n - s - 1)
                for k in range(s + 1, n + 1):
                    D = k * f(n - 1)
                    assert _weight(s, n, D) == float(Fraction(rest, D))
                for groups in ([n], [n, 1], [n, n - 1, 3], [n, 40], [n, 7, 21, 33]):
                    D = sum(f(g) for g in groups)
                    assert _weight(s, n, D) == float(Fraction(rest, D))


def value(cache, s, i, target):
    """v(s) at instance i for one target class: one cell of the value table."""
    return subset_eval(cache, s, cache.dataset.features[[i]], [target.index])[0]


def brute_force_permutation_shapley(cache, spec, d, i, target):
    """Independent oracle: average marginal contribution over attribute orders."""
    n = d.n_attributes
    values = [Fraction(0)] * n
    evals = {}

    def ev(mask_indices):
        key = frozenset(mask_indices)
        if key not in evals:
            s = AttributeSubset.from_indices(key, n)
            evals[key] = value(cache, s, i, target)
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
        d = blob_dataset
        cache = SubsetModelCache(SPEC, d)
        target = d.class_target("hi")
        got = value(cache, AttributeSubset(0, 3), 0, target)
        assert got == class_prior(d, target)

    def test_full_subset_on_separable_data(self, separable2):
        cache = SubsetModelCache(ModelSpec(kind="decision_tree"), separable2)
        target = separable2.class_target("p")
        got = value(cache, AttributeSubset.full(1), 0, target)
        assert got == 1.0

    def test_repeat_calls_hit_cache(self, blob_dataset):
        d = blob_dataset
        cache = SubsetModelCache(SPEC, d)
        target = d.class_target("hi")
        s = AttributeSubset.from_indices([0, 1], 3)
        a = value(cache, s, 2, target)
        b = value(cache, s, 2, target)
        assert a == b
        assert cache.training_count == 1

    def test_one_target_class_per_row(self, blob_dataset):
        d = blob_dataset
        cache = SubsetModelCache(SPEC, d)
        s = AttributeSubset.full(3)
        # -1 would read the last class; 2 would raise numpy's bare IndexError
        for target_idx, bad in (([-1, 0, 1], -1), ([0, 1, 2], 2), ([5, -1, 0], 5)):
            with pytest.raises(ValueError, match=rf"class index {bad} outside \[0, 2\)"):
                subset_eval(cache, s, d.features[:3], target_idx)
        assert cache.training_count == 0  # refused before any training
        for target_idx in ([0], [0, 1, 0]):  # one class would broadcast over both rows
            with pytest.raises(ValueError, match=rf"{len(target_idx)} target classes for 2 rows"):
                subset_eval(cache, s, d.features[:2], target_idx)
        for target_idx in (0, [[0, 1]]):  # not one class index per row
            with pytest.raises(ValueError, match=r"shape \(.*\) of target classes for 2 rows"):
                subset_eval(cache, s, d.features[:2], target_idx)
        assert cache.training_count == 0  # the lengths are refused before training too


class TestCompleteInfluence:
    def test_single_attribute(self, separable2):
        cache = SubsetModelCache(SPEC, separable2)
        target = separable2.class_target("p")
        v = complete_influence(cache, [0], [target])[0]
        expected = value(cache, AttributeSubset.full(1), 0, target) - class_prior(separable2, target)
        assert v.values == (expected,)

    def test_matches_permutation_oracle(self):
        rng = np.random.default_rng(12)
        for n in (2, 3, 4):
            X = rng.normal(size=(30, n))
            labels = (X[:, 0] + X[:, -1] > 0).astype(int).tolist()
            d = dataset_from(X, labels, name=f"perm{n}")
            cache = SubsetModelCache(SPEC, d)
            target = d.class_target(1)
            got = complete_influence(cache, [3], [target])[0]
            oracle = brute_force_permutation_shapley(cache, SPEC, d, 3, target)
            np.testing.assert_allclose(got.values, oracle, atol=1e-12)

    def test_efficiency_identity(self, xor4):
        cache = SubsetModelCache(SPEC, xor4)
        target = xor4.class_target("p")
        for i in range(4):
            v = complete_influence(cache, [i], [target])[0]
            full = value(cache, AttributeSubset.full(2), i, target)
            assert sum(v.values) == pytest.approx(full - class_prior(xor4, target), abs=1e-9)

    def test_constant_column_gets_zero(self):
        rng = np.random.default_rng(5)
        X = np.column_stack([rng.normal(size=40), np.full(40, 3.25), rng.normal(size=40)])
        labels = (X[:, 0] > 0).astype(int).tolist()
        d = dataset_from(X, labels, name="const-col")
        cache = SubsetModelCache(SPEC, d)
        v = complete_influence(cache, [0], [d.class_target(1)])[0]
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
            v = complete_influence(cache, [1], [d.class_target(1)])[0]
            diffs.append(v.values[0] - v.values[1])
        assert abs(np.mean(diffs)) <= 1e-6

    def test_cap_enforced(self):
        d = dataset_from(np.zeros((2, 21)) + np.arange(21), [0, 1])
        cache = SubsetModelCache(SPEC, d)
        with pytest.raises(ComplexityCapError, match="cap is 20"):
            complete_influence(cache, [0], [d.class_target(0)])
        assert cache.training_count == 0

    def test_deterministic_across_runs(self, blob_dataset):
        spec = ModelSpec(kind="random_forest", tree_count=10, seed=4)
        vs = []
        for _ in range(2):
            cache = SubsetModelCache(spec, blob_dataset)
            vs.append(complete_influence(cache, [2])[0].values)
        assert vs[0] == vs[1]


class TestKdepthInfluence:
    def test_depth_one_is_marginal_vs_prior(self, blob_dataset):
        d = blob_dataset
        cache = SubsetModelCache(SPEC, d)
        target = d.class_target("hi")
        v = kdepth_influence(cache, [0], 1, [target])[0]
        prior = class_prior(d, target)
        for i in range(d.n_attributes):
            single = value(cache, AttributeSubset.from_indices([i], 3), 0, target)
            assert v.values[i] == pytest.approx(single - prior, abs=0)

    def test_full_depth_equals_complete(self, blob_dataset):
        d = blob_dataset
        cache = SubsetModelCache(SPEC, d)
        target = d.class_target("hi")
        vc = complete_influence(cache, [1], [target])[0]
        vk = kdepth_influence(cache, [1], d.n_attributes, [target])[0]
        assert max(abs(a - b) for a, b in zip(vc.values, vk.values)) <= 1e-12

    def test_hand_expanded_k2_n3(self):
        # six-term expansion per attribute on a three-attribute dataset
        rng = np.random.default_rng(21)
        X = rng.normal(size=(25, 3))
        labels = ((X[:, 0] > 0) ^ (X[:, 1] > 0)).astype(int).tolist()
        d = dataset_from(X, labels, name="k2n3")
        cache = SubsetModelCache(SPEC, d)
        target = d.class_target(1)
        got = kdepth_influence(cache, [4], 2, [target])[0]

        def ev(idx):
            return value(cache, AttributeSubset.from_indices(idx, 3), 4, target)

        f, n, k = math.factorial, 3, 2
        w0, w1 = (f(s) * f(n - s - 1) / (k * f(n - 1)) for s in range(k))  # 1/2, 1/4
        for i in range(3):
            others = [j for j in range(3) if j != i]
            expected = w0 * (ev([i]) - ev([]))
            for j in others:
                expected += w1 * (ev([i, j]) - ev([j]))
            assert got.values[i] == pytest.approx(expected, abs=1e-15)

    def test_k_range_validated(self, xor4):
        cache = SubsetModelCache(SPEC, xor4)
        with pytest.raises(ValueError):
            kdepth_influence(cache, [0], 0)
        with pytest.raises(ValueError):
            kdepth_influence(cache, [0], 3)


class TestCoalitionalInfluence:
    def test_singletons_equal_depth_one(self, blob_dataset):
        d = blob_dataset
        cache = SubsetModelCache(SPEC, d)
        target = d.class_target("lo")
        v1 = kdepth_influence(cache, [5], 1, [target])[0]
        vs = coalitional_influence(cache, [5], singletons(3), [target])[0]
        assert vs.values == v1.values

    def test_full_group_equals_complete(self, blob_dataset):
        d = blob_dataset
        cache = SubsetModelCache(SPEC, d)
        target = d.class_target("lo")
        vc = complete_influence(cache, [5], [target])[0]
        vg = coalitional_influence(cache, [5], full_group(3), [target])[0]
        assert max(abs(a - b) for a, b in zip(vc.values, vg.values)) <= 1e-12

    def test_paper_shape_groups(self):
        # G = {{A,B,C},{D}}: A draws on {A},{AB},{AC},{ABC}; D only on {D}
        rng = np.random.default_rng(31)
        X = rng.normal(size=(30, 4))
        labels = (X[:, 0] * X[:, 3] > 0).astype(int).tolist()
        d = dataset_from(X, labels, name="abc-d")
        cache = SubsetModelCache(SPEC, d)
        target = d.class_target(1)
        G = coalition_from([[0, 1, 2], [3]], 4)
        v = coalitional_influence(cache, [2], G, [target])[0]
        # the cache is fresh and the target given, so it trained exactly the touched subsets
        touched = {AttributeSubset(mask, 4).indices() for mask in range(16)
                   if AttributeSubset(mask, 4) in cache}
        assert touched == {(), (0,), (1,), (2,), (3,),
                           (0, 1), (0, 2), (1, 2), (0, 1, 2)}
        d_influence = value(cache, AttributeSubset.from_indices([3], 4), 2,
                            target) - class_prior(d, target)
        assert v.values[3] == pytest.approx(d_influence, abs=0)

    def test_overlapping_groups_follow_formula_literally(self):
        # shared subsets contribute once per group, with the shared denominator
        rng = np.random.default_rng(13)
        X = rng.normal(size=(24, 3))
        labels = ((X[:, 0] + X[:, 2] > 0)).astype(int).tolist()
        d = dataset_from(X, labels, name="overlap")
        cache = SubsetModelCache(SPEC, d)
        target = d.class_target(1)
        G = coalition_from([[0, 1], [1, 2]], 3)
        got = coalitional_influence(cache, [7], G, [target])[0]

        def ev(idx):
            return value(cache, AttributeSubset.from_indices(idx, 3), 7, target)

        f = math.factorial
        w0 = w1 = f(0) * f(1) / (f(2) + f(2))  # |s| = 0 and 1 in a group of 2, D = 2! + 2!
        expected_1 = (w0 * (ev([1]) - ev([])) + w1 * (ev([0, 1]) - ev([0]))
                      + w0 * (ev([1]) - ev([])) + w1 * (ev([1, 2]) - ev([2])))
        assert got.values[1] == pytest.approx(expected_1, abs=1e-15)
        # attribute 0 sits in one group of size 2
        w = f(0) * f(1) / f(2)
        expected_0 = w * (ev([0]) - ev([])) + w * (ev([0, 1]) - ev([1]))
        assert got.values[0] == pytest.approx(expected_0, abs=1e-15)

    def test_coverage_enforced(self, blob_dataset):
        cache = SubsetModelCache(SPEC, blob_dataset)
        G = coalition_from([[0, 1]], 3)
        with pytest.raises(ValueError, match="cover"):
            coalitional_influence(cache, [0], G)


class TestRequests:
    def test_predicted_class_default(self, blob_dataset):
        d = blob_dataset
        cache = SubsetModelCache(SPEC, d)
        targets = predicted_classes(cache, [0, 4])
        full = cache.get_or_train(AttributeSubset.full(3))
        assert [t.index for t in targets] == list(np.argmax(full.confidences(d.features[[0, 4]]),
                                                            axis=1))
        vectors = complete_influence(cache, [0, 4])
        assert [v.target for v in vectors] == targets

    def test_dispatch(self, blob_dataset):
        d = blob_dataset
        cache = SubsetModelCache(SPEC, d)
        target = d.class_target("hi")
        [v], G, extra = method_influence(cache, [1], MethodConfig("kdepth", k=1), [target], 0)
        assert v.method_tag == "kdepth:1"
        assert v.instance_index == 1
        assert (G, extra) == (None, {})
        mc = MethodConfig("coalitional", grouping="spearman", threshold=0.3)
        [v], G, extra = method_influence(cache, [1], mc, [target], 0)
        assert extra == {"threshold": 0.3}  # the coalition is built by the runner
        assert [v] == coalitional_influence(cache, [1], G, [target])


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
            v = complete_influence(cache, [0], [target])[0]
            full = value(cache, AttributeSubset.full(3), 0, target)
            assert sum(v.values) == pytest.approx(full - class_prior(d, target),
                                                  abs=1e-9)
        handle = cache.get_or_train(AttributeSubset.full(3))
        assert handle.confidences(d.features[:1]).sum() == pytest.approx(1.0, abs=1e-9)
        # per-class efficiency sums add up across classes: priors and full
        # confidences both sum to one, so the influence totals cancel
        totals = [sum(complete_influence(cache, [5], [d.class_target(c)])[0].values)
                  for c in d.class_set]
        assert sum(totals) == pytest.approx(0.0, abs=1e-9)


class TestAxiomsUnderRetraining:
    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=2, max_value=4), st.data(),
           st.floats(min_value=-1e3, max_value=1e3), st.integers(min_value=0, max_value=2**16))
    def test_null_player_decision_tree(self, n, data, value, seed):
        # a constant column can never split, so adding it to any subset retrains
        # the same tree: every term of its influence is exactly zero
        position = data.draw(st.integers(min_value=0, max_value=n - 1))
        rng = np.random.default_rng(seed)
        X = np.insert(rng.normal(size=(20, n - 1)), position, value, axis=1)
        labels = (X[:, (position + 1) % n] + 0.5 * rng.normal(size=20) > 0).astype(int)
        labels[:2] = [0, 1]
        d = dataset_from(X, labels.tolist())
        cache = SubsetModelCache(ModelSpec(kind="decision_tree"), d)
        for i in (0, 1, 7):
            assert complete_influence(cache, [i])[0].values[position] == 0.0

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=2, max_value=4), st.integers(min_value=1, max_value=7),
           st.integers(min_value=0, max_value=2**16))
    def test_efficiency_random_forest_three_classes(self, n, tree_count, seed):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(24, n))
        labels = np.digitize(X[:, 0] + 0.5 * rng.normal(size=24), [-0.4, 0.4])
        labels[:3] = [0, 1, 2]
        d = dataset_from(X, labels.tolist())
        spec = ModelSpec(kind="random_forest", tree_count=tree_count, seed=seed)
        cache = SubsetModelCache(spec, d)
        full = AttributeSubset.full(n)
        for c in d.class_set:
            target = d.class_target(c)
            v = complete_influence(cache, [3], [target])[0]
            v_full = value(cache, full, 3, target)
            assert sum(v.values) == pytest.approx(v_full - class_prior(d, target), abs=1e-9)


def assert_same_plan(a, b):
    """Bitwise equality of two plans' masks, Python ints both, and weight matrices."""
    assert a.masks == b.masks
    assert all(type(m) is int for m in a.masks + b.masks)
    assert len(a.terms) == len(b.terms)
    for ta, tb in zip(a.terms, b.terms):
        for xa, xb in zip(ta, tb):
            assert xa.dtype == xb.dtype and xa.shape == xb.shape
            assert xa.tobytes() == xb.tobytes()


class TestPlans:
    @pytest.mark.parametrize("n", range(1, 8))
    def test_full_depth_is_complete(self, n):
        # depth n sums every subset of the others with the Shapley weight, as n (n-1)! = n!
        f = math.factorial
        plan = kdepth_plan(n, n)
        assert_same_plan(plan, complete_plan(n))
        assert plan.masks == list(range(1 << n))
        for plus, minus, weights in plan.terms:
            sizes = [plan.masks[r].bit_count() for r in minus.tolist()]
            assert weights.tolist() == [f(s) * f(n - s - 1) / f(n) for s in sizes]

    @pytest.mark.parametrize("n", range(1, 8))
    def test_full_group_is_complete(self, n):
        assert_same_plan(coalitional_plan(full_group(n)), complete_plan(n))

    @pytest.mark.parametrize("n", range(1, 8))
    def test_singletons_are_depth_one(self, n):
        assert_same_plan(coalitional_plan(singletons(n)), kdepth_plan(n, 1))

    def test_masks_are_the_touched_subsets(self):
        assert complete_plan(3).masks == list(range(8))
        assert kdepth_plan(3, 2).masks == [0, 1, 2, 3, 4, 5, 6]
        G = coalition_from([[0, 1, 2], [3]], 4)
        assert coalitional_plan(G).masks == [0, 1, 2, 3, 4, 5, 6, 7, 8]
        # attribute 3 sits alone: one term, {3} (row 8) against the prior (row 0)
        with_3, without_3, weights_3 = coalitional_plan(G).terms[3]
        assert (list(with_3), list(without_3), list(weights_3)) == ([8], [0], [1.0])
        G = coalition_from([[0, 2], [1]], 3)
        assert coalitional_plan(G).masks == [0, 1, 2, 4, 5]
        assert [list(rows) for rows in coalitional_plan(G).terms[2][:2]] == [[3, 4], [0, 1]]

    def test_wide_plans_keep_python_int_masks(self):
        # masks of 64 or more attributes do not fit a machine integer
        plan = kdepth_plan(70, 1)
        assert plan.masks == [0] + [1 << i for i in range(70)]
        assert [list(t[0]) for t in plan.terms] == [[i + 1] for i in range(70)]
        G = coalition_from([[i, i + 1] for i in range(0, 70, 2)], 70)
        assert coalitional_plan(G).masks[-1] == 3 << 68

    @pytest.mark.parametrize("n", range(1, 11))
    def test_complete_and_kdepth_plans_equal_the_reference_builder(self, n):
        for k in range(1, n + 1):
            assert_same_plan(kdepth_plan(n, k), reference_plan([(1 << n) - 1], n, k))
        assert_same_plan(complete_plan(n), reference_plan([(1 << n) - 1], n, n))

    @pytest.mark.parametrize("n", [64, 70])
    def test_wide_plans_equal_the_reference_builder(self, n):
        full, pairs = (1 << n) - 1, [3 << i for i in range(0, n, 2)]
        for groups, depth in [([full], 1), ([full], 2), (pairs, n), (pairs + [full >> 1], 2)]:
            assert_same_plan(_plan(groups, n, depth), reference_plan(groups, n, depth))

    @settings(deadline=None)
    @given(group_families())
    def test_plans_equal_the_reference_builder(self, family):
        # overlapping, repeated and nested groups, at every depth
        assert_same_plan(_plan(*family), reference_plan(*family))

    @pytest.mark.parametrize("n", range(1, 6))
    def test_complete_plan_matches_permutation_shapley(self, n):
        # independent oracle on a fixed random value function over all 2^n subsets
        rng = np.random.default_rng(100 + n)
        v = rng.random((1 << n, 3))
        perms = list(permutations(range(n)))
        oracle = np.zeros((n, 3))
        for order in perms:
            mask = 0
            for attr in order:
                oracle[attr] += v[mask | 1 << attr] - v[mask]
                mask |= 1 << attr
        oracle /= len(perms)
        plan = complete_plan(n)
        np.testing.assert_allclose(plan.sums(v[plan.masks]), oracle, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("width", [1, 3])
    def test_sums_add_left_to_right(self, width):
        # the terms are summed in plan order, as a Python loop over them would
        rng = np.random.default_rng(7)
        plan = complete_plan(6)
        scale = 10.0 ** rng.integers(-8, 8, size=(len(plan.masks), 1))
        v = rng.random((len(plan.masks), width)) * scale
        got = plan.sums(v)
        for i, (with_i, without_i, weights) in enumerate(plan.terms):
            for col in range(width):
                total = 0.0
                for a, b, w in zip(with_i.tolist(), without_i.tolist(), weights.tolist()):
                    total += w * (float(v[a, col]) - float(v[b, col]))
                assert got[i, col] == total

    def test_sums_blocks_bound_each_attributes_terms(self, monkeypatch):
        """Blocks of instances are sized from the longest term list, which overlapping
        groups make longer than the mask list: here 448 terms against 255 masks."""
        n = 8
        plan = coalitional_plan(coalition_from([[j for j in range(n) if j != i]
                                                for i in range(n)], n))
        longest = max(len(w) for _, _, w in plan.terms)
        assert (longest, len(plan.masks)) == (448, 255)
        v = np.random.default_rng(8).random((len(plan.masks), 10))
        whole, cells, sizes, cumsum = plan.sums(v), 3 * longest, [], np.cumsum
        monkeypatch.setattr(coalex.influence, "VALUE_TABLE_CELLS", cells)
        monkeypatch.setattr(np, "cumsum", lambda steps, *args, **kwargs:
                            sizes.append(steps.size) or cumsum(steps, *args, **kwargs))
        blocked = plan.sums(v)
        monkeypatch.undo()
        assert len(sizes) == 4 * n and max(sizes) == cells  # blocks of 3, 3, 3 and 1
        assert (blocked == whole).all()


class TestBatching:
    @pytest.fixture
    def rf_cache(self, blob_dataset):
        return SubsetModelCache(ModelSpec(kind="random_forest", tree_count=5, seed=1),
                                blob_dataset)

    @staticmethod
    def methods():
        """The three influence functions, on a three-attribute dataset."""
        G = coalition_from([[0, 1], [1, 2]], 3)
        return [lambda c, i, t: complete_influence(c, i, t),
                lambda c, i, t: kdepth_influence(c, i, 2, t),
                lambda c, i, t: coalitional_influence(c, i, G, t)]

    @pytest.mark.parametrize("method", range(3), ids=["complete", "kdepth", "coalitional"])
    @pytest.mark.parametrize("cells", [None, 15])
    def test_one_call_equals_one_call_per_instance(self, blob_dataset, rf_cache, monkeypatch,
                                                   method, cells):
        d = blob_dataset
        fn = self.methods()[method]
        instances = list(range(d.n_instances))
        single = [fn(rf_cache, [i], None)[0] for i in instances]
        if cells is not None:  # blocks of one or two instances
            monkeypatch.setattr(coalex.influence, "VALUE_TABLE_CELLS", cells)
        batch = fn(rf_cache, instances, None)
        assert [v.values for v in batch] == [v.values for v in single]
        assert [v.target for v in batch] == [v.target for v in single]
        assert [v.instance_index for v in batch] == instances
        fixed = [d.class_target("lo")] * len(instances)
        assert ([v.values for v in fn(rf_cache, instances, fixed)]
                == [fn(rf_cache, [i], fixed[:1])[0].values for i in instances])

    @pytest.mark.parametrize("cells", [None, 15], ids=["one-block", "blocks-of-one"])
    def test_each_tree_grows_once_per_call(self, blob_dataset, rf_cache, monkeypatch, cells):
        """Whatever the block count, each tree is grown in exactly one pass per call,
        which walks each (tree, subset) the cache does not hold once, and holds none of
        the models it grows."""
        import coalex.model

        d, grown, passes, calls = blob_dataset, [], [], []
        real_grow, real_values = coalex.model._grow, coalex.influence.tree_values
        monkeypatch.setattr(coalex.model, "_grow", lambda spec, d, trees, cols_list, *args:
                            passes.append(list(trees))
                            or grown.extend((t, cols) for t in trees for cols in cols_list)
                            or real_grow(spec, d, trees, cols_list, *args))
        monkeypatch.setattr(coalex.influence, "tree_values",
                            lambda *args: calls.append(list(args[2])) or real_values(*args))
        if cells is not None:  # blocks of one instance in Plan.sums
            monkeypatch.setattr(coalex.influence, "VALUE_TABLE_CELLS", cells)
        complete_influence(rf_cache, range(d.n_instances))
        trees = [(t, AttributeSubset(m, 3).indices()) for t in range(5) for m in range(1, 8)]
        assert sorted(grown) == sorted(trees)  # the full model too, for the predictions
        assert calls == [[0, 1, 2, 3, 4]]
        assert passes == [[0, 1, 2, 3, 4]] * 2  # the full model's, then the value table's
        assert rf_cache.training_count == 8
        # only the prior and the full model, which the predictions trained, are held
        held = [rf_cache.holds(AttributeSubset(m, 3)) for m in range(8)]
        assert held == [True] + [False] * 6 + [True]
        grown.clear()
        complete_influence(rf_cache, range(d.n_instances))
        # grown models are not held, so a second call grows them again; held ones are read
        assert sorted(grown) == sorted(t for t in trees if len(t[1]) < 3)

    def test_rejects_foreign_class(self, blob_dataset):
        cache = SubsetModelCache(SPEC, blob_dataset)
        foreign = dataset_from([[0.0]], ["z"]).class_target("z")
        misplaced = ClassTarget("hi", 1 - blob_dataset.class_target("hi").index)
        for fn in self.methods():
            for bad in (foreign, misplaced):
                with pytest.raises(DataError, match="not in the dataset's class_set"):
                    fn(cache, [0, 1], [blob_dataset.class_target("hi"), bad])
        assert cache.training_count == 0

    def test_seventy_attributes(self):
        # subset masks past bit 63, for the methods without an attribute cap
        rng = np.random.default_rng(70)
        X = rng.normal(size=(30, 70))
        d = dataset_from(X, ["hi" if x > 0 else "lo" for x in X[:, 5]])
        cache = SubsetModelCache(SPEC, d)
        G = coalition_from([[i, i + 1] for i in range(0, 70, 2)], 70)
        for v in kdepth_influence(cache, [0, 1], 1) + coalitional_influence(cache, [0, 1], G):
            assert len(v) == 70 and v.values[5] != 0.0
        assert cache.training_count == 1 + 70 + 35 + 1  # and the full model's predictions

    def test_targets_must_match_instances(self, blob_dataset):
        cache = SubsetModelCache(SPEC, blob_dataset)
        with pytest.raises(ValueError, match="2 targets for 3 instances"):
            complete_influence(cache, [0, 1, 2], [blob_dataset.class_target("hi")] * 2)
        with pytest.raises(IndexError):
            complete_influence(cache, [0, blob_dataset.n_instances])
        # an empty call checks its targets too, and trains no full model for none
        t = blob_dataset.class_target("hi")
        with pytest.raises(ValueError, match="1 targets for 0 instances"):
            complete_influence(cache, [], [t])
        with pytest.raises(ValueError, match="2 targets for 0 instances"):
            kdepth_influence(cache, [], 2, [t, t])
        assert complete_influence(cache, []) == []
        assert cache.training_count == 0


class CpuSet:
    """``os.sched_getaffinity`` fixed at ``home`` and the CPU this process runs on fixed at
    ``here``, and a log of every affinity call, the forked workers' included, as (pid, None)
    for a query and (pid, sorted CPUs) for a binding.  A binding raises ``OSError`` when
    ``refuse`` is set; otherwise it binds for real too, CPU c to real CPU number c modulo
    the real count."""

    def __init__(self, monkeypatch, log):
        self.home, self.here, self.log, self.refuse = set(range(8)), 0, log, False
        real_get = getattr(os, "sched_getaffinity", lambda pid: {0})
        real_bind = getattr(os, "sched_setaffinity", lambda pid, cpus: None)
        self.real = lambda: sorted(real_get(0))
        real = self.before = self.real()

        def get(pid):
            self.record(None)
            return set(self.home)

        def bind(pid, cpus):
            self.record(sorted(cpus))
            if self.refuse:
                raise OSError(errno.EINVAL, "binding refused")
            real_bind(pid, {real[c % len(real)] for c in cpus})

        monkeypatch.setattr(os, "sched_getaffinity", get, raising=False)
        monkeypatch.setattr(os, "sched_setaffinity", bind, raising=False)
        monkeypatch.setattr(coalex.influence, "_cpu", lambda: self.here)

    def record(self, cpus):
        with open(self.log, "a") as f:
            f.write(json.dumps([os.getpid(), cpus]) + "\n")

    def calls(self):
        lines = self.log.read_text().splitlines() if self.log.exists() else []
        return [tuple(json.loads(line)) for line in lines]

    def assert_unbound(self):
        """This process made no binding, and its real set is unchanged."""
        assert all(cpus is None for pid, cpus in self.calls() if pid == os.getpid())
        assert self.real() == self.before


@pytest.mark.skipif(not os.path.exists("/proc/self/stat"), reason="no /proc/self/stat")
def test_cpu_is_one_this_process_may_run_on():
    assert coalex.influence._cpu() in os.sched_getaffinity(0)


class TestTreePool:
    """``jobs`` > 1 forks workers that each grow a slice of a forest's trees, one process
    per CPU."""

    SPEC = ModelSpec(kind="random_forest", tree_count=5, seed=1)

    @pytest.fixture(autouse=True)
    def cpus(self, monkeypatch, tmp_path):
        """A fixed set of 8 CPUs, so that worker counts do not depend on the machine."""
        return CpuSet(monkeypatch, tmp_path / "affinity.log")

    @pytest.fixture
    def forks(self, monkeypatch):
        """The pids of the workers forked while the test runs."""
        pids, real = [], os.fork

        def recording():
            pid = real()
            if pid:
                pids.append(pid)
            return pid

        monkeypatch.setattr(os, "fork", recording)
        return pids

    @staticmethod
    def assert_reaped(pids):
        assert pids
        for pid in pids:
            with pytest.raises(ChildProcessError):
                os.waitpid(pid, os.WNOHANG)

    def influence(self, d, jobs=1):
        cache = SubsetModelCache(self.SPEC, d)
        return cache, complete_influence(cache, [0, 1, 2], [d.class_target("hi")] * 3, jobs=jobs)

    def test_workers_give_the_serial_values(self, blob_dataset, forks, cpus):
        _, serial = self.influence(blob_dataset)
        assert forks == []  # jobs=1 runs in one process
        for jobs in (2, 3, 8):
            assert self.influence(blob_dataset, jobs)[1] == serial
        assert len(forks) == 1 + 2 + 4  # min(jobs, 5 trees, 8 CPUs) - 1 workers
        self.assert_reaped(forks)
        cpus.assert_unbound()

    def test_no_more_tree_processes_than_cpus(self, blob_dataset, forks, cpus):
        _, serial = self.influence(blob_dataset)
        cpus.home = {3, 6}
        assert self.influence(blob_dataset, 8)[1] == serial
        assert len(forks) == 1  # min(8 jobs, 5 trees, 2 CPUs) - 1
        self.assert_reaped(forks)
        cpus.assert_unbound()
        cpus.home = {4}
        del forks[:]
        cpus.log.unlink()
        assert self.influence(blob_dataset, 8)[1] == serial
        assert forks == [] and cpus.calls() == [(os.getpid(), None)]  # one CPU: nothing bound

    def test_workers_run_off_the_callers_cpu(self, blob_dataset, forks, cpus):
        cpus.home, cpus.here, parent = {2, 3, 5, 7}, 5, os.getpid()
        serial = self.influence(blob_dataset)[1]
        assert self.influence(blob_dataset, 3)[1] == serial
        # the caller only asks for its set; each worker binds itself to the rest
        assert sorted(cpus.calls()) == sorted([(parent, None), (forks[0], [2, 3, 7]),
                                               (forks[1], [2, 3, 7])])
        cpus.assert_unbound()
        cpus.here = None  # where the caller's CPU is unknown, a worker may use the whole set
        cpus.log.unlink()
        assert self.influence(blob_dataset, 2)[1] == serial
        assert sorted(cpus.calls()) == sorted([(parent, None), (forks[2], [2, 3, 5, 7])])
        self.assert_reaped(forks)

    def test_refused_binding_changes_neither_values_nor_reaping(self, blob_dataset, forks, cpus):
        _, serial = self.influence(blob_dataset)
        cpus.refuse = True
        assert self.influence(blob_dataset, 3)[1] == serial
        assert len(forks) == 2
        self.assert_reaped(forks)
        workers = sorted((pid, c) for pid, c in cpus.calls() if pid != os.getpid())
        assert workers == sorted((pid, list(range(1, 8))) for pid in forks)  # each one tried
        cpus.assert_unbound()

    def test_no_affinity_call_without_a_pool(self, blob_dataset, forks, cpus, monkeypatch):
        _, serial = self.influence(blob_dataset)  # jobs=1
        complete_influence(SubsetModelCache(SPEC, blob_dataset), [0], jobs=4)  # a decision tree
        assert forks == [] and cpus.calls() == []
        monkeypatch.delattr(os, "sched_setaffinity")
        cpus.home = {3, 6}
        assert self.influence(blob_dataset, 8)[1] == serial
        assert len(forks) == 1  # the CPU cap holds without the binding
        assert cpus.calls() == [(os.getpid(), None)]
        monkeypatch.delattr(os, "sched_getaffinity")
        cpus.log.unlink()
        assert self.influence(blob_dataset, 8)[1] == serial
        assert len(forks) == 1 + 4  # min(8 jobs, 5 trees) - 1: no CPU cap
        self.assert_reaped(forks)
        assert cpus.calls() == []

    def test_workers_fill_a_table_of_many_sums_blocks(self, blob_dataset, forks, monkeypatch):
        _, serial = self.influence(blob_dataset)
        monkeypatch.setattr(coalex.influence, "VALUE_TABLE_CELLS", 8)  # one instance per block
        assert self.influence(blob_dataset, 2)[1] == serial
        assert len(forks) == 1
        self.assert_reaped(forks)

    @pytest.mark.parametrize("jobs", [0, -2])
    def test_jobs_below_one_is_refused(self, blob_dataset, forks, jobs):
        cache = SubsetModelCache(self.SPEC, blob_dataset)
        G = coalition_from([[0, 1], [2]], 3)
        for influence in (lambda: complete_influence(cache, [0], jobs=jobs),
                          lambda: kdepth_influence(cache, [0], 2, jobs=jobs),
                          lambda: coalitional_influence(cache, [0], G, jobs=jobs)):
            with pytest.raises(ValueError, match="jobs must be >= 1"):
                influence()
        methods = [MethodConfig.parse(m) for m in ("complete", "kdepth:1")]
        with pytest.raises(ValueError, match="jobs must be >= 1"):
            run_benchmark([blob_dataset], methods, self.SPEC, jobs=jobs)
        assert forks == [] and cache.training_count == 0

    def test_interrupt_kills_and_reaps_every_worker(self, blob_dataset, forks, monkeypatch,
                                                    cpus):
        parent = os.getpid()

        def interrupted(*args):
            if os.getpid() == parent:
                raise KeyboardInterrupt
            time.sleep(60)  # a worker still growing its trees

        monkeypatch.setattr(coalex.influence, "tree_values", interrupted)
        cache, started = SubsetModelCache(self.SPEC, blob_dataset), time.perf_counter()
        with pytest.raises(KeyboardInterrupt):
            complete_influence(cache, [0, 1], [blob_dataset.class_target("hi")] * 2, jobs=3)
        assert time.perf_counter() - started < 30  # killed, not waited for
        assert len(forks) == 2
        self.assert_reaped(forks)
        assert cache.training_count == 0
        cpus.assert_unbound()

    @pytest.mark.parametrize("failure", ["raises", "dies", "exits-without-a-table"])
    def test_failed_worker_makes_the_parent_raise(self, blob_dataset, forks, monkeypatch,
                                                  capfd, cpus, failure):
        parent, real = os.getpid(), coalex.influence.tree_values

        def failing(*args):
            if os.getpid() != parent:
                if failure == "raises":
                    raise RuntimeError("worker fault")
                if failure == "dies":
                    os.kill(os.getpid(), signal.SIGKILL)
                os._exit(0)
            return real(*args)

        monkeypatch.setattr(coalex.influence, "tree_values", failing)
        cache = SubsetModelCache(self.SPEC, blob_dataset)
        with pytest.raises(RuntimeError, match="tree worker .* failed"):
            complete_influence(cache, [0, 1], [blob_dataset.class_target("hi")] * 2, jobs=2)
        self.assert_reaped(forks)
        assert cache.training_count == 0
        cpus.assert_unbound()
        if failure == "raises":  # the worker's own error reaches stderr
            assert "worker fault" in capfd.readouterr().err

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="no /proc/self/fd")
    def test_refused_fork_leaks_no_descriptor_and_reaps_the_first_worker(
            self, blob_dataset, forks, monkeypatch, cpus):
        recording = os.fork

        def second_refused():
            if forks:
                raise OSError(errno.EAGAIN, "fork refused")
            return recording()

        monkeypatch.setattr(os, "fork", second_refused)
        descriptors = len(os.listdir("/proc/self/fd"))
        cache = SubsetModelCache(self.SPEC, blob_dataset)
        with pytest.raises(OSError, match="fork refused"):
            complete_influence(cache, [0, 1], [blob_dataset.class_target("hi")] * 2, jobs=3)
        assert len(os.listdir("/proc/self/fd")) == descriptors
        assert len(forks) == 1
        self.assert_reaped(forks)
        assert cache.training_count == 0
        cpus.assert_unbound()

    def test_no_worker_off_the_only_thread_or_without_fork(self, blob_dataset, forks,
                                                           monkeypatch, cpus):
        _, serial = self.influence(blob_dataset)
        in_thread = []
        thread = threading.Thread(target=lambda: in_thread.append(self.influence(blob_dataset, 2)))
        thread.start()
        thread.join(timeout=60)
        assert not thread.is_alive()
        monkeypatch.delattr(os, "fork")
        assert in_thread[0][1] == self.influence(blob_dataset, 2)[1] == serial
        assert forks == [] and cpus.calls() == []

    def test_benchmark_forks_for_every_forest_cell(self, blob_dataset, forks):
        methods = [MethodConfig.parse(m) for m in ("complete", "kdepth:1", "kdepth:2",
                                                   "coalitional:spearman:t=0.3")]
        untimed = lambda records: [replace(r, time_per_instance_s=0.0, time_ratio_vs_complete=0.0)
                                   for r in records]
        serial = run_benchmark([blob_dataset], methods, self.SPEC, jobs=1)
        assert forks == []
        forked = run_benchmark([blob_dataset], methods, self.SPEC, jobs=2)
        assert len(forks) == 1 + 3  # the exact baseline, then one worker per method cell
        self.assert_reaped(forks)
        assert untimed(forked) == untimed(serial)


class TestInfluenceVector:
    def test_rejects_non_finite(self, blob_dataset):
        with pytest.raises(ValueError):
            InfluenceVector((math.nan,), 0, blob_dataset.class_target("hi"), "complete")

    def test_json_shape(self, blob_dataset):
        cache = SubsetModelCache(SPEC, blob_dataset)
        [v] = kdepth_influence(cache, [0], 1, [blob_dataset.class_target("hi")])
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
