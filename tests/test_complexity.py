from dataclasses import asdict
from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from coalex import (
    AttributeSubset,
    ComplexityReport,
    ModelSpec,
    SubsetModelCache,
    closure,
    coalitional_influence,
    complexity_proportion,
    find_threshold,
    group_spearman,
    make_synthetic_dataset,
    normalize,
)
import coalex.grouping
from coalex.complexity import BISECTION_EPS, BISECTION_MAX_PROBES, BISECTION_TOL
from coalex.grouping import GROUPING_METHODS

from conftest import coalition_from, dataset_from, full_group, members, singletons


def masks_of(subsets):
    return {sum(1 << i for i in s) for s in subsets}


def brute_force_closure(groups, n):
    """Independent enumeration: non-empty subsets of each group, plus singletons."""
    out = set()
    for g in groups:
        members = sorted(g)
        for r in range(1, len(members) + 1):
            out.update(frozenset(c) for c in combinations(members, r))
    out.update(frozenset([i]) for i in range(n))
    return out


class TestClosure:
    def test_singletons_is_linear_cost(self):
        G = singletons(7)
        assert len(closure(G)) == 7

    def test_full_group_is_complete_cost(self):
        G = full_group(7)
        assert len(closure(G)) == 127

    def test_two_overlapping_triples(self):
        # brute-force enumeration of both power sets plus singletons, dedup
        groups = [{0, 1, 2}, {1, 2, 3}]
        oracle = brute_force_closure(groups, 4)
        G = coalition_from(groups, 4)
        got = closure(G)
        assert members(got, 4) == masks_of(oracle)
        assert len(got) == len(oracle) == 11

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.sets(st.integers(min_value=0, max_value=5), min_size=1),
                    min_size=0, max_size=5))
    def test_matches_brute_force(self, groups):
        n = 6
        G = normalize(groups, n)
        oracle = masks_of(brute_force_closure([set(g.indices()) for g in G.groups], n))
        assert len(closure(G)) == len(oracle)
        assert members(closure(G), n) == oracle

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.sets(st.integers(min_value=0, max_value=5), min_size=1),
                    min_size=1, max_size=5))
    def test_invariant_under_normalization(self, groups):
        n = 6
        pre = coalition_from(groups, n)
        post = normalize(groups, n)
        # containment removal never changes the subset union; normalization may
        # only add singletons, all of which closure includes anyway
        want = members(closure(pre), n) | {1 << i for i in range(n)}
        assert len(closure(post)) == len(want)
        assert members(closure(post), n) == want

    def test_lower_bounds(self):
        G = coalition_from([[0, 1, 2, 3], [4]], 6)
        c = closure(G)
        assert len(c) >= 6
        assert len(c) >= 2 ** 4 - 1

    def test_contains_and_len(self):
        G = coalition_from([[0, 1]], 2)
        c = closure(G)
        assert AttributeSubset.from_indices([0, 1], 2).mask in c
        assert len(c) == 3 and members(c, 2) == {0b01, 0b10, 0b11}
        c = closure(coalition_from([[0, 1], [2]], 3))
        for mask in (3, np.int64(3), np.uint8(3), np.int64(4), np.array(2)):
            assert mask in c  # any integer, numpy's too
        for mask in (np.int64(5), np.uint8(0), 3.0, np.float64(3), "3", np.array([3])):
            assert mask not in c
        assert np.int64(1) in closure(coalition_from([[0, 70]], 71))
        assert (1 << 70) | 1 in closure(coalition_from([[0, 70]], 71))  # past bit 63

    @pytest.mark.parametrize("n", [10, 14])
    def test_all_but_one_attribute_groups(self, n):
        # n groups of n - 1 attributes: every subset but the full set, counted by
        # the nested inclusion-exclusion that each further group deepens
        G = coalition_from([[j for j in range(n) if j != i] for i in range(n)], n)
        assert len(closure(G)) == 2 ** n - 2
        assert (1 << n) - 1 not in closure(G) and (1 << n) - 2 in closure(G)


class TestClosureView:
    """The closure is counted from its maximal groups: its ``len`` and ``in`` must agree
    with the listed set, also for coalitions that were never normalized."""

    @settings(max_examples=300, deadline=None)
    @given(st.integers(min_value=1, max_value=9).flatmap(lambda n: st.tuples(
        st.just(n), st.lists(st.sets(st.integers(0, n - 1), min_size=1, max_size=4),
                             max_size=7))))
    @example((8, [{0, 1, 2}, {3, 4}, {5, 6}, {0, 7}]))  # {0, 7} meets only the first group
    def test_matches_brute_force(self, case):
        n, groups = case
        groups = groups + groups[:1]  # a duplicate group, when there is one
        c = closure(coalition_from(groups, n))
        oracle = masks_of(brute_force_closure(groups, n))
        assert len(c) == len(oracle)
        assert members(c, n) == oracle

    def test_forty_attributes_counted_without_listing(self):
        n = 40
        groups = [range(22),            # A: 22 attributes
                  range(18, 30),        # B overlaps A in 18..21
                  [0, 25, 30, 31, 32],  # C meets A in {0} and B in {25}
                  [1, 2], [5], [34]]    # contained in A, and singletons
        G = coalition_from(groups, n)
        # |D(A)| + |D(B) \ D(A)| + |D(C) \ (D(A) u D(B))| + the 7 uncovered attributes 33..39
        want = (2 ** 22 - 1) + (2 ** 12 - 2 ** 4) + (2 ** 5 - 1 - 2) + 7

        assert not hasattr(closure(G), "__iter__")
        assert len(closure(G)) == want
        assert complexity_proportion(G) == want / float(2 ** n - 1)
        r = ComplexityReport.from_coalition(G)
        assert (r.closure_size, r.complete_size) == (want, 2 ** n - 1)
        assert (1 << 22) - 1 in closure(G) and (1 << 22) | 1 not in closure(G)


class TestProportion:
    def test_singletons_n4(self):
        assert complexity_proportion(singletons(4)) == pytest.approx(4 / 15)

    def test_full_group_is_one(self):
        for n in (1, 3, 7):
            assert complexity_proportion(full_group(n)) == 1.0

    def test_always_in_unit_interval(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            n = int(rng.integers(1, 8))
            k = int(rng.integers(1, n + 1))
            groups = [set(rng.choice(n, size=rng.integers(1, n + 1), replace=False).tolist())
                      for _ in range(k)]
            p = complexity_proportion(normalize(groups, n))
            assert 0.0 < p <= 1.0


class TestComplexityReport:
    def test_fields(self):
        G = coalition_from([[0, 1, 2], [3]], 4)
        r = ComplexityReport.from_coalition(G)
        assert r.closure_size == 8  # 7 subsets of the triple + {3}
        assert r.complete_size == 15
        assert r.proportion == pytest.approx(8 / 15)
        assert r.group_count == 2
        assert r.mean_group_size == 2.0
        assert asdict(r)["closure_size"] == 8

    @pytest.mark.parametrize("index_sets, n, group_count, mean_group_size", [
        ([[i] for i in range(5)], 5, 5, 1.0),
        ([[0, 1, 2], [3]], 4, 2, 2.0),
        ([[0, 1, 2], [1, 2, 3]], 4, 2, 3.0),
    ], ids=["singletons", "triple_plus_singleton", "two_triples"])
    def test_group_stats(self, index_sets, n, group_count, mean_group_size):
        r = ComplexityReport.from_coalition(coalition_from(index_sets, n))
        assert (r.group_count, r.mean_group_size) == (group_count, mean_group_size)


def grid_scan(method, d, points=200):
    fn = GROUPING_METHODS[method]
    out = []
    for t in np.linspace(1e-4, 0.5 - 1e-4, points):
        out.append((float(t), complexity_proportion(fn(d, float(t)))))
    return out


class TestFindThreshold:
    def test_all_singleton_dataset_flagged_closest(self):
        # independent columns with m large enough that every row max stays
        # below the singleton cut-off: grouping is constant over t
        rng = np.random.default_rng(42)
        d = dataset_from(rng.normal(size=(2000, 9)), rng.integers(0, 2, 2000).tolist(),
                         name="indep9")
        scan = grid_scan("spearman", d, points=20)
        assert {round(p, 6) for _, p in scan} == {round(9 / 511, 6)}
        res = find_threshold("spearman", d, target=0.10)
        assert not res.converged
        assert res.achieved == pytest.approx(9 / 511)

    def test_fully_correlated_block_reaches_one(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=100)
        X = np.column_stack([x, 2 * x, x ** 3, x + 1.0])
        d = dataset_from(X, rng.integers(0, 2, 100).tolist(), name="block4")
        res = find_threshold("spearman", d, target=1.0)
        assert res.converged and res.achieved == 1.0

    def test_against_grid_scan_oracle(self):
        d = make_synthetic_dataset(7, 70, seed=9)
        res = find_threshold("spearman", d, target=0.25)
        scan = grid_scan("spearman", d)
        best_grid = min(abs(p - 0.25) for _, p in scan)
        if best_grid <= 0.02:
            assert res.converged
            assert abs(res.achieved - 0.25) <= 0.02
        else:
            assert not res.converged

    def test_self_consistency(self):
        # the returned proportion must reproduce exactly from the returned t
        d = make_synthetic_dataset(8, 80, seed=4)
        for method in ("vif", "spearman", "pca"):
            res = find_threshold(method, d, target=0.3)
            recomputed = complexity_proportion(GROUPING_METHODS[method](d, res.threshold))
            assert recomputed == res.achieved

    def test_validation(self):
        d = make_synthetic_dataset(4, 30, seed=0)
        with pytest.raises(ValueError, match="unknown grouping"):
            find_threshold("model_based", d, 0.5)
        with pytest.raises(ValueError, match="target"):
            find_threshold("pca", d, 0.0)
        with pytest.raises(ValueError, match="target"):
            find_threshold("pca", d, 1.5)


def reference_bisection(method, d, target):
    """The bisection with every probe computing its grouping's scores afresh."""
    lo, hi = BISECTION_EPS, 0.5 - BISECTION_EPS
    probes = []
    for _ in range(BISECTION_MAX_PROBES):
        mid = (lo + hi) / 2.0
        G = GROUPING_METHODS[method](d, mid)
        achieved = complexity_proportion(G)
        probes.append((mid, achieved, G))
        if abs(achieved - target) <= BISECTION_TOL:
            break
        if achieved < target:
            lo = mid
        else:
            hi = mid
    t, achieved, G = min(probes, key=lambda p: (abs(p[1] - target), p[0]))
    return t, achieved, G, len(probes)


class TestScoresOncePerSearch:
    @pytest.mark.parametrize("method", sorted(GROUPING_METHODS))
    @pytest.mark.parametrize("target", [0.1, 0.25, 0.6])
    def test_matches_reference_bisection(self, method, target):
        d = make_synthetic_dataset(8, 90, seed=11)
        res = find_threshold(method, d, target)
        assert (res.threshold, res.achieved, res.coalition, res.probe_count) == \
            reference_bisection(method, d, target)

    @pytest.mark.parametrize("method", ["vif", "rev_vif"])
    def test_vif_search_computes_scores_once(self, monkeypatch, method):
        calls = []
        original = coalex.grouping.vif_all

        def counted(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(coalex.grouping, "vif_all", counted)
        d = make_synthetic_dataset(7, 80, seed=5)
        res = find_threshold(method, d, 0.25)
        assert res.probe_count > 1
        assert len(calls) == d.n_attributes + 1


class TestTrainingEconomy:
    def test_coalitional_trainings_equal_closure_plus_baseline(self):
        d = make_synthetic_dataset(6, 50, seed=2)
        spec = ModelSpec(kind="decision_tree", max_depth=3, seed=0)
        G = group_spearman(d, 0.3)
        cache = SubsetModelCache(spec, d)
        target = d.class_target(d.labels[0])
        coalitional_influence(cache, range(5), G, [target] * 5)
        assert cache.training_count == len(closure(G)) + 1
