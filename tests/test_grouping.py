import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings, strategies as st

from coalex import (
    AttributeSubset,
    Coalition,
    ComplexityReport,
    ModelSpec,
    SubsetModelCache,
    closure,
    find_threshold,
    group_model_based,
    group_pca,
    group_rev_spearman,
    group_rev_vif,
    group_spearman,
    group_vif,
    make_synthetic_dataset,
    normalize,
    train,
)
import coalex.complexity
import coalex.grouping
from coalex.grouping import (
    GROUPING_METHODS,
    groups_from_correlation,
    groups_from_correlation_reversed,
    groups_from_loadings,
    pca_loadings,
    spearman_matrix,
    standardized_features,
    vif_all,
)
from coalex.model import TrainedModelHandle

from conftest import coalition_from, dataset_from, index_sets, members


def binary_labels(m, rng):
    return rng.integers(0, 2, size=m).tolist()


def orthogonal_dataset(m=120, n=5, seed=17):
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.normal(size=(m, n)))
    return dataset_from(q, binary_labels(m, rng), name="ortho")


def axis_dataset(n=4):
    """Disjoint-support columns: the standardized covariance is exactly diagonal."""
    m = 4 * n
    X = np.zeros((m, n))
    for j in range(n):
        X[4 * j: 4 * j + 4, j] = [1.0, -1.0, 1.0, -1.0]
    labels = [0, 1] * (m // 2)
    return dataset_from(X, labels, name="axes")


class TestSpearmanMatrix:
    def test_affine_transform_is_one(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=80)
        d = dataset_from(np.column_stack([x, 2 * x + 1]), binary_labels(80, rng))
        c = spearman_matrix(d)
        assert c[0, 1] == pytest.approx(1.0, abs=1e-12)

    def test_monotone_decreasing_cube_is_one(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=80)
        d = dataset_from(np.column_stack([x, -x ** 3]), binary_labels(80, rng))
        c = spearman_matrix(d)
        assert c[0, 1] == pytest.approx(1.0, abs=1e-12)

    def test_independent_columns_low(self):
        rng = np.random.default_rng(3)
        d = dataset_from(rng.uniform(size=(200, 2)), binary_labels(200, rng))
        assert spearman_matrix(d)[0, 1] < 0.2

    def test_constant_column_zeroed_but_diagonal_one(self):
        rng = np.random.default_rng(4)
        X = np.column_stack([rng.normal(size=30), np.full(30, 2.0)])
        d = dataset_from(X, binary_labels(30, rng))
        c = spearman_matrix(d)
        assert c[0, 1] == 0.0 and c[1, 0] == 0.0
        assert c[0, 0] == 1.0 and c[1, 1] == 1.0

    def test_symmetric_unit_diagonal_exactly(self):
        rng = np.random.default_rng(5)
        d = dataset_from(rng.normal(size=(50, 4)), binary_labels(50, rng))
        c = spearman_matrix(d)
        np.testing.assert_array_equal(c, c.T)
        np.testing.assert_array_equal(np.diag(c), np.ones(4))

    @pytest.mark.parametrize("seed", [6, 60, 600])
    def test_matches_scipy_with_ties(self, seed):
        rng = np.random.default_rng(seed)
        X = np.column_stack([
            rng.integers(0, 4, size=60).astype(float),  # heavy ties
            rng.integers(0, 3, size=60).astype(float),
            rng.normal(size=60),
            rng.integers(-1, 2, size=60).astype(float),
        ])
        d = dataset_from(X, binary_labels(60, rng))
        ours = spearman_matrix(d)
        reference = np.abs(scipy.stats.spearmanr(X).statistic)
        np.testing.assert_allclose(ours, reference, atol=1e-12)

    def test_requires_two_rows(self):
        d = dataset_from([[1.0, 2.0]], ["p"])
        with pytest.raises(ValueError, match="2 instances"):
            spearman_matrix(d)


def r_squared_by_normal_equations(X, target_col):
    """Independent OLS oracle: solve the gram system explicitly."""
    y = X[:, target_col]
    others = np.delete(X, target_col, axis=1)
    design = np.column_stack([np.ones(X.shape[0]), others])
    gram = design.T @ design
    beta = np.linalg.pinv(gram) @ design.T @ y
    resid = y - design @ beta
    ss_tot = np.sum((y - y.mean()) ** 2)
    return 1.0 - resid @ resid / ss_tot


class TestVif:
    def test_orthogonal_columns_near_one(self):
        d = orthogonal_dataset()
        np.testing.assert_allclose(vif_all(d), 1.0, atol=1e-3)

    def test_exact_collinearity_hits_cap(self):
        rng = np.random.default_rng(7)
        a0, a1 = rng.normal(size=200), rng.normal(size=200)
        d = dataset_from(np.column_stack([a0, a1, a0 + a1]), binary_labels(200, rng))
        v = vif_all(d)
        assert v[2] == 1e6 and v[0] == 1e6 and v[1] == 1e6

    def test_independent_column_below_ten(self):
        rng = np.random.default_rng(8)
        z = rng.normal(size=300)
        X = np.column_stack([z + 0.1 * rng.normal(size=300),
                             z + 0.1 * rng.normal(size=300),
                             rng.normal(size=300)])
        d = dataset_from(X, binary_labels(300, rng))
        v = vif_all(d)
        assert v[0] > 10 and v[1] > 10  # the collinear pair
        assert v[2] < 10

    def test_matches_normal_equation_oracle(self):
        rng = np.random.default_rng(9)
        X = rng.normal(size=(120, 4))
        X[:, 3] = 0.7 * X[:, 0] + 0.4 * rng.normal(size=120)
        d = dataset_from(X, binary_labels(120, rng))
        got = vif_all(d)
        for a in range(4):
            r2 = r_squared_by_normal_equations(X, a)
            assert got[a] == pytest.approx(1.0 / (1.0 - r2), rel=1e-8)

    def test_never_below_one(self):
        rng = np.random.default_rng(10)
        for trial in range(5):
            X = rng.normal(size=(30, 3))
            d = dataset_from(X, binary_labels(30, rng))
            assert (vif_all(d) >= 1.0 - 1e-9).all()

    def test_subset_argument(self):
        rng = np.random.default_rng(11)
        X = rng.normal(size=(50, 4))
        d = dataset_from(X, binary_labels(50, rng))
        s = AttributeSubset.from_indices([0, 2, 3], 4)
        v = vif_all(d, s)
        assert v.shape == (3,)

    def test_constant_column_gets_one(self):
        rng = np.random.default_rng(12)
        X = np.column_stack([np.full(40, 5.0), rng.normal(size=40)])
        d = dataset_from(X, binary_labels(40, rng))
        assert vif_all(d)[0] == 1.0


class TestPcaLoadings:
    def test_perfectly_correlated_pair(self):
        rng = np.random.default_rng(13)
        x = rng.normal(size=100)
        d = dataset_from(np.column_stack([x, 3 * x]), binary_labels(100, rng))
        L = pca_loadings(d)
        assert abs(abs(L[0, 0]) - abs(L[0, 1])) < 1e-9  # equal-magnitude loadings
        # second component explains nothing: its variance along the data is ~0
        Z = standardized_features(d)
        second_var = np.var(Z @ L[1], ddof=1)
        assert second_var < 1e-18

    def test_identity_covariance_gives_axes(self):
        d = axis_dataset(n=4)
        L = np.abs(pca_loadings(d))
        # every component is an axis vector, each axis used exactly once
        assert np.allclose(np.sort(L, axis=1)[:, :-1], 0.0)
        np.testing.assert_allclose(L.sum(axis=0), np.ones(4), atol=1e-12)

    def test_eigenvalue_sum_equals_trace(self):
        rng = np.random.default_rng(15)
        d = dataset_from(rng.normal(size=(60, 5)) @ rng.normal(size=(5, 5)),
                         binary_labels(60, rng))
        Z = standardized_features(d)
        cov = np.cov(Z, rowvar=False)
        eigvals = np.linalg.eigvalsh(cov)
        assert eigvals.sum() == pytest.approx(np.trace(cov), abs=1e-9)
        # loadings are orthonormal
        L = pca_loadings(d)
        np.testing.assert_allclose(L @ L.T, np.eye(5), atol=1e-9)


class TestPcaGrouping:
    def test_published_component_example(self):
        # components over (A, B, C, D); reproducing the documented grouping
        # requires t ~ 0.7, above the public range, so the kernel is used.
        L = np.array([
            [0.1, -0.4, 0.25, 0.65],
            [0.5, 0.3, 0.1, -0.1],
        ])
        groups = groups_from_loadings(L, 0.7)
        assert groups == [{1, 2, 3}, {0, 1}]
        G = normalize(groups, 4)
        assert index_sets(G) == [(0, 1), (1, 2, 3)]

    def test_tiny_threshold_keeps_top_loading_only(self):
        L = np.array([[0.9, 0.5, 0.1], [0.2, 0.8, 0.3]])
        assert groups_from_loadings(L, 0.01) == [{0}, {1}]

    def test_identity_covariance_all_singletons(self):
        d = axis_dataset(n=4)
        for t in (0.05, 0.25, 0.45):
            assert index_sets(group_pca(d, t)) == [(0,), (1,), (2,), (3,)]

    def test_threshold_range_enforced(self):
        d = orthogonal_dataset()
        for bad in (0.0, 0.5, -0.1, 0.7):
            with pytest.raises(ValueError, match="threshold"):
                group_pca(d, bad)


class TestVifGrouping:
    def test_sum_structure_groups_abc_and_singleton_d(self):
        # a0 = a1 + a2 exactly; a3 independent: removing any of the first
        # three collapses the others' capped VIFs, removing a3 changes nothing
        rng = np.random.default_rng(18)
        a1, a2 = rng.normal(size=250), rng.normal(size=250)
        X = np.column_stack([a1 + a2, a1, a2, rng.normal(size=250)])
        d = dataset_from(X, binary_labels(250, rng))
        G = group_vif(d, 0.2)
        assert index_sets(G) == [(0, 1, 2), (3,)]

    def test_orthogonal_all_singletons(self):
        d = orthogonal_dataset()
        for t in (0.05, 0.25, 0.45):
            assert index_sets(group_vif(d, t)) == [(i,) for i in range(5)]

    def test_duplicate_pair_plus_independent(self):
        rng = np.random.default_rng(19)
        x = rng.normal(size=200)
        X = np.column_stack([x, x, rng.normal(size=200)])
        d = dataset_from(X, binary_labels(200, rng))
        G = group_vif(d, 0.2)
        assert index_sets(G) == [(0, 1), (2,)]

    def test_single_attribute(self):
        rng = np.random.default_rng(20)
        d = dataset_from(rng.normal(size=(30, 1)), binary_labels(30, rng))
        assert index_sets(group_vif(d, 0.2)) == [(0,)]
        assert index_sets(group_rev_vif(d, 0.2)) == [(0,)]
        assert index_sets(group_spearman(d, 0.2)) == [(0,)]
        assert index_sets(group_rev_spearman(d, 0.2)) == [(0,)]
        assert index_sets(group_pca(d, 0.2)) == [(0,)]


class TestRevVifGrouping:
    def test_orthogonal_gives_large_groups(self):
        d = orthogonal_dataset()
        G = group_rev_vif(d, 0.2)
        assert max(g.size for g in G.groups) == 5  # everything rides along

    def test_duplicates_not_grouped_together(self):
        # pure duplicate pair: removing one collapses the other's VIF from the
        # cap to 1, far below the membership bound, so both stay singletons
        rng = np.random.default_rng(21)
        x = rng.normal(size=200)
        d = dataset_from(np.column_stack([x, x]), binary_labels(200, rng))
        G = group_rev_vif(d, 0.3)
        assert index_sets(G) == [(0,), (1,)]

    def test_group_sizes_non_decreasing_in_t(self):
        rng = np.random.default_rng(22)
        d = dataset_from(rng.normal(size=(80, 5)) @ rng.normal(size=(5, 5)),
                         binary_labels(80, rng))
        sizes = []
        for t in np.linspace(0.02, 0.48, 12):
            G = group_rev_vif(d, float(t))
            sizes.append(sum(g.size for g in G.groups))
        assert all(a <= b for a, b in zip(sizes, sizes[1:]))


class TestSpearmanGrouping:
    def test_published_chain_example(self):
        corr = np.array([
            [1.0, 0.8, 0.2, 0.1],
            [0.8, 1.0, 0.75, 0.1],
            [0.2, 0.75, 1.0, 0.7],
            [0.1, 0.1, 0.7, 1.0],
        ])
        raw = groups_from_correlation(corr, 0.3)
        assert raw == [{0, 1}, {0, 1, 2}, {1, 2, 3}, {2, 3}]
        G = normalize(raw, 4)
        assert index_sets(G) == [(0, 1, 2), (1, 2, 3)]

    def test_all_weak_rows_are_singletons(self):
        corr = np.full((3, 3), 0.05)
        np.fill_diagonal(corr, 1.0)
        assert groups_from_correlation(corr, 0.4) == [{0}, {1}, {2}]

    def test_duplicated_column_always_grouped(self):
        rng = np.random.default_rng(23)
        x = rng.normal(size=100)
        X = np.column_stack([x, x, rng.normal(size=100)])
        d = dataset_from(X, binary_labels(100, rng))
        for t in np.linspace(0.01, 0.49, 20):
            G = group_spearman(d, float(t))
            assert any({0, 1} <= set(g.indices()) for g in G.groups)


class TestRevSpearmanGrouping:
    def test_all_strong_rows_are_singletons(self):
        corr = np.array([
            [1.0, 0.9, 0.8],
            [0.9, 1.0, 0.85],
            [0.8, 0.85, 1.0],
        ])
        assert groups_from_correlation_reversed(corr, 0.3) == [{0}, {1}, {2}]

    def test_independent_attribute_joins_every_group(self):
        rng = np.random.default_rng(24)
        z = rng.normal(size=300)
        X = np.column_stack([
            z + 0.2 * rng.normal(size=300),
            z + 0.2 * rng.normal(size=300),
            z + 0.2 * rng.normal(size=300),
            rng.normal(size=300),
        ])
        d = dataset_from(X, binary_labels(300, rng))
        raw = groups_from_correlation_reversed(spearman_matrix(d), 0.2)
        for g in raw:
            assert 3 in g

    def test_group_sizes_non_decreasing_in_t(self):
        d = make_synthetic_dataset(6, 80, seed=5)
        sizes = []
        for t in np.linspace(0.02, 0.48, 12):
            G = group_rev_spearman(d, float(t))
            sizes.append(sum(g.size for g in G.groups))
        assert all(a <= b for a, b in zip(sizes, sizes[1:]))


class TestNormalize:
    def test_contained_group_dropped(self):
        G = normalize([{0, 1}, {0, 1, 2}], 4)
        assert index_sets(G) == [(0, 1, 2), (3,)]

    def test_empty_input_completes_singletons(self):
        assert index_sets(normalize([], 3)) == [(0,), (1,), (2,)]

    def test_duplicates_collapse(self):
        assert index_sets(normalize([{0}, {0}], 1)) == [(0,)]

    def test_overlapping_but_not_contained_kept(self):
        G = normalize([{0, 1}, {1, 2}], 3)
        assert index_sets(G) == [(0, 1), (1, 2)]

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.sets(st.integers(min_value=0, max_value=5)), max_size=6),
           st.integers(min_value=6, max_value=6))
    def test_properties(self, raw, n):
        G = normalize(raw, n)
        assert set().union(*index_sets(G)) == set(range(n))
        for g in G.groups:
            for h in G.groups:
                assert g == h or g.mask & ~h.mask
        again = normalize(G.groups, n)
        assert again.groups == G.groups

    def test_closure_invariant_under_normalization(self):
        raw = [{0, 1}, {0, 1, 2}, {3}, {2, 3}]
        pre = coalition_from(raw, 5)
        post = normalize(raw, 5)
        completed = closure(coalition_from(raw + [[4]], 5))
        normalized = closure(normalize(raw + [[4]], 5))
        assert members(completed, 5) == members(normalized, 5)
        assert len(completed) == len(normalized)
        # singleton completion only adds
        assert members(closure(post), 5) >= members(closure(pre), 5)
        assert len(closure(post)) >= len(closure(pre))


class TestMonotonicity:
    def test_closure_non_decreasing_over_threshold_grid(self):
        d = make_synthetic_dataset(7, 70, seed=1)
        grid = np.linspace(0.015, 0.485, 20)
        for name, fn in GROUPING_METHODS.items():
            sizes = [len(closure(fn(d, float(t)))) for t in grid]
            assert all(a <= b for a, b in zip(sizes, sizes[1:])), \
                f"{name} complexity not monotone: {sizes}"


def fidelity(d, model, partition, repetitions, seed):
    """Fraction of instances whose predicted class survives randomizing ``partition``:
    its groups of two or more attributes swap jointly with a same-class donor, its
    singletons with uniformly random instances."""
    return coalex.grouping._randomized_fidelity(d, model, model.predict_classes(d.features),
                                                *split(partition), repetitions, seed)


@pytest.fixture
def one_round_per_call(monkeypatch):
    """Each fidelity round predicted in its own call, as for a table of ROUND_ROWS rows or more."""
    monkeypatch.setattr(coalex.grouping, "ROUND_ROWS", 1)


class TestFidelity:
    def test_full_group_perfect_for_deterministic_model(self, blob_dataset):
        d = blob_dataset
        h = train(ModelSpec(kind="decision_tree"), d, AttributeSubset.full(3))
        # exhaustive donor check: swapping the whole row with any same-class
        # donor reproduces the donor's (equal) predicted class
        pred = h.predict_classes(d.features)
        for i in range(d.n_instances):
            for j in np.flatnonzero(pred == pred[i]):
                assert h.predict_classes(d.features[[j]])[0] == pred[i]
        assert fidelity(d, h, [(0, 1, 2)], repetitions=3, seed=2) == 1.0

    def test_prior_baseline_fidelity_one(self, blob_dataset):
        d = blob_dataset
        h = train(ModelSpec(kind="prior_baseline"), d, AttributeSubset.full(3))
        for grouping in ([(0,), (1,), (2,)], [(0, 1), (2,)], [(0, 1, 2)]):
            assert fidelity(d, h, grouping, repetitions=2, seed=0) == 1.0

    def test_reproducible(self, blob_dataset):
        d = blob_dataset
        h = train(ModelSpec(kind="decision_tree"), d, AttributeSubset.full(3))
        a = fidelity(d, h, [(0, 1), (2,)], repetitions=1, seed=9)
        b = fidelity(d, h, [(0, 1), (2,)], repetitions=1, seed=9)
        assert a == b
        c = fidelity(d, h, [(0, 1), (2,)], repetitions=1, seed=10)
        assert a != c or True  # different seed may legitimately coincide

    def test_single_member_class_donates_to_itself(self, separable2):
        # each predicted class has exactly one member, so joint swaps always
        # reuse the instance's own row
        h = train(ModelSpec(kind="decision_tree"), separable2, AttributeSubset.full(1))
        assert fidelity(separable2, h, [(0,)], repetitions=2, seed=0) <= 1.0
        rng_free = fidelity(separable2, h, [(0,)], repetitions=50, seed=1)
        assert 0.0 < rng_free < 1.0  # uniform donors do flip predictions

    def test_rejects_zero_repetitions(self, blob_dataset):
        d = blob_dataset
        h = train(ModelSpec(kind="decision_tree"), d, AttributeSubset.full(3))
        with pytest.raises(ValueError, match="repetitions must be >= 1"):
            fidelity(d, h, [(0, 1), (2,)], repetitions=0, seed=0)


@pytest.mark.usefixtures("one_round_per_call")
class TestFidelityOneRoundPerCall(TestFidelity):
    """The same fidelity checks with one round per prediction call."""


def loop_fidelity(d, model, class_groups, uniform_attrs, repetitions, seed):
    """Reference: the per-row loop with one scalar draw per donor."""
    X = d.features
    m = X.shape[0]
    pred = model.predict_classes(X)
    members_by_class = {c: np.flatnonzero(pred == c) for c in np.unique(pred)}
    group_cols = [np.array(g, dtype=np.intp) for g in sorted(tuple(sorted(g)) for g in class_groups)]
    free_cols = np.array(sorted(uniform_attrs), dtype=np.intp)
    scores = []
    for r in range(repetitions):
        rng = np.random.default_rng([seed, r])
        randomized = np.empty_like(X)
        for i in range(m):
            same_class = members_by_class[pred[i]]
            for g in group_cols:
                donor = same_class[rng.integers(0, same_class.shape[0])]
                randomized[i, g] = X[donor, g]
            for a in free_cols:
                randomized[i, a] = X[rng.integers(0, m), a]
        new_pred = model.predict_classes(randomized)
        scores.append(float(np.mean(new_pred == pred)))
    return float(np.mean(scores))


class CutModel:
    """Predicts class 0, 1 or 2 from a row sum against two cut points."""

    def __init__(self, cuts):
        self.cuts = cuts

    def predict_classes(self, X):
        return np.digitize(np.asarray(X).sum(axis=1), self.cuts)


def three_class_dataset(m=60, n=5, seed=3):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(m, n))
    X[:, 1] += X[:, 0]
    labels = np.digitize(X[:, 0] + X[:, 2], [-0.5, 0.5]).tolist()
    return dataset_from(X, labels, name="three")


PARTITIONS = [pytest.param(p, id=name) for name, p in (
    ("singletons", [[i] for i in range(5)]), ("full", [list(range(5))]),
    ("mixed", [[0, 1], [2], [3, 4]]), ("pairs", [[0, 3], [1, 2, 4]]))]


def split(partition):
    """The class groups and the free attributes of a partition."""
    return [g for g in partition if len(g) >= 2], [g[0] for g in partition if len(g) == 1]


class TestFidelityMatchesLoop:
    """The one-call-per-round draws equal the per-row loop's scalar draws, bit for bit."""

    @pytest.mark.parametrize("seed", [0, 1, 7, 12345])
    @pytest.mark.parametrize("partition", PARTITIONS)
    def test_fidelity_three_classes(self, seed, partition):
        d = three_class_dataset()
        h = train(ModelSpec(kind="decision_tree", max_depth=3), d, AttributeSubset.full(5))
        assert len(np.unique(h.predict_classes(d.features))) == 3
        want = loop_fidelity(d, h, *split(partition), 4, seed)
        assert fidelity(d, h, partition, repetitions=4, seed=seed) == want

    @pytest.mark.parametrize("partition", PARTITIONS)
    def test_fidelity_with_a_single_member_class(self, partition):
        d = three_class_dataset(seed=5)
        sums = np.sort(d.features.sum(axis=1))
        model = CutModel([float(sums[d.n_instances // 2]), float(sums[-1])])
        counts = np.bincount(model.predict_classes(d.features), minlength=3)
        assert counts[2] == 1
        for seed in (0, 3):
            want = loop_fidelity(d, model, *split(partition), 3, seed)
            assert fidelity(d, model, partition, repetitions=3, seed=seed) == want

    @pytest.mark.parametrize("seed", [0, 2, 9])
    @pytest.mark.parametrize("data", ["blob", "three"])
    def test_group_model_based(self, monkeypatch, blob_dataset, seed, data):
        d = blob_dataset if data == "blob" else three_class_dataset()
        spec = ModelSpec(kind="random_forest", tree_count=3, max_depth=3, seed=seed)
        real = coalex.grouping._randomized_fidelity
        pairs = []

        def both(d, model, pred, class_groups, uniform, repetitions, seed):
            got = real(d, model, pred, class_groups, uniform, repetitions, seed)
            want = loop_fidelity(d, model, class_groups, uniform, repetitions, seed)
            pairs.append((got, want))
            return want

        with monkeypatch.context() as patched:
            patched.setattr(coalex.grouping, "_randomized_fidelity", both)
            G_loop = group_model_based(SubsetModelCache(spec, d), delta=0.02, repetitions=3,
                                       seed=seed)
        assert len(pairs) > 1
        assert all(got == want for got, want in pairs)
        assert group_model_based(SubsetModelCache(spec, d), delta=0.02, repetitions=3,
                                 seed=seed) == G_loop


@pytest.mark.usefixtures("one_round_per_call")
class TestFidelityMatchesLoopOneRoundPerCall(TestFidelityMatchesLoop):
    """The same loop comparisons with one round per prediction call."""


class TestScorePrimitivesStayVisible:
    """A threshold search reaches each score primitive, and the closure it prices,
    through its module attribute, and model-based grouping predicts through the
    handle's class attribute, so a wrapper installed there (as a tracer does)
    sees the calls."""

    @pytest.mark.parametrize("method, primitive", [
        ("vif", "vif_all"), ("rev_vif", "vif_all"), ("spearman", "spearman_matrix"),
        ("rev_spearman", "spearman_matrix"), ("pca", "pca_loadings"),
    ])
    def test_wrapped_primitive_sees_calls(self, monkeypatch, method, primitive):
        calls = {name: 0 for name in ("vif_all", "spearman_matrix", "pca_loadings")}
        for name in calls:
            original = getattr(coalex.grouping, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(coalex.grouping, name, counted)
        find_threshold(method, make_synthetic_dataset(6, 60, seed=3), 0.25)
        assert calls[primitive] >= 1
        assert sum(calls.values()) == calls[primitive]

    def test_wrapped_closure_sees_every_pricing(self, monkeypatch):
        calls = []
        real = coalex.complexity.closure
        monkeypatch.setattr(coalex.complexity, "closure", lambda G: calls.append(G) or real(G))
        result = find_threshold("spearman", make_synthetic_dataset(6, 60, seed=3), 0.25)
        assert len(calls) == result.probe_count  # one pricing per probe
        ComplexityReport.from_coalition(result.coalition)
        assert len(calls) == result.probe_count + 1

    def test_wrapped_predict_classes_sees_every_row(self, monkeypatch):
        rows = []
        real = TrainedModelHandle.predict_classes
        monkeypatch.setattr(TrainedModelHandle, "predict_classes",
                            lambda self, X: rows.append(len(X)) or real(self, X))
        spec = ModelSpec(kind="random_forest", tree_count=3, max_depth=3, seed=9)

        def grouped_rows_calls():
            rows.clear()
            G = group_model_based(SubsetModelCache(spec, three_class_dataset()), delta=0.1,
                                  repetitions=3, seed=9)
            return index_sets(G), sum(rows), len(rows)

        # 4,740 rows either way: the three rounds of an estimate in one call, or one per call
        assert grouped_rows_calls() == ([(0, 3), (1, 4), (2,)], 4740, 27)
        monkeypatch.setattr(coalex.grouping, "ROUND_ROWS", 1)
        assert grouped_rows_calls() == ([(0, 3), (1, 4), (2,)], 4740, 79)


class TestModelBasedGrouping:
    def test_stump_isolates_its_attribute(self, blob_dataset):
        # the model only reads a0: within-class swaps of a0 preserve every
        # prediction, so a0 survives alone and the noise attributes fall out
        spec = ModelSpec(kind="decision_tree", max_depth=1, seed=0)
        G = group_model_based(SubsetModelCache(spec, blob_dataset), delta=0.1, repetitions=5,
                              seed=1)
        assert (0,) in index_sets(G)

    def test_prior_baseline_all_singletons(self, blob_dataset):
        # constant predictor: the all-singletons baseline fidelity is already
        # 1.0, the bar 1.0 + delta is unreachable, the first branch fires
        spec = ModelSpec(kind="prior_baseline", seed=0)
        G = group_model_based(SubsetModelCache(spec, blob_dataset), delta=0.05, repetitions=3,
                              seed=0)
        assert index_sets(G) == [(0,), (1,), (2,)]

    def test_deterministic(self, blob_dataset):
        spec = ModelSpec(kind="decision_tree", max_depth=2, seed=3)
        a = group_model_based(SubsetModelCache(spec, blob_dataset), delta=0.1, repetitions=4,
                              seed=6)
        b = group_model_based(SubsetModelCache(spec, blob_dataset), delta=0.1, repetitions=4,
                              seed=6)
        assert a.groups == b.groups

    def test_delta_validated(self, blob_dataset):
        for delta in (0.0, -0.1, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="delta"):
                group_model_based(SubsetModelCache(ModelSpec(kind="decision_tree"),
                                                   blob_dataset), delta=delta)

    def test_repetitions_validated(self, blob_dataset):
        cache = SubsetModelCache(ModelSpec(kind="decision_tree"), blob_dataset)
        with pytest.raises(ValueError, match="repetitions must be >= 1"):
            group_model_based(cache, delta=0.1, repetitions=0)

    def test_uses_cache_for_full_model(self, blob_dataset):
        spec = ModelSpec(kind="decision_tree", max_depth=1, seed=0)
        cache = SubsetModelCache(spec, blob_dataset)
        group_model_based(cache, delta=0.1, repetitions=2, seed=0)
        assert cache.training_count == 1
        assert AttributeSubset.full(3) in cache


class TestCoalitionType:
    def test_canonical_order_and_dedup(self):
        G = coalition_from([[2, 1], [0], [1, 2]], 3)
        assert index_sets(G) == [(0,), (1, 2)]

    def test_rejects_empty_group(self):
        with pytest.raises(ValueError, match="non-empty"):
            Coalition((AttributeSubset(0, 3),), 3)

    def test_json_with_names(self):
        d = dataset_from([[0.0, 1.0, 2.0]], ["p"], names=("x", "y", "z"))
        G = coalition_from([[0, 2], [1]], 3)
        doc = G.to_json(d, method="spearman")
        assert doc == {"groups": [["x", "z"], ["y"]], "method": "spearman"}
