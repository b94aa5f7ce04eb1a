import json
import logging
import threading

import numpy as np
import pytest
from hypothesis import given, strategies as st

from coalex import (
    ConfigError,
    InfluenceVector,
    MethodConfig,
    ModelSpec,
    SubsetModelCache,
    complete_influence,
    coalitional_influence,
    error_score,
    influence_distance,
    kdepth_influence,
    make_synthetic_dataset,
    make_synthetic_suite,
    run_benchmark,
    write_benchmark_csv,
    write_benchmark_json,
)
import coalex.evaluation
from coalex.evaluation import CSV_COLUMNS
from coalex.grouping import spearman_matrix

from conftest import dataset_from, full_group

SPEC = ModelSpec(kind="decision_tree", max_depth=4, min_leaf=2, seed=0)


def vec(values, instance=0, target=None, tag="test"):
    d = dataset_from([[0.0] * len(values)], ["p"], class_set=("p", "q"))
    target = target or d.class_target("p")
    return InfluenceVector(tuple(values), instance, target, tag)


class TestInfluenceDistance:
    def test_identity_zero(self):
        v = vec([0.3, -0.2, 0.8])
        assert influence_distance(v, v) == 0.0

    def test_one_dimensional_closed_form(self):
        assert influence_distance(vec([1.0]), vec([0.0])) == 0.5

    def test_four_dimensional_closed_form(self):
        i = vec([0.1, -0.1, 0.2, 0.0])
        j = vec([0.0, 0.0, 0.0, 0.0])
        assert influence_distance(i, j) == pytest.approx(0.1, abs=1e-15)

    def test_accepts_plain_sequences(self):
        assert influence_distance([1.0], [0.0]) == 0.5

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="lengths"):
            influence_distance(vec([1.0]), vec([1.0, 2.0]))

    def test_metric_properties(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            n = int(rng.integers(1, 11))
            a, b, c = (rng.uniform(-1, 1, size=n) for _ in range(3))
            dab = influence_distance(a, b)
            dba = influence_distance(b, a)
            assert dab >= 0.0
            assert dab == dba
            assert influence_distance(a, c) <= dab + influence_distance(b, c) + 1e-12


class TestErrorScore:
    def test_zero_on_equal(self):
        v = vec([0.2, 0.3])
        assert error_score(v, v) == 0.0

    def test_full_group_coalitional_matches_complete(self, blob_dataset):
        d = blob_dataset
        cache = SubsetModelCache(SPEC, d)
        target = d.class_target("hi")
        [oracle] = complete_influence(cache, [0], [target])
        [approx] = coalitional_influence(cache, [0], full_group(3), [target])
        assert error_score(approx, oracle) <= 1e-12

    def test_linear_strictly_positive_on_interactions(self, xor4):
        spec = ModelSpec(kind="decision_tree", seed=0)  # must fit the 4-point XOR
        cache = SubsetModelCache(spec, xor4)
        target = xor4.class_target("p")
        [oracle] = complete_influence(cache, [0], [target])
        [linear] = kdepth_influence(cache, [0], 1, [target])
        assert error_score(linear, oracle) > 0.0

    def test_provenance_checked(self):
        a = vec([0.1], instance=0)
        b = vec([0.1], instance=1)
        with pytest.raises(ValueError, match="instances"):
            error_score(a, b)
        d = dataset_from([[0.0]], ["p"], class_set=("p", "q"))
        c1 = InfluenceVector((0.1,), 0, d.class_target("p"), "x")
        c2 = InfluenceVector((0.1,), 0, d.class_target("q"), "x")
        with pytest.raises(ValueError, match="classes"):
            error_score(c1, c2)


class TestSyntheticData:
    def test_deterministic(self):
        a = make_synthetic_dataset(5, 40, seed=1)
        b = make_synthetic_dataset(5, 40, seed=1)
        np.testing.assert_array_equal(a.features, b.features)
        assert a.labels == b.labels

    def test_two_classes_and_shape(self):
        d = make_synthetic_dataset(6, 50, seed=3)
        assert d.features.shape == (50, 6)
        assert len(d.class_set) == 2

    def test_neighbors_correlated(self):
        d = make_synthetic_dataset(6, 300, seed=4)
        c = spearman_matrix(d)
        assert c[0, 1] > 0.6 and c[1, 2] > 0.6

    def test_suite_shapes(self):
        suite = make_synthetic_suite(6, seed=2)
        assert len(suite) == 6
        for d in suite:
            assert 2 <= d.n_attributes <= 8
            assert 50 <= d.n_instances <= 120
        names = [d.name for d in suite]
        assert len(set(names)) == 6


class TestMethodConfigParse:
    def test_complete(self):
        mc = MethodConfig.parse("complete")
        assert mc.kind == "complete" and mc.method_id == "complete"

    def test_kdepth(self):
        mc = MethodConfig.parse("kdepth:3")
        assert mc.k == 3 and mc.param_label == "k=3"

    def test_coalitional_proportion(self):
        mc = MethodConfig.parse("coalitional:spearman:0.25")
        assert mc.grouping == "spearman" and mc.proportion == 0.25
        assert mc.method_id == "coalitional:spearman"
        assert mc.param_label == "p=0.25"

    def test_coalitional_threshold(self):
        mc = MethodConfig.parse("coalitional:vif:t=0.3")
        assert mc.threshold == 0.3 and mc.proportion is None

    def test_model_based_delta(self):
        mc = MethodConfig.parse("coalitional:modelbased:0.1")
        assert mc.grouping == "model_based" and mc.delta == 0.1

    def test_aliases(self):
        assert MethodConfig.parse("coalitional:revvif:0.5").grouping == "rev_vif"
        assert MethodConfig.parse("coalitional:rev-spearman:0.5").grouping == "rev_spearman"

    def test_errors(self):
        for bad in ("complete:1", "kdepth", "kdepth:x", "coalitional",
                    "coalitional:kmeans:0.2", "sampling", "coalitional:vif:a:b"):
            with pytest.raises(ConfigError):
                MethodConfig.parse(bad)

    def test_repetitions_below_one(self):
        with pytest.raises(ConfigError, match="repetitions must be >= 1"):
            MethodConfig("coalitional", grouping="model_based", delta=0.1, repetitions=0)

    @pytest.mark.parametrize("fields, message", [
        ({"grouping": "pca", "delta": 0.0}, "pca grouping has no delta; --delta unsupported"),
        ({"grouping": "spearman", "delta": float("nan")},
         "spearman grouping has no delta; --delta unsupported"),
        ({"grouping": "model_based", "delta": 0.1, "threshold": 0.3},
         "model_based grouping has no threshold; --t unsupported"),
        ({"grouping": "model_based", "delta": 0.1, "proportion": 0.5},
         "model_based grouping has no threshold; --proportion unsupported"),
        ({"kind": "complete", "k": 3}, "complete has no depth; --k unsupported"),
        ({"grouping": "vif", "k": 3}, "vif grouping has no depth; --k unsupported"),
        ({"kind": "kdepth", "k": 2, "threshold": 0.3}, "kdepth has no threshold; --t unsupported"),
        ({"kind": "complete", "proportion": 0.5},
         "complete has no threshold; --proportion unsupported"),
        ({"kind": "kdepth", "k": 2, "delta": 0.1}, "kdepth has no delta; --delta unsupported"),
        ({"grouping": "vif", "threshold": 0.7}, "threshold must lie in (0, 0.5), got 0.7"),
        ({"grouping": "vif", "threshold": 0.0}, "threshold must lie in (0, 0.5), got 0.0"),
        ({"grouping": "pca", "proportion": 1.5}, "target proportion must lie in (0, 1], got 1.5"),
        ({"grouping": "pca", "proportion": float("nan")},
         "target proportion must lie in (0, 1], got nan"),
        ({"grouping": "pca", "threshold": 0.2, "proportion": 0.5},
         "--t and --proportion are mutually exclusive"),
        ({"grouping": "model_based"},
         "model_based grouping needs a delta > 0: --delta 0.1 or coalitional:model_based:0.1"),
        ({"grouping": "model_based", "delta": float("inf")},
         "delta must be finite and > 0, got inf"),
        ({"grouping": "kmeans"}, "unknown grouping 'kmeans'"),
        ({"kind": "kdepth"}, "kdepth needs k >= 1"),
    ], ids=["pca-delta", "spearman-delta", "model_based-t", "model_based-proportion",
            "complete-k", "vif-k", "kdepth-t", "complete-proportion", "kdepth-delta",
            "t-above", "t-zero", "proportion-above", "proportion-nan", "t-and-proportion",
            "model_based-no-delta", "model_based-inf", "unknown-grouping", "kdepth-no-k"])
    def test_rules_on_direct_construction(self, fields, message):
        fields = {"kind": "coalitional"} | fields
        with pytest.raises(ConfigError) as exc:
            MethodConfig(**fields)
        assert str(exc.value).startswith(message)

    def test_direct_construction_normalizes_the_grouping(self):
        mc = MethodConfig("coalitional", grouping=" Rev-VIF", threshold=0.3)
        assert mc.grouping == "rev_vif" and mc.method_id == "coalitional:rev_vif"
        mc = MethodConfig("coalitional", grouping="modelbased", delta=0.1)
        assert mc.grouping == "model_based"

    @given(st.one_of(
        st.text(),
        st.lists(st.sampled_from(["complete", "kdepth", "coalitional", "spearman", "vif",
                                  "model_based", "rev-vif", "t=", "p=", "0.3", "-1", "x",
                                  "nan", "1e999", "", " "]), max_size=5).map(":".join)))
    def test_parse_fuzz_raises_only_config_error(self, text):
        try:
            mc = MethodConfig.parse(text)
        except ConfigError:
            return
        assert mc.kind in ("complete", "kdepth", "coalitional")


class TestRunBenchmark:
    def test_complete_only_is_exact_self_comparison(self):
        d = make_synthetic_dataset(4, 30, seed=5)
        records = run_benchmark([d], [MethodConfig.parse("complete")], SPEC, seed=5)
        assert len(records) == 1
        r = records[0]
        assert r.mean_error == 0.0
        assert r.time_ratio_vs_complete == 1.0
        assert r.complexity_proportion == 1.0

    def test_grid_size_and_columns(self, tmp_path):
        suite = [make_synthetic_dataset(4, 25, seed=s) for s in (0, 1)]
        methods = [MethodConfig.parse(m) for m in
                   ("complete", "kdepth:2", "coalitional:spearman:0.4")]
        records = run_benchmark(suite, methods, SPEC, seed=1)
        assert len(records) == 6
        assert [r.method for r in records[:3]] == \
            ["complete", "kdepth", "coalitional:spearman"]
        csv_path = tmp_path / "bench.csv"
        write_benchmark_csv(records, csv_path, config={"seed": 1})
        lines = csv_path.read_text().splitlines()
        assert lines[0].startswith("# config: ")
        assert lines[1] == ",".join(CSV_COLUMNS)
        assert len(lines) == 2 + 6
        json_path = tmp_path / "bench.json"
        write_benchmark_json(records, json_path, config={"seed": 1})
        doc = json.loads(json_path.read_text())
        assert doc["config"] == {"seed": 1}
        assert len(doc["records"]) == 6

    def test_csv_converts_each_record_once(self, tmp_path, monkeypatch):
        records = [coalex.evaluation.BenchmarkRecord(f"d{i}", "kdepth", "k=2", 0.5, 0.01, 0.2,
                                                     0.4, None, None, i) for i in range(3)]
        calls, real = [], coalex.evaluation.BenchmarkRecord.to_dict
        monkeypatch.setattr(coalex.evaluation.BenchmarkRecord, "to_dict",
                            lambda r: calls.append(r) or real(r))
        write_benchmark_csv(records, tmp_path / "bench.csv", config={"seed": 1})
        assert calls == records
        lines = (tmp_path / "bench.csv").read_text().splitlines()
        assert lines[2:] == [f"d{i},kdepth,k=2,0.5,0.01,0.2,0.4,,,{i}" for i in range(3)]

    def test_mean_errors_reproducible(self):
        d = make_synthetic_dataset(5, 40, seed=8)
        methods = [MethodConfig.parse("kdepth:2"),
                   MethodConfig.parse("coalitional:pca:t=0.3")]
        a = run_benchmark([d], methods, SPEC, seed=8)
        b = run_benchmark([d], methods, SPEC, seed=8)
        assert [r.mean_error for r in a] == [r.mean_error for r in b]

    def test_kdepth_records_have_complexity(self):
        d = make_synthetic_dataset(4, 25, seed=2)
        (r,) = run_benchmark([d], [MethodConfig.parse("kdepth:2")], SPEC, seed=2)
        # subsets of size 1..2 out of 15 non-empty subsets
        assert r.complexity_proportion == pytest.approx((4 + 6) / 15)
        assert r.group_count_mean is None and r.group_size_mean is None
        assert r.time_per_instance_s > 0
        assert r.mean_error >= 0

    def test_coalitional_records_group_stats(self):
        d = make_synthetic_dataset(5, 30, seed=3)
        (r,) = run_benchmark([d], [MethodConfig.parse("coalitional:spearman:t=0.3")],
                             SPEC, seed=3)
        assert r.group_count_mean >= 1
        assert r.group_size_mean >= 1.0
        assert 0 < r.complexity_proportion <= 1.0

    def test_over_cap_dataset_skipped(self, caplog):
        big = make_synthetic_dataset(21, 20, seed=0)
        small = make_synthetic_dataset(3, 20, seed=0)
        with caplog.at_level(logging.WARNING):
            records = run_benchmark([big, small], [MethodConfig.parse("complete")],
                                    SPEC, seed=0)
        assert len(records) == 1
        assert records[0].dataset == small.name
        assert any("exceed" in msg for msg in caplog.messages)

    def test_no_exact_baseline_without_a_runnable_method(self, monkeypatch):
        narrow = make_synthetic_dataset(2, 20, seed=0)
        wide = make_synthetic_dataset(3, 20, seed=0)
        real, calls = coalex.evaluation.complete_influence, []
        monkeypatch.setattr(coalex.evaluation, "complete_influence",
                            lambda cache, *a, **kw: calls.append(cache.dataset.name) or
                            real(cache, *a, **kw))
        records = run_benchmark([narrow, wide], [MethodConfig.parse("kdepth:3")], SPEC)
        assert calls == [wide.name] != [narrow.name]
        assert [r.dataset for r in records] == [wide.name]

    def test_cells_run_on_the_calling_thread(self, monkeypatch):
        d = make_synthetic_dataset(4, 20, seed=6)
        methods = [MethodConfig.parse("kdepth:1"), MethodConfig.parse("kdepth:2")]
        real, threads = coalex.evaluation._run_cell, []

        def run_cell(*args):
            threads.append(threading.get_ident())
            return real(*args)

        monkeypatch.setattr(coalex.evaluation, "_run_cell", run_cell)
        records = run_benchmark([d], methods, SPEC, seed=6, jobs=2)
        assert threads == [threading.get_ident()] * 2
        assert [r.method for r in records] == ["kdepth", "kdepth"]
