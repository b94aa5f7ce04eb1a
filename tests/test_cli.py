import ast
import csv
import gc
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import coalex
from coalex import (AttributeSubset, DataError, ModelSpec, SubsetModelCache, load_csv,
                    subset_eval)
from coalex.cli import main

try:
    import tomllib
except ModuleNotFoundError:  # Python 3.10: pytest brings tomli there
    import tomli as tomllib

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def small_csv(tmp_path):
    rng = np.random.default_rng(0)
    lines = ["a,b,c,y"]
    for _ in range(30):
        x = rng.normal(size=3)
        y = "pos" if x[0] + x[1] > 0 else "neg"
        lines.append(",".join(f"{v:.6f}" for v in x) + f",{y}")
    p = tmp_path / "small.csv"
    p.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return p


@pytest.fixture
def wide_csv(tmp_path):
    rng = np.random.default_rng(1)
    n = 21
    header = ",".join([f"x{j}" for j in range(n)] + ["y"])
    lines = [header]
    for i in range(10):
        lines.append(",".join(f"{v:.4f}" for v in rng.normal(size=n)) + f",{i % 2}")
    p = tmp_path / "wide.csv"
    p.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return p


class TestExplain:
    def test_complete_json_to_stdout(self, runner, small_csv):
        result = runner.invoke(main, ["explain", str(small_csv), "--target", "y",
                                      "--model", "dt", "--method", "complete",
                                      "--instances", "0,1"])
        assert result.exit_code == 0, result.output
        doc = json.loads(result.output)
        assert len(doc["influences"]) == 2
        assert set(doc["influences"][0]["influences"]) == {"a", "b", "c"}
        assert doc["config"]["command"] == "explain"

    def test_kdepth_one_equals_marginals(self, runner, small_csv, tmp_path):
        out = tmp_path / "infl.json"
        result = runner.invoke(main, ["explain", str(small_csv), "--target", "y",
                                      "--model", "dt", "--method", "kdepth", "--k", "1",
                                      "--instances", "0", "--seed", "3",
                                      "--out", str(out)])
        assert result.exit_code == 0, result.output
        doc = json.loads(out.read_text())
        got = doc["influences"][0]["influences"]

        d = load_csv(small_csv, "y")
        spec = ModelSpec(kind="decision_tree", seed=3)
        cache = SubsetModelCache(spec, d)
        full = cache.get_or_train(AttributeSubset.full(3))
        target_idx = full.predict_classes(d.features[:1])[0]
        target = d.class_target(d.class_set[target_idx])
        prior = sum(1 for l in d.labels if l == target.class_id) / d.n_instances
        for j, name in enumerate(d.attribute_names):
            [single] = subset_eval(cache, AttributeSubset.from_indices([j], 3),
                                   d.features[:1], [target.index])
            assert got[name] == pytest.approx(single - prior, abs=1e-12)

    def test_cap_violation_exits_4(self, runner, wide_csv):
        result = runner.invoke(main, ["explain", str(wide_csv), "--target", "y",
                                      "--model", "dt", "--method", "complete"])
        assert result.exit_code == 4
        assert "cap" in result.output

    def test_coalitional_with_proportion(self, runner, small_csv):
        result = runner.invoke(main, ["explain", str(small_csv), "--target", "y",
                                      "--model", "dt",
                                      "--method", "coalitional:spearman",
                                      "--proportion", "0.5", "--instances", "0"])
        assert result.exit_code == 0, result.output
        doc = json.loads(result.output)
        assert "achieved_proportion" in doc["config"]

    def test_csv_format_with_config_header(self, runner, small_csv, tmp_path):
        out = tmp_path / "infl.csv"
        result = runner.invoke(main, ["explain", str(small_csv), "--target", "y",
                                      "--model", "dt", "--method", "kdepth", "--k", "2",
                                      "--format", "csv", "--out", str(out)])
        assert result.exit_code == 0, result.output
        lines = out.read_text().splitlines()
        assert lines[0].startswith("# config: ")
        assert lines[1] == "instance,class,method,a,b,c"
        assert len(lines) == 2 + 30

    def test_use_case_workflow(self, runner, tmp_path):
        # forest model, correlation grouping at a 25% complexity budget,
        # influences for every instance
        rng = np.random.default_rng(3)
        n = 10
        z = rng.normal(size=30)
        cols = [z + 0.3 * rng.normal(size=30) for _ in range(4)]
        cols += [rng.normal(size=30) for _ in range(n - 4)]
        X = np.column_stack(cols)
        header = ",".join([f"x{j}" for j in range(n)] + ["y"])
        rows = [",".join(f"{v:.5f}" for v in X[i]) + f",{int(X[i, 0] + X[i, 9] > 0)}"
                for i in range(30)]
        p = tmp_path / "usecase.csv"
        p.write_text(header + "\n" + "\n".join(rows) + "\n", encoding="utf-8")
        result = runner.invoke(main, ["explain", str(p), "--target", "y",
                                      "--model", "rf", "--trees", "8",
                                      "--method", "coalitional:spearman",
                                      "--proportion", "0.25", "--seed", "1"])
        assert result.exit_code == 0, result.output
        doc = json.loads(result.output)
        assert len(doc["influences"]) == 30
        assert doc["config"]["achieved_proportion"] <= 0.3

    def test_missing_data_file_exits_3(self, runner, tmp_path):
        result = runner.invoke(main, ["explain", str(tmp_path / "none.csv"),
                                      "--target", "y", "--method", "complete"])
        assert result.exit_code == 3

    def test_conflicting_t_and_proportion_exits_2(self, runner, small_csv):
        result = runner.invoke(main, ["explain", str(small_csv), "--target", "y",
                                      "--method", "coalitional:vif",
                                      "--t", "0.2", "--proportion", "0.5"])
        assert result.exit_code == 2

    def test_fixed_class(self, runner, small_csv):
        result = runner.invoke(main, ["explain", str(small_csv), "--target", "y",
                                      "--model", "dt", "--method", "kdepth", "--k", "1",
                                      "--class-label", "neg", "--instances", "0,1"])
        assert result.exit_code == 0, result.output
        doc = json.loads(result.output)
        assert all(v["class"] == "neg" for v in doc["influences"])

    def test_bad_instances_exits_2(self, runner, small_csv):
        result = runner.invoke(main, ["explain", str(small_csv), "--target", "y",
                                      "--method", "complete", "--instances", "0,99"])
        assert result.exit_code == 2

    @pytest.mark.parametrize("source, value", [("flag", ""), ("flag", ","), ("flag", " , "),
                                               ("config", "")])
    def test_instances_naming_no_instance_exits_2(self, runner, small_csv, tmp_path,
                                                  source, value):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"target": "y", "model": {"kind": "dt"}, "instances": value}))
        args = ["explain", str(small_csv), "--config", str(cfg)]
        result = runner.invoke(main, args + (["--instances", value] if source == "flag" else []))
        assert result.exit_code == 2
        assert "--instances" in result.output and "influences" not in result.output

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_exits_2(self, runner, small_csv, jobs):
        result = runner.invoke(main, ["explain", str(small_csv), "--target", "y",
                                      "--model", "dt", "--instances", "0", "--jobs", jobs])
        assert result.exit_code == 2
        assert "--jobs must be >= 1" in result.output

    def test_cap_below_one_exits_2_before_reading_data(self, runner, tmp_path):
        result = runner.invoke(main, ["explain", str(tmp_path / "none.csv"), "--target", "y",
                                      "--cap", "-5"])
        assert result.exit_code == 2
        assert "error: --cap must be >= 1, got -5" in result.output

    def test_jobs_parallel_same_output(self, runner, small_csv):
        args = ["explain", str(small_csv), "--target", "y", "--model", "dt",
                "--method", "complete", "--instances", "0,1,2"]
        serial = runner.invoke(main, args)
        parallel = runner.invoke(main, args + ["--jobs", "3"])
        assert serial.exit_code == parallel.exit_code == 0
        a = json.loads(serial.output)["influences"]
        b = json.loads(parallel.output)["influences"]
        assert a == b

    @pytest.mark.parametrize("model", ["rf", "dt"])
    def test_jobs_output_is_byte_identical(self, runner, small_csv, model, method="complete"):
        args = ["explain", str(small_csv), "--target", "y", "--model", model, "--trees", "5",
                "--method", method, "--instances", "0,1,2"]
        serial = runner.invoke(main, args + ["--jobs", "1"])
        forked = runner.invoke(main, args + ["--jobs", "2"])
        assert serial.exit_code == forked.exit_code == 0, forked.output
        # only the config echo of the job count differs
        assert forked.stdout == serial.stdout.replace('"jobs": 1', '"jobs": 2')

    @pytest.mark.parametrize("method", ["kdepth:2", "coalitional:spearman:0.25"])
    def test_jobs_output_is_byte_identical_for_approximations(self, runner, small_csv, method):
        self.test_jobs_output_is_byte_identical(runner, small_csv, "rf", method)

    def test_jobs_parent_grows_only_its_slice_of_trees(self, runner, small_csv, monkeypatch):
        import coalex.influence

        real, grown = coalex.influence.tree_values, []

        def recording(spec, d, trees, *args):
            grown.append(list(trees))  # a worker's calls are recorded in the worker's copy
            return real(spec, d, trees, *args)

        monkeypatch.setattr(coalex.influence, "tree_values", recording)
        result = runner.invoke(main, ["explain", str(small_csv), "--target", "y",
                                      "--model", "rf", "--trees", "5", "--method", "complete",
                                      "--instances", "0,1,2", "--jobs", "2"])
        assert result.exit_code == 0, result.output
        assert grown == [[0, 2, 4]]  # one call for the parent's whole slice


_EXPLAIN_ECHO = {"command": "explain", "target": "y", "repetitions": 10, "seed": 0, "jobs": 1,
                 "delimiter": ",", "instances": "0", "output_format": "json", "cap": 20,
                 "model": {"kind": "decision_tree", "tree_count": 100, "max_depth": None,
                           "min_leaf": 1, "seed": 0}}


_NO_DELTA = "model_based grouping needs a delta > 0: --delta 0.1 or coalitional:model_based:0.1"


@pytest.fixture
def fits(monkeypatch):
    """The arguments of every ``train`` and ``tree_values`` call the test makes."""
    import coalex.influence
    import coalex.model

    calls = []
    for module, name in ((coalex.model, "train"), (coalex.influence, "tree_values")):
        real = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *a, real=real: calls.append(a) or real(*a))
    return calls


class TestMethodMerge:
    """How explain combines --method with --k, --t, --proportion, --delta and --repetitions:
    the method is built once from the text and the flags, --k replaces its depth, and a
    coalitional method's inline value wins over the flags, which fill in what it leaves out."""

    @pytest.mark.parametrize("args, expected, tag", [
        (["kdepth", "--k", "2"], {"method": "kdepth", "k": 2}, "kdepth:2"),
        (["kdepth:3", "--k", "2"], {"method": "kdepth:3", "k": 2}, "kdepth:2"),
        (["kdepth:x", "--k", "2"], "method 'kdepth:x': k must be an integer", None),
        (["kdepth"], "method 'kdepth': expected kdepth:<k>", None),
        (["coalitional:vif:t=0.3", "--t", "0.2"],
         {"method": "coalitional:vif:t=0.3", "threshold": 0.3}, "coalitional"),
        (["coalitional:pca", "--t", "0.2"],
         {"method": "coalitional:pca", "threshold": 0.2}, "coalitional"),
        (["coalitional:vif:t=0.3", "--proportion", "0.5"],
         "--t and --proportion are mutually exclusive", None),
        (["coalitional:model_based", "--delta", "0.05", "--repetitions", "2"],
         {"method": "coalitional:model_based", "delta": 0.05, "repetitions": 2}, "coalitional"),
    ], ids=["kdepth-k", "kdepth3-k", "kdepthx-k", "kdepth-no-k", "inline-t-over-flag",
            "t-flag-fills", "inline-t-and-proportion", "model-based-flags"])
    def test_precedence(self, runner, small_csv, args, expected, tag):
        result = runner.invoke(main, ["explain", str(small_csv), "--target", "y",
                                      "--model", "dt", "--instances", "0", "--method", *args])
        if isinstance(expected, str):
            assert result.exit_code == 2
            assert f"error: {expected}" in result.output
            return
        assert result.exit_code == 0, result.output
        doc = json.loads(result.output)
        assert doc["config"] == _EXPLAIN_ECHO | {"dataset": str(small_csv)} | expected
        assert [v["method"] for v in doc["influences"]] == [tag]


class TestGroups:
    def test_spearman_threshold(self, runner, small_csv):
        result = runner.invoke(main, ["groups", str(small_csv), "--target", "y",
                                      "--method", "spearman", "--t", "0.3"])
        assert result.exit_code == 0, result.output
        doc = json.loads(result.output)
        assert doc["method"] == "spearman"
        covered = {name for g in doc["groups"] for name in g}
        assert covered == {"a", "b", "c"}

    def test_proportion_reports_achieved(self, runner, small_csv, tmp_path):
        out = tmp_path / "groups.json"
        result = runner.invoke(main, ["groups", str(small_csv), "--target", "y",
                                      "--method", "vif", "--proportion", "0.5",
                                      "--out", str(out)])
        assert result.exit_code == 0, result.output
        doc = json.loads(out.read_text())
        assert "achieved_proportion" in doc
        assert "threshold" in doc
        assert "threshold=" in result.output  # echoed to stderr

    def test_unknown_method_exits_2_listing_methods(self, runner, small_csv):
        result = runner.invoke(main, ["groups", str(small_csv), "--target", "y",
                                      "--method", "kmeans", "--t", "0.3"])
        assert result.exit_code == 2
        assert "spearman" in result.output and "vif" in result.output

    def test_model_based(self, runner, small_csv):
        result = runner.invoke(main, ["groups", str(small_csv), "--target", "y",
                                      "--method", "model_based", "--delta", "0.1",
                                      "--repetitions", "2", "--model", "dt",
                                      "--seed", "5"])
        assert result.exit_code == 0, result.output
        doc = json.loads(result.output)
        assert doc["method"] == "model_based"

    def test_zero_repetitions_exits_2(self, runner, small_csv):
        result = runner.invoke(main, ["groups", str(small_csv), "--target", "y",
                                      "--method", "model_based", "--delta", "0.1",
                                      "--repetitions", "0", "--model", "dt"])
        assert result.exit_code == 2
        assert "repetitions must be >= 1, got 0" in result.output

    @pytest.mark.parametrize("args", [
        ["groups", "--method", "model_based", "--delta", "nan"],
        ["explain", "--method", "coalitional:model_based", "--delta", "inf"],
    ], ids=["groups-nan", "explain-inf"])
    def test_delta_that_is_not_finite_exits_2(self, runner, small_csv, args):
        result = runner.invoke(main, [args[0], str(small_csv), "--target", "y", "--model", "dt",
                                      "--repetitions", "2", *args[1:]])
        assert result.exit_code == 2
        assert f"delta must be finite and > 0, got {args[-1]}" in result.output

    @pytest.mark.parametrize("delta", ["nan", "0", "inf", "-1"])
    @pytest.mark.parametrize("command", ["benchmark", "explain"])
    def test_bad_delta_exits_2_before_training(self, runner, small_csv, fits, command, delta):
        option = "--methods" if command == "benchmark" else "--method"
        result = runner.invoke(main, [command, str(small_csv), "--target", "y", "--model", "rf",
                                      "--trees", "3", option, f"coalitional:model_based:{delta}"])
        assert result.exit_code == 2
        assert f"error: delta must be finite and > 0, got {float(delta)}" in result.output
        assert fits == []  # found before the exact baseline or the grouping's model

    @pytest.mark.parametrize("args, message", [
        (["groups", "--method", "pca", "--delta", "0"],
         "pca grouping has no delta; --delta unsupported"),
        (["complexity", "--method", "pca", "--delta", "0"],
         "pca grouping has no delta; --delta unsupported"),
        (["explain", "--method", "coalitional:spearman", "--delta", "nan"],
         "spearman grouping has no delta; --delta unsupported"),
        (["groups", "--method", "model_based", "--delta", "0.1", "--t", "0.3"],
         "model_based grouping has no threshold; --t unsupported"),
        (["complexity", "--method", "model_based", "--delta", "0.1", "--t", "0.3"],
         "model_based grouping has no threshold; --t unsupported"),
        (["explain", "--method", "coalitional:model_based:0.1", "--t", "0.3"],
         "model_based grouping has no threshold; --t unsupported"),
        (["explain", "--method", "complete", "--k", "3"],
         "complete has no depth; --k unsupported"),
        (["explain", "--method", "coalitional:pca", "--k", "3"],
         "pca grouping has no depth; --k unsupported"),
        (["explain", "--method", "kdepth:2", "--t", "0.3"],
         "kdepth has no threshold; --t unsupported"),
        (["benchmark", "--methods", "complete,coalitional:vif:t=0.7"],
         "threshold must lie in (0, 0.5), got 0.7"),
        (["explain", "--method", "coalitional:vif", "--t", "0.7"],
         "threshold must lie in (0, 0.5), got 0.7"),
        (["benchmark", "--methods", "complete,coalitional:pca:1.5"],
         "target proportion must lie in (0, 1], got 1.5"),
        (["groups", "--method", "pca", "--proportion", "1.5"],
         "target proportion must lie in (0, 1], got 1.5"),
        (["groups", "--method", "model_based"], _NO_DELTA),
        (["complexity", "--method", "model_based"], _NO_DELTA),
        (["explain", "--method", "coalitional:model_based"], _NO_DELTA),
        (["benchmark", "--methods", "complete,coalitional:model_based"], _NO_DELTA),
        (["benchmark", "--methods", "complete,complete"],
         "method 'complete' repeats 'complete'"),
        (["benchmark", "--methods", "kdepth:2,complete, kdepth:2"],
         "method 'kdepth:2' repeats 'kdepth:2'"),
        (["benchmark", "--methods", "coalitional:pca:0.25,coalitional:pca:p=0.25"],
         "method 'coalitional:pca:p=0.25' repeats 'coalitional:pca:0.25'"),
    ], ids=["groups-pca-delta", "complexity-pca-delta", "explain-spearman-delta",
            "groups-model_based-t", "complexity-model_based-t", "explain-model_based-t",
            "explain-complete-k", "explain-pca-k", "explain-kdepth-t", "benchmark-vif-t",
            "explain-vif-t", "benchmark-pca-proportion", "groups-pca-proportion",
            "groups-no-delta", "complexity-no-delta", "explain-no-delta", "benchmark-no-delta",
            "benchmark-repeated-complete", "benchmark-repeated-kdepth",
            "benchmark-repeated-pca"])
    def test_bad_method_exits_2_before_training(self, runner, small_csv, fits, args, message):
        result = runner.invoke(main, [args[0], str(small_csv), "--target", "y", "--model", "rf",
                                      "--trees", "3", *args[1:]])
        assert result.exit_code == 2
        assert result.output == f"error: {message}\n"
        assert fits == []  # found before the exact baseline or the grouping's model

    @pytest.mark.parametrize("command", ["groups", "complexity"])
    def test_jobs_is_not_an_option(self, runner, small_csv, command):
        result = runner.invoke(main, [command, str(small_csv), "--target", "y",
                                      "--method", "pca", "--jobs", "0"])
        assert result.exit_code == 2
        assert "No such option" in result.output and "--jobs" in result.output

    def test_model_based_rejects_proportion(self, runner, small_csv):
        result = runner.invoke(main, ["groups", str(small_csv), "--target", "y",
                                      "--method", "model_based", "--delta", "0.1",
                                      "--proportion", "0.5"])
        assert result.exit_code == 2


class TestComplexityCommand:
    def test_report(self, runner, small_csv):
        result = runner.invoke(main, ["complexity", str(small_csv), "--target", "y",
                                      "--method", "spearman", "--t", "0.3"])
        assert result.exit_code == 0, result.output
        doc = json.loads(result.output)
        assert doc["complete_size"] == 7
        assert 1 <= doc["closure_size"] <= 7
        assert doc["groups"]


    def test_requires_method(self, runner, small_csv):
        result = runner.invoke(main, ["complexity", str(small_csv), "--target", "y"])
        assert result.exit_code == 2
        assert "--method is required; choose from" in result.output


class TestBenchmark:
    def test_synthetic_grid(self, runner, tmp_path):
        out = tmp_path / "bench.csv"
        result = runner.invoke(main, [
            "benchmark", "--synthetic", "3",
            "--methods", "complete,kdepth:2,coalitional:spearman:0.25",
            "--model", "dt", "--seed", "1", "--out", str(out)])
        assert result.exit_code == 0, result.output
        with out.open() as fh:
            rows = [r for r in csv.reader(fh) if not r[0].startswith("#")]
        assert len(rows) == 1 + 9  # header + 3 datasets x 3 methods
        assert out.with_suffix(".json").exists()

    def test_rerun_identical_errors(self, runner, tmp_path):
        args = ["benchmark", "--synthetic", "2", "--methods", "kdepth:2",
                "--model", "dt", "--seed", "7"]
        a = runner.invoke(main, args)
        b = runner.invoke(main, args)
        assert a.exit_code == b.exit_code == 0
        errs_a = [json.loads(l)["mean_error"] for l in a.output.splitlines() if l.startswith("{")]
        errs_b = [json.loads(l)["mean_error"] for l in b.output.splitlines() if l.startswith("{")]
        assert errs_a == errs_b and errs_a

    def test_csv_datasets(self, runner, small_csv, tmp_path):
        out = tmp_path / "b.csv"
        result = runner.invoke(main, ["benchmark", str(small_csv), "--target", "y",
                                      "--methods", "complete", "--model", "dt",
                                      "--out", str(out)])
        assert result.exit_code == 0, result.output
        text = out.read_text()
        assert "small" in text

    def test_model_based_method_records_time(self, runner, tmp_path):
        result = runner.invoke(main, [
            "benchmark", "--synthetic", "1",
            "--methods", "coalitional:modelbased:0.1",
            "--model", "dt", "--seed", "2"])
        assert result.exit_code == 0, result.output
        rec = json.loads(result.output.splitlines()[-1])
        assert rec["time_per_instance_s"] > 0
        assert rec["param"] == "delta=0.1"

    def test_kdepth_deeper_than_a_dataset_skips_that_cell(self, runner):
        result = runner.invoke(main, ["benchmark", "--synthetic", "2",
                                      "--methods", "complete,kdepth:3",
                                      "--model", "dt", "--seed", "1"])
        assert result.exit_code == 0, result.output
        records = [json.loads(l) for l in result.stdout.splitlines()]
        complete = [r["dataset"] for r in records if r["method"] == "complete"]
        kdepth = [r["dataset"] for r in records if r["method"] == "kdepth"]
        assert len(complete) == 2 and len(kdepth) == 1 and kdepth[0] in complete

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_exits_2(self, runner, jobs):
        result = runner.invoke(main, ["benchmark", "--synthetic", "1", "--methods", "complete",
                                      "--model", "dt", "--jobs", jobs])
        assert result.exit_code == 2
        assert "--jobs must be >= 1" in result.output

    def test_cap_below_one_exits_2_before_reading_data(self, runner, tmp_path):
        result = runner.invoke(main, ["benchmark", str(tmp_path / "none.csv"), "--target", "y",
                                      "--methods", "complete", "--cap", "0"])
        assert result.exit_code == 2
        assert "error: --cap must be >= 1, got 0" in result.output
        assert "{" not in result.output  # no record

    @pytest.mark.parametrize("count", ["0", "-1"])
    def test_synthetic_below_one_exits_2(self, runner, count):
        result = runner.invoke(main, ["benchmark", "--synthetic", count, "--methods", "complete",
                                      "--model", "dt"])
        assert result.exit_code == 2
        assert f"--synthetic must be >= 1, got {count}" in result.output

    def test_json_out_exits_2_before_training(self, runner, tmp_path, monkeypatch):
        import coalex.model

        real_train, fits = coalex.model.train, []
        monkeypatch.setattr(coalex.model, "train", lambda *a: fits.append(a) or real_train(*a))
        out = tmp_path / "grid.json"
        result = runner.invoke(main, ["benchmark", "--synthetic", "1",
                                      "--methods", "complete,kdepth:1", "--model", "dt",
                                      "--out", str(out)])
        assert result.exit_code == 2
        assert f"error: --out {out} ends in .json" in result.output
        assert fits == [] and not out.exists()

    def test_requires_methods(self, runner):
        result = runner.invoke(main, ["benchmark", "--synthetic", "1"])
        assert result.exit_code == 2

    def test_requires_datasets(self, runner):
        result = runner.invoke(main, ["benchmark", "--methods", "complete"])
        assert result.exit_code == 2


class TestOutputPath:
    @pytest.mark.parametrize("command, args", [
        ("explain", ["--method", "kdepth:1", "--instances", "0"]),
        ("groups", ["--method", "pca"]),
        ("complexity", ["--method", "pca"]),
        ("benchmark", ["--methods", "kdepth:1"]),
    ], ids=["explain", "groups", "complexity", "benchmark"])
    @pytest.mark.parametrize("where", ["missing-directory", "directory"])
    def test_unwritable_out_exits_2(self, runner, small_csv, tmp_path, command, args, where,
                                    monkeypatch):
        import coalex.influence
        import coalex.model

        fits = []
        for module, name in ((coalex.model, "train"), (coalex.influence, "tree_values")):
            real = getattr(module, name)
            monkeypatch.setattr(module, name, lambda *a, real=real: fits.append(a) or real(*a))
        out = tmp_path / "missing" / "out.csv" if where == "missing-directory" else tmp_path
        result = runner.invoke(main, [command, str(small_csv), "--target", "y", "--model", "dt",
                                      *args, "--out", str(out)])
        assert result.exit_code == 2
        assert f"error: cannot write {out}: " in result.output
        assert fits == []  # found before any model is trained

    @pytest.mark.parametrize("command, args", [
        ("explain", ["--method", "kdepth:1", "--instances", "0"]),
        ("groups", ["--method", "pca"]),
        ("benchmark", ["--methods", "kdepth:1"]),
    ], ids=["explain", "groups", "benchmark"])
    def test_early_check_leaves_no_file_behind(self, runner, small_csv, tmp_path, command,
                                               args, monkeypatch):
        import coalex.cli

        def unreadable(*args, **kwargs):
            raise DataError("unreadable")

        # the output is checked, then the run fails before it writes anything
        monkeypatch.setattr(coalex.cli, "load_csv", unreadable)
        out = tmp_path / "out.csv"
        result = runner.invoke(main, [command, str(small_csv), "--target", "y", "--model", "dt",
                                      *args, "--out", str(out)])
        assert result.exit_code == 3
        assert list(tmp_path.iterdir()) == [small_csv]


class TestConfigPrecedence:
    def test_config_file_supplies_values(self, runner, small_csv, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"target": "y", "method": "kdepth", "k": 1,
                                   "model": {"kind": "dt"}, "seed": 11}))
        result = runner.invoke(main, ["explain", str(small_csv), "--config", str(cfg),
                                      "--instances", "0"])
        assert result.exit_code == 0, result.output
        doc = json.loads(result.output)
        assert doc["config"]["seed"] == 11
        assert doc["config"]["method"] == "kdepth"

    def test_flag_overrides_config_file(self, runner, small_csv, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"target": "y", "method": "complete", "seed": 11}))
        result = runner.invoke(main, ["explain", str(small_csv), "--config", str(cfg),
                                      "--seed", "22", "--model", "dt",
                                      "--instances", "0"])
        assert result.exit_code == 0, result.output
        assert json.loads(result.output)["config"]["seed"] == 22

    def test_env_var_seed(self, runner, small_csv):
        result = runner.invoke(main, ["explain", str(small_csv), "--target", "y",
                                      "--model", "dt", "--method", "kdepth", "--k", "1",
                                      "--instances", "0"],
                               env={"COALEX_SEED": "33"})
        assert result.exit_code == 0, result.output
        assert json.loads(result.output)["config"]["seed"] == 33

    @pytest.mark.parametrize("values, path, expected", [
        ({"method": "kdepth", "k": "2"}, ["k"], 2),
        ({"method": "complete", "model": {"kind": "dt", "max_depth": "3"}},
         ["model", "max_depth"], 3),
        ({"method": "coalitional:spearman", "threshold": "0.3"}, ["threshold"], 0.3),
        ({"method": "kdepth", "k": 2.0}, ["k"], 2),
        ({"method": "kdepth", "k": "2.0"}, ["k"], 2),
        ({"seed": "12345678901234567890"}, ["seed"], 12345678901234567890),  # no float round-trip
    ])
    def test_config_file_strings_are_converted(self, runner, small_csv, tmp_path, values,
                                               path, expected):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"target": "y", "model": {"kind": "dt"}} | values))
        result = runner.invoke(main, ["explain", str(small_csv), "--config", str(cfg),
                                      "--instances", "0"])
        assert result.exit_code == 0, result.output
        echoed = json.loads(result.output)["config"]
        for key in path:
            echoed = echoed[key]
        assert echoed == expected

    def test_config_file_value_that_does_not_convert_exits_2(self, runner, small_csv, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"target": "y", "method": "kdepth", "k": "x"}))
        result = runner.invoke(main, ["explain", str(small_csv), "--config", str(cfg),
                                      "--instances", "0"])
        assert result.exit_code == 2
        assert "k must be a number, got 'x'" in result.output

    @pytest.mark.parametrize("values, message", [
        ({"instances": 0}, "instances must be a string, got 0"),
        ({"method": 5}, "method must be a string, got 5"),
        ({"target": 2.5}, "target must be a string or an integer, got 2.5"),
        ({"format": "xml"}, "format must be one of json, csv, got 'xml'"),
        ({"model": {"kind": "dt", "tree_count": "x"}},
         "model.tree_count must be a number, got 'x'"),
    ], ids=["instances", "method", "target", "format", "model.tree_count"])
    def test_config_file_value_of_the_wrong_type_exits_2(self, runner, small_csv, tmp_path,
                                                         values, message):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"target": "y"} | values))
        result = runner.invoke(main, ["explain", str(small_csv), "--config", str(cfg)])
        assert result.exit_code == 2
        assert f"error: {message}" in result.output

    @pytest.mark.parametrize("values, key, number", [
        ({"method": "kdepth", "k": 2.7}, "k", 2.7),
        ({"method": "kdepth", "k": "2.7"}, "k", "'2.7'"),
        ({"seed": 1.5}, "seed", 1.5),
        ({"jobs": 2.5}, "jobs", 2.5),
        ({"method": "coalitional:model_based", "delta": 0.1, "repetitions": 3.2},
         "repetitions", 3.2),
        ({"model": {"kind": "dt", "max_depth": 2.9}}, "model.max_depth", 2.9),
        ({"model": {"kind": "rf", "tree_count": 4.5}}, "model.tree_count", 4.5),
    ], ids=["k", "k-string", "seed", "jobs", "repetitions", "model.max_depth",
            "model.tree_count"])
    def test_config_file_integer_option_with_a_fraction_exits_2(self, runner, small_csv,
                                                                tmp_path, values, key, number):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"target": "y", "instances": "0"} | values))
        result = runner.invoke(main, ["explain", str(small_csv), "--config", str(cfg)])
        assert result.exit_code == 2
        assert f"error: {key} must be an integer, got {number}" in result.output

    @pytest.mark.parametrize("model", ["dt", ["dt"], 3])
    def test_config_file_model_that_is_not_an_object_exits_2(self, runner, small_csv, tmp_path,
                                                             model):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"target": "y", "model": model, "instances": "0"}))
        result = runner.invoke(main, ["explain", str(small_csv), "--config", str(cfg)])
        assert result.exit_code == 2
        assert f"error: model must be an object, got {model!r}" in result.output

    @pytest.mark.parametrize("values, message", [
        ({"target": "y", "seed": "x", "model": "dt"}, "seed must be a number, got 'x'"),
        ({"target": "y", "model": {"kind": "xgb", "tree_count": 2.5}},
         "unknown model 'xgb'; choose from "),
        ({"model": {"kind": "dt", "max_dept": 2}}, "--target is required"),
        ({"target": "y", "jobs": 0, "model": [1]}, "--jobs must be >= 1, got 0"),
        ({"target": "y", "format": "xml", "model": {"trees": 3}},
         "format must be one of json, csv, got 'xml'"),
        ({"target": "y", "model": {"kind": "dt", "max_dept": 2, "min_leaf": 0}},
         "config file key 'model.max_dept' is not an option of explain"),
        ({"target": "y", "model": {"kind": "dt", "min_leaf": 0.5}},
         "model.min_leaf must be an integer, got 0.5"),
    ], ids=["top-level-type-before-model-object", "model-kind-before-its-integers",
            "required-before-model-keys", "jobs-before-model-object",
            "format-before-model-keys", "model-keys-before-their-values",
            "model-integer-before-its-range"])
    def test_config_file_with_several_faults_reports_the_first(self, runner, small_csv,
                                                               tmp_path, values, message):
        # Top-level keys, their types, required options, ``>= 1`` checks and the format
        # come first; then the model object, its keys, its kind and its integer fields.
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(values))
        result = runner.invoke(main, ["explain", str(small_csv), "--config", str(cfg)])
        assert result.exit_code == 2
        assert result.output.startswith(f"error: {message}")
        assert result.output.count("error:") == 1

    @pytest.mark.parametrize("values, key", [
        ({"method": "kdepth", "k": True}, "k"),
        ({"seed": False}, "seed"),
        ({"method": "coalitional:spearman", "threshold": True}, "threshold"),
        ({"jobs": True}, "jobs"),
        ({"model": {"kind": "dt", "max_depth": True}}, "model.max_depth"),
        ({"model": {"kind": "rf", "tree_count": False}}, "model.tree_count"),
    ], ids=["k", "seed", "threshold", "jobs", "model.max_depth", "model.tree_count"])
    def test_config_file_boolean_is_not_a_number(self, runner, small_csv, tmp_path, values, key):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"target": "y", "instances": "0"} | values))
        result = runner.invoke(main, ["explain", str(small_csv), "--config", str(cfg)])
        assert result.exit_code == 2
        assert f"error: {key} must be a number, got " in result.output

    @pytest.mark.parametrize("command, values, key", [
        ("explain", {"method": "coalitional:pca", "treshold": 0.4,
                     "model": {"kind": "dt", "max_dept": 2}}, "treshold"),
        ("explain", {"method": "complete", "model": {"kind": "dt", "max_dept": 2}},
         "model.max_dept"),
        ("explain", {"method": "complete", "out": "x.json"}, "out"),
        ("groups", {"method": "pca", "k": 3}, "k"),
        ("groups", {"method": "pca", "jobs": 2}, "jobs"),
        ("complexity", {"method": "pca", "format": "csv"}, "format"),
        ("complexity", {"method": "pca", "model": {"seed": 3}}, "model.seed"),
        ("benchmark", {"methods": "complete", "method": "complete"}, "method"),
        ("benchmark", {"methods": "complete", "model": {"kind": "dt", "trees": 3}},
         "model.trees"),
    ], ids=["explain-treshold", "explain-model.max_dept", "explain-out", "groups-k",
            "groups-jobs", "complexity-format", "complexity-model.seed", "benchmark-method",
            "benchmark-model.trees"])
    def test_config_file_key_that_names_no_option_exits_2(self, runner, small_csv, tmp_path,
                                                          fits, monkeypatch, command, values,
                                                          key):
        import coalex.cli

        loads = []
        monkeypatch.setattr(coalex.cli, "load_csv", lambda *a, **kw: loads.append(a))
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"target": "y"} | values))
        result = runner.invoke(main, [command, str(small_csv), "--config", str(cfg)])
        assert result.exit_code == 2
        assert result.output == f"error: config file key {key!r} is not an option of {command}\n"
        assert loads == [] and fits == []  # found before any CSV is read

    def test_config_file_int_target_is_a_column_index(self, runner, small_csv, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"target": 3, "model": {"kind": "dt"}}))
        result = runner.invoke(main, ["explain", str(small_csv), "--config", str(cfg),
                                      "--instances", "0"])
        assert result.exit_code == 0, result.output
        assert set(json.loads(result.output)["influences"][0]["influences"]) == {"a", "b", "c"}

    @pytest.mark.parametrize("delimiter", [";;", ""])
    def test_bad_delimiter_exits_2(self, runner, small_csv, delimiter):
        result = runner.invoke(main, ["explain", str(small_csv), "--target", "y",
                                      "--model", "dt", "--instances", "0",
                                      "--delimiter", delimiter])
        assert result.exit_code == 2
        assert "delimiter must be a single character" in result.output

    def test_non_utf8_data_exits_3(self, runner, tmp_path):
        data = tmp_path / "utf16.csv"
        data.write_bytes("a,b,y\n1,2,p\n3,4,q\n".encode("utf-16"))
        result = runner.invoke(main, ["explain", str(data), "--target", "y", "--model", "dt"])
        assert result.exit_code == 3
        assert "utf16.csv: not UTF-8 text" in result.output

    @pytest.mark.skipif(not Path("/proc/self/mem").is_file(), reason="needs /proc/self/mem")
    @pytest.mark.parametrize("config, code, message", [
        (False, 3, "cannot read /proc/self/mem: "),
        (True, 2, "cannot read config file /proc/self/mem: "),
    ], ids=["data", "config"])
    def test_file_that_cannot_be_read_exits_with_its_code(self, runner, small_csv, config,
                                                          code, message):
        # Reading /proc/self/mem from offset 0 fails with EIO once the file is open.
        args = [str(small_csv), "--config", "/proc/self/mem"] if config else ["/proc/self/mem"]
        result = runner.invoke(main, ["explain", *args, "--target", "y", "--model", "dt"])
        assert result.exit_code == code
        assert result.output.startswith(f"error: {message}")

    def test_config_file_that_cannot_be_read_names_it(self, runner, small_csv, tmp_path,
                                                      monkeypatch):
        cfg = tmp_path / "run.json"
        cfg.write_text("{}")

        def refuse(self, *args, **kwargs):
            raise PermissionError(13, "Permission denied", str(self))

        monkeypatch.setattr(type(cfg), "read_text", refuse)
        result = runner.invoke(main, ["explain", str(small_csv), "--config", str(cfg)])
        assert result.exit_code == 2
        assert result.output == f"error: cannot read config file {cfg}: Permission denied\n"

    def test_config_file_that_is_not_utf8_names_it(self, runner, small_csv, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_bytes(b'{"target": "\xff"}')
        result = runner.invoke(main, ["explain", str(small_csv), "--config", str(cfg)])
        assert result.exit_code == 2
        assert result.output.startswith(f"error: config file {cfg} is not UTF-8 text (")

    def test_config_file_may_start_with_a_bom(self, runner, small_csv, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_bytes(b"\xef\xbb\xbf" + json.dumps({"target": "y", "seed": 5}).encode())
        result = runner.invoke(main, ["explain", str(small_csv), "--config", str(cfg),
                                      "--model", "dt", "--instances", "0"])
        assert result.exit_code == 0, result.output
        assert json.loads(result.output)["config"]["seed"] == 5

    def test_config_file_null_is_no_value(self, runner, small_csv, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"target": "y", "seed": None, "jobs": None, "method": None,
                                   "cap": None, "format": None, "instances": None,
                                   "model": {"kind": None, "tree_count": None}}))
        result = runner.invoke(main, ["explain", str(small_csv), "--config", str(cfg),
                                      "--trees", "3", "--instances", "0"])
        assert result.exit_code == 0, result.output
        echoed = json.loads(result.output)["config"]
        assert {key: echoed[key] for key in ("seed", "jobs", "method", "cap", "output_format")} \
            == {"seed": 0, "jobs": 1, "method": "complete", "cap": 20, "output_format": "json"}
        assert echoed["model"]["kind"] == "random_forest"

    def test_bad_config_file_exits_2(self, runner, small_csv, tmp_path):
        cfg = tmp_path / "broken.json"
        cfg.write_text("{not json")
        result = runner.invoke(main, ["explain", str(small_csv), "--config", str(cfg),
                                      "--target", "y", "--method", "complete"])
        assert result.exit_code == 2

    @pytest.mark.parametrize("args, config, code, message", [
        (["explain", "--config", "missing.json"], None, 2, "config file not found"),
        (["explain", "--config", "run.json"], [1, 2], 2, "must hold a JSON object"),
        (["benchmark", "--target", "y", "--methods", ","], None, 2, "no methods given"),
        (["explain", "--target", "y", "--trees", "0"], None, 2, "tree_count must be >= 1"),
        (["explain", "--target", "y", "--instances", "a,b"], None, 2, "bad --instances value"),
        (["explain", "--config", "run.json"], {"target": 9}, 3,
         "target column index 9 out of range"),
    ], ids=["missing-config", "config-not-an-object", "no-methods", "no-trees",
            "instances-not-numbers", "target-index-out-of-range"])
    def test_bad_external_input_exits_with_its_code(self, runner, small_csv, tmp_path,
                                                    monkeypatch, args, config, code, message):
        monkeypatch.chdir(tmp_path)
        if config is not None:
            (tmp_path / "run.json").write_text(json.dumps(config))
        result = runner.invoke(main, [args[0], str(small_csv), *args[1:]])
        assert result.exit_code == code
        assert message in result.output

    def test_blank_line_and_column_index_target_run(self, runner, small_csv, tmp_path):
        lines = small_csv.read_text().splitlines()
        blank = tmp_path / "blank.csv"
        blank.write_text("\n".join(lines[:10] + [""] + lines[10:]) + "\n")
        for data, target in ((blank, "y"), (small_csv, "3")):  # column 3 is y
            result = runner.invoke(main, ["explain", str(data), "--target", target,
                                          "--model", "dt", "--instances", "all"])
            assert result.exit_code == 0, result.output
            influences = json.loads(result.output)["influences"]
            assert len(influences) == 30
            assert set(influences[0]["influences"]) == {"a", "b", "c"}

    def test_seed_determinism_across_commands(self, runner, small_csv):
        args = ["explain", str(small_csv), "--target", "y", "--model", "rf",
                "--trees", "10", "--method", "kdepth", "--k", "1",
                "--seed", "9", "--instances", "0"]
        a = runner.invoke(main, args)
        b = runner.invoke(main, args)
        assert json.loads(a.output)["influences"] == json.loads(b.output)["influences"]


def _entry(*args: str, report: str | None = None) -> subprocess.CompletedProcess:
    """``python -m coalex.cli ARGS`` in a fresh interpreter.  With ``report``, that
    expression is printed to stderr at exit, after the program has finished."""
    command = ["-m", "coalex.cli"]
    if report is not None:
        command = ["-c", "import atexit, gc, runpy, sys\n"
                         f"atexit.register(lambda: print({report}, file=sys.stderr))\n"
                         "sys.argv[0] = 'coalex'\n"
                         "runpy.run_module('coalex.cli', run_name='__main__')\n"]
    return subprocess.run([sys.executable, *command, *args], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(ROOT / "src")), timeout=120)


@pytest.mark.parametrize("args", [
    ["explain", "--model", "rf", "--trees", "4", "--method", "complete", "--instances", "0,1"],
    ["benchmark", "--model", "dt", "--methods", "complete,kdepth:2,coalitional:spearman:0.25"],
], ids=["explain-rf-complete", "benchmark-dt"])
def test_a_run_does_not_import_numpy_ma(small_csv, tmp_path, args):
    """``np.unique`` on integers imports numpy.ma on its first call, some milliseconds of
    every fresh process: the tree pass finds distinct values by sorting instead.  The
    weights divide exact integers, so ``fractions`` (and the ``decimal`` it loads) stay out."""
    result = _entry(args[0], str(small_csv), "--target", "y", *args[1:],
                    "--out", str(tmp_path / "out.csv"),
                    report="[m for m in ('numpy.ma', 'fractions') if m in sys.modules]")
    assert result.returncode == 0, result.stderr
    assert result.stderr.splitlines()[-1] == "[]"


class TestProgramEntry:
    """The ``coalex`` program and ``python -m coalex.cli`` run ``cli.run``, which freezes
    the start-up heap and then runs ``main``."""

    def test_the_entry_freezes_the_heap_and_main_does_not(self, runner, small_csv):
        args = ["groups", str(small_csv), "--target", "y", "--method", "spearman", "--t", "0.3"]
        result = _entry(*args, report="gc.get_freeze_count() > 0")
        assert result.returncode == 0, result.stderr
        assert result.stderr.splitlines()[-1] == "True"
        in_process = runner.invoke(main, args)
        assert gc.get_freeze_count() == 0
        assert result.stdout == in_process.stdout

    @pytest.mark.parametrize("args, code", [
        (["--target", "y", "--method", "spearman", "--t", "0.3", "--min-leaf", "0"], 2),
        (["--target", "nope", "--method", "spearman", "--t", "0.3"], 3),
    ], ids=["config-error", "data-error"])
    def test_an_error_exits_with_its_code_and_message(self, runner, small_csv, args, code):
        result = _entry("groups", str(small_csv), *args)
        expected = runner.invoke(main, ["groups", str(small_csv), *args])
        assert (result.returncode, expected.exit_code) == (code, code)
        assert result.stderr == expected.stderr and result.stderr.startswith("error: ")
        assert result.stdout == ""

    def test_version(self, runner):
        result = runner.invoke(main, ["--version"])
        assert result.exit_code == 0 and result.stdout.endswith(" version 0.1.0\n")
        result = _entry("--version")
        assert result.returncode == 0, result.stderr
        assert result.stdout.endswith(" version 0.1.0\n")

    def test_pyproject_names_the_version_and_the_entry(self):
        project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
        assert project["version"] == coalex.__version__
        tree = ast.parse((ROOT / "src" / "coalex" / "cli.py").read_text(encoding="utf-8"))
        entry = next(node.body for node in tree.body if isinstance(node, ast.If)
                     and ast.unparse(node.test) == "__name__ == '__main__'")
        (statement,) = entry
        assert ast.unparse(statement) == "run()"
        assert project["scripts"] == {"coalex": f"coalex.cli:{statement.value.func.id}"}
