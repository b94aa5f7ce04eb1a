import csv
import json
import threading

import numpy as np
import pytest
from click.testing import CliRunner

from coalex import AttributeSubset, ModelSpec, SubsetModelCache, load_csv, subset_eval
from coalex.cli import main


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

    def test_jobs_parallel_same_output(self, runner, small_csv):
        args = ["explain", str(small_csv), "--target", "y", "--model", "dt",
                "--method", "complete", "--instances", "0,1,2"]
        serial = runner.invoke(main, args)
        parallel = runner.invoke(main, args + ["--jobs", "3"])
        assert serial.exit_code == parallel.exit_code == 0
        a = json.loads(serial.output)["influences"]
        b = json.loads(parallel.output)["influences"]
        assert a == b

    def test_jobs_trains_every_model_in_the_invoking_thread(self, runner, small_csv,
                                                            monkeypatch):
        import coalex.model

        real_train, fits = coalex.model.train, []

        def recording(*args):
            fits.append(threading.get_ident())
            return real_train(*args)

        monkeypatch.setattr(coalex.model, "train", recording)
        result = runner.invoke(main, ["explain", str(small_csv), "--target", "y",
                                      "--model", "dt", "--method", "complete",
                                      "--instances", "0,1,2", "--jobs", "2"])
        assert result.exit_code == 0, result.output
        assert len(fits) == 2 ** 3
        assert set(fits) == {threading.get_ident()}


_EXPLAIN_ECHO = {"command": "explain", "target": "y", "repetitions": 10, "seed": 0, "jobs": 1,
                 "delimiter": ",", "instances": "0", "output_format": "json", "cap": 20,
                 "model": {"kind": "decision_tree", "tree_count": 100, "max_depth": None,
                           "min_leaf": 1, "seed": 0}}


class TestMethodMerge:
    """How explain combines --method with --k, --t, --proportion, --delta and --repetitions:
    the text is checked first, --k replaces its depth, and a coalitional method's
    inline value wins over the flags, which fill in what it leaves out."""

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
         "threshold and proportion are mutually exclusive", None),
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
    def test_unwritable_out_exits_2(self, runner, small_csv, tmp_path, command, args, where):
        out = tmp_path / "missing" / "out.csv" if where == "missing-directory" else tmp_path
        result = runner.invoke(main, [command, str(small_csv), "--target", "y", "--model", "dt",
                                      *args, "--out", str(out)])
        assert result.exit_code == 2
        assert f"error: cannot write {out}: " in result.output


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
        ({"format": "xml"}, "format must be one of json, csv, got 'xml'"),
        ({"model": {"kind": "dt", "tree_count": "x"}},
         "model.tree_count must be a number, got 'x'"),
    ], ids=["instances", "method", "format", "model.tree_count"])
    def test_config_file_value_of_the_wrong_type_exits_2(self, runner, small_csv, tmp_path,
                                                         values, message):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"target": "y"} | values))
        result = runner.invoke(main, ["explain", str(small_csv), "--config", str(cfg)])
        assert result.exit_code == 2
        assert f"error: {message}" in result.output

    @pytest.mark.parametrize("model", ["dt", ["dt"], 3])
    def test_config_file_model_that_is_not_an_object_exits_2(self, runner, small_csv, tmp_path,
                                                             model):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"target": "y", "model": model, "instances": "0"}))
        result = runner.invoke(main, ["explain", str(small_csv), "--config", str(cfg)])
        assert result.exit_code == 2
        assert f"error: model must be an object, got {model!r}" in result.output

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

    def test_bad_config_file_exits_2(self, runner, small_csv, tmp_path):
        cfg = tmp_path / "broken.json"
        cfg.write_text("{not json")
        result = runner.invoke(main, ["explain", str(small_csv), "--config", str(cfg),
                                      "--target", "y", "--method", "complete"])
        assert result.exit_code == 2

    def test_seed_determinism_across_commands(self, runner, small_csv):
        args = ["explain", str(small_csv), "--target", "y", "--model", "rf",
                "--trees", "10", "--method", "kdepth", "--k", "1",
                "--seed", "9", "--instances", "0"]
        a = runner.invoke(main, args)
        b = runner.invoke(main, args)
        assert json.loads(a.output)["influences"] == json.loads(b.output)["influences"]
