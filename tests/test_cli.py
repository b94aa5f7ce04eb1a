import csv
import json

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
        target_idx = full.predict_class(d.instance(0))
        target = d.class_target(d.class_set[target_idx])
        prior = sum(1 for l in d.labels if l == target.class_id) / d.n_instances
        for j, name in enumerate(d.attribute_names):
            single = subset_eval(cache, AttributeSubset.from_indices([j], 3),
                                 d.instance(0), target)
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

    def test_requires_methods(self, runner):
        result = runner.invoke(main, ["benchmark", "--synthetic", "1"])
        assert result.exit_code == 2

    def test_requires_datasets(self, runner):
        result = runner.invoke(main, ["benchmark", "--methods", "complete"])
        assert result.exit_code == 2


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
