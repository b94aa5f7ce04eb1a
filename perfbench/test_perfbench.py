"""Tests of the benchmark itself: its inputs, its output checks and its tracing.

Run from the repository root with ``python3 -m pytest perfbench -q``.  Each
workload's job runs once in-process under the tracer (about 10 s in all);
the checks are then shown to accept those real outputs and to reject
corrupted copies of them.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import inputs
import tracer
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))


def _traced(name, tmp_path_factory):
    """A workload's job, run once untraced and once traced, with its outputs on disk."""
    job = workloads.build(name, tmp_path_factory.mktemp(name), seed=3)
    result = tracer.run({"invocations": job.invocations, "seconds": 0})
    assert result["failed"] == 0
    return name, job, result


@pytest.fixture(scope="module")
def explain_run(tmp_path_factory):
    return _traced("explain_exact", tmp_path_factory)


@pytest.fixture(scope="module")
def grid_run(tmp_path_factory):
    return _traced("benchmark_grid", tmp_path_factory)


@pytest.fixture(scope="module")
def search_run(tmp_path_factory):
    return _traced("coalition_search", tmp_path_factory)


@pytest.fixture(params=["explain_run", "grid_run", "search_run"])
def traced_job(request):
    return request.getfixturevalue(request.param)


def _docs(job):
    return {p.name: p.read_text(encoding="utf-8") for p in job.outputs}


def test_inputs_are_seeded(tmp_path):
    a, b, c = tmp_path / "a.csv", tmp_path / "b.csv", tmp_path / "c.csv"
    inputs.write_table(a, 6, 50, seed=1)
    inputs.write_table(b, 6, 50, seed=1)
    inputs.write_table(c, 6, 50, seed=2)
    assert a.read_bytes() == b.read_bytes() != c.read_bytes()
    assert inputs.read_header(a) == [f"f{j}" for j in range(6)]
    assert set(inputs.read_labels(a)) == {"0", "1"}


def test_closure_size_matches_brute_force():
    n = 6
    groups = [0b000111, 0b011100, 0b110000, 0b000110]
    brute = {m for m in range(1, 1 << n)
             if any(m & ~g == 0 for g in groups) or m.bit_count() == 1}
    assert checks.closure_size(groups, n) == len(brute)


def test_real_outputs_pass_their_checks(traced_job):
    _, job, _ = traced_job
    assert job.check() == []


def test_every_wrapped_name_is_called_on_its_workload(traced_job):
    name, _, result = traced_job
    assert result["missing"] == []
    for _, attr, span, where in tracer.WRAPS:
        if name in where:
            assert span in result["spans"], f"{attr} ({span}) never called on {name}"


def test_every_layer_metric_is_nonzero_on_its_workload(traced_job):
    name, _, result = traced_job
    for metric, *_, where in tracer.METRICS:
        if name in where:
            assert result["metrics"][metric], f"{metric} is 0 on {name}"


def test_traced_invocations_have_a_root_span(traced_job):
    _, job, result = traced_job
    calls, total, self_s = result["spans"][tracer.ROOT]
    assert calls == len(job.invocations)
    assert 0 < self_s < total


def _explain_parts(job):
    args = job.invocations[0]
    picks = [int(i) for i in args[args.index("--instances") + 1].split(",")]
    csv = job.csvs[0]
    return inputs.read_header(csv), inputs.read_labels(csv), picks


def test_explain_check_rejects_shifted_influence(explain_run):
    _, job, _ = explain_run
    doc = json.loads(_docs(job)["explain.json"])
    header, labels, picks = _explain_parts(job)
    assert checks.check_explain(doc, header, labels, picks, workloads.EXPLAIN_TREES) == []
    bad = copy.deepcopy(doc)
    bad["influences"][1]["influences"][header[2]] += 1e-3
    assert checks.check_explain(bad, header, labels, picks, workloads.EXPLAIN_TREES)
    assert checks.check_explain(doc, header, labels, picks[:-1], workloads.EXPLAIN_TREES)


def _grid_parts(job):
    docs = _docs(job)
    widths = {p.stem: len(inputs.read_header(p)) for p in job.csvs}
    return docs["grid.csv"], json.loads(docs["grid.json"]), widths


def _alter_proportion(csv_text, doc, method, factor):
    """Scale one row's complexity_proportion consistently in the CSV and its mirror."""
    lines = csv_text.splitlines()
    cols = lines[1].split(",")
    pos = cols.index("complexity_proportion")
    for k, line in enumerate(lines[2:], start=2):
        cells = line.split(",")
        if cells[1] == method and cells[0] != "grid_n2":
            value = float(cells[pos]) * factor
            cells[pos] = repr(value)
            lines[k] = ",".join(cells)
            rec = next(r for r in doc["records"]
                       if r["dataset"] == cells[0] and r["method"] == method)
            rec["complexity_proportion"] = value
            return "\n".join(lines) + "\n", doc
    raise AssertionError(f"no {method} row")


@pytest.mark.parametrize("method", ["coalitional:spearman", "kdepth", "complete"])
def test_grid_check_rejects_altered_proportion(grid_run, method):
    _, job, _ = grid_run
    text, doc, widths = _grid_parts(job)
    assert checks.check_grid(text, doc, widths, workloads.GRID_CELLS) == []
    bad_text, bad_doc = _alter_proportion(text, copy.deepcopy(doc), method, 1.01)
    assert checks.check_grid(bad_text, bad_doc, widths, workloads.GRID_CELLS)


def test_grid_check_rejects_mirror_mismatch_and_bad_error(grid_run):
    _, job, _ = grid_run
    text, doc, widths = _grid_parts(job)
    bad = copy.deepcopy(doc)
    bad["records"][3]["mean_error"] += 1e-3
    assert checks.check_grid(text, bad, widths, workloads.GRID_CELLS)
    lines = text.splitlines()
    # the kdepth:2 row of the 2-attribute input must equal complete
    row = lines[3].split(",")
    assert row[:3] == ["grid_n2", "kdepth", "k=2"]
    row[3] = "0.001"
    lines[3] = ",".join(row)
    bad = copy.deepcopy(doc)
    bad["records"][1]["mean_error"] = 0.001
    assert checks.check_grid("\n".join(lines), bad, widths, workloads.GRID_CELLS)
    assert checks.check_grid(text, doc, widths, workloads.GRID_CELLS[:-1])


def test_group_checks_reject_dropped_group_and_altered_proportion(search_run):
    _, job, _ = search_run
    wide, small = (inputs.read_header(p) for p in job.csvs)
    docs = {k: json.loads(v) for k, v in _docs(job).items()}
    for method in workloads.SEARCH_METHODS:
        doc = docs[f"groups_{method}.json"]
        assert checks.check_groups(doc, wide) == [], method
        if len(doc["groups"]) > 1:
            dropped = copy.deepcopy(doc)
            dropped["groups"].pop(0)
            assert checks.check_groups(dropped, wide), method
        altered = copy.deepcopy(doc)
        altered["achieved_proportion"] *= 1.001
        assert checks.check_groups(altered, wide), method
        outside = copy.deepcopy(doc)
        outside["threshold"] = 0.5
        assert checks.check_groups(outside, wide), method
    mb = docs["groups_model_based.json"]
    assert checks.check_partition(mb, small) == []
    dropped = copy.deepcopy(mb)
    dropped["groups"].pop()
    assert checks.check_partition(dropped, small)
    if len(mb["groups"]) > 1:
        overlapping = copy.deepcopy(mb)
        overlapping["groups"][0] = overlapping["groups"][0] + [overlapping["groups"][-1][0]]
        assert checks.check_partition(overlapping, small)


def test_group_checks_reject_contained_group():
    header = [f"f{j}" for j in range(4)]
    doc = {"groups": [["f0", "f1", "f2"], ["f1", "f2"], ["f3"]], "threshold": 0.2,
           "achieved_proportion": 8 / 15}
    problems = checks.check_groups(doc, header)
    assert any("contained" in p for p in problems)
    ok = {"groups": [["f0", "f1", "f2"], ["f3"]], "threshold": 0.2,
          "achieved_proportion": 8 / 15}
    assert checks.check_groups(ok, header) == []


def test_union_length_counts_overlaps_once():
    spans = [(1.0, 3.0), (2.0, 4.0), (6.0, 7.0), (0.0, 0.5)]
    assert tracer._union_length(spans, 0.75, 10.0) == pytest.approx(4.0)


def test_run_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("_work", "_results", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "explain_exact",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
