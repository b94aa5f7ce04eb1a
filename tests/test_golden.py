"""Golden CLI outputs: every command on small seeded inputs, compared byte for byte.

Each case runs one ``coalex`` invocation and records its exit code, its
stdout, its stderr (without logging lines) and every file it writes.  Only
the wall-clock fields ``time_per_instance_s`` and ``time_ratio_vs_complete``
and the temporary directory are masked.  After an intended output change,
regenerate the files under ``tests/golden/`` with
``PYTHONPATH=src python tests/test_golden.py``.
"""

from __future__ import annotations

import json
import re
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from coalex.cli import main

GOLDEN = Path(__file__).parent / "golden"
TIMED = ("time_per_instance_s", "time_ratio_vs_complete")
ENV_VARS = ("COALEX_SEED", "COALEX_JOBS", "COALEX_DELIMITER", "COALEX_MODEL", "COALEX_CONFIG")

G4 = ["{in}/g4.csv", "--target", "y"]
G5 = ["{in}/g5.csv", "--target", "y"]

# name -> (arguments, environment, record only the exit code)
CASES = {
    "explain_complete_dt": (["explain", *G4, "--model", "dt", "--method", "complete",
                             "--instances", "0,3", "--seed", "1"], {}, False),
    "explain_complete_rf_csv": (["explain", *G4, "--model", "rf", "--trees", "3",
                                 "--method", "complete", "--instances", "1,2", "--format", "csv",
                                 "--seed", "2", "--out", "{out}/explain.csv"], {}, False),
    "explain_kdepth_k_flag": (["explain", *G5, "--model", "dt", "--method", "kdepth", "--k", "2",
                               "--instances", "0,1,2"], {}, False),
    "explain_kdepth_inline_csv": (["explain", *G4, "--model", "rf", "--trees", "2",
                                   "--max-depth", "2", "--method", "kdepth:1",
                                   "--format", "csv"], {}, False),
    "explain_coalitional_proportion": (["explain", *G5, "--model", "dt",
                                        "--method", "coalitional:spearman",
                                        "--proportion", "0.5", "--instances", "0,4"], {}, False),
    "explain_coalitional_inline_t": (["explain", *G5, "--model", "rf", "--trees", "3",
                                      "--method", "coalitional:vif:t=0.3",
                                      "--instances", "2"], {}, False),
    "explain_coalitional_t_flag": (["explain", *G4, "--model", "dt", "--method", "coalitional:pca",
                                    "--t", "0.2", "--instances", "0,1",
                                    "--out", "{out}/pca.json"], {}, False),
    "explain_coalitional_default_t": (["explain", *G4, "--model", "dt",
                                       "--method", "coalitional:rev_spearman",
                                       "--instances", "5"], {}, False),
    "explain_model_based": (["explain", *G5, "--model", "dt", "--method", "coalitional:model_based",
                             "--delta", "0.05", "--repetitions", "2", "--seed", "3",
                             "--instances", "0,1"], {}, False),
    "explain_class_label_jobs": (["explain", *G4, "--model", "dt", "--method", "complete",
                                  "--class-label", "neg", "--instances", "0,1,2,3",
                                  "--jobs", "2"], {}, False),
    "explain_config_file": (["explain", "{in}/g4.csv", "--config", "{in}/explain.json"], {}, False),
    "explain_flag_over_config": (["explain", "{in}/g4.csv", "--config", "{in}/explain.json",
                                  "--seed", "22", "--model", "rf", "--trees", "2"], {}, False),
    "explain_env": (["explain", "{in}/g3.csv", "--target", "y", "--method", "kdepth", "--k", "1",
                     "--instances", "0,1"],
                    {"COALEX_SEED": "33", "COALEX_DELIMITER": ";", "COALEX_MODEL": "dt",
                     "COALEX_JOBS": "2"}, False),
    "explain_env_config": (["explain", "{in}/g4.csv", "--instances", "2"],
                           {"COALEX_CONFIG": "{in}/explain.json"}, False),
    "groups_spearman_t": (["groups", *G5, "--method", "spearman", "--t", "0.3"], {}, False),
    "groups_vif_proportion": (["groups", *G5, "--method", "vif", "--proportion", "0.5",
                               "--out", "{out}/groups.json"], {}, False),
    "groups_rev_vif_default_t": (["groups", *G4, "--method", "rev-vif"], {}, False),
    "groups_model_based": (["groups", *G5, "--method", "model_based", "--delta", "0.1",
                            "--repetitions", "2", "--model", "dt", "--seed", "5"], {}, False),
    "groups_config_file": (["groups", "{in}/g5.csv", "--config", "{in}/groups.json"], {}, False),
    "complexity_spearman_t": (["complexity", *G5, "--method", "spearman", "--t", "0.3"], {}, False),
    "complexity_rev_spearman_proportion": (["complexity", *G5, "--method", "rev_spearman",
                                            "--proportion", "0.4",
                                            "--out", "{out}/complexity.json"], {}, False),
    "complexity_model_based": (["complexity", *G4, "--method", "model_based", "--delta", "0.05",
                                "--repetitions", "2", "--model", "rf", "--trees", "2"], {}, False),
    "benchmark_synthetic_out": (["benchmark", "--synthetic", "2",
                                 "--methods", "complete,kdepth:2,coalitional:spearman:0.25,"
                                              "coalitional:vif:t=0.3",
                                 "--model", "dt", "--seed", "1", "--out", "{out}/bench.csv"],
                                {}, False),
    "benchmark_csv_stdout": (["benchmark", "{in}/g4.csv", "{in}/g5.csv", "--target", "y",
                              "--methods", "kdepth:1,complete,coalitional:pca:0.5,"
                                           "coalitional:model_based:0.1",
                              "--model", "dt", "--max-depth", "3", "--seed", "4"], {}, False),
    "benchmark_jobs": (["benchmark", *G4, "--methods", "complete,kdepth:2,coalitional:spearman",
                        "--model", "rf", "--trees", "2", "--jobs", "2"], {}, False),
    "benchmark_config_file": (["benchmark", "--config", "{in}/benchmark.json",
                               "--out", "{out}/cfg.csv"], {}, False),
    "error_explain_no_target": (["explain", "{in}/g4.csv", "--method", "complete"], {}, False),
    "error_explain_t_and_proportion": (["explain", *G4, "--method", "coalitional:vif",
                                        "--t", "0.2", "--proportion", "0.5"], {}, False),
    "error_explain_bad_instances": (["explain", *G4, "--method", "complete",
                                     "--instances", "0,99"], {}, False),
    "error_explain_missing_file": (["explain", "{in}/none.csv", "--target", "y"], {}, False),
    "error_explain_cap": (["explain", *G4, "--model", "dt", "--cap", "3"], {}, False),
    "error_explain_bad_model": (["explain", *G4, "--model", "svm"], {}, False),
    "error_explain_bad_method": (["explain", *G4, "--method", "sampling"], {}, False),
    "error_explain_bad_config": (["explain", *G4, "--config", "{in}/broken.json"], {}, False),
    "error_explain_bad_class": (["explain", *G4, "--model", "dt", "--class-label", "maybe"],
                                {}, False),
    "error_groups_no_method": (["groups", *G4], {}, False),
    "error_groups_unknown_method": (["groups", *G4, "--method", "kmeans", "--t", "0.3"], {}, False),
    "error_groups_model_based_proportion": (["groups", *G4, "--method", "model_based",
                                             "--delta", "0.1", "--proportion", "0.5"], {}, False),
    "error_groups_model_based_no_delta": (["groups", *G4, "--method", "model_based"], {}, False),
    "error_groups_bad_threshold": (["groups", *G4, "--method", "pca", "--t", "0.7"], {}, False),
    "error_complexity_no_method": (["complexity", *G4], {}, True),
    "error_benchmark_no_methods": (["benchmark", "--synthetic", "1"], {}, False),
    "error_benchmark_no_datasets": (["benchmark", "--methods", "complete"], {}, False),
    "error_benchmark_no_target": (["benchmark", "{in}/g4.csv", "--methods", "complete"], {}, False),
    "error_benchmark_model_based_no_delta": (["benchmark", "--synthetic", "1",
                                              "--methods", "coalitional:model_based"], {}, False),
}


def write_inputs(root: Path) -> None:
    """The seeded CSVs and config files the cases read."""
    rng = np.random.default_rng(2024)
    z = rng.normal(size=24)
    cols = [z + 0.3 * rng.normal(size=24), z + 0.6 * rng.normal(size=24),
            rng.normal(size=24), rng.normal(size=24)]
    X = np.column_stack(cols)
    y = np.where(X[:, 0] + X[:, 2] > 0, "pos", "neg")
    _write_csv(root / "g4.csv", "abcd", X, y, ",")

    X = np.empty((30, 5))
    X[:, 0] = rng.normal(size=30)
    for j in range(1, 5):
        X[:, j] = 0.8 * X[:, j - 1] + 0.6 * rng.normal(size=30)
    y = ((X[:, 0] > 0) ^ (X[:, 4] > 0)).astype(int)
    _write_csv(root / "g5.csv", ["x0", "x1", "x2", "x3", "x4"], X, y, ",")

    X = rng.normal(size=(20, 3))
    y = np.where(X[:, 1] > 0, "up", "down")
    _write_csv(root / "g3.csv", "uvw", X, y, ";")

    configs = {
        "explain.json": {"target": "y", "method": "kdepth", "k": 1, "model": {"kind": "dt"},
                         "seed": 11, "instances": "0,1", "format": "csv"},
        "groups.json": {"target": "y", "method": "pca", "proportion": 0.5, "seed": 4},
        "benchmark.json": {"methods": "complete,kdepth:2", "synthetic": 1, "seed": 3,
                           "model": {"kind": "dt", "max_depth": 3}, "jobs": 1},
    }
    for name, cfg in configs.items():
        (root / name).write_text(json.dumps(cfg), encoding="utf-8")
    (root / "broken.json").write_text("{not json", encoding="utf-8")


def _write_csv(path: Path, names, X, y, sep: str) -> None:
    lines = [sep.join([*names, "y"])]
    lines += [sep.join([*(f"{v:.4f}" for v in row), str(label)]) for row, label in zip(X, y)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _mask(text: str, root: Path) -> str:
    text = text.replace(str(root), "<tmp>")
    for key in TIMED:
        text = re.sub(rf'("{key}": )[^,}}\n]+', r"\1<masked>", text)
    lines = text.split("\n")
    for k, line in enumerate(lines):
        if ",".join(TIMED) in line:  # a benchmark CSV header: mask those columns below it
            cols = [line.split(",").index(key) for key in TIMED]
            for j in range(k + 1, len(lines)):
                if lines[j].startswith("--- "):
                    break
                cells = lines[j].split(",")
                if len(cells) > max(cols):
                    for c in cols:
                        cells[c] = "<masked>"
                    lines[j] = ",".join(cells)
    return "\n".join(lines)


def run_case(name: str, root: Path) -> str:
    """One case's exit code, stdout, stderr and written files, masked, as text."""
    args, env, exit_only = CASES[name]
    out = root / "out" / name
    out.mkdir(parents=True)
    fill = lambda s: s.replace("{in}", str(root / "in")).replace("{out}", str(out))
    environ = {var: None for var in ENV_VARS} | {k: fill(v) for k, v in env.items()}
    result = CliRunner().invoke(main, [fill(a) for a in args], env=environ)
    parts = [f"exit: {result.exit_code}"]
    if not exit_only:
        stderr = [line for line in result.stderr.splitlines()
                  if not re.match(r"(DEBUG|INFO|WARNING|ERROR|CRITICAL) ", line)]
        parts += ["--- stdout", result.stdout, "--- stderr", "\n".join(stderr)]
        for path in sorted(out.iterdir()):
            parts += [f"--- file {path.name}", path.read_text(encoding="utf-8")]
    return _mask("\n".join(parts) + "\n", root)


@pytest.fixture(scope="module")
def root(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    (root / "in").mkdir()
    write_inputs(root / "in")
    return root


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden(name, root):
    expected = (GOLDEN / f"{name}.txt").read_text(encoding="utf-8")
    assert run_case(name, root) == expected


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        (work / "in").mkdir()
        write_inputs(work / "in")
        GOLDEN.mkdir(exist_ok=True)
        for case in sorted(CASES):
            (GOLDEN / f"{case}.txt").write_text(run_case(case, work), encoding="utf-8")
    print(f"wrote {len(CASES)} golden files to {GOLDEN}", file=sys.stderr)
