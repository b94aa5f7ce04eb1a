"""The three workloads: their inputs, their coalex invocations and their checks.

Each workload is a closed loop of CLI invocations, run one at a time.  The
shapes below are fixed; ``--seed`` only changes the generated values, the
explained instances and coalex's own ``--seed``.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import checks
import inputs

EXPLAIN_TREES = 4
EXPLAIN_MAX_DEPTH = 4  # caps tree size, so it varies by ~2% between seeds, not ~12%
EXPLAIN_INSTANCES = 3
EXPLAIN_JOBS = 2
GRID_METHODS = ("complete", "kdepth:2", "coalitional:spearman:0.25",
                "coalitional:pca:0.25", "coalitional:vif:0.25")
GRID_CELLS = [("complete", ""), ("kdepth", "k=2"), ("coalitional:spearman", "p=0.25"),
              ("coalitional:pca", "p=0.25"), ("coalitional:vif", "p=0.25")]
GRID_MAX_DEPTH = 4
SEARCH_METHODS = ("vif", "rev_vif", "pca", "spearman", "rev_spearman")
SEARCH_PROPORTION = "0.25"
MODEL_BASED = ("--delta", "0.05", "--model", "rf", "--trees", "4", "--repetitions", "5")

SHAPES = {
    "explain_exact": [inputs.Table("explain_n8", 8, 100)],
    "benchmark_grid": [inputs.Table(f"grid_n{n}", n, 150) for n in (2, 5, 7)],
    "coalition_search": [inputs.Table("search_n16", 16, 100),
                         inputs.Table("model_based_n6", 6, 100)],
}


@dataclass
class Job:
    """One repetition of a workload: what to run, what it writes, how to check it."""

    csvs: list[Path]
    invocations: list[list[str]]
    outputs: list[Path]
    check: Callable[[], list[str]]


def build(name: str, workdir: Path, seed: int) -> Job:
    """Write the workload's seeded inputs under ``workdir`` and describe its job."""
    workdir.mkdir(parents=True, exist_ok=True)
    csvs = []
    for t in SHAPES[name]:
        path = workdir / f"{t.stem}.csv"
        inputs.write_table(path, t.n_attributes, t.n_rows, seed)
        csvs.append(path)
    return {"explain_exact": _explain, "benchmark_grid": _grid,
            "coalition_search": _search}[name](csvs, workdir, seed)


def _common(csv: Path, seed: int) -> list[str]:
    return [str(csv), "--target", inputs.TARGET, "--seed", str(seed)]


def _read(path: Path) -> str:
    return path.read_text(encoding="utf-8")


def _explain(csvs: list[Path], workdir: Path, seed: int) -> Job:
    (csv,) = csvs
    rows = SHAPES["explain_exact"][0].n_rows
    rng = np.random.default_rng([inputs.SALT, seed, rows])
    picks = sorted(int(i) for i in rng.choice(rows, size=EXPLAIN_INSTANCES, replace=False))
    out = workdir / "explain.json"
    args = ["explain", *_common(csv, seed), "--method", "complete", "--model", "rf",
            "--trees", str(EXPLAIN_TREES), "--max-depth", str(EXPLAIN_MAX_DEPTH), "--instances", ",".join(map(str, picks)),
            "--jobs", str(EXPLAIN_JOBS), "--out", str(out)]
    header, labels = inputs.read_header(csv), inputs.read_labels(csv)
    return Job(csvs, [args], [out], lambda: checks.check_explain(
        checks.load_json(_read(out)), header, labels, picks, EXPLAIN_TREES))


def _grid(csvs: list[Path], workdir: Path, seed: int) -> Job:
    out = workdir / "grid.csv"
    args = ["benchmark", *map(str, csvs), "--target", inputs.TARGET, "--seed", str(seed),
            "--methods", ",".join(GRID_METHODS), "--model", "dt",
            "--max-depth", str(GRID_MAX_DEPTH), "--jobs", "1", "--out", str(out)]
    widths = {p.stem: len(inputs.read_header(p)) for p in csvs}
    mirror = out.with_suffix(".json")
    return Job(csvs, [args], [out, mirror], lambda: checks.check_grid(
        _read(out), checks.load_json(_read(mirror)), widths, GRID_CELLS))


def _search(csvs: list[Path], workdir: Path, seed: int) -> Job:
    wide, small = csvs
    invocations, outputs = [], []
    for method in SEARCH_METHODS:
        out = workdir / f"groups_{method}.json"
        invocations.append(["groups", *_common(wide, seed), "--method", method,
                            "--proportion", SEARCH_PROPORTION, "--out", str(out)])
        outputs.append(out)
    mb_out = workdir / "groups_model_based.json"
    invocations.append(["groups", *_common(small, seed), "--method", "model_based",
                        *MODEL_BASED, "--out", str(mb_out)])
    wide_header, small_header = inputs.read_header(wide), inputs.read_header(small)

    def check() -> list[str]:
        problems = []
        for out in outputs:
            problems += [f"{out.name}: {p}" for p in
                         checks.check_groups(checks.load_json(_read(out)), wide_header)]
        problems += [f"{mb_out.name}: {p}" for p in
                     checks.check_partition(checks.load_json(_read(mb_out)), small_header)]
        return problems

    return Job(csvs, invocations, outputs + [mb_out], check)

