"""Output checks, computed apart from the program.

Each check takes one output as the program wrote it, plus facts the
benchmark knows from its own inputs (header, labels, tree count), and
returns a list of problems; an empty list means the output is correct.
None of them imports coalex.
"""

from __future__ import annotations

import csv
import io
import json
import math
from collections import Counter

import numpy as np

EFFICIENCY_TOL = 1e-6
EXACT_TOL = 1e-12


def check_explain(doc: dict, header: list[str], labels: list[str],
                  instances: list[int], tree_count: int) -> list[str]:
    """Shapley efficiency for every explained instance.

    The influences of one instance sum to conf_full(x, c) - prior(c), and a
    forest of T trees gives conf_full = votes / T with votes in
    [ceil(T / C), T] for the predicted class c.
    """
    problems = []
    counts = Counter(labels)
    n_classes = len(counts)
    records = doc.get("influences", [])
    got = [r.get("instance") for r in records]
    if got != instances:
        problems.append(f"explained instances {got}, expected {instances}")
    for r in records:
        where = f"instance {r.get('instance')}"
        values = r.get("influences", {})
        if list(values) != header:
            problems.append(f"{where}: attributes {list(values)} differ from header {header}")
            continue
        if not all(isinstance(v, float) and math.isfinite(v) for v in values.values()):
            problems.append(f"{where}: non-finite influence")
            continue
        if r.get("class") not in counts:
            problems.append(f"{where}: class {r.get('class')!r} is not a label of the input")
            continue
        prior = counts[r["class"]] / len(labels)
        votes = (math.fsum(values.values()) + prior) * tree_count
        nearest = round(votes)
        if abs(votes - nearest) > EFFICIENCY_TOL:
            problems.append(f"{where}: (sum + prior) * T = {votes!r} is not a whole vote count")
        elif not math.ceil(tree_count / n_classes) <= nearest <= tree_count:
            problems.append(f"{where}: {nearest} votes outside [ceil(T/C), T]")
    return problems


def _grid_rows(csv_text: str) -> list[dict]:
    lines = [ln for ln in csv_text.splitlines() if not ln.startswith("#")]
    return list(csv.DictReader(io.StringIO("\n".join(lines))))


def _opt_float(text: str):
    return None if text == "" else float(text)


def check_grid(csv_text: str, json_doc: dict, widths: dict[str, int],
               methods: list[tuple[str, str]]) -> list[str]:
    """Benchmark table rows against identities the method grid must satisfy.

    ``widths`` maps each input's file stem to its attribute count, read
    from the benchmark's own CSV header; ``methods`` lists the expected
    (method, param) cells of every input, in order.
    """
    problems = []
    rows = _grid_rows(csv_text)
    mirror = json_doc.get("records", [])
    cells = [(r["dataset"], r["method"], r["param"]) for r in rows]
    expected = [(stem, m, p) for stem in widths for m, p in methods]
    if cells != expected:
        problems.append(f"grid cells {cells} differ from {expected}")
    if len(mirror) != len(rows):
        problems.append(f"CSV has {len(rows)} rows, JSON mirror {len(mirror)}")
    for r, j in zip(rows, mirror):
        where = f"{r['dataset']}/{r['method']}"
        for key in ("dataset", "method", "param"):
            if r[key] != j.get(key):
                problems.append(f"{where}: CSV {key}={r[key]!r}, JSON {j.get(key)!r}")
        for key in ("mean_error", "time_per_instance_s", "time_ratio_vs_complete",
                    "complexity_proportion", "group_count_mean", "group_size_mean"):
            if _opt_float(r[key]) != j.get(key):
                problems.append(f"{where}: CSV {key}={r[key]!r}, JSON {j.get(key)!r}")
        err = float(r["mean_error"])
        if not (math.isfinite(err) and err >= 0.0):
            problems.append(f"{where}: mean_error {err!r} is not finite and >= 0")
            continue
        n = widths.get(r["dataset"])
        if n is None:
            continue
        full = (1 << n) - 1
        prop = _opt_float(r["complexity_proportion"])
        if r["method"] == "complete":
            if err != 0.0 or prop != 1.0:
                problems.append(f"{where}: complete row has error {err!r}, proportion {prop!r}")
        elif r["method"] == "kdepth":
            k = int(r["param"].removeprefix("k="))
            want = sum(math.comb(n, s) for s in range(1, k + 1)) / full
            if prop is None or abs(prop - want) > EXACT_TOL:
                problems.append(f"{where}: proportion {prop!r}, expected {want!r}")
            if k >= n and err > EXACT_TOL:
                problems.append(f"{where}: full depth differs from complete by {err!r}")
        else:
            closure = None if prop is None else prop * full
            if (closure is None or abs(closure - round(closure)) > 1e-9
                    or not n <= round(closure) <= full):
                problems.append(f"{where}: proportion {prop!r} is not a closure size "
                                f"in [{n}, {full}] over {full}")
    return problems


def closure_size(masks: list[int], n: int) -> int:
    """Distinct non-empty subsets of the groups, plus every singleton."""
    seen = np.zeros(1 << n, dtype=bool)
    for g in masks:
        subs = np.zeros(1, dtype=np.int64)
        for i in range(n):
            if g >> i & 1:
                subs = np.concatenate((subs, subs | (1 << i)))
        seen[subs] = True
    seen[[1 << i for i in range(n)]] = True
    seen[0] = False
    return int(seen.sum())


def _group_masks(doc: dict, header: list[str], problems: list[str]) -> list[int]:
    position = {name: i for i, name in enumerate(header)}
    masks = []
    for g in doc.get("groups", []):
        unknown = [a for a in g if a not in position]
        if unknown or not g:
            problems.append(f"group {g} is empty or names attributes {unknown} not in the header")
            continue
        masks.append(sum(1 << position[a] for a in set(g)))
    covered = 0
    for m in masks:
        covered |= m
    if covered != (1 << len(header)) - 1:
        problems.append("groups do not cover every attribute")
    return masks


def check_groups(doc: dict, header: list[str]) -> list[str]:
    """A threshold-searched coalition: a normalized cover whose cost matches."""
    problems: list[str] = []
    masks = _group_masks(doc, header, problems)
    for a in range(len(masks)):
        for b in range(len(masks)):
            if a != b and masks[a] & ~masks[b] == 0:
                problems.append(f"group {a} is contained in group {b}")
    t = doc.get("threshold")
    if not (isinstance(t, float) and 0.0 < t < 0.5):
        problems.append(f"threshold {t!r} outside (0, 0.5)")
    n = len(header)
    want = closure_size(masks, n) / ((1 << n) - 1)
    if doc.get("achieved_proportion") != want:
        problems.append(f"achieved_proportion {doc.get('achieved_proportion')!r}, "
                        f"closure count gives {want!r}")
    return problems


def check_partition(doc: dict, header: list[str]) -> list[str]:
    """A model-based coalition: every attribute in exactly one group."""
    problems: list[str] = []
    masks = _group_masks(doc, header, problems)
    if sum(m.bit_count() for m in masks) != len(header):
        problems.append("groups overlap, so they are not a partition")
    return problems


def load_json(text: str) -> dict:
    doc = json.loads(text)
    if not isinstance(doc, dict):
        raise ValueError("output is not a JSON object")
    return doc
