"""Traced in-process run of a workload's CLI invocations.

Run as ``python3 perfbench/tracer.py PLAN RESULT``: PLAN is a JSON file
holding ``invocations`` (argument lists for ``coalex``) and ``seconds``.
The script alternates untraced and traced passes of the invocations
through ``coalex.cli.main(args, standalone_mode=False)`` until ``seconds``
have passed, and writes the per-layer metrics of the fastest traced pass,
plus the tracing overhead, to RESULT.

Tracing wraps the public functions of every coalex module from outside,
at every module that imported them by name, so the program is unchanged.
Each thread keeps its own span stack; a span's self time is its duration
minus its children.  The invocation itself is the root span: its self
time (option resolution, output formatting) is its duration minus the
union of the intervals its children cover, in any thread.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

EXPLAIN, GRID, SEARCH = "explain_exact", "benchmark_grid", "coalition_search"
ALL = (EXPLAIN, GRID, SEARCH)

# (module, attribute, span name, workloads that must reach it).  A name the
# program no longer has, or one with no call on its workload, fails the run.
WRAPS = (
    ("coalex.dataset", "load_csv", "dataset.load_csv", ALL),
    ("coalex.dataset", "AttributeSubset.__post_init__", "dataset.subset", ALL),
    ("coalex.model", "train", "model.train", ALL),
    ("coalex.model", "SubsetModelCache.get_or_train", "model.get_or_train", ALL),
    ("coalex.model", "TrainedModelHandle.confidences", "model.confidences", (EXPLAIN, GRID)),
    ("coalex.model", "TrainedModelHandle.predict_classes", "model.predict_classes", (SEARCH,)),
    ("coalex.influence", "complete_influence", "influence.complete", (EXPLAIN, GRID)),
    ("coalex.influence", "kdepth_influence", "influence.kdepth", (GRID,)),
    ("coalex.influence", "coalitional_influence", "influence.coalitional", (GRID,)),
    ("coalex.influence", "subset_eval", "influence.subset_eval", (EXPLAIN, GRID)),
    ("coalex.grouping", "group_pca", "grouping.group_pca", (GRID, SEARCH)),
    ("coalex.grouping", "group_spearman", "grouping.group_spearman", (GRID, SEARCH)),
    ("coalex.grouping", "group_rev_spearman", "grouping.group_rev_spearman", (SEARCH,)),
    ("coalex.grouping", "group_vif", "grouping.group_vif", (GRID, SEARCH)),
    ("coalex.grouping", "group_rev_vif", "grouping.group_rev_vif", (SEARCH,)),
    ("coalex.grouping", "group_model_based", "grouping.group_model_based", (SEARCH,)),
    ("coalex.grouping", "vif_all", "grouping.vif_all", (GRID, SEARCH)),
    ("coalex.grouping", "spearman_matrix", "grouping.spearman_matrix", (GRID, SEARCH)),
    ("coalex.grouping", "pca_loadings", "grouping.pca_loadings", (GRID, SEARCH)),
    ("coalex.complexity", "find_threshold", "complexity.find_threshold", (GRID, SEARCH)),
    ("coalex.complexity", "closure", "complexity.closure", (GRID, SEARCH)),
    ("coalex.evaluation", "run_benchmark", "evaluation.run_benchmark", (GRID,)),
    ("coalex.evaluation", "error_score", "evaluation.error_score", (GRID,)),
    ("coalex.evaluation", "write_benchmark_csv", "evaluation.write_csv", (GRID,)),
    ("coalex.evaluation", "write_benchmark_json", "evaluation.write_json", (GRID,)),
)
# Wrapped names that only count calls: they are too hot, or too thin, for a span.
COUNT_ONLY = {"dataset.subset", "influence.subset_eval"}
ROOT = "cli.main"

# (metric, unit, better, end-to-end metric it should move, workloads where it is non-zero)
METRICS = (
    ("dataset.load_csv_s", "s", "lower", "setup_s on every workload", ALL),
    ("dataset.subsets_built", "count", "lower", "wall_s on benchmark_grid", ALL),
    ("model.train_calls", "count", "lower", "wall_s, peak_rss_mb on explain_exact", ALL),
    ("model.train_s", "s", "lower", "wall_s on explain_exact", ALL),
    ("model.train_ms_per_model", "ms", "lower", "wall_s on explain_exact", ALL),
    ("model.cache_lookups", "count", "lower", "wall_s on benchmark_grid", ALL),
    ("model.cache_hit_ratio", "ratio", "higher", "wall_s on benchmark_grid", (EXPLAIN, GRID)),
    ("model.cache_wait_s", "s", "lower", "wall_s on explain_exact", ALL),
    ("model.confidences_calls", "count", "lower", "wall_s on benchmark_grid", (EXPLAIN, GRID)),
    ("model.confidences_s", "s", "lower", "wall_s on benchmark_grid", (EXPLAIN, GRID)),
    ("model.confidences_us_per_call", "us", "lower", "wall_s on benchmark_grid", (EXPLAIN, GRID)),
    ("model.predict_rows", "count", "lower", "wall_s on coalition_search", (SEARCH,)),
    ("model.predict_classes_s", "s", "lower", "wall_s on coalition_search", (SEARCH,)),
    ("model.predict_us_per_row", "us", "lower", "wall_s on coalition_search", (SEARCH,)),
    ("influence.instances", "count", "lower", "wall_s on benchmark_grid", (EXPLAIN, GRID)),
    ("influence.subset_evals", "count", "lower", "wall_s on benchmark_grid", (EXPLAIN, GRID)),
    ("influence.self_s", "s", "lower", "wall_s on benchmark_grid", (EXPLAIN, GRID)),
    ("grouping.calls", "count", "lower", "wall_s on coalition_search", (GRID, SEARCH)),
    ("grouping.vif_calls", "count", "lower", "wall_s on coalition_search", (GRID, SEARCH)),
    ("grouping.vif_s", "s", "lower", "wall_s on coalition_search", (GRID, SEARCH)),
    ("grouping.spearman_s", "s", "lower", "wall_s on coalition_search", (GRID, SEARCH)),
    ("grouping.pca_s", "s", "lower", "wall_s on coalition_search", (GRID, SEARCH)),
    ("grouping.model_based_self_s", "s", "lower", "wall_s on coalition_search", (SEARCH,)),
    ("complexity.probes", "count", "lower", "wall_s on coalition_search", (GRID, SEARCH)),
    ("complexity.closure_masks", "count", "lower", "wall_s on coalition_search", (GRID, SEARCH)),
    ("complexity.closure_s", "s", "lower", "wall_s on coalition_search", (GRID, SEARCH)),
    ("complexity.find_threshold_s", "s", "lower", "wall_s on coalition_search", (GRID, SEARCH)),
    ("evaluation.cells", "count", "lower", "wall_s on benchmark_grid", (GRID,)),
    ("evaluation.oracle_s", "s", "lower", "wall_s on benchmark_grid", (GRID,)),
    ("evaluation.error_score_s", "s", "lower", "wall_s on benchmark_grid", (GRID,)),
    ("evaluation.write_s", "s", "lower", "wall_s on benchmark_grid", (GRID,)),
    ("evaluation.self_s", "s", "lower", "wall_s on benchmark_grid", (GRID,)),
    ("cli.invocations", "count", "lower", "wall_s on every workload", ALL),
    ("cli.self_s", "s", "lower", "wall_s on every workload", ALL),
)


class _Frame:
    __slots__ = ("name", "child", "trained")

    def __init__(self, name):
        self.name = name
        self.child = 0.0
        self.trained = False


class _Acc:
    """One thread's aggregates: per span [calls, total_s, self_s], plus counters."""

    def __init__(self):
        self.spans = defaultdict(lambda: [0, 0.0, 0.0])
        self.counts = defaultdict(float)


class Tracer:
    """Wraps coalex functions in spans and aggregates them in memory."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._accs: list[_Acc] = []
        self._root_children: list[tuple[float, float]] = []
        self._restore: list = []
        self.missing: list[str] = []

    # -- per-thread state ---------------------------------------------------

    def _state(self):
        local = self._local
        try:
            return local.stack, local.acc
        except AttributeError:
            local.stack, local.acc, local.batch = [], _Acc(), 0
            with self._lock:
                self._accs.append(local.acc)
            return local.stack, local.acc

    def merged(self) -> _Acc:
        out = _Acc()
        for acc in self._accs:
            for name, (calls, total, self_s) in acc.spans.items():
                row = out.spans[name]
                row[0] += calls
                row[1] += total
                row[2] += self_s
            for name, v in acc.counts.items():
                out.counts[name] += v
        return out

    # -- wrappers -------------------------------------------------------------

    def _span(self, name, fn):
        tracer = self
        local = self._local

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack, acc = tracer._state()
            if name == "model.confidences" and local.batch:
                return fn(*args, **kwargs)
            frame = _Frame(name)
            parent = stack[-1] if stack else None
            stack.append(frame)
            if name == "model.predict_classes":
                local.batch += 1
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                if name == "model.predict_classes":
                    local.batch -= 1
                dt = t1 - t0
                row = acc.spans[name]
                row[0] += 1
                row[1] += dt
                row[2] += dt - frame.child
                if parent is None:  # a child of the invocation, in any thread
                    tracer._root_children.append((t0, t1))
                else:
                    parent.child += dt
                    parent.trained |= name == "model.train"
                if name == "model.get_or_train" and not frame.trained:
                    acc.counts["cache_hits"] += 1
                if name == "influence.complete" and parent is not None \
                        and parent.name == "evaluation.run_benchmark":
                    acc.counts["oracle_s"] += dt
            tracer._count_result(name, acc, args, result)
            return result

        return traced

    @staticmethod
    def _count_result(name, acc, args, result):
        if name == "model.predict_classes":
            acc.counts["predict_rows"] += len(args[1])
        elif name == "complexity.find_threshold":
            acc.counts["probes"] += result.probe_count
        elif name == "complexity.closure":
            acc.counts["closure_masks"] += len(result)
        elif name == "evaluation.run_benchmark":
            acc.counts["cells"] += len(result)

    def _counter(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            tracer._state()[1].spans[name][0] += 1
            return fn(*args, **kwargs)

        return counted

    def install(self) -> None:
        """Wrap every WRAPS entry wherever coalex holds a reference to it."""
        import coalex.cli  # noqa: F401  (loads every coalex module)
        from coalex.grouping import GROUPING_METHODS

        modules = [m for k, m in sorted(sys.modules.items())
                   if m is not None and (k == "coalex" or k.startswith("coalex."))]
        for module_name, attr, name, _ in WRAPS:
            owner = sys.modules.get(module_name)
            *cls_path, fn_name = attr.split(".")
            for part in cls_path:
                owner = getattr(owner, part, None)
            original = getattr(owner, fn_name, None) if owner is not None else None
            if original is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            make = self._counter if name in COUNT_ONLY else self._span
            wrapped = make(name, original)
            if cls_path:
                self._patch(owner, fn_name, original, wrapped)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, original, wrapped)
            for key, value in list(GROUPING_METHODS.items()):
                if value is original:
                    GROUPING_METHODS[key] = wrapped
                    self._restore.append((GROUPING_METHODS.__setitem__, key, original))

    def _patch(self, owner, key, original, wrapped):
        setattr(owner, key, wrapped)
        self._restore.append((functools.partial(setattr, owner), key, original))

    def uninstall(self) -> None:
        for setter, key, original in reversed(self._restore):
            setter(key, original)
        self._restore.clear()

    def invoke(self, main, args) -> bool:
        """One CLI invocation as the root span; True when it exits 0."""
        self._state()
        self._root_children = []
        t0 = time.perf_counter()
        ok = _call(main, args)
        t1 = time.perf_counter()
        covered = _union_length(self._root_children, t0, t1)
        row = self._local.acc.spans[ROOT]
        row[0] += 1
        row[1] += t1 - t0
        row[2] += (t1 - t0) - covered
        return ok


def _call(main, args) -> bool:
    try:
        main(args, standalone_mode=False)
    except SystemExit as exc:
        return exc.code in (0, None)
    return True


def _union_length(intervals, lo, hi) -> float:
    total, end = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def layer_metrics(acc: _Acc) -> dict[str, float]:
    """The METRICS values from one traced pass."""
    span = lambda name, k: acc.spans[name][k] if name in acc.spans else 0
    calls = lambda name: span(name, 0)
    total = lambda name: span(name, 1)
    self_s = lambda name: span(name, 2)
    per = lambda a, b, scale: a / b * scale if b else 0.0
    c = acc.counts
    lookups = calls("model.get_or_train")
    values = {
        "dataset.load_csv_s": total("dataset.load_csv"),
        "dataset.subsets_built": calls("dataset.subset"),
        "model.train_calls": calls("model.train"),
        "model.train_s": total("model.train"),
        "model.train_ms_per_model": per(total("model.train"), calls("model.train"), 1e3),
        "model.cache_lookups": lookups,
        "model.cache_hit_ratio": per(c["cache_hits"], lookups, 1.0),
        "model.cache_wait_s": self_s("model.get_or_train"),
        "model.confidences_calls": calls("model.confidences"),
        "model.confidences_s": total("model.confidences"),
        "model.confidences_us_per_call": per(total("model.confidences"),
                                             calls("model.confidences"), 1e6),
        "model.predict_rows": int(c["predict_rows"]),
        "model.predict_classes_s": total("model.predict_classes"),
        "model.predict_us_per_row": per(total("model.predict_classes"), c["predict_rows"], 1e6),
        "influence.instances": sum(calls(f"influence.{m}")
                                   for m in ("complete", "kdepth", "coalitional")),
        "influence.subset_evals": calls("influence.subset_eval"),
        "influence.self_s": sum(self_s(f"influence.{m}")
                                for m in ("complete", "kdepth", "coalitional")),
        "grouping.calls": sum(row[0] for name, row in acc.spans.items()
                              if name.startswith("grouping.group_")),
        "grouping.vif_calls": calls("grouping.vif_all"),
        "grouping.vif_s": total("grouping.vif_all"),
        "grouping.spearman_s": total("grouping.spearman_matrix"),
        "grouping.pca_s": total("grouping.pca_loadings"),
        "grouping.model_based_self_s": self_s("grouping.group_model_based"),
        "complexity.probes": int(c["probes"]),
        "complexity.closure_masks": int(c["closure_masks"]),
        "complexity.closure_s": total("complexity.closure"),
        "complexity.find_threshold_s": total("complexity.find_threshold"),
        "evaluation.cells": int(c["cells"]),
        "evaluation.oracle_s": c["oracle_s"],
        "evaluation.error_score_s": total("evaluation.error_score"),
        "evaluation.write_s": total("evaluation.write_csv") + total("evaluation.write_json"),
        "evaluation.self_s": self_s("evaluation.run_benchmark"),
        "cli.invocations": calls(ROOT),
        "cli.self_s": self_s(ROOT),
    }
    assert list(values) == [m[0] for m in METRICS]
    return values


def layer_self_times(acc: _Acc) -> dict[str, float]:
    """Self time per layer (the prefix of each span name)."""
    out: dict[str, float] = defaultdict(float)
    for name, (_, _, self_s) in acc.spans.items():
        if name not in COUNT_ONLY:
            out[name.split(".")[0]] += self_s
    return dict(out)


def run(plan: dict) -> dict:
    """Alternate untraced and traced passes until ``plan["seconds"]`` have passed;
    report the fastest traced pass and the overhead against the fastest untraced one."""
    from coalex.cli import main

    invocations = plan["invocations"]
    deadline = time.perf_counter() + plan["seconds"]
    untraced, traced = [], []
    attempted = failed = 0
    best = None
    missing: list[str] = []
    while not traced or time.perf_counter() < deadline:
        t0 = time.perf_counter()
        for args in invocations:
            attempted += 1
            failed += not _call(main, args)
        untraced.append(time.perf_counter() - t0)

        tracer = Tracer()
        tracer.install()
        try:
            t0 = time.perf_counter()
            for args in invocations:
                attempted += 1
                failed += not tracer.invoke(main, args)
            traced.append(time.perf_counter() - t0)
        finally:
            tracer.uninstall()
        missing = tracer.missing
        if traced[-1] == min(traced):
            best = tracer.merged()
    return {
        "attempted": attempted,
        "failed": failed,
        "missing": missing,
        "untraced_s": untraced,
        "traced_s": traced,
        "overhead_s": min(traced) - min(untraced),
        "spans": dict(best.spans),
        "layer_self_s": layer_self_times(best),
        "metrics": layer_metrics(best),
    }


if __name__ == "__main__":
    plan_path, result_path = sys.argv[1:3]
    result = run(json.loads(Path(plan_path).read_text(encoding="utf-8")))
    Path(result_path).write_text(json.dumps(result, indent=1), encoding="utf-8")
