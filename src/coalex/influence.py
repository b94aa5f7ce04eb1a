"""Attribute-influence vectors: three weightings of one value table.

For an instance x and a target class c, the value of an attribute subset S
is v(S), the confidence for c at x of the model retrained on S (the class
prior when S is empty).  All three methods follow one rule over attribute groups
and a depth: for each group g holding attribute i and each subset S of g - i of
fewer than depth attributes, i's influence adds |S|! (|g|-|S|-1)! / D_i times
v(S + i) - v(S), where D_i sums min(depth, |h|) (|h|-1)! over the groups h holding i.

* complete      -- the full group at depth n: Shapley weights, 2^n subset models.
* k-depth       -- the full group at depth k, D_i = k (n-1)!; depth 1 is the
                   linear influence (marginal vs the prior).
* coalitional   -- the coalition's groups at depth n, D_i = the sum of |h|!.

Each weight is one integer ratio, which Python rounds once: it is exact (the
nearest float) at every n.

Each method is a :class:`Plan`, its weight matrix W in sparse form.  The
value table V[mask, instance] is filled in one pass over all instances.  The
empty subset's prior, and every model the :class:`~coalex.model.SubsetModelCache`
already holds, give one :func:`subset_eval` row each.  The other rows are
filled tree-major (:func:`~coalex.model.tree_values`): every tree of every such
model grows in one lockstep pass (or a few, under the model's memory budget),
and a row is the sum of its trees' values over the tree count; each method
with ``jobs`` > 1 forks workers that each grow a slice of the trees in one
call.  Each attribute's terms are summed left to right
with ``np.cumsum``, giving the floats of a Python ``total +=`` loop; ``np.sum``
sums pairwise and would not.
"""

from __future__ import annotations

import math
import os
import threading
import traceback
from contextlib import suppress
from dataclasses import dataclass
from math import factorial
from typing import Sequence

import numpy as np

from .dataset import AttributeSubset, ClassTarget, Dataset, subsets_by_size
from .errors import ComplexityCapError, DataError
from .grouping import Coalition
from .model import ModelSpec, SubsetModelCache, tree_values

COMPLETE_ATTRIBUTE_CAP = 20

# Values per instance block of Plan.sums: its temporaries hold at most 32 MB of float64.
VALUE_TABLE_CELLS = 1 << 22


@dataclass(frozen=True)
class InfluenceVector:
    """Signed influence of every attribute on one prediction."""

    values: tuple[float, ...]
    instance_index: int
    target: ClassTarget
    method_tag: str

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(float(v) for v in self.values))
        if not all(math.isfinite(v) for v in self.values):
            raise ValueError("influence values must be finite")

    def __len__(self) -> int:
        return len(self.values)

    def to_json(self, d: Dataset) -> dict:
        if len(self.values) != d.n_attributes:
            raise ValueError("influence vector length does not match the dataset")
        return {
            "instance": self.instance_index,
            "class": self.target.class_id,
            "method": self.method_tag,
            "influences": dict(zip(d.attribute_names, self.values)),
        }


@dataclass(frozen=True, eq=False)
class Plan:
    """A method's weight matrix W in sparse form: ``masks``, the distinct subset masks it
    evaluates, ascending, and ``terms[i]``, arrays of the rows in ``masks`` of the subsets
    with attribute i and without it, and their weights; i's influence sums
    ``weight * (v(with) - v(without))`` in that order."""

    masks: list[int]
    terms: tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]

    def sums(self, V: np.ndarray) -> np.ndarray:
        """W . V as attributes x instances, for V with one row per mask, in blocks of
        instances whose temporaries hold at most ``VALUE_TABLE_CELLS`` values."""
        out = np.zeros((len(self.terms), V.shape[1]))
        block = max(1, VALUE_TABLE_CELLS // len(self.masks))
        for lo in range(0, V.shape[1], block):
            Vb = V[:, lo:lo + block]
            for i, (plus, minus, weights) in enumerate(self.terms):
                steps = Vb[plus]
                steps -= Vb[minus]
                steps *= weights[:, None]
                # added to 0.0, as a loop starting from ``total = 0.0`` would
                out[i, lo:lo + block] += np.cumsum(steps, axis=0, out=steps)[-1]
        return out


def _weight(sub_size: int, group_size: int, denominator: int) -> float:
    """|s|! (|g|-|s|-1)! / D: one integer ratio, rounded once."""
    return factorial(sub_size) * factorial(group_size - sub_size - 1) / denominator


def _plan(groups: Sequence[int], n: int, depth: int) -> Plan:
    """The plan of ``groups``, masks over n attributes, at ``depth``, by the one rule of the
    module docstring; each attribute's terms run over its groups in order, by subset size."""
    def without(i):  # (mask of s, weight) in term order
        mine = [(g, g.bit_count()) for g in groups if g >> i & 1]
        D = sum(min(depth, size) * factorial(size - 1) for _, size in mine)
        for g, size in mine:
            w = [_weight(s, size, D) for s in range(min(depth, size))]
            for mask in subsets_by_size([j for j in range(n) if j != i and g >> j & 1], depth - 1):
                yield mask, w[mask.bit_count()]

    masks = sorted({m for i in range(n) for s, _ in without(i) for m in (s, s | 1 << i)})
    row = {m: r for r, m in enumerate(masks)}
    plan_terms = []
    for i in range(n):
        subs, weights = zip(*without(i))
        plan_terms.append((np.array([row[s | 1 << i] for s in subs], dtype=np.int32),
                           np.array([row[s] for s in subs], dtype=np.int32),
                           np.array(weights)))
    return Plan(masks, tuple(plan_terms))


def complete_plan(n: int) -> Plan:
    """Every subset of the other attributes, Shapley-weighted: depth n, since n (n-1)! = n!."""
    return kdepth_plan(n, n)


def kdepth_plan(n: int, k: int) -> Plan:
    """Subsets of fewer than k other attributes: the full group at depth k, D_i = k (n-1)!."""
    if not 1 <= k <= n:
        raise ValueError(f"k must be in [1, {n}], got {k}")
    return _plan([(1 << n) - 1], n, k)


def coalitional_plan(coalition: Coalition) -> Plan:
    """Subsets inside each group holding the attribute, overlapping groups included: the
    groups at depth n, D_i = the sum of |h|! over the groups h holding i."""
    missing = [i for i in range(coalition.n) if not any(g.mask >> i & 1 for g in coalition.groups)]
    if missing:
        raise ValueError(f"coalition does not cover attributes {missing}")
    return _plan([g.mask for g in coalition.groups], coalition.n, coalition.n)


def subset_eval(cache: SubsetModelCache, s: AttributeSubset, X: np.ndarray,
                target_idx) -> np.ndarray:
    """One value-table row: at each row r of X, the confidence for class index
    ``target_idx[r]`` of the model trained on s (the class prior when s is empty)."""
    idx, n_classes = np.asarray(target_idx), cache.dataset.n_classes
    outside = (idx < 0) | (idx >= n_classes)
    if outside.any():
        raise ValueError(f"class index {idx[outside][0]} outside [0, {n_classes})")
    conf = cache.get_or_train(s).confidences(X)
    if len(target_idx) != len(conf):
        raise ValueError(f"{len(target_idx)} target classes for {len(conf)} rows")
    return conf[np.arange(len(conf)), target_idx]


def predicted_classes(cache: SubsetModelCache, instances: Sequence[int]) -> list[ClassTarget]:
    """Class predicted for each instance by the model trained on all attributes."""
    d = cache.dataset
    X = np.array([d.instance(i) for i in instances]).reshape(-1, d.n_attributes)
    full = cache.get_or_train(AttributeSubset.full(d.n_attributes))
    return [d.class_target(d.class_set[k]) for k in np.argmax(full.confidences(X), axis=1)]


def _cpu() -> int | None:
    """The CPU this process last ran on, field 39 of ``/proc/self/stat``; None where unknown."""
    with suppress(OSError, IndexError, ValueError):
        with open("/proc/self/stat") as f:
            return int(f.read().rsplit(")", 1)[1].split()[36])
    return None


def _forest_rows(spec: ModelSpec, d: Dataset, subsets: list[AttributeSubset], X: np.ndarray,
                 target_idx: list[int], jobs: int, V: np.ndarray, rows: list[int]) -> None:
    """Fill the zero rows ``rows`` of V with the value-table rows of ``subsets``:
    the sum of their trees' values over the tree count.

    With ``jobs`` > 1, ``os.fork`` and no other thread, worker w of W =
    min(jobs, trees, CPUs this process may run on) is forked to sum trees w,
    w + W, ... into its row of one shared anonymous map, then set the row's last
    float, its completion mark, to 1; this process sums trees 0, W, ... into V
    and adds each worker's table once the worker has exited 0 with its mark set.
    Each slice is one ``tree_values`` call, which grows its trees together.  A
    worker first binds itself to this process's CPUs less the one this process
    runs on, where the system allows it; this process is never bound.  A failed
    worker prints its error and makes this process raise; any exception here
    kills and reaps every worker.
    """
    T = spec.tree_count if spec.kind == "random_forest" else 1
    W = min(jobs, T) if hasattr(os, "fork") and threading.active_count() == 1 else 1
    cpus = os.sched_getaffinity(0) if W > 1 and hasattr(os, "sched_getaffinity") else set()
    W = min(W, len(cpus) or W)
    # the workers keep off this process's CPU, which a forked worker otherwise tends to share
    others = cpus - {_cpu()} if W > 1 and hasattr(os, "sched_setaffinity") else set()
    shape = (len(subsets), len(X))
    if W > 1:
        import mmap  # here, not at import: most runs fork no worker
        size = math.prod(shape) + 1  # worker w's table, then its mark, in row w - 1
        tables = np.frombuffer(mmap.mmap(-1, 8 * (W - 1) * size)).reshape(W - 1, size)
    workers = {}  # pid -> its row of ``tables``
    try:
        for w in range(1, W):
            pid = os.fork()
            if pid == 0:  # the worker never returns, so it runs none of the parent's cleanup
                status = 1
                try:
                    if others:
                        with suppress(OSError):
                            os.sched_setaffinity(0, others)
                    tree_values(spec, d, range(w, T, W), subsets, X, target_idx,
                                tables[w - 1, :-1].reshape(shape), range(len(subsets)))
                    tables[w - 1, -1] = 1
                    status = 0
                except Exception:  # os._exit skips the printing of an uncaught error
                    traceback.print_exc()
                finally:
                    os._exit(status)
            workers[pid] = tables[w - 1]
        tree_values(spec, d, range(0, T, W), subsets, X, target_idx, V, rows)
        for pid, table in list(workers.items()):
            status = os.waitpid(pid, 0)[1]
            del workers[pid]
            if status or table[-1] != 1:
                raise RuntimeError(f"tree worker {pid} failed: wait status {status}, "
                                   f"completion mark {table[-1]}")
            for r, values in zip(rows, table[:-1].reshape(shape)):
                V[r] += values
    finally:
        if workers:
            from signal import SIGKILL  # here, not at import: most runs fork no worker
        for pid in workers:
            with suppress(OSError):
                os.kill(pid, SIGKILL)
                os.waitpid(pid, 0)
    for r in rows:
        V[r] /= T


def _influence(cache: SubsetModelCache, instances: Sequence[int],
               targets: Sequence[ClassTarget] | None, plan: Plan,
               method_tag: str, jobs: int) -> list[InfluenceVector]:
    """``plan`` over the value table of ``instances``, filled in one pass; ``jobs`` > 1
    grows a forest's trees in that many processes (see :func:`_forest_rows`)."""
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    d, spec = cache.dataset, cache.spec
    X = np.array([d.instance(i) for i in instances]).reshape(-1, d.n_attributes)
    if targets is None:  # an empty call trains no full model
        targets = predicted_classes(cache, instances) if len(X) else []
    elif len(targets) != len(X):
        raise ValueError(f"{len(targets)} targets for {len(X)} instances")
    for c in set(targets):
        if not 0 <= c.index < d.n_classes or d.class_set[c.index] != c.class_id:
            raise DataError(f"class target {c} not in the dataset's class_set")
    if len(X) == 0:
        return []
    target_idx = [c.index for c in targets]
    subsets = [AttributeSubset(mask, d.n_attributes) for mask in plan.masks]
    grown = [r for r, s in enumerate(subsets)
             if s.size and spec.kind != "prior_baseline" and not cache.holds(s)]
    V = np.zeros((len(subsets), len(X)))
    if grown:
        _forest_rows(spec, d, [subsets[r] for r in grown], X, target_idx, jobs, V, grown)
        cache.add_grown(subsets[r] for r in grown)
    for r in sorted(set(range(len(subsets))).difference(grown)):
        V[r] = subset_eval(cache, subsets[r], X, target_idx)
    return [InfluenceVector(tuple(row), i, c, method_tag)
            for row, i, c in zip(plan.sums(V).T.tolist(), instances, targets)]


def complete_influence(cache: SubsetModelCache, instances: Sequence[int],
                       targets: Sequence[ClassTarget] | None = None,
                       cap: int = COMPLETE_ATTRIBUTE_CAP, jobs: int = 1) -> list[InfluenceVector]:
    """Exact Shapley influence, one vector per instance of its class in ``targets`` (``None``:
    its predicted class).  Costs 2^n subset models: refuses more than ``cap`` attributes."""
    n = cache.dataset.n_attributes
    if n > cap:
        raise ComplexityCapError(n, cap)
    return _influence(cache, instances, targets, complete_plan(n), "complete", jobs)


def kdepth_influence(cache: SubsetModelCache, instances: Sequence[int], k: int,
                     targets: Sequence[ClassTarget] | None = None,
                     jobs: int = 1) -> list[InfluenceVector]:
    """Shapley sum truncated to subsets of fewer than k other attributes."""
    plan = kdepth_plan(cache.dataset.n_attributes, k)
    return _influence(cache, instances, targets, plan, f"kdepth:{k}", jobs)


def coalitional_influence(cache: SubsetModelCache, instances: Sequence[int],
                          coalition: Coalition, targets: Sequence[ClassTarget] | None = None,
                          jobs: int = 1) -> list[InfluenceVector]:
    """Influence restricted to the coalition's groups (see :func:`coalitional_plan`)."""
    n = cache.dataset.n_attributes
    if coalition.n != n:
        raise ValueError(f"coalition over {coalition.n} attributes for a dataset with {n}")
    plan = coalitional_plan(coalition)
    return _influence(cache, instances, targets, plan, "coalitional", jobs)
