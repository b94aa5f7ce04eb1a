"""Attribute-influence vectors: three weightings of one value table.

For an instance x and a target class c, the value of an attribute subset S
is v(S), the confidence for c at x of the model retrained on S (the class
prior when S is empty).  The influence of attribute i sums weighted
differences v(S + i) - v(S) over subsets S of the other attributes:

* complete      -- all of them, Shapley-weighted; exact but 2^n subset models.
* k-depth       -- those smaller than k, with renormalized weights; depth 1
                   is the linear influence (marginal vs the prior).
* coalitional   -- those inside the attribute's groups, weighted by the
                   factorial mass of those groups.

Each method is a :class:`Plan`, its weight matrix W in sparse form.  The
value table V[mask, instance] is filled in one pass over all instances.  The
empty subset's prior, and every model the :class:`~coalex.model.SubsetModelCache`
already holds, give one :func:`subset_eval` row each.  The other rows are
filled tree-major (:func:`~coalex.model.tree_values`): every tree of every such
model grows in one lockstep pass (or a few, under the model's memory budget),
and a row is the sum of its trees' values over the tree count; complete
influence with ``jobs`` > 1 forks workers that each grow a slice of the trees
in one call.  Each attribute's terms are summed left to right
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
from fractions import Fraction
from math import factorial, lgamma
from typing import Sequence

import numpy as np

from .dataset import AttributeSubset, ClassTarget, Dataset, subsets_by_size
from .errors import ComplexityCapError, DataError
from .grouping import Coalition
from .model import ModelSpec, SubsetModelCache, tree_values

COMPLETE_ATTRIBUTE_CAP = 20

# Exact rational weights up to this many attributes; log-gamma beyond.
_EXACT_LIMIT = 20

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


def shapley_penalty(sub_size: int, n: int) -> float:
    """Shapley weight |A'|! (n-|A'|-1)! / n! for a subset of the other attributes."""
    if n < 1 or not 0 <= sub_size <= n - 1:
        raise ValueError(f"invalid penalty arguments sub_size={sub_size}, n={n}")
    if n <= _EXACT_LIMIT:
        return float(Fraction(factorial(sub_size) * factorial(n - sub_size - 1), factorial(n)))
    return math.exp(lgamma(sub_size + 1) + lgamma(n - sub_size) - lgamma(n + 1))


def kdepth_penalty(sub_size: int, n: int, k: int) -> float:
    """Depth-k weight |A'|! (n-|A'|-1)! / (k (n-1)!); requires |A'| < k <= n."""
    if n < 1 or k < 1 or k > n or not 0 <= sub_size < k:
        raise ValueError(f"invalid penalty arguments sub_size={sub_size}, n={n}, k={k}")
    if n <= _EXACT_LIMIT:
        return float(Fraction(factorial(sub_size) * factorial(n - sub_size - 1),
                              k * factorial(n - 1)))
    return math.exp(lgamma(sub_size + 1) + lgamma(n - sub_size) - lgamma(n) - math.log(k))


def coalition_penalty(sub_size: int, group_size: int, groups_of_attr: Sequence[int]) -> float:
    """Coalition weight |g'|! (|g|-|g'|-1)! / sum over the attribute's groups of |g|!."""
    if group_size < 1 or not 0 <= sub_size <= group_size - 1:
        raise ValueError(f"invalid penalty arguments sub_size={sub_size}, group_size={group_size}")
    if not groups_of_attr or group_size not in groups_of_attr:
        raise ValueError("groups_of_attr must be non-empty and contain group_size")
    if max(groups_of_attr) <= _EXACT_LIMIT:
        denom = sum(factorial(g) for g in groups_of_attr)
        return float(Fraction(factorial(sub_size) * factorial(group_size - sub_size - 1), denom))
    logs = [lgamma(g + 1) for g in groups_of_attr]
    top = max(logs)
    log_denom = top + math.log(sum(math.exp(l - top) for l in logs))
    return math.exp(lgamma(sub_size + 1) + lgamma(group_size - sub_size) - log_denom)


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


def _plan(terms) -> Plan:
    """The plan of ``terms[i]``, (others, weights) pairs for attribute i: each subset s of
    ``others`` smaller than ``len(weights)`` adds ``weights[|s|] * (v(s + i) - v(s))``."""
    def without(i):  # (mask of s, weight) in term order
        for others, w in terms[i]:
            for mask in subsets_by_size(others, len(w) - 1):
                yield mask, w[mask.bit_count()]

    masks = sorted({m for i in range(len(terms)) for s, _ in without(i) for m in (s, s | 1 << i)})
    row = {m: r for r, m in enumerate(masks)}
    plan_terms = []
    for i in range(len(terms)):
        subs, weights = zip(*without(i))
        plan_terms.append((np.array([row[s | 1 << i] for s in subs], dtype=np.int32),
                           np.array([row[s] for s in subs], dtype=np.int32),
                           np.array(weights)))
    return Plan(masks, tuple(plan_terms))


def complete_plan(n: int) -> Plan:
    """Every subset of the other attributes, Shapley-weighted."""
    weights = [shapley_penalty(s, n) for s in range(n)]
    return _plan([[([j for j in range(n) if j != i], weights)] for i in range(n)])


def kdepth_plan(n: int, k: int) -> Plan:
    """Subsets of fewer than k other attributes, with depth-k weights."""
    if not 1 <= k <= n:
        raise ValueError(f"k must be in [1, {n}], got {k}")
    weights = [kdepth_penalty(s, n, k) for s in range(k)]
    return _plan([[([j for j in range(n) if j != i], weights)] for i in range(n)])


def coalitional_plan(coalition: Coalition) -> Plan:
    """One term list per group holding the attribute, overlapping groups included."""
    groups_of = [coalition.groups_containing(i) for i in range(coalition.n)]
    missing = [i for i, groups_i in enumerate(groups_of) if not groups_i]
    if missing:
        raise ValueError(f"coalition does not cover attributes {missing}")
    return _plan([
        [([j for j in g.indices() if j != i],
          [coalition_penalty(s, g.size, [h.size for h in groups_i]) for s in range(g.size)])
         for g in groups_i]
        for i, groups_i in enumerate(groups_of)])


def subset_eval(cache: SubsetModelCache, s: AttributeSubset, X: np.ndarray,
                target_idx) -> np.ndarray:
    """One value-table row: at each row r of X, the confidence for class index
    ``target_idx[r]`` of the model trained on s (the class prior when s is empty)."""
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


def _forest_rows(spec: ModelSpec, d: Dataset, subsets: list[AttributeSubset], X: np.ndarray,
                 target_idx: list[int], jobs: int, V: np.ndarray, rows: list[int]) -> None:
    """Fill the zero rows ``rows`` of V with the value-table rows of ``subsets``:
    the sum of their trees' values over the tree count.

    With ``jobs`` > 1, ``os.fork`` and no other thread, worker w of W =
    min(jobs, trees) is forked to sum trees w, w + W, ... and send back the
    raw bytes; this process sums trees 0, W, ... into V.  Each slice is one
    ``tree_values`` call, which grows its trees together.  A failed worker
    prints its error and makes this process raise; any exception here kills
    and reaps every worker.
    """
    T = spec.tree_count if spec.kind == "random_forest" else 1
    W = min(jobs, T) if hasattr(os, "fork") and threading.active_count() == 1 else 1
    shape = (len(subsets), len(X))
    workers = {}  # pid -> the read end of its pipe
    try:
        for w in range(1, W):
            read, write = os.pipe()
            pid = os.fork()
            if pid == 0:  # the worker never returns, so it runs none of the parent's cleanup
                status = 1
                try:
                    table = np.zeros(shape)
                    tree_values(spec, d, range(w, T, W), subsets, X, target_idx, table,
                                range(len(subsets)))
                    with open(write, "wb") as out:
                        out.write(table.tobytes())
                    status = 0
                except Exception:  # os._exit skips the printing of an uncaught error
                    traceback.print_exc()
                finally:
                    os._exit(status)
            os.close(write)
            workers[pid] = read
        tree_values(spec, d, range(0, T, W), subsets, X, target_idx, V, rows)
        for pid, read in list(workers.items()):
            with open(read, "rb", closefd=False) as f:
                table = f.read()
            status = os.waitpid(pid, 0)[1]
            os.close(workers.pop(pid))
            if status or len(table) != 8 * math.prod(shape):
                raise RuntimeError(f"tree worker {pid} failed: wait status {status}, "
                                   f"{len(table)} bytes for a {shape} float64 table")
            for r, values in zip(rows, np.frombuffer(table).reshape(shape)):
                V[r] += values
    finally:
        if workers:
            from signal import SIGKILL  # here, not at import: most runs fork no worker
        for pid, read in workers.items():
            os.close(read)
            with suppress(OSError):
                os.kill(pid, SIGKILL)
                os.waitpid(pid, 0)
    for r in rows:
        V[r] /= T


def _influence(cache: SubsetModelCache, instances: Sequence[int],
               targets: Sequence[ClassTarget] | None, plan: Plan,
               method_tag: str, jobs: int) -> list[InfluenceVector]:
    """``plan`` over the value table of ``instances``, filled in one pass."""
    d, spec = cache.dataset, cache.spec
    X = np.array([d.instance(i) for i in instances]).reshape(-1, d.n_attributes)
    if len(X) == 0:
        return []
    if targets is None:
        targets = predicted_classes(cache, instances)
    elif len(targets) != len(X):
        raise ValueError(f"{len(targets)} targets for {len(X)} instances")
    for c in set(targets):
        if not 0 <= c.index < d.n_classes or d.class_set[c.index] != c.class_id:
            raise DataError(f"class target {c} not in the dataset's class_set")
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
    its predicted class).  Costs 2^n subset models: refuses more than ``cap`` attributes.
    ``jobs`` > 1 grows a forest's trees in that many processes (see :func:`_forest_rows`)."""
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    n = cache.dataset.n_attributes
    if n > cap:
        raise ComplexityCapError(n, cap)
    return _influence(cache, instances, targets, complete_plan(n), "complete", jobs)


def kdepth_influence(cache: SubsetModelCache, instances: Sequence[int], k: int,
                     targets: Sequence[ClassTarget] | None = None) -> list[InfluenceVector]:
    """Shapley sum truncated to subsets of fewer than k other attributes."""
    plan = kdepth_plan(cache.dataset.n_attributes, k)
    return _influence(cache, instances, targets, plan, f"kdepth:{k}", 1)


def coalitional_influence(cache: SubsetModelCache, instances: Sequence[int],
                          coalition: Coalition,
                          targets: Sequence[ClassTarget] | None = None) -> list[InfluenceVector]:
    """Influence restricted to the coalition's groups (see :func:`coalitional_plan`)."""
    n = cache.dataset.n_attributes
    if coalition.n != n:
        raise ValueError(f"coalition over {coalition.n} attributes for a dataset with {n}")
    return _influence(cache, instances, targets, coalitional_plan(coalition), "coalitional", 1)
