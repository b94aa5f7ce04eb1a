"""Attribute-influence vectors for single predictions.

For an instance x and a target class, the influence of attribute i is a
weighted sum of confidence differences between models retrained with and
without i over a family of attribute subsets:

* complete      -- every subset of the other attributes, Shapley-weighted;
                   exact but costs 2^n subset models.
* k-depth       -- only subsets smaller than k, with renormalized weights;
                   depth 1 is the linear influence (marginal vs the prior).
* coalitional   -- only subsets inside attribute groups that contain i,
                   weighted by the factorial mass of those groups.

All three share one evaluation primitive, :func:`subset_eval`, backed by a
:class:`~coalex.model.SubsetModelCache` so each distinct subset is trained
exactly once per run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from math import factorial, lgamma
from typing import Sequence

from .dataset import AttributeSubset, ClassTarget, Dataset, subsets_by_size
from .errors import ComplexityCapError
from .grouping import Coalition
from .model import SubsetModelCache

COMPLETE_ATTRIBUTE_CAP = 20

# Exact rational weights up to this many attributes; log-gamma beyond.
_EXACT_LIMIT = 20


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


def subset_eval(cache: SubsetModelCache, s: AttributeSubset, x, c: ClassTarget) -> float:
    """Confidence for class c of the model trained on subset s, evaluated at x.

    The empty subset evaluates to the class prior.
    """
    return cache.get_or_train(s).confidence(x, c)


def predicted_class(cache: SubsetModelCache, instance_index: int) -> ClassTarget:
    """Class predicted for the instance by the model trained on all attributes."""
    d = cache.dataset
    full = AttributeSubset.full(d.n_attributes)
    idx = cache.get_or_train(full).predict_class(d.instance(instance_index))
    return ClassTarget(d.class_set[idx], idx)


def _influence(cache: SubsetModelCache, instance_index: int, target: ClassTarget | None,
               terms, method_tag: str) -> InfluenceVector:
    """The weighted sum shared by the three methods.

    ``terms[i]`` lists (others, weights) pairs for attribute i: every subset
    of ``others`` with fewer than ``len(weights)`` members contributes
    ``weights[size] * (v(subset + i) - v(subset))``, in size-then-lexicographic
    order.  Each subset is evaluated once per call.
    """
    if target is None:
        target = predicted_class(cache, instance_index)
    d = cache.dataset
    x = d.instance(instance_index)
    table: dict[int, float] = {}

    def ev(subset: AttributeSubset) -> float:
        value = table.get(subset.mask)
        if value is None:
            value = subset_eval(cache, subset, x, target)
            table[subset.mask] = value
        return value

    values = []
    for i, pairs in enumerate(terms):
        total = 0.0
        for others, weights in pairs:
            for sub in subsets_by_size(others, d.n_attributes, max_size=len(weights) - 1):
                total += weights[sub.size] * (ev(sub.with_index(i)) - ev(sub))
        values.append(total)
    return InfluenceVector(tuple(values), instance_index, target, method_tag)


def complete_influence(cache: SubsetModelCache, instance_index: int,
                       target: ClassTarget | None = None,
                       cap: int = COMPLETE_ATTRIBUTE_CAP) -> InfluenceVector:
    """Exact Shapley influence over all attribute subsets.

    Exponential in the attribute count: refuses to run above ``cap``
    attributes.
    """
    n = cache.dataset.n_attributes
    if n > cap:
        raise ComplexityCapError(n, cap)
    weights = [shapley_penalty(s, n) for s in range(n)]
    terms = [[([j for j in range(n) if j != i], weights)] for i in range(n)]
    return _influence(cache, instance_index, target, terms, "complete")


def kdepth_influence(cache: SubsetModelCache, instance_index: int, k: int,
                     target: ClassTarget | None = None) -> InfluenceVector:
    """Shapley sum truncated to subsets of fewer than k other attributes."""
    n = cache.dataset.n_attributes
    if not 1 <= k <= n:
        raise ValueError(f"k must be in [1, {n}], got {k}")
    weights = [kdepth_penalty(s, n, k) for s in range(k)]
    terms = [[([j for j in range(n) if j != i], weights)] for i in range(n)]
    return _influence(cache, instance_index, target, terms, f"kdepth:{k}")


def coalitional_influence(cache: SubsetModelCache, instance_index: int, coalition: Coalition,
                          target: ClassTarget | None = None) -> InfluenceVector:
    """Influence restricted to the coalition's groups.

    The group sum is taken literally: a subset reachable through two
    overlapping groups contributes once per group (the cache makes the
    duplicate evaluation free).
    """
    n = cache.dataset.n_attributes
    if coalition.n != n:
        raise ValueError(f"coalition over {coalition.n} attributes for a dataset with {n}")
    groups_of = [coalition.groups_containing(i) for i in range(n)]
    missing = [i for i, groups_i in enumerate(groups_of) if not groups_i]
    if missing:
        raise ValueError(f"coalition does not cover attributes {missing}")
    terms = []
    for i, groups_i in enumerate(groups_of):
        sizes = [g.size for g in groups_i]
        terms.append([([j for j in g.indices() if j != i],
                       [coalition_penalty(s, g.size, sizes) for s in range(g.size)])
                      for g in groups_i])
    return _influence(cache, instance_index, target, terms, "coalitional")
