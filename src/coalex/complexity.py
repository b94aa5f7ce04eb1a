"""Evaluation cost of a coalition, and threshold search against a cost budget.

The cost unit is one distinct attribute subset: the coalition's *closure*
is every non-empty subset of every group plus all singletons, which is
exactly the set of subset models a coalitional influence pass must train.
The complete computation costs 2^n - 1 subsets; a coalition's cost is
reported as a proportion of that.  Pricing a coalition counts its closure by
inclusion-exclusion over the maximal groups; it never lists the subsets.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

from .dataset import Dataset
from .errors import ConfigError
from .grouping import GROUPING_METHODS, Coalition, grouping_scores, maximal_masks

BISECTION_EPS = 1e-6
# Bisection stops after this many probes, or once a probe's proportion is
# within the tolerance of the target.
BISECTION_MAX_PROBES = 20
BISECTION_TOL = 0.02


def _union_size(gens: tuple[int, ...]) -> int:
    """|D(g_1) u ... u D(g_k)| over an antichain, D(g) being the non-empty submasks
    of g: each g_i adds 2^|g_i| - 1 less the union of D(g_i & g_j) over j < i."""
    size, seen = 0, 0
    for i, g in enumerate(gens):
        size += (1 << g.bit_count()) - 1
        if g & seen:  # g meets an earlier generator
            meets = {g & h for h in gens[:i]} - {0}
            if len(meets) == 1:
                size -= (1 << meets.pop().bit_count()) - 1
            else:
                size -= _union_size(maximal_masks(meets))
        seen |= g
    return size


class _Closure:
    """The non-empty submasks of an antichain of masks, never listed: ``len`` is
    counted once, when it is built, and ``in`` tests a mask against the antichain."""

    def __init__(self, gens: tuple[int, ...]):
        self._gens, self._len = gens, _union_size(gens)

    def __len__(self) -> int:
        return self._len

    def __contains__(self, mask) -> bool:
        try:
            mask = operator.index(mask)  # any integer, numpy's too, as an unbounded int
        except TypeError:
            return False
        return mask > 0 and any(mask & ~g == 0 for g in self._gens)


def closure(G: Coalition) -> _Closure:
    """The distinct non-empty subsets a coalitional influence pass evaluates: all
    non-empty subsets of every group, plus every singleton.  It offers ``len`` and
    ``mask in``; ``coalitional_plan(G).masks`` lists the masks themselves."""
    return _Closure(maximal_masks({g.mask for g in G.groups} | {1 << i for i in range(G.n)}))


def complexity_proportion(G: Coalition) -> float:
    """Closure size relative to the complete cost 2^n - 1."""
    return len(closure(G)) / float((1 << G.n) - 1)


@dataclass(frozen=True)
class ComplexityReport:
    closure_size: int
    complete_size: int
    proportion: float
    group_count: int
    mean_group_size: float

    @classmethod
    def from_coalition(cls, G: Coalition) -> "ComplexityReport":
        size = len(closure(G))
        complete = (1 << G.n) - 1
        sizes = [g.size for g in G.groups]
        return cls(
            closure_size=size,
            complete_size=complete,
            proportion=size / complete,
            group_count=len(G.groups),
            mean_group_size=sum(sizes) / len(sizes),
        )


@dataclass(frozen=True)
class ThresholdSearchResult:
    """Outcome of the bisection over the grouping threshold."""

    threshold: float
    achieved: float
    coalition: Coalition
    converged: bool  # False means: closest achievable, target not met within BISECTION_TOL
    probe_count: int


def check_proportion(target: float) -> None:
    if not 0.0 < target <= 1.0:
        raise ConfigError(f"target proportion must lie in (0, 1], got {target}")


def find_threshold(method: str, d: Dataset, target: float) -> ThresholdSearchResult:
    """Bisect the grouping threshold so the coalition costs ~``target`` of complete.

    Probes midpoints of a shrinking bracket inside (0, 0.5); stops once a
    probe lands within ``BISECTION_TOL`` of the target or after
    ``BISECTION_MAX_PROBES`` probes.  The grouping's threshold-independent
    scores (VIFs, the Spearman matrix or the PCA loadings) are computed once,
    before the first probe, and every probe passes them as ``scores=``.
    The returned threshold is the probe whose achieved proportion is closest
    to the target (ties favor the smaller threshold), flagged unconverged
    when even the best probe misses by more than the tolerance.  Complexity is not
    assumed perfectly monotone in the threshold; non-monotone steps merely
    steer the bracket, the closest-probe rule decides.
    """
    if method not in GROUPING_METHODS:
        raise ValueError(f"unknown grouping method {method!r}; choose from "
                         f"{sorted(GROUPING_METHODS)}")
    check_proportion(target)
    grouping_fn = GROUPING_METHODS[method]
    scores = grouping_scores(method, d)
    lo, hi = BISECTION_EPS, 0.5 - BISECTION_EPS
    probes: list[tuple[float, float, Coalition]] = []
    for _ in range(BISECTION_MAX_PROBES):
        mid = (lo + hi) / 2.0
        G = grouping_fn(d, mid, scores=scores)
        achieved = complexity_proportion(G)
        probes.append((mid, achieved, G))
        if abs(achieved - target) <= BISECTION_TOL:
            break
        if achieved < target:
            lo = mid
        else:
            hi = mid
    best_t, best_achieved, best_G = min(
        probes, key=lambda p: (abs(p[1] - target), p[0])
    )
    return ThresholdSearchResult(
        threshold=best_t,
        achieved=best_achieved,
        coalition=best_G,
        converged=abs(best_achieved - target) <= BISECTION_TOL,
        probe_count=len(probes),
    )
