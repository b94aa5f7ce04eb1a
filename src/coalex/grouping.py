"""Coalition extraction: which attributes should be explained together.

Data-driven methods read correlation structure straight off the dataset
(PCA loadings, variance inflation factors, Spearman rank correlation, and
"reverse" variants that gather weakly related attributes instead).  The
model-based method probes the trained classifier itself with structured
value randomization.  Every method returns a normalized
:class:`Coalition`: groups cover all attributes and no group is contained
in another.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .dataset import AttributeSubset, Dataset
from .model import ROUND_ROWS, SubsetModelCache, TrainedModelHandle

VIF_CAP = 1e6

# Membership-rule constants: the VIF ratio offset, the reverse-VIF damping
# of the threshold, and the correlation cut-offs below/above which an
# attribute keeps a singleton group.
VIF_MEMBERSHIP_OFFSET = 0.4
REV_VIF_DAMPING = 0.05
SPEARMAN_SINGLETON_MAX = 0.1
REV_SPEARMAN_SINGLETON_MIN = 0.5


@dataclass(frozen=True)
class Coalition:
    """A covering family of attribute groups."""

    groups: tuple[AttributeSubset, ...]
    n: int

    def __post_init__(self):
        for g in self.groups:
            if g.n != self.n:
                raise ValueError("group universe does not match the coalition")
            if g.size == 0:
                raise ValueError("coalition groups must be non-empty")
        ordered = tuple(sorted(set(self.groups), key=lambda g: g.indices()))
        object.__setattr__(self, "groups", ordered)

    def to_json(self, d: Dataset, method: str) -> dict:
        """The groups by attribute name, and the grouping method that built them."""
        return {"groups": [[d.attribute_names[i] for i in g.indices()] for g in self.groups],
                "method": method}


def maximal_masks(masks: set[int]) -> tuple[int, ...]:
    """The non-zero masks that no other mask contains, largest first."""
    kept: list[int] = []
    for m in sorted(masks, key=int.bit_count, reverse=True):
        for k in kept:  # a plain loop: all() over a generator costs more on short lists
            if not m & ~k:
                break
        else:
            if m:
                kept.append(m)
    return tuple(kept)


def normalize(groups: Iterable[AttributeSubset | Iterable[int]], n: int) -> Coalition:
    """Canonical coalition: drop contained groups, cover every attribute.

    Any group that is a subset of another is removed (duplicates collapse),
    and a singleton is kept for every attribute no group covers.
    """
    masks = {1 << i for i in range(n)}
    for g in groups:
        s = g if isinstance(g, AttributeSubset) else AttributeSubset.from_indices(g, n)
        if s.n != n:
            raise ValueError("group universe does not match n")
        masks.add(s.mask)
    return Coalition(tuple(AttributeSubset(m, n) for m in maximal_masks(masks)), n)


def check_threshold(t: float) -> None:
    if not 0.0 < t < 0.5:
        raise ValueError(f"threshold must lie in (0, 0.5), got {t}")


# ---------------------------------------------------------------------------
# numeric kernels


def _average_ranks(col: np.ndarray) -> np.ndarray:
    """1-based ranks with ties averaged."""
    order = np.argsort(col, kind="stable")
    sv = col[order]
    boundary = np.flatnonzero(sv[1:] != sv[:-1]) + 1
    starts = np.concatenate(([0], boundary))
    stops = np.concatenate((boundary, [len(sv)]))
    avg = (starts + stops + 1) / 2.0  # mean of 1-based ranks within each run
    ranks = np.empty(len(sv))
    ranks[order] = np.repeat(avg, stops - starts)
    return ranks


def spearman_matrix(d: Dataset) -> np.ndarray:
    """Absolute Spearman correlation of every attribute pair.

    Pearson correlation on average ranks; a constant column correlates 0
    with everything else while the diagonal stays 1.
    """
    if d.n_instances < 2:
        raise ValueError("Spearman correlation requires at least 2 instances")
    n = d.n_attributes
    ranks = np.empty((d.n_instances, n))
    constant = np.zeros(n, dtype=bool)
    for j in range(n):
        col = d.features[:, j]
        constant[j] = col.min() == col.max()
        ranks[:, j] = _average_ranks(col)
    corr = np.ones((n, n))
    if n > 1:
        with np.errstate(invalid="ignore", divide="ignore"):
            corr = np.abs(np.corrcoef(ranks, rowvar=False))
        corr = np.nan_to_num(corr, nan=0.0)
        corr[constant, :] = 0.0
        corr[:, constant] = 0.0
        np.clip(corr, 0.0, 1.0, out=corr)
        np.fill_diagonal(corr, 1.0)
    return corr


def standardized_features(d: Dataset) -> np.ndarray:
    """Columns centered and scaled to unit variance; constant columns become zero."""
    X = d.features
    mean = X.mean(axis=0)
    std = X.std(axis=0, ddof=0)
    out = np.zeros_like(X)
    nz = std > 0
    out[:, nz] = (X[:, nz] - mean[nz]) / std[nz]
    return out


def pca_loadings(d: Dataset) -> np.ndarray:
    """All principal-component loading vectors, by descending eigenvalue.

    Row k of the result holds component k's coefficient for each original
    attribute (eigenvectors of the covariance of the standardized columns).
    """
    if d.n_instances < 2:
        raise ValueError("PCA requires at least 2 instances")
    Z = standardized_features(d)
    cov = np.atleast_2d(np.cov(Z, rowvar=False))
    eigvals, eigvecs = np.linalg.eigh(cov)
    order = np.argsort(eigvals)[::-1]
    return eigvecs[:, order].T.copy()


def vif_all(d: Dataset, s: AttributeSubset | None = None) -> np.ndarray:
    """Variance inflation factor of each attribute in ``s`` against the others.

    Ordinary least squares with an intercept; exact collinearity is capped
    at ``VIF_CAP`` instead of diverging, and singular designs fall back to
    the pseudo-inverse solution.  Values are aligned with the ascending
    attribute indices of ``s``.
    """
    if s is None:
        s = AttributeSubset.full(d.n_attributes)
    if s.n != d.n_attributes:
        raise ValueError("subset universe does not match the dataset")
    cols = list(s.indices())
    X = d.features[:, cols]
    m, q = X.shape
    out = np.empty(q)
    for a in range(q):
        target = X[:, a]
        ss_tot = float(np.sum((target - target.mean()) ** 2))
        if ss_tot <= 0.0:
            out[a] = 1.0  # constant column: no variance to inflate
            continue
        design = np.column_stack([np.ones(m), np.delete(X, a, axis=1)])
        beta, *_ = np.linalg.lstsq(design, target, rcond=None)
        resid = target - design @ beta
        r2 = 1.0 - float(resid @ resid) / ss_tot
        r2 = min(max(r2, 0.0), 1.0)
        out[a] = VIF_CAP if r2 >= 1.0 - 1e-6 else 1.0 / (1.0 - r2)
    return out


# ---------------------------------------------------------------------------
# membership rules (matrix/loadings in, raw groups out)


def groups_from_loadings(loadings: np.ndarray, t: float) -> list[set[int]]:
    """One candidate group per component: attributes loading close to the max."""
    groups = []
    for row in np.atleast_2d(np.abs(np.asarray(loadings, dtype=np.float64))):
        amax = row.max()
        if amax <= 0.0:
            continue
        groups.append({int(i) for i in np.flatnonzero(row >= amax * (1.0 - t))})
    return groups


def _groups_by_row(corr: np.ndarray, singleton, partners) -> list[set[int]]:
    """Per attribute a, over its row of correlations with the other attributes:
    a singleton group when ``singleton(row)`` holds, else a plus the partners
    the boolean mask ``partners(row)`` selects."""
    corr = np.asarray(corr, dtype=np.float64)
    n = corr.shape[0]
    groups = []
    for a in range(n):
        others = np.array([b for b in range(n) if b != a], dtype=np.intp)
        row = corr[a, others]
        if others.size == 0 or singleton(row):
            groups.append({a})
        else:
            groups.append({a, *others[partners(row)].tolist()})
    return groups


def groups_from_correlation(corr: np.ndarray, t: float) -> list[set[int]]:
    """Per attribute: itself plus the partners nearly as correlated as its best.

    An attribute whose strongest partner stays at or below
    ``SPEARMAN_SINGLETON_MAX`` keeps a singleton group.
    """
    return _groups_by_row(corr, lambda row: row.max() <= SPEARMAN_SINGLETON_MAX,
                          lambda row: row > row.max() * (1.0 - t))


def groups_from_correlation_reversed(corr: np.ndarray, t: float) -> list[set[int]]:
    """Per attribute: itself plus its least-correlated partners.

    An attribute whose weakest partner is still above
    ``REV_SPEARMAN_SINGLETON_MIN`` keeps a singleton group.
    """
    return _groups_by_row(corr, lambda row: row.min() > REV_SPEARMAN_SINGLETON_MIN,
                          lambda row: row < row.min() + row.max() * t)


# ---------------------------------------------------------------------------
# grouping methods


def grouping_scores(method: str, d: Dataset):
    """The threshold-independent scores of grouping ``method``, which every grouping
    method takes as keyword ``scores`` and computes when omitted: the PCA loadings,
    the Spearman matrix, or each attribute's VIF ``old[b]`` plus ``new[a, b]``, b's
    VIF once a is removed (NaN on the diagonal).  The primitives are looked up
    when called, so wrappers installed on this module's functions see every call."""
    if method == "pca":
        return pca_loadings(d)
    if method in ("spearman", "rev_spearman"):
        return spearman_matrix(d)
    n = d.n_attributes
    new = np.full((n, n), np.nan)
    for a in range(n):
        new[a, np.arange(n) != a] = vif_all(d, AttributeSubset.full(n).without_index(a))
    return vif_all(d), new


def group_pca(d: Dataset, t: float, *, scores: np.ndarray | None = None) -> Coalition:
    check_threshold(t)
    loadings = grouping_scores("pca", d) if scores is None else scores
    return normalize(groups_from_loadings(loadings, t), d.n_attributes)


def group_spearman(d: Dataset, t: float, *, scores: np.ndarray | None = None) -> Coalition:
    check_threshold(t)
    corr = grouping_scores("spearman", d) if scores is None else scores
    return normalize(groups_from_correlation(corr, t), d.n_attributes)


def group_rev_spearman(d: Dataset, t: float, *, scores: np.ndarray | None = None) -> Coalition:
    check_threshold(t)
    corr = grouping_scores("rev_spearman", d) if scores is None else scores
    return normalize(groups_from_correlation_reversed(corr, t), d.n_attributes)


def _group_by_vif(d: Dataset, t: float, member, scores: tuple | None) -> Coalition:
    """Group each attribute a with every b for which ``member(new, old)`` holds,
    where old is b's VIF and new is b's VIF once a is removed.  ``scores`` are
    ``grouping_scores("vif", d)``: n + 1 ``vif_all`` calls, none depending on t."""
    check_threshold(t)
    old, new = grouping_scores("vif", d) if scores is None else scores
    inside = member(new, old) | np.eye(d.n_attributes, dtype=bool)
    return normalize([np.flatnonzero(row).tolist() for row in inside], d.n_attributes)


def group_vif(d: Dataset, t: float, *, scores: tuple | None = None) -> Coalition:
    """Group each attribute with those whose VIF collapses when it is removed."""
    return _group_by_vif(d, t, lambda new, old: new < old * (VIF_MEMBERSHIP_OFFSET + t), scores)


def group_rev_vif(d: Dataset, t: float, *, scores: tuple | None = None) -> Coalition:
    """Group each attribute with those whose VIF it barely supports."""
    return _group_by_vif(d, t, lambda new, old: new > old * (1.0 - t * REV_VIF_DAMPING), scores)


GROUPING_METHODS = {
    "pca": group_pca,
    "spearman": group_spearman,
    "rev_spearman": group_rev_spearman,
    "vif": group_vif,
    "rev_vif": group_rev_vif,
}


# ---------------------------------------------------------------------------
# model-based grouping


def _randomized_fidelity(d: Dataset, model: TrainedModelHandle, pred: np.ndarray,
                         class_groups: Sequence[Sequence[int]],
                         uniform_attrs: Sequence[int],
                         repetitions: int, seed: int) -> float:
    """Fidelity engine: class-constrained joint swaps vs free per-attribute swaps.

    Attributes in a ``class_groups`` entry jointly take the values of a donor
    instance that ``pred``, the model's classes of the unmodified rows, puts
    in the instance's class (a class with a single member donates to itself);
    each attribute in ``uniform_attrs`` takes its value from a uniformly random
    instance.  Returns the fraction of unchanged predicted classes, averaged
    over seeded rounds.  A round's draws are one ``integers`` call whose bounds
    follow a per-row loop (per row: its class size for each class group, then
    m per free attribute), so they equal that loop's sequential scalar draws.
    The randomized tables of a block of rounds (about ``ROUND_ROWS`` rows) are
    stacked and predicted in one call; prediction is row-wise, so each round's
    classes are those of its own call.
    """
    if repetitions < 1:
        raise ValueError("repetitions must be >= 1")
    X = d.features
    m, n = X.shape
    # members lists each class's rows in ascending order, as flatnonzero(pred == c)
    # would; row i's class starts at members[first[i]].
    _, cls, counts = np.unique(pred, return_inverse=True, return_counts=True)
    members = np.argsort(cls, kind="stable")
    first = (np.cumsum(counts) - counts)[cls]
    group_cols = [np.array(g, dtype=np.intp) for g in sorted(tuple(sorted(g)) for g in class_groups)]
    free_cols = np.array(sorted(uniform_attrs), dtype=np.intp)
    k = len(group_cols)
    highs = np.column_stack([np.tile(counts[cls][:, None], k), np.full((m, free_cols.size), m)])
    scores = np.empty(repetitions)
    step = max(1, ROUND_ROWS // m)  # rounds per prediction call
    for lo in range(0, repetitions, step):
        rounds = range(lo, min(lo + step, repetitions))
        randomized = np.empty((len(rounds), m, n))
        for block, r in zip(randomized, rounds):
            draws = np.random.default_rng([seed, r]).integers(0, highs)
            for j, g in enumerate(group_cols):
                block[:, g] = X[members[first + draws[:, j]][:, None], g]
            block[:, free_cols] = X[draws[:, k:], free_cols]
        classes = model.predict_classes(randomized.reshape(-1, n)).reshape(len(rounds), m)
        scores[lo:lo + len(rounds)] = (classes == pred).mean(axis=1)
    return float(np.mean(scores))


def group_model_based(cache: SubsetModelCache, delta: float,
                      repetitions: int = 10, seed: int = 0) -> Coalition:
    """Greedy fidelity-driven grouping against the cache's full model.

    Starting from all attributes as one candidate group, repeatedly move out
    the attribute whose removal hurts fidelity least, as long as fidelity
    stays at least ``delta`` above the all-singletons baseline; the survivor
    becomes a group and the removed attributes are re-examined.  Attributes
    never reaching the bar end up as singletons.
    """
    if not 0 < delta < math.inf:
        raise ValueError(f"delta must be finite and > 0, got {delta}")
    d = cache.dataset
    n = d.n_attributes
    handle = cache.get_or_train(AttributeSubset.full(n))
    pred = handle.predict_classes(d.features)

    fid_memo: dict[frozenset[int], float] = {}

    def fid_with_group(group: frozenset[int]) -> float:
        # Candidate group class-constrained even when it has shrunk to one
        # attribute; everything outside it is swapped freely.
        value = fid_memo.get(group)
        if value is None:
            class_groups = [tuple(sorted(group))] if group else []
            uniform = [j for j in range(n) if j not in group]
            value = _randomized_fidelity(d, handle, pred, class_groups, uniform,
                                         repetitions, seed)
            fid_memo[group] = value
        return value

    baseline = fid_with_group(frozenset())
    bar = baseline + delta
    sigma: list[set[int]] = []
    R = list(range(n))
    A: list[int] = []
    while R or A:
        if not A and fid_with_group(frozenset(R)) < bar:
            sigma.extend({j} for j in R)
            break
        if len(R) == 1:
            sigma.append(set(R))
            R, A = A, []
            continue
        best_j, best_fid = -1, -math.inf
        for j in R:
            f = fid_with_group(frozenset(R) - {j})
            if f > best_fid:
                best_j, best_fid = j, f
        if best_fid < bar:
            sigma.append(set(R))
            R, A = A, []
        else:
            R.remove(best_j)
            A.append(best_j)
    return normalize(sigma, n)
