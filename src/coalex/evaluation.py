"""Scoring approximations against the exact influence, and the benchmark loop.

The error of an approximate influence vector is its distance to the exact
vector for the same instance and class, using the scale-normalized sum of
absolute differences d(i, j) = (1 / 2 sqrt(n)) * sum_k |i_k - j_k|.  The
benchmark runs a grid of datasets x methods, recording mean error and
wall-clock per instance with everything a method needs (grouping,
threshold search, subset training, influence sums) inside its span.
"""

from __future__ import annotations

import csv
import io
import json
import logging
import math
import time
from dataclasses import asdict, dataclass, replace
from math import comb
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .complexity import ComplexityReport, find_threshold
from .dataset import ClassTarget, Dataset
from .errors import ConfigError
from .grouping import GROUPING_METHODS, Coalition, group_model_based
from .influence import (
    COMPLETE_ATTRIBUTE_CAP,
    InfluenceVector,
    complete_influence,
    coalitional_influence,
    kdepth_influence,
)
from .model import ModelSpec, SubsetModelCache

logger = logging.getLogger(__name__)

CSV_COLUMNS = (
    "dataset", "method", "param", "mean_error", "time_per_instance_s",
    "time_ratio_vs_complete", "complexity_proportion", "group_count_mean",
    "group_size_mean", "seed",
)


def influence_distance(i, j) -> float:
    """Scaled L1 distance between two influence vectors of equal length."""
    a = i.values if isinstance(i, InfluenceVector) else tuple(i)
    b = j.values if isinstance(j, InfluenceVector) else tuple(j)
    if len(a) != len(b):
        raise ValueError(f"influence vectors of different lengths ({len(a)} vs {len(b)})")
    if len(a) == 0:
        raise ValueError("influence vectors must be non-empty")
    return sum(abs(x - y) for x, y in zip(a, b)) / (2.0 * math.sqrt(len(a)))


def error_score(approx: InfluenceVector, oracle: InfluenceVector) -> float:
    """Distance of an approximation from the exact vector it approximates."""
    if approx.instance_index != oracle.instance_index:
        raise ValueError("error score across different instances")
    if approx.target != oracle.target:
        raise ValueError("error score across different target classes")
    if len(approx) != len(oracle):
        raise ValueError("error score across different attribute counts")
    return influence_distance(approx, oracle)


# ---------------------------------------------------------------------------
# synthetic data


SYNTHETIC_RHO = 0.88


def make_synthetic_dataset(n_attributes: int, n_instances: int, seed: int) -> Dataset:
    """Seeded dataset with a planted correlation chain and interaction labels.

    The attributes form an autoregressive chain with neighbor correlation
    ``SYNTHETIC_RHO``, so correlation-driven grouping sees graded structure: tight
    thresholds isolate neighbors, loose ones merge most of the chain.  The
    binary label is the parity of two or three median-thresholded attributes
    spread along the chain, so no single attribute carries the class signal
    on its own.
    """
    if n_attributes < 1 or n_instances < 4:
        raise ValueError("need n_attributes >= 1 and n_instances >= 4")
    rng = np.random.default_rng([7340841, seed, n_attributes, n_instances])
    n, m, rho = n_attributes, n_instances, SYNTHETIC_RHO
    X = np.empty((m, n))
    X[:, 0] = rng.standard_normal(m)
    for j in range(1, n):
        X[:, j] = rho * X[:, j - 1] + math.sqrt(1 - rho ** 2) * rng.standard_normal(m)
    parity_attrs = sorted({0, n - 1} | ({n // 2} if n >= 6 else set()))
    parity = np.zeros(m, dtype=bool)
    for j in parity_attrs:
        parity ^= X[:, j] > np.median(X[:, j])
    labels = parity.astype(int).tolist()
    if len(set(labels)) < 2:
        labels[-1] = 1 - labels[-1]
    return Dataset(
        attribute_names=tuple(f"a{j}" for j in range(n)),
        features=X,
        labels=tuple(labels),
        name=f"synth-n{n}-m{m}-s{seed}",
    )


def make_synthetic_suite(count: int, seed: int) -> list[Dataset]:
    """A reproducible list of synthetic datasets of 2-8 attributes and 50-120 rows."""
    rng = np.random.default_rng([9218231, seed])
    suite = []
    for k in range(count):
        n = int(rng.integers(2, 9))
        m = int(rng.integers(50, 121))
        suite.append(make_synthetic_dataset(n, m, seed=seed * 1000 + k))
    return suite


# ---------------------------------------------------------------------------
# benchmark harness


def normalize_grouping_name(name: str) -> str:
    """Canonical grouping name; tolerates hyphens and squeezed aliases."""
    canon = name.strip().lower().replace("-", "_")
    return {"modelbased": "model_based", "revvif": "rev_vif",
            "revspearman": "rev_spearman"}.get(canon, canon)


@dataclass(frozen=True)
class MethodConfig:
    """One benchmark method: complete, kdepth:k, or coalitional:<grouping>."""

    kind: str
    k: int | None = None
    grouping: str | None = None
    threshold: float | None = None
    proportion: float | None = None
    delta: float | None = None
    repetitions: int = 10

    def __post_init__(self):
        if self.kind not in ("complete", "kdepth", "coalitional"):
            raise ConfigError(f"unknown method kind {self.kind!r}")
        if self.kind == "kdepth" and (self.k is None or self.k < 1):
            raise ConfigError("kdepth needs k >= 1")
        if self.repetitions < 1:
            raise ConfigError(f"repetitions must be >= 1, got {self.repetitions}")
        if self.kind == "coalitional":
            known = set(GROUPING_METHODS) | {"model_based"}
            if self.grouping not in known:
                raise ConfigError(f"unknown grouping {self.grouping!r}; choose from {sorted(known)}")
            if self.threshold is not None and self.proportion is not None:
                raise ConfigError("threshold and proportion are mutually exclusive")

    @classmethod
    def parse(cls, text: str, k: int | None = None, threshold: float | None = None,
              proportion: float | None = None, delta: float | None = None,
              repetitions: int = 10) -> "MethodConfig":
        """Parse method strings like ``complete``, ``kdepth:2``,
        ``coalitional:spearman:0.25`` (proportion of complete complexity),
        ``coalitional:vif:t=0.3`` (raw threshold) or
        ``coalitional:model_based:0.1`` (fidelity delta).

        The text is checked alone first.  ``k`` then sets a kdepth depth; a
        coalitional method takes ``threshold``, ``proportion`` and ``delta``
        where its text gives none, and ``repetitions``.
        """
        if text == "kdepth" and k is not None:
            text = f"kdepth:{k}"
        parts = text.strip().split(":")
        kind = parts[0]
        if kind == "complete":
            if len(parts) > 1:
                raise ConfigError(f"method {text!r}: complete takes no parameter")
            return cls("complete")
        if kind == "kdepth":
            if len(parts) != 2:
                raise ConfigError(f"method {text!r}: expected kdepth:<k>")
            try:
                mc = cls("kdepth", k=int(parts[1]))
            except ValueError:
                raise ConfigError(f"method {text!r}: k must be an integer") from None
            return mc if k is None else replace(mc, k=k)
        if kind == "coalitional":
            if len(parts) < 2:
                raise ConfigError(f"method {text!r}: expected coalitional:<grouping>[:<value>]")
            grouping = normalize_grouping_name(parts[1])
            kwargs: dict = {"grouping": grouping}
            if len(parts) == 3:
                value = parts[2]
                try:
                    if value.startswith("t="):
                        kwargs["threshold"] = float(value[2:])
                    elif value.startswith("p="):
                        kwargs["proportion"] = float(value[2:])
                    elif grouping == "model_based":
                        kwargs["delta"] = float(value)
                    else:
                        kwargs["proportion"] = float(value)
                except ValueError:
                    raise ConfigError(f"method {text!r}: bad parameter {value!r}") from None
            elif len(parts) > 3:
                raise ConfigError(f"method {text!r}: too many ':' segments")
            flags = {"threshold": threshold, "proportion": proportion, "delta": delta}
            return replace(cls("coalitional", **kwargs), **(flags | kwargs),
                           repetitions=repetitions)
        raise ConfigError(f"unknown method {text!r}; expected complete, kdepth:<k> "
                          f"or coalitional:<grouping>[:<value>]")

    @property
    def method_id(self) -> str:
        if self.kind == "coalitional":
            return f"coalitional:{self.grouping}"
        return self.kind

    @property
    def param_label(self) -> str:
        if self.kind == "kdepth":
            return f"k={self.k}"
        if self.kind == "coalitional":
            if self.grouping == "model_based":
                return f"delta={self.delta}"
            if self.proportion is not None:
                return f"p={self.proportion}"
            if self.threshold is not None:
                return f"t={self.threshold}"
            return ""
        return ""


@dataclass(frozen=True)
class BenchmarkRecord:
    dataset: str
    method: str
    param: str
    mean_error: float
    time_per_instance_s: float
    time_ratio_vs_complete: float
    complexity_proportion: float | None
    group_count_mean: float | None
    group_size_mean: float | None
    seed: int
    model: str = ""

    def to_dict(self) -> dict:
        return asdict(self)


def _kdepth_proportion(n: int, k: int) -> float:
    touched = sum(comb(n, s) for s in range(1, k + 1))
    return touched / float((1 << n) - 1)


def _spec_id(spec: ModelSpec) -> str:
    if spec.kind == "prior_baseline":
        return spec.kind
    if spec.kind == "decision_tree":
        return f"decision_tree(max_depth={spec.max_depth},min_leaf={spec.min_leaf})"
    return (f"random_forest(trees={spec.tree_count},max_depth={spec.max_depth},"
            f"min_leaf={spec.min_leaf},seed={spec.seed})")


def build_coalition(cache: SubsetModelCache, mc: MethodConfig,
                    seed: int) -> tuple[Coalition, dict]:
    """The coalition a coalitional method explains with, plus provenance extras.

    ``model_based`` grows it from the cache's full model; a proportion
    bisects the grouping threshold on the cache's dataset; otherwise the
    grouping runs at the given threshold (default 0.25).
    """
    if mc.grouping == "model_based":
        if mc.proportion is not None:
            raise ConfigError("model_based grouping has no threshold; --proportion unsupported")
        if mc.delta is None:
            raise ConfigError("model_based grouping requires --delta > 0")
        G = group_model_based(cache, mc.delta, mc.repetitions, seed)
        return G, {"delta": mc.delta}
    if mc.proportion is not None:
        search = find_threshold(mc.grouping, cache.dataset, mc.proportion)
        extra = {
            "threshold": search.threshold,
            "achieved_proportion": search.achieved,
            "converged": search.converged,
        }
        if not search.converged:
            extra["note"] = "closest achievable proportion; target not reachable within tolerance"
        return search.coalition, extra
    t = mc.threshold if mc.threshold is not None else 0.25
    return GROUPING_METHODS[mc.grouping](cache.dataset, t), {"threshold": t}


def method_influence(cache: SubsetModelCache, instances: Sequence[int], mc: MethodConfig,
                     coalition: Coalition | None, targets: Sequence[ClassTarget] | None,
                     cap: int = COMPLETE_ATTRIBUTE_CAP, jobs: int = 1) -> list[InfluenceVector]:
    """Influence vectors of ``instances`` under ``mc``, one per instance.

    ``coalition`` is the one :func:`build_coalition` made for a coalitional
    method and is ignored otherwise; ``targets`` is passed on, and ``cap`` and
    ``jobs`` to complete influence.
    """
    if mc.kind == "complete":
        return complete_influence(cache, instances, targets, cap=cap, jobs=jobs)
    if mc.kind == "kdepth":
        return kdepth_influence(cache, instances, mc.k, targets)
    return coalitional_influence(cache, instances, coalition, targets)


def _run_cell(d: Dataset, mc: MethodConfig, spec: ModelSpec, seed: int,
              oracle_vectors: list[InfluenceVector], oracle_tpi: float) -> BenchmarkRecord:
    """Time one (dataset, method) cell against the oracle vectors and their targets;
    ``oracle_tpi`` is the exact baseline's time per instance."""
    m = d.n_instances
    cache = SubsetModelCache(spec, d)
    G = None
    started = time.perf_counter()
    if mc.kind == "coalitional":
        G, extra = build_coalition(cache, mc, seed)
        if extra.get("converged") is False:
            logger.info("bisection on %s/%s hit closest-achievable %.4f for target %.4f",
                        d.name, mc.grouping, extra["achieved_proportion"], mc.proportion)
    vectors = method_influence(cache, range(m), mc, G, [o.target for o in oracle_vectors])
    report = None if G is None else ComplexityReport.from_coalition(G)
    elapsed = time.perf_counter() - started
    mean_err = float(np.mean([error_score(v, o) for v, o in zip(vectors, oracle_vectors)]))
    return BenchmarkRecord(
        dataset=d.name,
        method=mc.method_id,
        param=mc.param_label,
        mean_error=mean_err,
        time_per_instance_s=elapsed / m,
        time_ratio_vs_complete=elapsed / m / oracle_tpi,
        complexity_proportion=(_kdepth_proportion(d.n_attributes, mc.k) if report is None
                               else report.proportion),
        group_count_mean=None if report is None else float(report.group_count),
        group_size_mean=None if report is None else report.mean_group_size,
        seed=seed,
        model=_spec_id(spec),
    )


def run_benchmark(datasets: Sequence[Dataset], methods: Sequence[MethodConfig],
                  spec: ModelSpec, seed: int = 0, jobs: int = 1,
                  cap: int = COMPLETE_ATTRIBUTE_CAP) -> list[BenchmarkRecord]:
    """Grid of datasets x methods, scored against the exact influence.

    Per dataset the exact vectors are computed once (this also fixes each
    instance's target class, taken from the full model's prediction); each
    method then runs on a fresh cache so its span covers everything it
    needs.  Datasets beyond the attribute cap, and ``kdepth:k`` on a dataset
    with fewer than k attributes, are skipped with a logged reason.
    ``jobs`` > 1 grows the exact baseline's trees in that many processes.
    """
    records: list[BenchmarkRecord] = []
    for d in datasets:
        if d.n_attributes > cap:
            logger.warning("skipping %s: %d attributes exceed the cap of %d",
                           d.name, d.n_attributes, cap)
            continue
        runnable = []
        for mc in methods:
            if mc.kind == "kdepth" and mc.k > d.n_attributes:
                logger.warning("skipping kdepth:%d on %s: it has only %d attributes",
                               mc.k, d.name, d.n_attributes)
            else:
                runnable.append(mc)
        m = d.n_instances
        started = time.perf_counter()
        oracle_vectors = complete_influence(SubsetModelCache(spec, d), range(m), cap=cap,
                                            jobs=jobs)
        oracle_tpi = (time.perf_counter() - started) / m

        for mc in runnable:
            if mc.kind == "complete":
                records.append(BenchmarkRecord(
                    dataset=d.name, method="complete", param="",
                    mean_error=0.0, time_per_instance_s=oracle_tpi,
                    time_ratio_vs_complete=1.0, complexity_proportion=1.0,
                    group_count_mean=None, group_size_mean=None, seed=seed,
                    model=_spec_id(spec),
                ))
            else:
                records.append(_run_cell(d, mc, spec, seed, oracle_vectors, oracle_tpi))
    return records


def config_csv(config: dict, header: Sequence, rows: Iterable[Sequence]) -> str:
    """CSV text of ``header`` and ``rows`` under a ``# config:`` line holding ``config``."""
    buf = io.StringIO()
    buf.write("# config: " + json.dumps(config, sort_keys=True) + "\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def write_benchmark_csv(records: Iterable[BenchmarkRecord], path: str | Path,
                        config: dict) -> None:
    rows = ([r.to_dict()[c] for c in CSV_COLUMNS] for r in records)
    Path(path).write_text(config_csv(config, CSV_COLUMNS, rows), encoding="utf-8")


def write_benchmark_json(records: Iterable[BenchmarkRecord], path: str | Path,
                         config: dict) -> None:
    path = Path(path)
    payload = {"records": [r.to_dict() for r in records], "config": config}
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")
