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
from dataclasses import asdict, dataclass
from math import comb
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .complexity import ComplexityReport, check_proportion, find_threshold
from .dataset import ClassTarget, Dataset
from .errors import ConfigError
from .grouping import GROUPING_METHODS, Coalition, check_threshold, group_model_based
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


@dataclass(frozen=True)
class MethodConfig:
    """One influence method: complete, kdepth:k, or coalitional:<grouping>.

    Construction normalizes the grouping name and checks every method rule, so
    a bad method fails before any work.  ``repetitions`` is accepted by every
    method, as its default is echoed in every output config; ``model_based`` uses it.
    """

    kind: str
    k: int | None = None
    grouping: str | None = None
    threshold: float | None = None
    proportion: float | None = None
    delta: float | None = None
    repetitions: int = 10

    def __post_init__(self):
        name = self.kind
        if self.kind == "coalitional":
            name = self._grouping_name(self.grouping)
            object.__setattr__(self, "grouping", name)
            known = set(GROUPING_METHODS) | {"model_based"}
            if name not in known:
                raise ConfigError(f"unknown grouping {name!r}; choose from {sorted(known)}")
        elif self.kind not in ("complete", "kdepth"):
            raise ConfigError(f"unknown method kind {self.kind!r}")
        if self.threshold is not None and self.proportion is not None:
            raise ConfigError("--t and --proportion are mutually exclusive")
        # Each parameter's flag, what it sets, and the methods that take it.
        rules = (("--k", self.k, "depth", {"kdepth"}),
                 ("--t", self.threshold, "threshold", GROUPING_METHODS),
                 ("--proportion", self.proportion, "threshold", GROUPING_METHODS),
                 ("--delta", self.delta, "delta", {"model_based"}))
        for flag, value, what, takers in rules:
            if value is not None and name not in takers:
                owner = f"{name} grouping" if self.kind == "coalitional" else name
                raise ConfigError(f"{owner} has no {what}; {flag} unsupported")
        if self.kind == "kdepth" and (self.k is None or self.k < 1):
            raise ConfigError("kdepth needs k >= 1")
        if self.repetitions < 1:
            raise ConfigError(f"repetitions must be >= 1, got {self.repetitions}")
        try:
            if self.threshold is not None:
                check_threshold(self.threshold)
            if self.proportion is not None:
                check_proportion(self.proportion)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        if name == "model_based":
            if self.delta is None:
                raise ConfigError("model_based grouping needs a delta > 0: "
                                  "--delta 0.1 or coalitional:model_based:0.1")
            if not 0 < self.delta < math.inf:
                raise ConfigError(f"delta must be finite and > 0, got {self.delta}")

    @staticmethod
    def _grouping_name(name: str | None) -> str:
        """Canonical grouping name; tolerates hyphens and squeezed aliases."""
        canon = str(name).strip().lower().replace("-", "_")
        return {"modelbased": "model_based", "revvif": "rev_vif",
                "revspearman": "rev_spearman"}.get(canon, canon)

    @classmethod
    def parse(cls, text: str, k: int | None = None, threshold: float | None = None,
              proportion: float | None = None, delta: float | None = None,
              repetitions: int = 10) -> "MethodConfig":
        """The method of a string like ``complete``, ``kdepth:2``,
        ``coalitional:spearman:0.25`` (proportion of complete complexity),
        ``coalitional:vif:t=0.3`` (raw threshold) or
        ``coalitional:model_based:0.1`` (fidelity delta) and of the flags,
        built once from both.  ``k`` replaces a kdepth depth; a coalitional
        method's own value wins over the other flags, which fill in the rest.
        """
        parts = text.strip().split(":")
        kind, fields = parts[0], {}
        if kind == "kdepth" and len(parts) == 2:
            try:
                fields["k"] = int(parts[1])
            except ValueError:
                raise ConfigError(f"method {text!r}: k must be an integer") from None
        elif kind == "kdepth" and (len(parts) > 2 or k is None):
            raise ConfigError(f"method {text!r}: expected kdepth:<k>")
        elif kind == "coalitional" and len(parts) in (2, 3):
            fields = {"grouping": cls._grouping_name(parts[1])}
            if len(parts) == 3:
                value = parts[2]
                prefixed = {"t=": "threshold", "p=": "proportion"}.get(value[:2])
                plain = "delta" if fields["grouping"] == "model_based" else "proportion"
                try:
                    fields[prefixed or plain] = float(value[2:] if prefixed else value)
                except ValueError:
                    raise ConfigError(f"method {text!r}: bad parameter {value!r}") from None
        elif parts not in (["complete"], ["kdepth"]):
            raise ConfigError(f"unknown method {text!r}; expected complete, kdepth:<k> "
                              f"or coalitional:<grouping>[:<value>]")
        if k is not None:
            fields["k"] = k  # --k replaces a kdepth depth
        flags = {"threshold": threshold, "proportion": proportion, "delta": delta}
        return cls(kind, repetitions=repetitions, **(flags | fields))

    @property
    def method_id(self) -> str:
        if self.kind == "coalitional":
            return f"coalitional:{self.grouping}"
        return self.kind

    @property
    def param_label(self) -> str:
        if self.kind == "kdepth":
            return f"k={self.k}"
        if self.delta is not None:
            return f"delta={self.delta}"
        if self.proportion is not None:
            return f"p={self.proportion}"
        if self.threshold is not None:
            return f"t={self.threshold}"
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
                     targets: Sequence[ClassTarget] | None, seed: int,
                     cap: int = COMPLETE_ATTRIBUTE_CAP, jobs: int = 1
                     ) -> tuple[list[InfluenceVector], Coalition | None, dict]:
    """Influence vectors of ``instances`` under ``mc``, one per instance, and the coalition
    and extras of :func:`build_coalition` for a coalitional method (else ``None``, ``{}``).
    ``targets`` and ``jobs`` are passed on, and ``cap`` to complete influence."""
    if mc.kind == "complete":
        return complete_influence(cache, instances, targets, cap=cap, jobs=jobs), None, {}
    if mc.kind == "kdepth":
        return kdepth_influence(cache, instances, mc.k, targets, jobs), None, {}
    G, extra = build_coalition(cache, mc, seed)
    return coalitional_influence(cache, instances, G, targets, jobs), G, extra


def _run_cell(d: Dataset, mc: MethodConfig, spec: ModelSpec, seed: int, jobs: int,
              oracle_vectors: list[InfluenceVector], oracle_tpi: float) -> BenchmarkRecord:
    """Time one (dataset, method) cell against the oracle vectors and their targets;
    ``oracle_tpi`` is the exact baseline's time per instance."""
    m = d.n_instances
    cache = SubsetModelCache(spec, d)
    started = time.perf_counter()
    vectors, G, extra = method_influence(cache, range(m), mc, [o.target for o in oracle_vectors],
                                         seed, jobs=jobs)
    report = None if G is None else ComplexityReport.from_coalition(G)
    elapsed = time.perf_counter() - started
    if extra.get("converged") is False:
        logger.info("bisection on %s/%s hit closest-achievable %.4f for target %.4f",
                    d.name, mc.grouping, extra["achieved_proportion"], mc.proportion)
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

    Per dataset with a runnable method the exact vectors are computed once (this
    also fixes each instance's target class, from the full model's prediction); each
    method then runs on a fresh cache so its span covers everything it
    needs.  Datasets beyond the attribute cap, and ``kdepth:k`` on a dataset
    with fewer than k attributes, are skipped with a logged reason.
    ``jobs`` > 1 grows every method's forest trees in that many processes.
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
        if not runnable:
            continue
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
                records.append(_run_cell(d, mc, spec, seed, jobs, oracle_vectors, oracle_tpi))
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
    rows = ([row[c] for c in CSV_COLUMNS] for row in (r.to_dict() for r in records))
    Path(path).write_text(config_csv(config, CSV_COLUMNS, rows), encoding="utf-8")


def write_benchmark_json(records: Iterable[BenchmarkRecord], path: str | Path,
                         config: dict) -> None:
    path = Path(path)
    payload = {"records": [r.to_dict() for r in records], "config": config}
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")
