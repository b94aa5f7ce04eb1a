"""Seeded CSV inputs for the benchmark.

The generator lives here, not in coalex, so that a change to the program
cannot change what the benchmark feeds it.  Every input is a binary
classification table:

* attributes ``f0 .. f{n-1}`` form chains of ``CHAIN_LEN`` attributes.
  Inside a chain each attribute is an AR(1) step from its predecessor,
  with a neighbour correlation taken from ``CHAIN_RHOS`` by chain number,
  so tight grouping thresholds split chains and loose ones merge them;
* the label ``y`` is the parity of three median-split attributes spread
  over the chains (an interaction no single attribute carries), with
  exactly ``FLIP_SHARE`` of the labels flipped so trees grow past depth 3.

The values of a table depend only on its shape; ``seed`` shuffles its
rows.  The amount of work coalex does is a discontinuous function of the
values (how many bisection probes a threshold search needs, which groups
it finds, how large the trees grow), and drawing fresh values per seed
moved it by up to 28% between seeds.  A row order changes every file and
every bootstrap sample but none of the correlations, so the work stays
the same from seed to seed and the spread of a metric is the machine's.
The same (seed, shape) always gives byte-identical files.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

SALT = 20210401
CHAIN_LEN = 4
CHAIN_RHOS = (0.95, 0.8, 0.6, 0.9, 0.7)
FLIP_SHARE = 0.05
TARGET = "y"


@dataclass(frozen=True)
class Table:
    """One generated input: its file stem and shape."""

    stem: str
    n_attributes: int
    n_rows: int


def make_table(n_attributes: int, n_rows: int, seed: int) -> tuple[np.ndarray, list[str]]:
    """Feature matrix and labels for one seeded input."""
    if n_attributes < 1 or n_rows < 8:
        raise ValueError("need at least 1 attribute and 8 rows")
    rng = np.random.default_rng([SALT, n_attributes, n_rows])
    X = np.empty((n_rows, n_attributes))
    for j in range(n_attributes):
        noise = rng.standard_normal(n_rows)
        if j % CHAIN_LEN == 0:
            X[:, j] = noise
        else:
            rho = CHAIN_RHOS[(j // CHAIN_LEN) % len(CHAIN_RHOS)]
            X[:, j] = rho * X[:, j - 1] + math.sqrt(1.0 - rho * rho) * noise
    X = np.round(X, 6)
    parity = np.zeros(n_rows, dtype=bool)
    for j in sorted({0, n_attributes // 2, n_attributes - 1}):
        parity ^= X[:, j] > np.median(X[:, j])
    flips = rng.choice(n_rows, size=round(FLIP_SHARE * n_rows), replace=False)
    parity[flips] ^= True
    order = np.random.default_rng([SALT, seed]).permutation(n_rows)
    return X[order], [str(int(v)) for v in parity[order]]


def write_table(path: Path, n_attributes: int, n_rows: int, seed: int) -> None:
    X, labels = make_table(n_attributes, n_rows, seed)
    lines = [",".join([f"f{j}" for j in range(n_attributes)] + [TARGET])]
    for row, label in zip(X, labels):
        lines.append(",".join(f"{v:.6f}" for v in row) + "," + label)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_labels(path: Path) -> list[str]:
    """Target column of a generated CSV, read without coalex."""
    rows = path.read_text(encoding="utf-8").splitlines()
    col = rows[0].split(",").index(TARGET)
    return [r.split(",")[col] for r in rows[1:] if r]


def read_header(path: Path) -> list[str]:
    """Attribute names of a generated CSV, in column order, without the target."""
    with path.open(encoding="utf-8") as fh:
        names = fh.readline().strip().split(",")
    return [h for h in names if h != TARGET]
