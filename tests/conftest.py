import numpy as np
import pytest

from coalex import AttributeSubset, Coalition, Dataset


def dataset_from(features, labels, names=None, class_set=(), name="test"):
    features = np.asarray(features, dtype=np.float64)
    if names is None:
        names = tuple(f"a{j}" for j in range(features.shape[1]))
    return Dataset(tuple(names), features, tuple(labels), tuple(class_set), name=name)


def coalition_from(sets, n):
    """The coalition over n attributes of the groups given as index lists."""
    return Coalition(tuple(AttributeSubset.from_indices(s, n) for s in sets), n)


def singletons(n):
    """The coalition of n one-attribute groups: its influence is depth-1 influence."""
    return coalition_from([[i] for i in range(n)], n)


def full_group(n):
    """The coalition of one group of all n attributes: its influence is complete influence."""
    return Coalition((AttributeSubset.full(n),), n)


def index_sets(G):
    """The coalition's groups as sorted index tuples, in the coalition's group order."""
    return [g.indices() for g in G.groups]


def members(c, n):
    """The masks in range(-1, 2^(n+1)) that ``c`` contains: a closure listed through ``in``."""
    return {mask for mask in range(-1, 1 << n + 1) if mask in c}


def class_prior(d, c):
    """Frequency of class ``c`` among the labels: the value of the empty subset."""
    return sum(1 for y in d.labels if y == c.class_id) / d.n_instances


@pytest.fixture
def xor4():
    """Four-point XOR: neither attribute alone carries any signal."""
    return dataset_from(
        [[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]],
        ["p", "q", "q", "p"],
        name="xor4",
    )


@pytest.fixture
def separable2():
    """Two points, perfectly separable on the single attribute."""
    return dataset_from([[0.0], [1.0]], ["p", "q"], name="separable2")


@pytest.fixture
def blob_dataset():
    """Small continuous dataset with an easy class boundary on a0."""
    rng = np.random.default_rng(77)
    m = 40
    a0 = np.concatenate([rng.uniform(0, 1, m // 2), rng.uniform(2, 3, m // 2)])
    x = np.column_stack([a0, rng.normal(size=m), rng.normal(size=m)])
    labels = ["lo"] * (m // 2) + ["hi"] * (m // 2)
    return dataset_from(x, labels, name="blob")
