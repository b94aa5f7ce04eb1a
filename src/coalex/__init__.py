"""coalex: attribute-influence explanations for tabular classifiers.

Explains single predictions of any retrainable classifier by assigning each
attribute a signed influence value.  The exact computation retrains the
model on every attribute subset; coalition- and depth-based approximations
trade accuracy for far fewer subset models, and the evaluation harness
measures both sides of that trade.
"""

from .complexity import (
    ComplexityReport,
    closure,
    complexity_proportion,
    find_threshold,
)
from .dataset import AttributeSubset, Dataset, load_csv
from .errors import ComplexityCapError, ConfigError, DataError
from .evaluation import (
    MethodConfig,
    error_score,
    influence_distance,
    make_synthetic_dataset,
    make_synthetic_suite,
    run_benchmark,
    write_benchmark_csv,
    write_benchmark_json,
)
from .grouping import (
    Coalition,
    group_model_based,
    group_pca,
    group_rev_spearman,
    group_rev_vif,
    group_spearman,
    group_vif,
    normalize,
)
from .influence import (
    InfluenceVector,
    coalitional_influence,
    complete_influence,
    kdepth_influence,
    predicted_classes,
    subset_eval,
)
from .model import ModelSpec, SubsetModelCache, train

__version__ = "0.1.0"

__all__ = [
    "AttributeSubset", "Coalition", "ComplexityCapError", "ComplexityReport", "ConfigError",
    "DataError", "Dataset", "InfluenceVector", "MethodConfig", "ModelSpec",
    "SubsetModelCache", "closure", "coalitional_influence", "complete_influence",
    "complexity_proportion", "error_score", "find_threshold", "group_model_based",
    "group_pca", "group_rev_spearman", "group_rev_vif", "group_spearman", "group_vif",
    "influence_distance", "kdepth_influence", "load_csv", "make_synthetic_dataset",
    "make_synthetic_suite", "normalize", "predicted_classes", "run_benchmark", "subset_eval",
    "train", "write_benchmark_csv", "write_benchmark_json",
]
