"""Command-line interface: explain, groups, complexity, benchmark.

Exit codes: 0 success, 2 configuration error, 3 data error, 4 attribute-cap
violation.  Every option can come from (in order of precedence) the command
line, a ``COALEX_*`` environment variable, a JSON config file passed with
``--config``, or the built-in default.  The effective configuration is
echoed into every output file for provenance.
"""

from __future__ import annotations

import functools
import gc
import json
import logging
import sys
from dataclasses import asdict, dataclass, field
from pathlib import Path

import click

from . import __version__
from .complexity import ComplexityReport
from .dataset import Dataset, load_csv
from .errors import ComplexityCapError, ConfigError, DataError
from .evaluation import (
    MethodConfig,
    build_coalition,
    config_csv,
    make_synthetic_suite,
    method_influence,
    run_benchmark,
    write_benchmark_csv,
    write_benchmark_json,
)
from .grouping import GROUPING_METHODS, Coalition
from .influence import COMPLETE_ATTRIBUTE_CAP
from .model import ModelSpec, SubsetModelCache

EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_CAP = 4

_MODEL_ALIASES = {
    "rf": "random_forest", "random_forest": "random_forest",
    "dt": "decision_tree", "tree": "decision_tree", "decision_tree": "decision_tree",
    "prior": "prior_baseline", "prior_baseline": "prior_baseline",
}


@dataclass
class RunConfig:
    """Resolved settings for one command invocation (echoed into outputs)."""

    command: str
    dataset: str | list[str] | None = None
    target: str | None = None
    model: dict = field(default_factory=dict)
    method: str | None = None
    k: int | None = None
    threshold: float | None = None
    proportion: float | None = None
    delta: float | None = None
    repetitions: int = 10
    seed: int = 0
    jobs: int = 1
    delimiter: str = ","
    instances: str = "all"
    output: str | None = None
    output_format: str = "json"
    cap: int = COMPLETE_ATTRIBUTE_CAP
    synthetic: int | None = None

    def to_dict(self) -> dict:
        return {k: v for k, v in asdict(self).items() if v is not None}


# Flag names that are also config-file keys but name a RunConfig field differently,
# and the type of each option's resolved value, keyed by its config-file name: numbers
# are converted to it, text must already have it (a target may also be a column index)
# and the model kind must be one of its aliases.
_FIELD_OF = {"format": "output_format", "methods": "method"}
_FIELD_TYPES = {"k": int, "repetitions": int, "seed": int, "jobs": int, "cap": int,
                "synthetic": int, "threshold": float, "proportion": float, "delta": float,
                "target": (str, int), "method": str, "methods": str, "instances": str,
                "delimiter": str, "format": str, "kind": _MODEL_ALIASES, "tree_count": int,
                "max_depth": int, "min_leaf": int}
_OUTPUT_FORMATS = ("json", "csv")

_METHOD_REQUIRED = (f"--method is required; choose from "
                    f"{sorted(GROUPING_METHODS) + ['model_based']}")
# Per command: the options it cannot run without, and the message when one is missing.
_REQUIRED = {
    "explain": {"target": "--target is required"},
    "groups": {"target": "--target is required", "method": _METHOD_REQUIRED},
    "complexity": {"target": "--target is required", "method": _METHOD_REQUIRED},
    "benchmark": {"methods": "--methods is required, e.g. complete,kdepth:2"},
}


def _load_config_file(path: str | None) -> dict:
    if not path:
        return {}
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file not found: {p}")
    try:
        data = json.loads(p.read_text(encoding="utf-8-sig"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {p} is not valid JSON: {exc}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config file {p} is not UTF-8 text ({exc.reason})") from None
    except OSError as exc:
        raise ConfigError(f"cannot read config file {p}: {exc.strerror or exc}") from None
    if not isinstance(data, dict):
        raise ConfigError(f"config file {p} must hold a JSON object")
    return data


def _typed(key: str, kind, value):
    """``value`` as ``kind``; a ConfigError naming ``key`` when it is not one.  An integer
    takes an integral number or numeric string: ``2.0`` and ``"2.0"`` are 2."""
    if value is None:
        return None
    if isinstance(kind, dict):
        if str(value).lower() not in kind:
            raise ConfigError(f"unknown model {value!r}; choose from {sorted(kind)}")
        return kind[str(value).lower()]
    if kind in (int, float):
        try:
            if isinstance(value, bool):
                raise TypeError
            if kind is float or isinstance(value, int):
                return kind(value)
            if isinstance(value, str) and value.strip().lstrip("+-").isdigit():
                return int(value)  # exact at any length, with no float round-trip
            number = float(value)
        except (TypeError, ValueError):
            raise ConfigError(f"{key} must be a number, got {value!r}") from None
        if not number.is_integer():
            raise ConfigError(f"{key} must be an integer, got {value!r}")
        return int(number)
    if not isinstance(value, kind) or isinstance(value, bool):
        what = "a string or an integer" if kind == (str, int) else "a string"
        raise ConfigError(f"{key} must be {what}, got {value!r}")
    return value


def _options(command: str, scope: dict, flags: dict, defaults, prefix: str = "") -> dict:
    """Each of ``flags`` as flag > ``scope`` > its attribute of ``defaults``, converted
    to its type.  ``scope`` is the config file or its ``model`` object; a null in it
    is no value, and a key of it that names no flag is an error."""
    key = next((key for key in scope if key not in flags), None)
    if key is not None:
        raise ConfigError(f"config file key {prefix + key!r} is not an option of {command}")
    return {key: _typed(prefix + key, _FIELD_TYPES[key],
                        next((value for value in (flag, scope.get(key)) if value is not None),
                             getattr(defaults, _FIELD_OF.get(key, key))))
            for key, flag in flags.items()}


def _resolve(command: str, config_path: str | None, fixed: dict,
             **flags) -> tuple[RunConfig, ModelSpec]:
    """The effective configuration of one invocation, and its model.

    Each of ``flags`` (keyed by its config-file name, or its ``ModelSpec`` field for a
    model flag; a flag's value includes its ``COALEX_*`` variable) resolves as flag >
    ``--config`` file (its ``model`` object for a model flag) > default.  ``fixed`` sets
    fields no flag resolves and the command's own defaults; every other field keeps its
    ``RunConfig`` default.
    """
    file_cfg = _load_config_file(config_path)
    model_cfg = file_cfg.pop("model", None)
    model_flags = {key: flags.pop(key) for key in ("kind", "tree_count", "max_depth", "min_leaf")}
    cfg = RunConfig(command, **fixed)
    for key, value in _options(command, file_cfg, flags, cfg).items():
        setattr(cfg, _FIELD_OF.get(key, key), value)
    for key, message in _REQUIRED[command].items():
        if getattr(cfg, _FIELD_OF.get(key, key)) is None:
            raise ConfigError(message)
    for key in ("jobs", "cap", "synthetic"):
        value = getattr(cfg, key)
        if value is not None and value < 1:
            raise ConfigError(f"--{key} must be >= 1, got {value}")
    if cfg.output_format not in _OUTPUT_FORMATS:
        raise ConfigError(f"format must be one of {', '.join(_OUTPUT_FORMATS)}, "
                          f"got {cfg.output_format!r}")
    if not isinstance(model_cfg, (dict, type(None))):
        raise ConfigError(f"model must be an object, got {model_cfg!r}")
    spec = ModelSpec(**_options(command, model_cfg or {}, model_flags, ModelSpec, "model."),
                     seed=cfg.seed)
    cfg.model = asdict(spec)
    return cfg, spec


def _parse_instances(text: str, m: int) -> list[int]:
    if text.strip().lower() == "all":
        return list(range(m))
    try:
        picks = [int(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError:
        picks = []
    if not picks:
        raise ConfigError(f"bad --instances value {text!r}: use 'all' or e.g. '0,3,7'")
    for i in picks:
        if not 0 <= i < m:
            raise ConfigError(f"instance index {i} out of range [0, {m})")
    return picks


def _resolve_class(d: Dataset, label: str | None):
    if label is None:
        return None
    if label in d.class_set:
        return d.class_target(label)
    raise ConfigError(f"class {label!r} not in the dataset classes {list(d.class_set)}")


def _write(path: Path, write) -> None:
    """Call ``write(path)``; a path that cannot be written is a configuration error."""
    try:
        write(path)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror or exc}") from None


def _check_out(*paths) -> None:
    """Fail before any work when one of ``paths`` cannot be written (``None`` is
    stdout); a file that did not exist is removed again."""
    for path in [Path(p) for p in paths if p]:
        existed = path.exists()
        _write(path, lambda p: p.open("a").close())
        if not existed:
            path.unlink()


def _emit(text: str, out: str | None) -> None:
    if out:
        _write(Path(out), lambda p: p.write_text(text.rstrip("\n") + "\n", encoding="utf-8"))
    else:
        click.echo(text.rstrip("\n"))


def _fail(exc: BaseException, code: int) -> None:
    click.echo(f"error: {exc}", err=True)
    sys.exit(code)


def _guarded(fn):
    """Run a command body, mapping coalex errors to their exit codes."""

    @functools.wraps(fn)
    def run(*args, **kwargs):
        try:
            fn(*args, **kwargs)
        except ComplexityCapError as exc:
            _fail(exc, EXIT_CAP)
        except DataError as exc:
            _fail(exc, EXIT_DATA)
        except ValueError as exc:
            _fail(exc, EXIT_CONFIG)

    return run


def common_options(f, jobs: bool = True):
    f = click.option("--config", "config_path", default=None, envvar="COALEX_CONFIG",
                     help="JSON config file; flags override its values.")(f)
    f = click.option("--seed", type=int, default=None, envvar="COALEX_SEED",
                     help="Master seed; fully determines all numeric output.")(f)
    if jobs:
        f = click.option("--jobs", type=int, default=None, envvar="COALEX_JOBS",
                         help="Processes that grow a forest's trees, for every method "
                              "(default 1).")(f)
    f = click.option("--delimiter", default=None, envvar="COALEX_DELIMITER",
                     help="CSV field delimiter (default ',').")(f)
    return f


def model_options(f):
    f = click.option("--model", "kind", default=None, envvar="COALEX_MODEL",
                     help="rf (random forest), dt (decision tree) or prior.")(f)
    f = click.option("--trees", "tree_count", type=int, default=None, help="Forest size.")(f)
    f = click.option("--max-depth", type=int, default=None, help="Tree depth limit.")(f)
    f = click.option("--min-leaf", type=int, default=None, help="Minimum leaf size.")(f)
    return f


def method_options(f):
    """The options of explain, groups and complexity: the target, the method's
    parameters and the output file."""
    # Applied innermost first: --help lists the last one applied first.
    f = click.option("--out", default=None, help="Output file (stdout when omitted).")(f)
    f = click.option("--repetitions", type=int, default=None,
                     help="model_based fidelity rounds.")(f)
    f = click.option("--delta", type=float, default=None, help="model_based fidelity delta.")(f)
    f = click.option("--proportion", type=float, default=None,
                     help="Target complexity proportion of complete; bisection picks t.")(f)
    f = click.option("--t", "threshold", type=float, default=None,
                     help="Grouping threshold in (0, 0.5).")(f)
    return click.option("--target", default=None, help="Label column name or index.")(f)


def coalition_options(f):
    """The options of the two commands that build one coalition: groups and complexity."""
    f = method_options(model_options(common_options(f, jobs=False)))
    f = click.option("--method", default=None,
                     help=f"One of {sorted(GROUPING_METHODS)} or model_based.")(f)
    return click.argument("data", type=click.Path())(f)


@click.group()
@click.version_option(__version__)
def main():
    """Attribute-influence explanations for tabular classifiers."""
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s")


@main.command("explain")
@click.argument("data", type=click.Path())
@click.option("--method", default=None, help="complete, kdepth or coalitional:<grouping>.")
@click.option("--k", type=int, default=None, help="Depth for kdepth.")
@method_options
@click.option("--class-label", default=None,
              help="Explain this class instead of each instance's predicted class.")
@click.option("--instances", default=None, help="'all' or comma-separated indices.")
@click.option("--format", default=None, type=click.Choice(["json", "csv"]))
@click.option("--cap", type=int, default=None, help="Attribute cap for complete influence.")
@model_options
@common_options
@_guarded
def cmd_explain(data, class_label, out, config_path, **flags):
    """Write one influence vector per selected instance of DATA."""
    cfg, spec = _resolve("explain", config_path,
                         {"dataset": str(data), "output": out, "method": "complete"}, **flags)
    _check_out(out)
    mc = MethodConfig.parse(cfg.method, k=cfg.k, threshold=cfg.threshold,
                            proportion=cfg.proportion, delta=cfg.delta,
                            repetitions=cfg.repetitions)

    d = load_csv(data, cfg.target, delimiter=cfg.delimiter)
    picks = _parse_instances(cfg.instances, d.n_instances)
    fixed_class = _resolve_class(d, class_label)
    cache = SubsetModelCache(spec, d)

    targets = None if fixed_class is None else [fixed_class] * len(picks)
    vectors, _, extra = method_influence(cache, picks, mc, targets, cfg.seed, cfg.cap, cfg.jobs)

    payload_cfg = cfg.to_dict() | extra
    if cfg.output_format == "json":
        doc = {"config": payload_cfg, "influences": [v.to_json(d) for v in vectors]}
        _emit(json.dumps(doc, indent=2), out)
    else:
        rows = ([v.instance_index, v.target.class_id, v.method_tag, *v.values] for v in vectors)
        _emit(config_csv(payload_cfg, ["instance", "class", "method", *d.attribute_names],
                         rows), out)


def _coalition(command: str, data, out, config_path,
               flags: dict) -> tuple[RunConfig, Coalition, dict, dict]:
    """Resolve a groups or complexity run and build its coalition.

    Returns the configuration, the coalition, the coalition's JSON form and
    the provenance extras of :func:`build_coalition`.  Both commands run in
    one thread and take no ``--jobs``.
    """
    cfg, spec = _resolve(command, config_path, {"dataset": str(data), "output": out}, **flags)
    _check_out(out)
    mc = MethodConfig("coalitional", grouping=cfg.method, threshold=cfg.threshold,
                      proportion=cfg.proportion, delta=cfg.delta, repetitions=cfg.repetitions)
    d = load_csv(data, cfg.target, delimiter=cfg.delimiter)
    G, extra = build_coalition(SubsetModelCache(spec, d), mc, cfg.seed)
    return cfg, G, G.to_json(d, method=mc.grouping), extra


@main.command("groups")
@coalition_options
@_guarded
def cmd_groups(data, out, config_path, **flags):
    """Extract and write an attribute coalition for DATA."""
    cfg, _, groups, extra = _coalition("groups", data, out, config_path, flags)
    if cfg.proportion is not None:
        click.echo(f"threshold={extra['threshold']:.6f} "
                   f"achieved_proportion={extra['achieved_proportion']:.6f} "
                   f"converged={extra['converged']}", err=True)
    _emit(json.dumps({"config": cfg.to_dict() | extra} | groups | extra, indent=2), out)


@main.command("complexity")
@coalition_options
@_guarded
def cmd_complexity(data, out, config_path, **flags):
    """Report the evaluation cost of a coalition for DATA."""
    cfg, G, groups, extra = _coalition("complexity", data, out, config_path, flags)
    report = asdict(ComplexityReport.from_coalition(G))
    _emit(json.dumps({"config": cfg.to_dict() | extra} | report | groups, indent=2), out)


@main.command("benchmark")
@click.argument("data", type=click.Path(), nargs=-1)
@click.option("--target", default=None, help="Label column name or index (CSV datasets).")
@click.option("--synthetic", type=int, default=None,
              help="Use N generated datasets instead of CSV files.")
@click.option("--methods", default=None,
              help="Comma-separated, e.g. complete,kdepth:2,coalitional:spearman:0.25")
@click.option("--out", default=None, help="CSV output path (a .json mirror is written too).")
@click.option("--cap", type=int, default=None, help="Attribute cap for the exact baseline.")
@model_options
@common_options
@_guarded
def cmd_benchmark(data, out, config_path, **flags):
    """Score methods against the exact influence over a dataset grid."""
    cfg, spec = _resolve("benchmark", config_path,
                         {"dataset": [str(p) for p in data] or None, "output": out}, **flags)
    if out and Path(out).suffix == ".json":
        raise ConfigError(f"--out {out} ends in .json, the name of its JSON mirror")
    _check_out(out, out and Path(out).with_suffix(".json"))
    methods: dict[MethodConfig, str] = {}
    for tok in filter(None, map(str.strip, cfg.method.split(","))):
        mc = MethodConfig.parse(tok)
        if mc in methods:
            raise ConfigError(f"method {tok!r} repeats {methods[mc]!r}")
        methods[mc] = tok
    if not methods:
        raise ConfigError("no methods given")

    if cfg.synthetic is not None:
        datasets = make_synthetic_suite(cfg.synthetic, cfg.seed)
    elif data:
        if cfg.target is None:
            raise ConfigError("--target is required for CSV datasets")
        datasets = [load_csv(p, cfg.target, delimiter=cfg.delimiter) for p in data]
    else:
        raise ConfigError("give dataset files or --synthetic N")

    records = run_benchmark(datasets, [*methods], spec, seed=cfg.seed, jobs=cfg.jobs, cap=cfg.cap)
    if out:
        csv_path, json_path = Path(out), Path(out).with_suffix(".json")
        _write(csv_path, lambda p: write_benchmark_csv(records, p, config=cfg.to_dict()))
        _write(json_path, lambda p: write_benchmark_json(records, p, config=cfg.to_dict()))
        click.echo(f"wrote {len(records)} records to {csv_path} and {json_path}", err=True)
    else:
        for r in records:
            click.echo(json.dumps(r.to_dict()))


def run() -> None:
    """The ``coalex`` program: :func:`main` after freezing the start-up heap, so that no
    collection, the one at exit too, walks the ~25k objects the imports made.  ``main``
    itself never freezes, so callers in a process keep their heap."""
    gc.freeze()
    main()


if __name__ == "__main__":
    run()
