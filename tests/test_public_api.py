"""The package's public names, and the functions the benchmark's tracer wraps.

Deleting or renaming a name the tracer wraps would otherwise fail only the
traced benchmark run, so it is checked here too.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

import coalex

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"


def traced_names():
    spec = importlib.util.spec_from_file_location("coalex_perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return [(module, attr) for module, attr, *_ in tracer.WRAPS]


def test_every_exported_name_resolves():
    missing = [name for name in coalex.__all__ if not hasattr(coalex, name)]
    assert missing == []
    assert len(set(coalex.__all__)) == len(coalex.__all__)


def test_export_budget():
    assert len(coalex.__all__) <= 35


def test_source_budget():
    # Raise this bound only together with the change that needs the lines.
    lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                for p in (ROOT / "src" / "coalex").glob("*.py"))
    assert lines <= 2601


@pytest.mark.parametrize("module, attr",
                         [pytest.param(m, a, id=f"{m}.{a}") for m, a in traced_names()])
def test_traced_name_exists(module, attr):
    owner = importlib.import_module(module)
    for part in attr.split("."):
        owner = getattr(owner, part)
    assert callable(owner)
