"""The benchmark tracer's TARGETS name functions that the package has.

``bench/run.py`` reports no per-layer metric for a traced name that has
left its module, so a refactor that moves or renames one would silently
drop a declared metric.  This reads ``bench/tracer.py`` without importing
the benchmark harness as a package.
"""

import importlib.util
import inspect
from pathlib import Path

import pytest

_TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _targets() -> dict[str, tuple[str, ...]]:
    spec = importlib.util.spec_from_file_location("bench_tracer", _TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.TARGETS


TRACED = [(module, name) for module, names in _targets().items() for name in names]


@pytest.mark.parametrize("module, name", TRACED, ids=[f"{m}.{n}" for m, n in TRACED])
def test_traced_name_is_a_plain_function(module, name):
    fn = getattr(importlib.import_module(f"cosetkit.{module}"), name, None)
    assert inspect.isfunction(fn), f"cosetkit.{module}.{name} is not a function"
    assert not inspect.isgeneratorfunction(fn), f"cosetkit.{module}.{name} is a generator"
