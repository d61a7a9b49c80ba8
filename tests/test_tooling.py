"""The benchmark's span tracer (``perfbench/tracing.py``) wraps library
functions by name and skips a name that no longer resolves, so a rename would
silently zero that layer's metrics. These checks make it fail here instead."""

import importlib
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _traced_names() -> list:
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py"
    )
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return [(module, attr) for _, module, attr in tracing.LIBRARY_TARGETS]


# the benchmark's model generator imports this one as well
@pytest.mark.parametrize(
    "module, attr", _traced_names() + [("oqwalk.asymptotics", "fixed_space_dim")]
)
def test_benchmark_names_resolve(module, attr):
    assert callable(getattr(importlib.import_module(module), attr, None))
