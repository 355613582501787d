"""The benchmark's per-layer trace table names live library functions.

perfbench/tracer.py wraps every `coxtoric.<layer>.<name>` listed in its
TRACED table; a function that is deleted or renamed would otherwise only
surface as a crash of `perfbench/run.py --trace 1`. The tracer module is
loaded from its file path and only read.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = load_tracer()
TRACED_NAMES = [f"{layer}.{name}" for layer, names in tracer.TRACED.items()
                for name in names]


@pytest.mark.parametrize("qualname", TRACED_NAMES)
def test_traced_function_exists_and_is_callable(qualname):
    layer, name = qualname.split(".")
    module = importlib.import_module(f"coxtoric.{layer}")
    assert callable(getattr(module, name, None)), qualname
