"""The benchmark's per-layer trace table names live library functions.

perfbench/tracer.py wraps every `coxtoric.<layer>.<name>` listed in its
TRACED table; a function that is deleted or renamed would otherwise only
surface as a crash of `perfbench/run.py --trace 1`. The tracer module is
loaded from its file path and only read.
"""

import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"


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


def test_tracer_installs_after_the_imports_of_a_traced_run():
    # perfbench/child.py imports coxtoric.cli and then calls
    # tracer.install, which looks each layer up in sys.modules: a traced
    # module that no package code imports passes the test above, since
    # import_module loads it, but fails here with a KeyError
    script = ("import coxtoric.cli, tracer\n"
              "t = tracer.Tracer()\n"
              "tracer.install(t)\n"
              "print(len(t.names))\n")
    path = os.pathsep.join([str(ROOT / "perfbench"), str(ROOT / "src")])
    result = subprocess.run([sys.executable, "-c", script],
                            env={**os.environ, "PYTHONPATH": path},
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout == f"{len(TRACED_NAMES)}\n"
