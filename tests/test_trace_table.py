"""The benchmark's per-layer trace table names live library functions.

perfbench/tracer.py wraps every `coxtoric.<layer>.<name>` listed in its
TRACED table; a function that is deleted or renamed would otherwise only
surface as a crash of `perfbench/run.py --trace 1`. The tracer module is
loaded from its file path and only read.
"""

import importlib
import importlib.util
import json
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


# calls of one traced `reproduce-paper --json` run in a fresh interpreter
REPRODUCE_CALLS = {
    "cones.double_description": 13,
    "cones.generators_to_hrep": 11,
    "exact.rank": 1,
    "exact.det": 7,
    "exact.hermite_normal_form": 4,
    "fans.fan_from_irrelevant": 2,
    "chambers.same_chamber": 2,
    "grading.gale_dual": 1,
    "embedding.mori_embedding_report": 1,
    "incidence.find_transversal_plane": 1,
}


def test_traced_reproduce_counts_every_stage():
    # a stage called through a reference that tracer.install does not
    # rebind (a name bound in a module loaded after it, a default
    # argument, a table entry) keeps the unwrapped function and reads
    # fewer calls here; a stage the report runs twice reads more
    script = ("import contextlib, io, json, coxtoric.cli, tracer\n"
              "t = tracer.Tracer()\n"
              "tracer.install(t)\n"
              "with contextlib.redirect_stdout(io.StringIO()):\n"
              "    code = coxtoric.cli.main(['reproduce-paper', '--json'])\n"
              "calls = {k: v['calls'] for k, v in t.summary().items()}\n"
              "print(json.dumps([code, calls]))\n")
    path = os.pathsep.join([str(ROOT / "perfbench"), str(ROOT / "src")])
    result = subprocess.run([sys.executable, "-c", script],
                            env={**os.environ, "PYTHONPATH": path},
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    code, calls = json.loads(result.stdout)
    assert code == 0
    assert {k: calls[k] for k in REPRODUCE_CALLS} == REPRODUCE_CALLS
