"""Guard: every entry point the benchmark's tracer wraps still exists.

``perfbench/tracer.py`` binds layer entry points by name (module
functions, and methods looked up in ``cls.__dict__``).  Renaming or
deleting one of them would only surface when someone runs
``perfbench/run.py --trace 1``; these tests make it fail here instead.
"""

from __future__ import annotations

import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
TRACER = ROOT / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("_perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


LAYERS = _load_tracer().LAYERS


def test_tracer_installs_in_a_fresh_process():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT / "perfbench")]
    )
    proc = subprocess.run(
        [sys.executable, "-c",
         "import tracer; tracer.install(tracer.Tracer()); print('ok')"],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"


@pytest.mark.parametrize(
    "layer,mod_name,attr",
    LAYERS,
    ids=[f"{mod}:{attr}" for _layer, mod, attr in LAYERS],
)
def test_layer_entry_point_exists(layer, mod_name, attr):
    mod = importlib.import_module(mod_name)
    if "." in attr:
        cls_name, meth = attr.split(".")
        cls = getattr(mod, cls_name)
        assert callable(cls.__dict__.get(meth)), f"{layer}: {attr}"
    else:
        assert callable(getattr(mod, attr, None)), f"{layer}: {attr}"
