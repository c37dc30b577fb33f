"""Start-up guard: scipy and networkx stay off the synth path.

Every ``repro`` process pays for what ``import repro.cli`` loads, and
iterative flows invoke the tool over and over.  scipy is not a runtime
dependency at all (the embedding solver is in-repo) and networkx is
needed only by hierarchy derivation, so neither may be loaded by a
fresh process that imports the CLI or runs ``repro synth``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
HEAVY = ("scipy", "networkx")

#: Runs the CLI in a fresh interpreter and, at exit, reports which heavy
#: modules were loaded and how often the embedding solver ran.
_PROBE = """
import atexit, json, sys
HEAVY = %r
from repro import cli
from repro.rtl import embedding

calls = 0
solve = embedding.linear_sum_assignment

def counted(cost):
    global calls
    calls += 1
    return solve(cost)

embedding.linear_sum_assignment = counted

@atexit.register
def report():
    loaded = sorted(m for m in HEAVY if m in sys.modules)
    print(json.dumps({"loaded": loaded, "assignments": calls}))

sys.exit(cli.main(sys.argv[1:]) if len(sys.argv) > 1 else 0)
""" % (HEAVY,)


def _run(script: str, *argv: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-c", script, *argv],
        env=env,
        capture_output=True,
        text=True,
        timeout=600,
    )


@pytest.mark.parametrize(
    "argv, embeds",
    [
        ((), False),
        (("synth", "--benchmark", "test1"), True),
        (("synth", "--benchmark", "dct"), True),
        (("synth", "--benchmark", "test1", "--flatten"), False),
    ],
    ids=["import", "test1-hier", "dct-hier", "test1-flat"],
)
def test_synth_path_loads_neither_scipy_nor_networkx(argv, embeds):
    if argv:
        argv = (*argv, "--laxity", "2.2", "--objective", "power")
    proc = _run(_PROBE, *argv)
    assert proc.returncode == 0, proc.stderr[-2000:]
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    assert report["loaded"] == []
    if embeds:
        # The run must actually exercise the in-repo solver.
        assert report["assignments"] > 0


def test_hierarchize_loads_networkx_on_first_use():
    script = """
import sys
import repro.cli
from repro.bench_suite import get_benchmark
from repro.dfg import flatten, hierarchize

assert "networkx" not in sys.modules
design = hierarchize(flatten(get_benchmark("test1")), max_cluster_size=6)
assert "networkx" in sys.modules
print(len(design.behaviors()))
"""
    proc = _run(script)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert int(proc.stdout.split()[-1]) >= 2
