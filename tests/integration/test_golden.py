"""Golden regression snapshots of the synthesis cost metrics.

Each golden pins the (area, power, clock, Vdd) quadruple a full
``synthesize()`` run produces for one benchmark under a fixed stimulus
seed and reduced-effort configuration, for both objectives.  The runs
are deterministic, so any drift means a synthesis change moved the
costs — caught here at PR time instead of in the benchmark sweeps.

Each case also runs with each of the two pure-execution knobs off
(``incremental=False`` / ``--no-incremental``, ``prune=False`` /
``--no-prune``) and with both off, and must match the same golden:
delta pricing and candidate pruning change only how fast the numbers
are reached, alone or together.

When a change *intentionally* moves the numbers, regenerate with::

    PYTHONPATH=src python -m pytest tests/integration/test_golden.py \
        --update-goldens

and commit the refreshed JSON files under ``tests/integration/goldens/``.
"""

import dataclasses
import json
from pathlib import Path

import pytest

from repro.bench_suite import example3_dfg1, get_benchmark
from repro.dfg import Design
from repro.power import speech_traces
from repro.reporting import quick_config
from repro.synthesis import synthesize

GOLDEN_DIR = Path(__file__).parent / "goldens"

#: Floats are compared to a tight relative tolerance: the flow is
#: deterministic, so the slack only absorbs cross-platform libm noise.
REL_TOL = 1e-9

TRACE_SEED = 2026
TRACE_SAMPLES = 24
LAXITY = 1.8


def _example3_design() -> Design:
    # example3 ships as a bare DFG (the Table 2 demonstration pair);
    # wrap DFG1 as a single-behavior design so synthesize() accepts it.
    design = Design("example3")
    design.add_dfg(example3_dfg1(), top=True)
    return design


CASES = {
    "test1": lambda: get_benchmark("test1"),
    "paulin": lambda: get_benchmark("paulin"),
    "example3": _example3_design,
}


#: Config overrides per mode; goldens are written from ``"default"``.
MODES = {
    "default": {},
    "no-incremental": {"incremental": False},
    "no-prune": {"prune": False},
    "knobs-off": {"incremental": False, "prune": False},
}


def _snapshot(name: str, mode: str) -> dict:
    config = dataclasses.replace(quick_config(), **MODES[mode])
    snapshot: dict = {}
    for objective in ("area", "power"):
        design = CASES[name]()
        traces = speech_traces(design.top, n=TRACE_SAMPLES, seed=TRACE_SEED)
        result = synthesize(
            design,
            laxity_factor=LAXITY,
            objective=objective,
            traces=traces,
            config=config,
        )
        snapshot[objective] = {
            "area": result.area,
            "power": result.power,
            "clock_ns": result.clk_ns,
            "vdd": result.vdd,
        }
    return snapshot


@pytest.mark.parametrize("mode", sorted(MODES))
@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_costs(name, mode, update_goldens):
    if update_goldens and mode != "default":
        pytest.skip("goldens are written from the default mode")
    observed = _snapshot(name, mode)
    path = GOLDEN_DIR / f"{name}.json"
    if update_goldens:
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps(observed, indent=2, sort_keys=True) + "\n")
        pytest.skip(f"golden updated: {path}")
    assert path.exists(), (
        f"missing golden {path}; generate it with pytest --update-goldens"
    )
    expected = json.loads(path.read_text())
    assert set(observed) == set(expected)
    for objective, metrics in expected.items():
        assert set(observed[objective]) == set(metrics)
        for key, want in metrics.items():
            got = observed[objective][key]
            assert got == pytest.approx(want, rel=REL_TOL), (
                f"{name}/{objective}/{key}: golden {want}, observed {got}"
            )
