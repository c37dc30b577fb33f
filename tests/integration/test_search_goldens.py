"""Byte-identity of the default search policy against pre-refactor goldens.

The ``repro.search`` refactor moved candidate-family ordering, ranking,
restart scheduling and early termination behind a
:class:`~repro.search.policy.SearchPolicy` seam.  The contract for the
default policy is absolute: the refactored driver must reproduce the
pre-refactor engine **byte for byte** — same moves, same telemetry-fed
eval counters, same trace JSONL.  These goldens were generated from the
engine as it stood before the seam existed (timings disabled, so the
traces are deterministic).

When a change *intentionally* moves the search (a new move family, a
cost-model fix), regenerate with::

    PYTHONPATH=src python -m pytest tests/integration/test_search_goldens.py \
        --update-goldens

and commit the refreshed JSONL files under
``tests/integration/goldens/traces/``.

:class:`TestPolicyRuns` covers the other side of the seam: biased
policies must still reach feasible results, and only a non-default
policy is named in the trace's ``run_start`` event.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path

import pytest

from repro.bench_suite import get_benchmark
from repro.gen import GenConfig, generate_design
from repro.power import speech_traces
from repro.synthesis import SynthesisConfig, synthesize
from repro.trace import dumps_trace

GOLDEN_DIR = Path(__file__).parent / "goldens" / "traces"

#: Stimulus pinning for the benchmark cases.
TRACE_SEED = 3
TRACE_SAMPLES = 16
LAXITY = 2.2

#: Generated-corpus shape: hierarchical and flat designs, with
#: anisomorphic variants so move A's module swaps are exercised.
GEN_SEEDS = tuple(range(12))
GEN_CONFIG = dataclasses.replace(
    GenConfig(),
    ops_per_dfg=(4, 14),
    n_behaviors=(0, 2),
    variants_per_behavior=(1, 2),
    n_samples=12,
)
GEN_LAXITY = 2.0


def _trace_config() -> SynthesisConfig:
    return SynthesisConfig(
        max_moves=6,
        max_passes=2,
        max_ab_targets=4,
        max_share_pairs=8,
        max_split_candidates=4,
        n_clocks=2,
        resynth_passes=1,
        resynth_moves=4,
        trace=True,
        trace_timings=False,
    )


def _run_benchmark(name: str) -> str:
    design = get_benchmark(name)
    traces = speech_traces(design.top, n=TRACE_SAMPLES, seed=TRACE_SEED)
    result = synthesize(
        design,
        laxity_factor=LAXITY,
        objective="power",
        traces=traces,
        config=_trace_config(),
        n_samples=TRACE_SAMPLES,
    )
    return dumps_trace(result.trace_events)


def _run_generated(seed: int) -> str:
    generated = generate_design(seed, GEN_CONFIG)
    result = synthesize(
        generated.design,
        laxity_factor=GEN_LAXITY,
        objective="power",
        traces=generated.traces,
        config=_trace_config(),
        n_samples=GEN_CONFIG.n_samples,
    )
    return dumps_trace(result.trace_events)


CASES: dict[str, object] = {
    "paulin": lambda: _run_benchmark("paulin"),
    "test1": lambda: _run_benchmark("test1"),
}
for _seed in GEN_SEEDS:
    CASES[f"gen{_seed:02d}"] = lambda seed=_seed: _run_generated(seed)


@pytest.mark.parametrize("name", sorted(CASES))
def test_default_policy_trace_matches_pre_refactor_golden(name, update_goldens):
    observed = CASES[name]()
    path = GOLDEN_DIR / f"{name}.jsonl"
    if update_goldens:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(observed)
        pytest.skip(f"golden updated: {path}")
    assert path.exists(), (
        f"missing golden {path}; generate it with pytest --update-goldens"
    )
    expected = path.read_text()
    assert observed == expected, (
        f"default-policy trace for {name} diverged from the pre-refactor "
        f"golden {path.name}"
    )


class TestPolicyRuns:
    """Non-default policies run end to end and are named in the trace."""

    SAMPLING_NS = 400.0
    N_SAMPLES = 8

    def _run(self, **overrides):
        return synthesize(
            get_benchmark("paulin"),
            sampling_ns=self.SAMPLING_NS,
            objective="power",
            config=dataclasses.replace(_trace_config(), **overrides),
            n_samples=self.N_SAMPLES,
        )

    @pytest.mark.parametrize("policy", ["share-first", "greedy", "priors"])
    def test_biased_policies_produce_feasible_results(self, policy):
        result = self._run(search_policy=policy)
        assert result.metrics.objective_value(result.objective) > 0
        assert result.solution.schedule().length \
            <= result.solution.deadline_cycles

    def test_run_start_carries_nondefault_policy_name(self):
        run_start = self._run(search_policy="greedy").trace_events[0]
        assert run_start["k"] == "run_start"
        assert run_start["policy"] == "greedy"

    def test_default_policy_trace_has_no_policy_field(self):
        assert "policy" not in self._run().trace_events[0]
