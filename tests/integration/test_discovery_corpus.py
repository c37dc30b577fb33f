"""Move discovery over the :mod:`repro.gen` corpus.

The per-family generators in :mod:`repro.synthesis.moves` are the only
discovery path.  Four properties are checked on every generated design,
flat and hierarchical:

* the candidate multiset, ordered by
  :func:`~repro.synthesis.moves.candidate_order_key` (the total order
  the improvement loop breaks ties with), equals a pinned golden;
* discovery is deterministic and leaves the source solution untouched;
* every candidate's clone satisfies the solution invariants;
* locked instances and registers are never touched.

The goldens were generated when two discovery engines still existed and
were checked equal to both, so they pin discovery across that engine's
removal.  When a change *intentionally* moves discovery, regenerate
with::

    PYTHONPATH=src python -m pytest tests/integration/test_discovery_corpus.py \
        --update-goldens

and commit the refreshed JSON files under
``tests/integration/goldens/discovery/``.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import pytest

from repro.gen import GenConfig, generate_design
from repro.library import default_library
from repro.power import simulate_subgraph
from repro.synthesis import SynthesisConfig
from repro.synthesis.context import SynthesisEnv
from repro.synthesis.initial import initial_solution
from repro.synthesis.moves import (
    candidate_order_key,
    sharing_candidates,
    splitting_candidates,
    type_a_b_candidates,
)

GOLDEN_DIR = Path(__file__).parent / "goldens" / "discovery"

NONE_LOCKED = frozenset()

SEEDS = tuple(range(12))

#: Flat and hierarchical shapes, so module instances exercise the
#: module families next to the cell and register ones.
CORPUS_CONFIG = dataclasses.replace(
    GenConfig(),
    ops_per_dfg=(4, 18),
    n_behaviors=(0, 2),
    variants_per_behavior=(1, 2),
    n_samples=8,
)


def _setup(seed: int):
    generated = generate_design(seed, CORPUS_CONFIG)
    design, traces = generated.design, generated.traces
    top = design.top
    sim = simulate_subgraph(design, top, [traces[name] for name in top.inputs])
    env = SynthesisEnv(design, default_library(), "power", SynthesisConfig())
    solution = initial_solution(env, top, sim, 10.0, 5.0, 2000.0)
    return env, solution, sim


def _discover(env, solution, sim, locked=NONE_LOCKED):
    return (
        list(type_a_b_candidates(env, solution, sim, locked))
        + sharing_candidates(env, solution, sim, locked)
        + splitting_candidates(env, solution, sim, locked)
    )


def _keys(candidates) -> list:
    return sorted(candidate_order_key(c) for c in candidates)


def _as_json(keys) -> str:
    rows = [[kind, list(touched), text] for kind, touched, text in keys]
    return json.dumps(rows, indent=1) + "\n"


@pytest.mark.parametrize("seed", SEEDS)
def test_discovery_matches_golden(seed, update_goldens):
    env, solution, sim = _setup(seed)
    observed = _as_json(_keys(_discover(env, solution, sim)))
    path = GOLDEN_DIR / f"gen{seed:02d}.json"
    if update_goldens:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(observed)
        pytest.skip(f"golden updated: {path}")
    assert path.exists(), (
        f"missing golden {path}; generate it with pytest --update-goldens"
    )
    assert observed == path.read_text(), (
        f"discovery on generated seed {seed} diverged from {path.name}"
    )


@pytest.mark.parametrize("seed", SEEDS)
def test_discovery_is_deterministic_and_pure(seed):
    env, solution, sim = _setup(seed)
    before = solution.fingerprint_key()
    first = _discover(env, solution, sim)
    second = _discover(env, solution, sim)
    assert first, f"seed {seed} offers no moves at all"
    assert [candidate_order_key(c) for c in first] == [
        candidate_order_key(c) for c in second
    ]
    assert solution.fingerprint_key() == before, (
        "discovery mutated the source solution"
    )
    for cand in first:
        assert cand.solution is not solution, cand.description


@pytest.mark.parametrize("seed", SEEDS)
def test_candidates_satisfy_invariants(seed):
    env, solution, sim = _setup(seed)
    for cand in _discover(env, solution, sim):
        assert cand.touched, f"{cand.kind} touches nothing: {cand.description}"
        cand.solution.check_invariants()


@pytest.mark.parametrize("seed", SEEDS)
def test_locked_resources_never_touched(seed):
    env, solution, sim = _setup(seed)
    instances = sorted(solution.instances)
    registers = sorted(solution.reg_signals)
    locked = frozenset(
        instances[: len(instances) // 2] + registers[: len(registers) // 2]
    )
    for cand in _discover(env, solution, sim, locked):
        assert not (cand.touched & locked), (
            f"seed {seed}: {cand.kind} touches locked "
            f"{sorted(cand.touched & locked)}"
        )
