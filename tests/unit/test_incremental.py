"""Unit tests for incremental (delta) cost evaluation.

The contract under test is *bit-identity*: pricing a candidate by delta
against the current solution's per-term breakdown must produce exactly
the Metrics a from-scratch evaluation produces — same floats, not
approximately equal floats.
"""

import math

import pytest

from repro.errors import SynthesisError
from repro.synthesis.caching import HashedKey, LRUCache
from repro.synthesis.context import SynthesisConfig, SynthesisEnv
from repro.synthesis.costs import EvaluationContext
from repro.synthesis.improve import _best
from repro.synthesis.incremental import evaluate_solution
from repro.synthesis.initial import initial_solution
from repro.synthesis.moves import (
    candidate_order_key,
    sharing_candidates,
    splitting_candidates,
    type_a_b_candidates,
)


@pytest.fixture
def setup(flat_design, library, flat_sim):
    env = SynthesisEnv(flat_design, library, "power", SynthesisConfig())
    sol = initial_solution(env, flat_design.top, flat_sim, 10.0, 5.0, 500.0)
    return env, sol, flat_sim


def _all_candidates(env, sol, sim):
    out = []
    out += type_a_b_candidates(env, sol, sim, frozenset())
    out += sharing_candidates(env, sol, sim, frozenset())
    out += splitting_candidates(env, sol, sim, frozenset())
    return out


class TestHashedKey:
    def test_equal_values_equal_keys(self):
        assert HashedKey((1, "a")) == HashedKey((1, "a"))
        assert hash(HashedKey((1, "a"))) == hash(HashedKey((1, "a")))

    def test_different_values_differ(self):
        assert HashedKey((1, "a")) != HashedKey((1, "b"))

    def test_usable_as_dict_key(self):
        d = {HashedKey((1, 2)): "x"}
        assert d[HashedKey((1, 2))] == "x"


class TestLRUPeek:
    def test_peek_does_not_count_or_refresh(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.peek("a") == 1
        assert cache.peek("missing") is None
        assert cache.hits == 0 and cache.misses == 0
        # "a" was NOT refreshed by peek, so it is still the LRU entry.
        cache.put("c", 3)
        assert "a" not in cache and "b" in cache


class TestFingerprintMemo:
    def test_key_cached_until_mutation(self, setup):
        _env, sol, _sim = setup
        k1 = sol.fingerprint_key()
        assert sol.fingerprint_key() is k1
        sol.invalidate()
        k2 = sol.fingerprint_key()
        assert k2 is not k1
        assert k2 == k1  # structure unchanged, only the memo was dropped

    def test_clone_does_not_share_memo(self, setup):
        _env, sol, _sim = setup
        sol.fingerprint_key()
        clone = sol.clone()
        assert clone.fingerprint_key() == sol.fingerprint_key()


class TestDeltaBitIdentity:
    def test_every_candidate_prices_identically(self, setup):
        env, sol, sim = setup
        ctx = env.context(sim)
        _m, base, _r, _t = evaluate_solution(ctx, sol, None)
        candidates = _all_candidates(env, sol, sim)
        assert candidates
        for cand in candidates:
            delta = evaluate_solution(ctx, cand.solution, base)
            full = evaluate_solution(ctx, cand.solution, None)
            assert delta[0] == full[0], cand.description

    def test_local_moves_reuse_terms(self, setup):
        env, sol, sim = setup
        ctx = env.context(sim)
        _m, base, _r, _t = evaluate_solution(ctx, sol, None)
        footprinted = [
            c for c in _all_candidates(env, sol, sim) if c.footprint is not None
        ]
        assert footprinted
        reuse = 0
        for cand in footprinted:
            _m, _b, reused, terms = evaluate_solution(ctx, cand.solution, base)
            assert 0 <= reused <= terms
            reuse += reused
        assert reuse > 0  # the delta engine earns its keep on local moves

    def test_cell_swap_reuses_touched_activity(self, setup, library):
        env, sol, sim = setup
        ctx = env.context(sim)
        _m, base, _r, _t = evaluate_solution(ctx, sol, None)
        # A cell swap keeps the instance's operand streams, so even the
        # touched instance's *activity* is reused — only the energy
        # arithmetic is replayed with the new cell.
        cands = [
            c
            for c in type_a_b_candidates(env, sol, sim, frozenset())
            if c.kind == "A-cell"
        ]
        assert cands
        cand = cands[0]
        (inst_id,) = cand.touched
        _m, after, reused, terms = evaluate_solution(ctx, cand.solution, base)
        if after.fu[inst_id][0] == base.fu[inst_id][0]:
            assert after.fu[inst_id][1] == base.fu[inst_id][1]

    def test_sharing_changes_touched_keys(self, setup):
        env, sol, sim = setup
        ctx = env.context(sim)
        _m, base, _r, _t = evaluate_solution(ctx, sol, None)
        # Merging two units interleaves their operand streams: the
        # surviving instance's activity key must change.
        cands = [
            c
            for c in sharing_candidates(env, sol, sim, frozenset())
            if c.kind == "C-share-fu"
        ]
        if not cands:
            pytest.skip("flat design offers no FU sharing here")
        cand = cands[0]
        _m, after, _r, _t = evaluate_solution(ctx, cand.solution, base)
        changed = [
            i for i in cand.touched
            if i in base.fu and i in after.fu
            and after.fu[i][0] != base.fu[i][0]
        ]
        assert changed


class TestFallbackTriggers:
    def test_other_operating_point_discards_base(self, setup):
        env, sol, sim = setup
        ctx = env.context(sim)
        _m, base, _r, _t = evaluate_solution(ctx, sol, None)
        other = sol.clone()
        other.vdd = 3.3
        _m, _b, reused, _t = evaluate_solution(ctx, other, base)
        assert reused == 0  # header mismatch: nothing may be reused

    def test_schedule_length_enters_arithmetic_not_keys(self, setup):
        env, sol, sim = setup
        ctx = env.context(sim)
        m1, base, _r, _t = evaluate_solution(ctx, sol, None)
        slower = sol.clone()
        slower.clk_ns = sol.clk_ns * 2
        slower.invalidate()
        if slower.schedule().length == sol.schedule().length:
            pytest.skip("clock change did not move the schedule length")
        m2, b2, _r, _t = evaluate_solution(ctx, slower, None)
        # Write activities do not depend on the schedule length, so the
        # keys stay equal — the idle-clocking arithmetic is what gets
        # replayed (register energy must move with the length).
        for reg_id in base.reg:
            assert b2.reg[reg_id][0] == base.reg[reg_id][0]
        assert m2.report.register_energy != m1.report.register_energy

    def test_global_moves_have_no_footprint(self, setup):
        env, sol, sim = setup
        for cand in _all_candidates(env, sol, sim):
            if cand.kind in ("B-resynth", "C-chain", "C-chain3", "C-embed",
                             "A-module", "A-remerge", "C-share-module",
                             "D-unchain"):
                assert cand.footprint is None, cand.kind
            if cand.kind in ("A-cell", "C-share-fu", "C-share-reg",
                             "D-split-fu", "D-split-reg"):
                assert cand.footprint is not None, cand.kind


class TestEvaluateTelemetry:
    def test_miss_classification(self, setup):
        env, sol, sim = setup
        ctx = env.context(sim)
        tel = ctx.telemetry
        ctx.evaluate(sol)
        assert tel.full_evals == 1 and tel.delta_hits == 0
        base = ctx.breakdown_of(sol)
        assert base is not None
        cands = [
            c
            for c in type_a_b_candidates(env, sol, sim, frozenset())
            if c.kind == "A-cell"
        ]
        assert cands
        ctx.evaluate(cands[0].solution, base=base)
        assert tel.delta_hits == 1
        assert tel.delta_hit_rate == pytest.approx(0.5)

    def test_cache_hit_skips_classification(self, setup):
        env, sol, sim = setup
        ctx = env.context(sim)
        tel = ctx.telemetry
        ctx.evaluate(sol)
        ctx.evaluate(sol)
        assert tel.cache_hits == 1
        assert tel.full_evals == 1  # the hit is not re-classified


class TestValidateMode:
    def test_tampered_base_raises(self, setup, flat_sim):
        env, sol, sim = setup
        ctx = EvaluationContext(
            flat_sim, (), "power", validate_incremental=True
        )
        _m, base, _r, _t = evaluate_solution(ctx, sol, None)
        # Corrupt one reusable term's stored float, keeping its key: the
        # delta path now mis-prices, and validation must catch it.
        cands = [
            c
            for c in type_a_b_candidates(env, sol, sim, frozenset())
            if c.kind == "A-cell"
        ]
        assert cands
        (touched,) = cands[0].touched
        victim = next(i for i in base.fu if i != touched)
        key, activity, sig, energy = base.fu[victim]
        base.fu[victim] = (key, activity + 1.0, sig, energy + 1.0)
        with pytest.raises(SynthesisError, match="diverged"):
            ctx.evaluate(cands[0].solution, base=base)

    def test_clean_base_passes(self, setup, flat_sim):
        env, sol, sim = setup
        ctx = EvaluationContext(
            flat_sim, (), "power", validate_incremental=True
        )
        ctx.evaluate(sol)
        base = ctx.breakdown_of(sol)
        for cand in _all_candidates(env, sol, sim):
            if cand.footprint is not None:
                ctx.evaluate(cand.solution, base=base)


class TestTieBreak:
    def test_order_independent_tiebreak(self, setup, flat_sim):
        env, sol, sim = setup
        candidates = _all_candidates(env, sol, sim)

        def winner(cands):
            ctx = EvaluationContext(flat_sim, (), "power")
            best = _best(ctx, cands)
            return best.candidate.description

        assert winner(candidates) == winner(list(reversed(candidates)))


class TestBatchedPricing:
    """Round pricing through ``_best`` is bit-identical to pricing each
    candidate on its own with ``ctx.evaluate`` (the reference)."""

    def _price_all(
        self, flat_sim, sol, candidates, validate=False, round_first=True,
        store=None, design=None,
    ):
        """Price *candidates* on a fresh context and read them back.

        ``round_first=False`` is the reference: a plain per-candidate
        ``ctx.evaluate`` loop with no ``_best`` round before it.  A
        *store* (with the *design* its content keys resolve against)
        shares metrics through it.
        """
        from repro.power import reset_activity_caches

        reset_activity_caches()
        ctx = EvaluationContext(
            flat_sim, (), "power", validate_incremental=validate,
            store=store, design=design, store_prefix="test",
            share_metrics=store is not None,
        )
        ctx.evaluate(sol)
        base = ctx.breakdown_of(sol)
        best = _best(ctx, candidates, base=base) if round_first else None
        metrics = [
            ctx.evaluate(
                c.solution, base=base if c.footprint is not None else None
            )
            for c in candidates
        ]
        return best, metrics, ctx.telemetry

    def test_round_pricing_matches_per_candidate_bitwise(
        self, setup, flat_sim
    ):
        env, sol, sim = setup
        candidates = _all_candidates(env, sol, sim)
        assert len(candidates) > 2
        _, ref_metrics, _ = self._price_all(
            flat_sim, sol, candidates, round_first=False
        )
        best, metrics, _ = self._price_all(flat_sim, sol, candidates)
        for ref, got in zip(ref_metrics, metrics):
            assert (ref.area, ref.power, ref.energy_per_sample) == (
                got.area,
                got.power,
                got.energy_per_sample,
            )
        ref_best = min(
            (m.objective_value("power"),) + candidate_order_key(c)
            for c, m in zip(candidates, ref_metrics)
            if not math.isinf(m.objective_value("power"))
        )
        assert best.cost_after == ref_best[0]
        assert candidate_order_key(best.candidate) == ref_best[1:]

    def test_round_pricing_keeps_accounting_serial(self, setup, flat_sim):
        """evaluate_batch stashes results ahead of the serial pass; that
        pass must still report the per-candidate reference telemetry."""
        env, sol, sim = setup
        candidates = _all_candidates(env, sol, sim)
        _, _, tel_ref = self._price_all(
            flat_sim, sol, candidates, round_first=False
        )
        _, _, tel = self._price_all(flat_sim, sol, candidates)
        # The read-back after the round prices every candidate once
        # more: n extra evaluations, all of them cache hits.
        got = tel.as_dict()
        want = tel_ref.as_dict()
        assert sum(got.pop("moves_tried").values()) == len(candidates)
        want.pop("moves_tried")
        n = len(candidates)
        assert got["evaluations"] == want["evaluations"] + n
        assert got["cache_hits"] == want["cache_hits"] + n
        for key in ("cache_misses", "delta_hits", "delta_fallbacks",
                    "full_evals"):
            assert got[key] == want[key], key

    def test_round_pricing_counts_store_lookups_serially(
        self, setup, flat_sim, flat_design, tmp_path
    ):
        """With a persistent tier, every candidate the round prices or
        serves counts the store hits and misses its own ``ctx.evaluate``
        would: first on a cold store, then on the warmed one."""
        from repro.synthesis.store import SynthesisStore

        env, sol, sim = setup
        candidates = _all_candidates(env, sol, sim)
        counters = {}
        for round_first in (False, True):
            cache_dir = tmp_path / f"round_first_{round_first}"
            runs = []
            for _run in ("cold", "warm"):
                # Memoized schedules would skip the schedule lookups of
                # whichever side prices second.
                for solution in [sol] + [c.solution for c in candidates]:
                    solution.invalidate()
                store = SynthesisStore(cache_dir=str(cache_dir))
                assert store.persistent
                try:
                    self._price_all(
                        flat_sim, sol, candidates, round_first=round_first,
                        store=store, design=flat_design,
                    )
                    runs.append(store.counters())
                finally:
                    store.close()
            counters[round_first] = runs
        cold, warm = counters[False]
        assert cold["misses"]["persistent.metrics"] > len(candidates) // 2
        assert warm["hits"]["persistent.metrics"] > len(candidates) // 2
        assert counters[True] == counters[False]

    def test_batch_under_validate_mode(self, setup, flat_sim):
        """The validate_incremental cross-check re-prices every batched
        delta from scratch and must find zero divergence."""
        env, sol, sim = setup
        candidates = _all_candidates(env, sol, sim)
        best, _, _ = self._price_all(
            flat_sim, sol, candidates, validate=True
        )
        assert best is not None

    def test_cache_reset_mid_sweep_is_bit_identical(self, setup, flat_sim):
        """Dropping the activity memos between sweeps must not change a
        single float: the caches are pure memoization."""
        from repro.power import reset_activity_caches
        from repro.synthesis.incremental import _reset_energy_memos

        env, sol, sim = setup
        candidates = _all_candidates(env, sol, sim)
        _, warm, _ = self._price_all(flat_sim, sol, candidates)
        reset_activity_caches()
        _reset_energy_memos()
        _, cold, _ = self._price_all(flat_sim, sol, candidates)
        for w, c in zip(warm, cold):
            assert (w.area, w.power, w.energy_per_sample) == (
                c.area,
                c.power,
                c.energy_per_sample,
            )
