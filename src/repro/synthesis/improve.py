"""Variable-depth iterative improvement (Figure 4 of the paper).

A *pass* applies up to ``MAX_MOVES`` moves in sequence.  At each step
the best type-A/B move competes with the best resource-sharing move
(falling back to resource splitting when sharing has negative gain);
the winner is applied **even if its gain is negative** and the touched
resources are locked for the rest of the pass.  At the end of the pass
the prefix of the move sequence with the best cumulative gain is
committed; passes repeat while they improve the solution.  This is the
classic Kernighan–Lin / variable-depth scheme the paper cites ([11]),
and it is what lets the algorithm climb out of local minima.

Every discretionary decision in that loop — the family plan, candidate
ranking, the splitting fallback, pass/step termination, and seeding —
is delegated to the env's :class:`~repro.search.policy.SearchPolicy`.
The default policy's hooks are exact no-ops, which keeps this driver
byte-identical to the pre-policy monolith (golden-trace tested);
nested move-B resynthesis always runs the default scheme regardless of
the configured policy, because its result is memoized in the store and
must not vary with the outer search's bias.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from ..dfg.canonical import stream_digest
from ..power.simulate import SimTrace
from ..rtl.module import RTLModule
from ..search.policy import DefaultPolicy, SearchPolicy
from ..telemetry import Telemetry, move_family
from .caching import HashedKey
from .context import SynthesisEnv
from .costs import EvaluationContext
from .initial import hier_input_streams, initial_solution
from .incremental import Breakdown
from .modulegen import ModuleInternal, characterize_module
from .store import MISSING, module_content_signature
from .moves import (
    Candidate,
    candidate_order_key,
    prune_candidates,
    sharing_candidates,
    splitting_candidates,
    type_a_b_candidates,
)
from .solution import Solution

__all__ = ["ScoredMove", "improve_solution", "resynthesize_module", "PassRecord"]


@dataclass
class ScoredMove:
    """A candidate plus its evaluated cost."""

    candidate: Candidate
    cost_after: float


@dataclass
class PassRecord:
    """Trace of one improvement pass (for reporting and tests)."""

    moves: list[str]
    costs: list[float]
    committed_prefix: int


def _tally_discovered(
    tel: Telemetry, candidates: list[Candidate], discovered: dict[str, int]
) -> None:
    """Count freshly generated candidates (pre-pruning), by kind.

    Feeds both the run telemetry and the per-step ``discovered`` trace
    field.
    """
    for cand in candidates:
        kind = cand.kind
        discovered[kind] = discovered.get(kind, 0) + 1
        tel.count_move_discovered(kind)


def _best(
    ctx: EvaluationContext,
    candidates: list[Candidate],
    base: Breakdown | None = None,
) -> ScoredMove | None:
    """Price all candidates, return the cheapest feasible-or-not one.

    *base* is the current solution's per-term breakdown: candidates
    carrying a local footprint are priced by delta against it (see
    :mod:`repro.synthesis.incremental`), the rest from scratch.

    The whole round is priced first through one batched activity call
    (:meth:`~repro.synthesis.costs.EvaluationContext.evaluate_batch`);
    the loop below then consumes those results and keeps all
    cache/telemetry/trace accounting serial, in candidate order.
    Equal-cost candidates resolve by the deterministic
    :func:`~repro.synthesis.moves.candidate_order_key`, never by
    generation order.
    """

    def candidate_base(candidate: Candidate) -> Breakdown | None:
        return base if candidate.footprint is not None else None

    ctx.evaluate_batch([(c.solution, candidate_base(c)) for c in candidates])
    best: ScoredMove | None = None
    best_key: tuple | None = None
    for candidate in candidates:
        ctx.telemetry.count_move_tried(candidate.kind)
        cost = ctx.cost(candidate.solution, base=candidate_base(candidate))
        if math.isinf(cost):
            continue
        key = (cost,) + candidate_order_key(candidate)
        if best_key is None or key < best_key:
            best = ScoredMove(candidate, cost)
            best_key = key
    ctx.discard_primed()
    return best


#: Candidate generator of each policy family tag.
_DISCOVER = {
    "ab": type_a_b_candidates,
    "share": sharing_candidates,
    "split": splitting_candidates,
}

#: Shared fallback policy for nested resynthesis: move-B results are
#: memoized in the store under policy-independent content keys, so the
#: nested driver must run the fixed default scheme no matter how the
#: outer search is biased.  Never bound to an env (no hook needs one).
_DEFAULT_POLICY = DefaultPolicy()


def _discover_family(
    env: SynthesisEnv,
    ctx: EvaluationContext,
    policy: SearchPolicy,
    family: str,
    work: Solution,
    sim: SimTrace,
    locked: frozenset[str],
    discovered: dict[str, int],
    pass_idx: int,
    step_idx: int,
) -> list[Candidate]:
    """Generate, tally, prune and rank one family's candidates."""
    t_disc = time.perf_counter()
    cands = _DISCOVER[family](env, work, sim, locked)
    ctx.telemetry.add_time("discovery", time.perf_counter() - t_disc)
    _tally_discovered(ctx.telemetry, cands, discovered)
    if env.config.prune:
        cands = prune_candidates(env, work, cands)
    return list(policy.rank_candidates(family, cands, pass_idx, step_idx))


def improve_solution(
    env: SynthesisEnv,
    solution: Solution,
    sim: SimTrace,
    max_passes: int | None = None,
    max_moves: int | None = None,
    history: list[PassRecord] | None = None,
) -> Solution:
    """Run variable-depth iterative improvement on *solution*.

    Returns the best solution found (the input solution if nothing
    improved).  ``history`` — when supplied — receives one
    :class:`PassRecord` per executed pass.  Discretionary decisions
    route through ``env.policy`` (see :mod:`repro.search.policy`); the
    default policy reproduces the paper's fixed scheme exactly.
    """
    config = env.config
    max_passes = max_passes if max_passes is not None else config.max_passes
    max_moves = max_moves if max_moves is not None else config.max_moves
    ctx = env.context(sim)
    # Nested move-B resynthesis runs this same driver one level down;
    # its passes are an implementation detail of pricing one candidate,
    # so only the top-level search is traced — and only the top-level
    # search is policy-biased (see _DEFAULT_POLICY).
    nested = env._resynth_active
    rec = env.trace if not nested else None
    policy = env.policy if not nested else _DEFAULT_POLICY
    max_passes, max_moves = policy.budgets(max_passes, max_moves)
    plan = policy.family_order()

    current = solution
    current_cost = ctx.cost(current)
    current, current_cost = policy.seed_solution(ctx, current, current_cost)

    for _pass in range(max_passes):
        if policy.stop_pass(_pass, current_cost):
            break
        locked: frozenset[str] = frozenset()
        work = current
        sequence: list[tuple[Candidate, float]] = []
        if rec is not None:
            t_pass = rec.clock()
            rec.emit("pass_start", point=rec.point, **{"pass": _pass},
                     cost=current_cost)

        for _step in range(max_moves):
            if rec is not None:
                t_step = rec.clock()
                tel = ctx.telemetry
                ev0 = (
                    tel.evaluations,
                    tel.cache_hits,
                    tel.cache_misses,
                    tel.delta_hits,
                    sum(tel.moves_pruned.values()),
                )
            # The work solution was just priced (as a candidate or as the
            # pass seed), so its breakdown is normally resident; a None
            # (evicted) simply means candidates price from scratch.
            base = ctx.breakdown_of(work) if config.incremental else None
            discovered: dict[str, int] = {}
            groups: dict[str, list[Candidate]] = {}
            scored: dict[str, ScoredMove | None] = {}
            for family in plan:
                groups[family] = _discover_family(
                    env, ctx, policy, family, work, sim, locked,
                    discovered, _pass, _step,
                )
            for family in plan:
                scored[family] = _best(ctx, groups[family], base=base)
            work_cost = sequence[-1][1] if sequence else current_cost
            if "split" not in plan and policy.try_split(
                scored.get("share"), work_cost
            ):
                groups["split"] = _discover_family(
                    env, ctx, policy, "split", work, sim, locked,
                    discovered, _pass, _step,
                )
                m4 = _best(ctx, groups["split"], base=base)
                # The split winner competes in the sharing slot — the
                # paper's rule: splitting substitutes for a failed
                # sharing move, it does not outrank type A/B on ties.
                m3 = scored.get("share")
                if m4 is not None and (m3 is None or m4.cost_after < m3.cost_after):
                    scored["share"] = m4
            chosen = None
            for family in scored:
                move = scored[family]
                if move is None:
                    continue
                if chosen is None or move.cost_after < chosen.cost_after:
                    chosen = move
            if chosen is None:
                break
            if policy.stop_step(chosen, work_cost, _step):
                break
            if rec is not None:
                _emit_step(
                    rec, ctx, _pass, _step, work, work_cost, chosen,
                    [c for fam in groups.values() for c in fam],
                    discovered, ev0, t_step,
                )
            work = chosen.candidate.solution
            locked = locked | chosen.candidate.touched
            sequence.append((chosen.candidate, chosen.cost_after))

        if not sequence:
            if rec is not None:
                rec.emit("pass_end", point=rec.point, **{"pass": _pass},
                         steps=0, committed=0, cost=current_cost,
                         dur_ns=rec.elapsed_ns(t_pass))
            break

        best_idx = min(range(len(sequence)), key=lambda i: sequence[i][1])
        best_cost = sequence[best_idx][1]
        committed = 0
        if best_cost < current_cost - config.epsilon:
            current = sequence[best_idx][0].solution
            current_cost = best_cost
            committed = best_idx + 1
            for candidate, _cost in sequence[:committed]:
                ctx.telemetry.count_move_committed(candidate.kind)
            if config.verify_moves:
                t_verify = rec.clock() if rec is not None else None
                _verify_commit(env, current, sim, sequence[:committed])
                if rec is not None:
                    rec.emit("verify", point=rec.point, **{"pass": _pass},
                             ok=True, dur_ns=rec.elapsed_ns(t_verify))

        if rec is not None:
            rec.emit("pass_end", point=rec.point, **{"pass": _pass},
                     steps=len(sequence), committed=committed,
                     cost=current_cost, dur_ns=rec.elapsed_ns(t_pass))
        if history is not None or policy.observes:
            record = PassRecord(
                moves=[c.description for c, _ in sequence],
                costs=[cost for _, cost in sequence],
                committed_prefix=committed,
            )
            if history is not None:
                history.append(record)
            policy.observe_pass(record, current_cost)
        if committed == 0:
            break

    return current


def _emit_step(
    rec,
    ctx: EvaluationContext,
    pass_idx: int,
    step_idx: int,
    work: Solution,
    work_cost: float,
    chosen: ScoredMove,
    candidates: list[Candidate],
    discovered: dict[str, int],
    ev0: tuple[int, int, int, int, int],
    t_step,
) -> None:
    """Emit one ``step`` trace event with full gain attribution.

    The gain is broken into its cost-model components by re-evaluating
    the pre- and post-move solutions — both are cache hits, since the
    move was just priced, so attribution costs no netlist rebuilds.
    """
    # Snapshot the pricing deltas first: the two attribution lookups
    # below also tick the telemetry counters (as cache hits).
    tel = ctx.telemetry
    evals = {
        "n": tel.evaluations - ev0[0],
        "hits": tel.cache_hits - ev0[1],
        "misses": tel.cache_misses - ev0[2],
        "delta": tel.delta_hits - ev0[3],
        "pruned": sum(tel.moves_pruned.values()) - ev0[4],
    }
    before = ctx.evaluate(work)
    after = ctx.evaluate(chosen.candidate.solution)
    tried: dict[str, int] = {}
    for cand in candidates:
        family = move_family(cand.kind)
        tried[family] = tried.get(family, 0) + 1
    rec.emit(
        "step",
        point=rec.point,
        **{"pass": pass_idx},
        step=step_idx,
        kind=chosen.candidate.kind,
        move=chosen.candidate.description,
        cost=chosen.cost_after,
        gain=work_cost - chosen.cost_after,
        d_power=after.power - before.power,
        d_area=after.area - before.area,
        d_cycles=after.schedule_length - before.schedule_length,
        # Pre-pruning generation counts by full kind.
        discovered=dict(sorted(discovered.items())),
        tried=dict(sorted(tried.items())),
        eval=evals,
        dur_ns=rec.elapsed_ns(t_step),
    )


def _verify_commit(
    env: SynthesisEnv,
    solution: Solution,
    sim: SimTrace,
    prefix: list[tuple[Candidate, float]],
) -> None:
    """Differentially check a freshly committed KL prefix.

    The reference streams are the memoized *sim* the whole point already
    runs on, so the only new work is interpreting the RTL.  A divergence
    here means a committed move broke the architecture's semantics —
    that is a synthesis bug, so we fail loudly with the shrunk
    counterexample rather than let a miscompiled design win the sweep.
    """
    # Local import: repro.verify builds on the synthesis package, so a
    # top-level import here would be circular.
    from ..errors import VerificationError
    from ..verify import verify_solution

    env.telemetry.verify_checks += 1
    result = verify_solution(env.design, solution, sim=sim)
    if not result.ok:
        env.telemetry.verify_failures += 1
        assert result.counterexample is not None
        moves = "; ".join(c.description for c, _ in prefix)
        raise VerificationError(
            f"committed pass prefix is not equivalent to the behavior "
            f"({result.counterexample.describe()}) after moves: {moves}"
        )


def resynthesize_module(
    env: SynthesisEnv,
    parent: Solution,
    parent_sim: SimTrace,
    node_id: str,
    behavior: str,
    module: RTLModule,
    budget_cycles: int,
) -> RTLModule | None:
    """Move B: resynthesize *module* for a relaxed cycle budget.

    Descends one level: the sub-DFG is re-optimized under a sampling
    budget equal to the slack-derived cycle budget, then packaged as a
    fresh module.  Nested resynthesis is depth-limited to one level per
    move to keep move pricing fast (deeper levels are still reached over
    successive iterations, because each committed move B publishes a new
    resynthesizable module).
    """
    if env._resynth_active:
        return None

    # Resynthesizing the same module under the same budget for the same
    # node is deterministic; memoize per operating point (the move
    # generator asks again every KL step).  The point key identifies the
    # module by canonical *content*, not by its generated name: two
    # structurally identical modules minted under different names (the
    # old key's failure mode) now share one entry.  node_id stays in the
    # point key so the hot path needs no stream gathering.
    module_sig = module_content_signature(module, env.design)
    cache_key = HashedKey(
        (
            "resynth", module_sig, node_id, budget_cycles,
            parent.clk_ns, parent.vdd,
        )
    )
    cached = env.store.get("resynth", cache_key)
    if cached is not MISSING:
        return cached

    # Point miss: build the content key (streams capture everything the
    # node contributes, so node_id drops out) and consult the run and
    # persistent tiers before resynthesizing.
    streams = hier_input_streams(parent.dfg, node_id, parent_sim)
    content = (
        "resynth",
        env.store_signature,
        env.objective,
        behavior,
        module_sig,
        stream_digest(streams),
        budget_cycles,
        parent.clk_ns,
        parent.vdd,
    )
    loaded = env.store.fetch(
        "resynth", cache_key, content, decode=env.adopt_loaded_module
    )
    if loaded is not MISSING:
        return loaded

    # The nested synthesis charges a scratch Telemetry: its evaluations
    # are an implementation detail of pricing one candidate, and a warm
    # run skips them entirely — counting them would make per-step eval
    # deltas (and --stats totals) differ between a cold and a warm run
    # of the same search.  Store counters are exempt: they were bound to
    # the run telemetry's dicts by reference and keep counting.
    saved_telemetry = env.telemetry
    env.telemetry = Telemetry()
    try:
        result = _resynthesize_uncached(
            env, parent, parent_sim, node_id, behavior, module,
            budget_cycles, streams,
        )
    finally:
        env.telemetry = saved_telemetry
    env.store.put("resynth", cache_key, content, result)
    return result


def _resynthesize_uncached(
    env: SynthesisEnv,
    parent: Solution,
    parent_sim: SimTrace,
    node_id: str,
    behavior: str,
    module: RTLModule,
    budget_cycles: int,
    streams: list[np.ndarray],
) -> RTLModule | None:
    if isinstance(module.internal, ModuleInternal):
        sub_dfg = module.internal.solution.dfg
    elif env.design.has_behavior(behavior):
        sub_dfg = env.design.default_variant(behavior)
    else:
        return None

    sub_sim = env.sub_sim(sub_dfg, streams)
    budget_ns = budget_cycles * parent.clk_ns

    start: Solution | None = None
    if isinstance(module.internal, ModuleInternal):
        internal = module.internal.solution
        if internal.clk_ns == parent.clk_ns and internal.vdd == parent.vdd:
            start = internal.clone()
            start.sampling_ns = budget_ns
    if start is None:
        start = initial_solution(
            env, sub_dfg, sub_sim, parent.clk_ns, parent.vdd, budget_ns
        )
    if not start.is_feasible():
        return None

    env._resynth_active = True
    try:
        improved = improve_solution(
            env,
            start,
            sub_sim,
            max_passes=env.config.resynth_passes,
            max_moves=env.config.resynth_moves,
        )
    finally:
        env._resynth_active = False

    if not improved.is_feasible():
        return None
    return env.register_module(
        characterize_module(
            env.fresh_module_name(behavior), behavior, improved, sub_sim, ()
        )
    )
