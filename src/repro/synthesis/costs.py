"""Cost evaluation: area, trace-driven power, and the objective function.

Every tentative move is priced by re-evaluating the mutated solution:
rebuild the structural netlist (area side) and re-price the
per-resource stream interleavings (power side).  Gains are then
differences of these costs, exactly as in the paper's
``Gain(move, Obj)`` (Figure 4).  Local moves are priced *by delta*
against a per-term breakdown of the current solution (see
:mod:`repro.synthesis.incremental`); the result is bit-identical to a
from-scratch evaluation either way.

The evaluation context pins everything that stays fixed during one
iterative-improvement run: the module library, the simulated value
streams, the hierarchy path of the DFG being synthesized, the sampling
period and the objective.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Literal

import numpy as np

from ..dfg.canonical import graph_signature
from ..dfg.graph import Signal
from ..errors import SynthesisError
from ..power.estimator import PowerReport
from ..power.simulate import SimTrace
from ..rtl.components import DatapathNetlist
from ..telemetry import Telemetry
from ..trace.recorder import TraceRecorder
from .caching import HashedKey, LRUCache
from .store import (
    MISSING,
    SynthesisStore,
    sim_level_digest,
    solution_pricing_signature,
)
from ..power.activity import batch_activities
from .datapath_build import build_netlist, operand_port_map
from .incremental import (
    Breakdown,
    evaluate_solution,
    finish_evaluation,
    plan_evaluation,
)
from .solution import Solution

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..scheduling.model import ScheduleResult

__all__ = [
    "Objective",
    "Metrics",
    "EvaluationContext",
    "area_of",
    "DEFAULT_COST_CACHE_SIZE",
]

#: Default bound on the fingerprint-keyed cost cache (entries, not bytes;
#: one entry holds a Metrics record).
DEFAULT_COST_CACHE_SIZE = 4096

Objective = Literal["area", "power"]

#: Weight of the secondary metric in the objective, used only to break
#: ties between otherwise equal candidates.
_TIEBREAK = 1e-6

#: Reference area at which the interconnect length factor equals one.
_AREA_REF = 300.0


#: Base cost assigned to infeasible solutions; the amount of constraint
#: violation is added on top so the optimizer can still rank infeasible
#: candidates and descend back into the feasible region (used when an
#: initial solution misses the budget by a small margin).
_INFEASIBLE_COST = 1e9


@dataclass
class Metrics:
    """Evaluated properties of one solution."""

    area: float
    energy_per_sample: float
    power: float
    schedule_length: int
    feasible: bool
    report: PowerReport
    violation: float = 0.0

    def objective_value(self, objective: Objective) -> float:
        """Scalar cost under ``objective``; infeasible points cost ~1e9."""
        if not self.feasible:
            return _INFEASIBLE_COST * (1.0 + self.violation)
        if objective == "power":
            return self.power + _TIEBREAK * self.area
        return self.area + _TIEBREAK * self.power


def area_of(solution: Solution, netlist: DatapathNetlist | None = None) -> float:
    """Total area: leaf netlist + complex-module instances."""
    if netlist is None:
        netlist = build_netlist(solution)
    total = netlist.area(solution.library)
    for inst in solution.instances.values():
        if inst.is_module:
            assert inst.module is not None
            total += inst.module.area(solution.library)
    return total


class EvaluationContext:
    """Fixed context for evaluating solutions of one DFG level."""

    def __init__(
        self,
        sim: SimTrace,
        path: tuple[str, ...],
        objective: Objective,
        telemetry: Telemetry | None = None,
        cache_size: int = DEFAULT_COST_CACHE_SIZE,
        recorder: TraceRecorder | None = None,
        validate_incremental: bool = False,
        reuse_schedules: bool = True,
        store: SynthesisStore | None = None,
        design: object | None = None,
        store_prefix: str | None = None,
        share_metrics: bool = False,
    ):
        self.sim = sim
        self.path = path
        self.objective = objective
        self.telemetry = telemetry if telemetry is not None else Telemetry()
        #: Optional trace recorder: when set, every evaluation emits one
        #: ``eval`` span with its cache provenance (``trace_evals``).
        self.recorder = recorder
        #: Debug mode: recompute every delta-priced evaluation from
        #: scratch and raise on any bitwise mismatch.
        self.validate_incremental = validate_incremental
        #: Share schedules across candidates with equal task signatures
        #: (part of the incremental machinery; off reproduces the
        #: schedule-per-candidate behavior of from-scratch pricing).
        self.reuse_schedules = reuse_schedules
        #: Memoized full evaluations, keyed by solution fingerprint.  The
        #: KL loop re-generates thousands of structurally identical
        #: candidates across steps and passes; pricing them is a lookup.
        self._cost_cache: LRUCache[HashedKey, Metrics] = LRUCache(cache_size)
        #: Per-term energy breakdowns of evaluated solutions, keyed like
        #: the cost cache; the improvement loop fetches the current
        #: solution's breakdown to delta-price its candidates against.
        self._breakdowns: LRUCache[HashedKey, Breakdown] = LRUCache(cache_size)
        #: Results looked up or priced ahead of the serial accounting pass
        #: (:meth:`evaluate_batch`), consumed by :meth:`evaluate`: a bare
        #: :class:`Metrics` was served by the store, a tuple was priced
        #: by :meth:`prime`.
        self._primed: dict[
            HashedKey, Metrics | tuple[Metrics, Breakdown, int, int]
        ] = {}
        #: Canonical metrics content keys, memoized per fingerprint.
        #: One candidate's content is needed twice (the store ``fetch``
        #: of :meth:`evaluate_batch` or :meth:`evaluate`, then ``put``
        #: after pricing); building the pricing signature each time was
        #: measurable, and returning the *same* tuple object lets the
        #: store's digest memo answer repeat hashings for free.
        self._content_memo: LRUCache[HashedKey, tuple] = LRUCache(cache_size)
        #: Tiered synthesis store carrying the shared schedule memo
        #: (namespace ``"schedule"``); ``None`` for bare contexts
        #: (voltage scaling, module characterization), which fall back
        #: to the local LRU below.
        self.store = store
        #: Design resolving module instances in content signatures.
        self.design = design
        #: Store invalidation signature (library + config) prefixed to
        #: every metrics content key.
        self._store_prefix = store_prefix
        #: Share evaluated :class:`Metrics` through the store's run and
        #: persistent tiers, addressed by canonical content.  Only ever
        #: enabled for *untraced* contexts: a store hit skips the
        #: full/delta evaluation below, which would perturb the counter
        #: deltas recorded into trace ``step`` events and break the
        #: cold-vs-warm trace-identity contract.  Also requires the
        #: persistent tier: metrics content keys embed ``vdd``/``clk_ns``
        #: (and the level's stream digest), so run-tier-only sharing has
        #: nothing to hit — candidates at one operating point are already
        #: deduplicated by the fingerprint cost cache, and other points
        #: never address the same content.  Without a database behind it
        #: the machinery is pure per-candidate overhead.
        self._share_metrics = bool(
            share_metrics
            and store is not None
            and design is not None
            and store.persistent
        )
        #: Local schedule memo for store-less contexts (see
        #: :meth:`schedule_of`): register-binding moves and equal-timing
        #: cell swaps do not change the task set, so whole families of
        #: candidates share one list-scheduling run.
        self._schedules: LRUCache[HashedKey, "ScheduleResult"] = LRUCache(
            cache_size
        )

    # ------------------------------------------------------------------
    def _operand_streams(
        self, solution: Solution, group: tuple[str, ...]
    ) -> list[np.ndarray]:
        """External operand streams of one execution, in port order."""
        ports = operand_port_map(solution, group)
        ordered: list[tuple[int, Signal]] = []
        inside = set(group)
        for node_id in group:
            for edge in solution.dfg.in_edges(node_id):
                if edge.src in inside:
                    continue
                ordered.append((ports[(node_id, edge.dst_port)], edge.signal))
        ordered.sort()
        return [self.sim.stream(self.path, signal) for _port, signal in ordered]

    def _execution_order(
        self, solution: Solution, inst_id: str
    ) -> list[tuple[str, ...]]:
        """Executions of an instance in scheduled (serialization) order."""
        sched = solution.schedule()
        order = sched.instance_order.get(inst_id, [])
        groups = []
        for task_id in order:
            groups.append(solution.task(task_id).nodes)
        return groups

    def schedule_of(self, solution: Solution) -> "ScheduleResult":
        """Schedule *solution*, memoized by task signature.

        List scheduling is a deterministic function of (DFG, tasks), so
        an equal :meth:`~repro.synthesis.solution.Solution.
        task_signature` guarantees a bit-identical result; sharing the
        cached :class:`~repro.scheduling.model.ScheduleResult` (it is
        never mutated downstream) changes nothing but the wall clock.
        The hit is installed into the solution's own schedule cache so
        feasibility checks, register lifetimes and serialization order
        all see the same object.
        """
        sched = solution._schedule
        if sched is not None:
            return sched
        if not self.reuse_schedules:
            return solution.schedule()
        key = solution.schedule_key()
        if self.store is None:
            cached = self._schedules.get(key)
            if cached is None:
                cached = solution.schedule()
                self._schedules.put(key, cached)
            else:
                solution.adopt_schedule(cached)
            return cached
        cached = self.store.get("schedule", key)
        if cached is MISSING:
            # List scheduling is a pure function of the graph and the
            # task list, so the content key needs nothing else; the
            # graph signature is identity-exact because the schedule's
            # dicts reference concrete node/task ids.
            content = (
                "schedule",
                graph_signature(solution.dfg),
                solution.task_signature(),
            )
            cached = self.store.fetch("schedule", key, content)
            if cached is MISSING:
                cached = solution.schedule()
                self.store.put("schedule", key, content, cached)
                return cached
        solution.adopt_schedule(cached)
        return cached

    # ------------------------------------------------------------------
    def evaluate(self, solution: Solution, base: Breakdown | None = None) -> Metrics:
        """Area/power evaluation of *solution*, memoized by fingerprint.

        Two solutions with equal :meth:`~repro.synthesis.solution.
        Solution.fingerprint` evaluate identically, so the second one is
        answered from the cache without rebuilding the netlist or
        re-running trace-driven power estimation.

        When *base* carries the current solution's per-term breakdown
        (see :mod:`repro.synthesis.incremental`), a cache miss is priced
        incrementally: energy terms whose inputs are unchanged are
        reused instead of recomputed.  The result is bit-identical to a
        from-scratch evaluation; telemetry classifies each miss as a
        delta hit, a delta fall-back (base offered, nothing reusable) or
        a full evaluation.
        """
        self.telemetry.evaluations += 1
        key = solution.fingerprint_key()
        cached = self._cost_cache.get(key)
        if cached is not None:
            self.telemetry.cache_hits += 1
            if self.recorder is not None:
                self.recorder.emit(
                    "eval", point=self.recorder.point, cached=True
                )
            return cached
        self.telemetry.cache_misses += 1
        t0 = self.recorder.clock() if self.recorder is not None else None
        primed = self._primed.pop(key, None)
        if primed is None and self._share_metrics:
            primed = self._fetch_shared(solution, key)
        if isinstance(primed, Metrics):
            # Served by the store.  Untraced context (see
            # ``_share_metrics``): skipping the full/delta classification
            # below cannot reach any recorded trace.  The metrics
            # themselves are bit-identical to a recomputation, so results
            # and the search trajectory are unchanged.
            self._cost_cache.put(key, primed)
            return primed
        if primed is not None:
            metrics, breakdown, reused, _terms = primed
        else:
            metrics, breakdown, reused, _terms = self._compute(solution, base)
        if base is None:
            self.telemetry.full_evals += 1
            mode = None
        elif reused:
            self.telemetry.delta_hits += 1
            mode = "delta"
        else:
            self.telemetry.delta_fallbacks += 1
            mode = "fallback"
        if self.recorder is not None:
            event: dict = {"point": self.recorder.point, "cached": False}
            if mode is not None:
                event["mode"] = mode
            event["dur_ns"] = self.recorder.elapsed_ns(t0)
            self.recorder.emit("eval", **event)
        self._cost_cache.put(key, metrics)
        self._breakdowns.put(key, breakdown)
        if self._share_metrics:
            self.store.put(
                "metrics", key, self._metrics_content(solution, key), metrics
            )
        return metrics

    def _fetch_shared(
        self, solution: Solution, key: HashedKey
    ) -> Metrics | None:
        """Counted store lookup of *solution*'s metrics (``None`` on a miss)."""
        shared = self.store.fetch(
            "metrics", key, self._metrics_content(solution, key)
        )
        return None if shared is MISSING else shared

    def _metrics_content(
        self, solution: Solution, key: HashedKey | None = None
    ) -> tuple:
        """Canonical content address of one solution's metrics.

        Name-free and process-independent: the pricing signature covers
        the solution side, the level digest covers the operand streams,
        and the store prefix covers library and configuration.
        Memoized per fingerprint (equal fingerprints imply equal pricing
        signatures at one synthesis point).
        """
        if key is None:
            key = solution.fingerprint_key()
        content = self._content_memo.get(key)
        if content is None:
            content = (
                "metrics",
                self._store_prefix,
                solution_pricing_signature(solution, self.design),
                sim_level_digest(self.sim, self.path),
            )
            self._content_memo.put(key, content)
        return content

    def _compute(
        self, solution: Solution, base: Breakdown | None
    ) -> tuple[Metrics, Breakdown, int, int]:
        """Run the evaluator (delta or full), optionally cross-checked.

        Pure with respect to context state: no telemetry, cache or
        recorder side effects; :meth:`evaluate` does the accounting.
        """
        result = evaluate_solution(self, solution, base)
        if base is not None and self.validate_incremental:
            reference = evaluate_solution(self, solution, None)[0]
            _check_identical(result[0], reference)
        return result

    def breakdown_of(self, solution: Solution) -> Breakdown | None:
        """The stored per-term breakdown of an already-evaluated solution.

        Returns ``None`` when the solution has not been evaluated (or
        its breakdown was evicted); callers then simply price without a
        base, which is always correct.
        """
        return self._breakdowns.peek(solution.fingerprint_key())

    # ------------------------------------------------------------------
    def evaluate_batch(
        self, work: list[tuple[Solution, Breakdown | None]]
    ) -> None:
        """Price one round's candidate set ahead of the serial pass.

        ``work`` pairs each candidate solution with the base breakdown
        it would be priced against.  Solutions already in the cost cache
        or already primed are skipped and duplicates are priced once.
        When metrics are shared, the counted store lookup :meth:`evaluate`
        would make happens here instead: a hit is stashed for the serial
        pass, and only the misses go to :meth:`prime`.  All other
        accounting — telemetry, cache recency and eviction, trace events
        — still happens in the caller's serial :meth:`evaluate` pass, so
        counters, traces and metrics are identical to pricing each
        candidate on its own.  (The one exception would be two
        candidates of one round with different fingerprints but equal
        store content: priced alone, the second would hit the first's
        stored result.  The bench-suite designs show no such pair.)
        """
        jobs: list[tuple[HashedKey, Solution, Breakdown | None]] = []
        seen: set[HashedKey] = set()
        for solution, base in work:
            key = solution.fingerprint_key()
            if (
                key in seen
                or key in self._primed
                or self._cost_cache.peek(key) is not None
            ):
                continue
            seen.add(key)
            if self._share_metrics:
                shared = self._fetch_shared(solution, key)
                if shared is not None:
                    self._primed[key] = shared
                    continue
            jobs.append((key, solution, base))
        if jobs:
            self.prime(jobs)

    def prime(
        self, jobs: list[tuple[HashedKey, Solution, Breakdown | None]]
    ) -> None:
        """Evaluate ``(key, solution, base)`` jobs through one kernel call.

        Every job is *planned* (netlist, schedule, stream-free terms,
        activity-key matching against its base); the activity requests
        of all plans are then resolved with a single
        :func:`~repro.power.activity.batch_activities` call, and each
        plan's per-term float arithmetic is replayed unchanged.  Results
        are stashed under their key for :meth:`evaluate` to consume.
        """
        plans = [
            plan_evaluation(self, solution, base)
            for _key, solution, base in jobs
        ]
        requests: list = []
        offsets: list[int] = []
        for plan in plans:
            offsets.append(len(requests))
            requests.extend(plan.requests)
        activities = batch_activities(requests) if requests else []
        for (key, solution, _base), plan, lo in zip(jobs, plans, offsets):
            result = finish_evaluation(
                plan, activities[lo:lo + len(plan.requests)]
            )
            if self.validate_incremental:
                reference = evaluate_solution(self, solution, None)[0]
                _check_identical(result[0], reference)
            self._primed[key] = result

    def discard_primed(self) -> None:
        """Drop unconsumed primed results.

        Called at the end of each pricing round: a stale primed entry
        would later be consumed with reuse counts from the wrong base,
        skewing the delta-hit telemetry.
        """
        self._primed.clear()

    def cost(self, solution: Solution, base: Breakdown | None = None) -> float:
        """Objective value of a solution (~1e9 when infeasible)."""
        return self.evaluate(solution, base).objective_value(self.objective)


def _check_identical(delta: Metrics, full: Metrics) -> None:
    """Raise unless a delta-priced evaluation equals the full one bitwise."""
    pairs = [
        ("area", delta.area, full.area),
        ("energy_per_sample", delta.energy_per_sample, full.energy_per_sample),
        ("power", delta.power, full.power),
        ("schedule_length", delta.schedule_length, full.schedule_length),
        ("feasible", delta.feasible, full.feasible),
        ("violation", delta.violation, full.violation),
        ("fu_energy", delta.report.fu_energy, full.report.fu_energy),
        (
            "register_energy",
            delta.report.register_energy,
            full.report.register_energy,
        ),
        ("mux_energy", delta.report.mux_energy, full.report.mux_energy),
        ("wire_energy", delta.report.wire_energy, full.report.wire_energy),
        ("extra_energy", delta.report.extra_energy, full.report.extra_energy),
        (
            "controller_energy",
            delta.report.controller_energy,
            full.report.controller_energy,
        ),
    ]
    for name, got, want in pairs:
        if got != want:
            raise SynthesisError(
                "incremental evaluation diverged from full evaluation: "
                f"{name} {got!r} != {want!r}"
            )
