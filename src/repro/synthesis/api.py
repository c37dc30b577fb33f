"""Top-level synthesis entry points (the paper's SYNTHESIZE procedure).

:func:`synthesize` runs the full flow on a hierarchical design:
validation, trace simulation, Vdd/clock pruning, per-operating-point
initial solution + variable-depth iterative improvement, and selection
of the best feasible architecture.  :func:`synthesize_flat` is the
flattened baseline of ref. [10] — the same engine run on the fully
expanded DFG (this is the "Flat" column of Tables 3 and 4).

:func:`voltage_scale` post-processes an area-optimized 5 V result the
way Table 3's column A does: drop the supply (stretching the clock by
the CMOS delay factor, which keeps every cycle count identical) as far
as the schedule's slack allows, and re-estimate power.
"""

from __future__ import annotations

import dataclasses
import pickle
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Any

from ..dfg.canonical import EXECUTION_ONLY_FIELDS
from ..dfg.flatten import flatten
from ..dfg.hierarchy import Design
from ..dfg.validate import validate_design
from ..errors import SynthesisError
from ..library.library import ModuleLibrary, default_library
from ..library.voltage import SUPPLY_VOLTAGES, delay_scale
from ..power.activity import reset_activity_caches
from ..power.simulate import SimTrace, simulate_subgraph
from ..power.traces import TraceSet, default_traces
from ..rtl.components import DatapathNetlist
from ..rtl.controller import FSMController
from ..telemetry import Telemetry
from ..trace.events import SCHEMA_VERSION as TRACE_SCHEMA_VERSION
from .context import SynthesisConfig, SynthesisEnv
from .incremental import _reset_energy_memos
from .costs import EvaluationContext, Metrics, Objective
from .datapath_build import build_controller, build_netlist
from .improve import PassRecord, improve_solution
from .initial import initial_solution
from .pruning import candidate_clocks, candidate_vdds, laxity_sampling_ns
from .solution import Solution

__all__ = [
    "PointCandidate",
    "SynthesisResult",
    "flatten_for_synthesis",
    "synthesize",
    "synthesize_flat",
    "voltage_scale",
]


@dataclass
class PointCandidate:
    """One feasible architecture explored by the operating-point sweep.

    The sweep's non-winning feasible solutions are kept on
    :attr:`SynthesisResult.candidates` so post-processing (the
    ``--corners`` sweep, Pareto reporting) can compare architectures
    rather than just the single objective winner.
    """

    vdd: float
    clk_ns: float
    solution: Solution
    metrics: Metrics


@dataclass
class SynthesisResult:
    """Everything produced by one synthesis run."""

    solution: Solution
    metrics: Metrics
    objective: Objective
    vdd: float
    clk_ns: float
    sampling_ns: float
    elapsed_s: float
    flattened: bool
    design: Design
    library: ModuleLibrary
    sim: SimTrace
    history: dict[tuple[float, float], list[PassRecord]] = field(default_factory=dict)
    telemetry: Telemetry = field(default_factory=Telemetry)
    #: Structured search trace (``SynthesisConfig.trace``): one event
    #: dict per span, in deterministic order; ``None`` when tracing was
    #: off.  Serialize with :func:`repro.trace.write_trace`.
    trace_events: list[dict[str, Any]] | None = None
    #: Every feasible architecture the sweep explored (winner included),
    #: in point order — the material for corner/Pareto reporting.
    candidates: list[PointCandidate] = field(default_factory=list)

    @property
    def area(self) -> float:
        """Total active area of the winning architecture."""
        return self.metrics.area

    @property
    def power(self) -> float:
        """Average power of the winning architecture at its (Vdd, clock)."""
        return self.metrics.power

    def netlist(self) -> DatapathNetlist:
        """Structural datapath netlist of the winning architecture."""
        return build_netlist(self.solution)

    def controller(self) -> FSMController:
        """FSM controller of the winning architecture."""
        return build_controller(self.solution)

    def verify(self, *, shrink: bool = True):
        """Differentially verify the winning architecture's RTL.

        Replays the run's memoized input traces through the
        cycle-accurate interpreter and compares every primary output
        against the DFG simulation; returns a
        :class:`~repro.verify.oracle.VerificationResult`.
        """
        # Local import: repro.verify builds on this package.
        from ..verify import verify_solution

        result = verify_solution(
            self.design, self.solution, sim=self.sim, shrink=shrink
        )
        self.telemetry.verify_checks += 1
        if not result.ok:
            self.telemetry.verify_failures += 1
        return result


def _prepare_traces(design: Design, traces: TraceSet | None, n_samples: int) -> TraceSet:
    if traces is None:
        return default_traces(design.top, n=n_samples)
    return traces


def flatten_for_synthesis(design: Design) -> Design:
    """Wrap *design*'s fully expanded DFG as a single-behavior design.

    This is the flattened-baseline preprocessing of
    :func:`synthesize_flat`, factored out so trace replay can rebuild
    the exact design object a recorded flat run synthesized.
    """
    flat = flatten(design)
    wrapper = Design(f"{design.name}_flat")
    wrapper.add_dfg(flat, top=True)
    return wrapper


def synthesize(
    design: Design,
    library: ModuleLibrary | None = None,
    sampling_ns: float | None = None,
    laxity_factor: float | None = None,
    objective: Objective = "power",
    traces: TraceSet | None = None,
    config: SynthesisConfig | None = None,
    n_samples: int = 48,
) -> SynthesisResult:
    """Synthesize a hierarchical design under a throughput constraint.

    Exactly one of ``sampling_ns`` (absolute period) or ``laxity_factor``
    (multiple of the minimum achievable period, as in Table 3) must be
    given.  Each run opens its own
    :class:`~repro.synthesis.store.SynthesisStore` from *config*
    (in-memory, plus the persistent tier under ``config.cache_dir``) and
    closes it before returning.
    """
    return _synthesize(
        design,
        library=library,
        sampling_ns=sampling_ns,
        laxity_factor=laxity_factor,
        objective=objective,
        traces=traces,
        config=config,
        n_samples=n_samples,
        flatten_input=False,
    )


def synthesize_flat(
    design: Design,
    library: ModuleLibrary | None = None,
    sampling_ns: float | None = None,
    laxity_factor: float | None = None,
    objective: Objective = "power",
    traces: TraceSet | None = None,
    config: SynthesisConfig | None = None,
    n_samples: int = 48,
) -> SynthesisResult:
    """The flattened baseline: expand the hierarchy, then synthesize."""
    return _synthesize(
        design,
        library=library,
        sampling_ns=sampling_ns,
        laxity_factor=laxity_factor,
        objective=objective,
        traces=traces,
        config=config,
        n_samples=n_samples,
        flatten_input=True,
    )


@dataclass
class _PointOutcome:
    """Result of one (Vdd, clock) operating point of the sweep."""

    vdd: float
    clk_ns: float
    solution: Solution | None
    metrics: Metrics | None
    history: list[PassRecord]
    #: Trace events buffered by a *worker* recorder (parallel sweep
    #: only; the serial path appends directly to the run's recorder).
    events: list[dict[str, Any]] = field(default_factory=list)
    events_dropped: int = 0
    #: Run-tier store entries minted by a *worker* — ``(namespace,
    #: digest, blob)`` triples exported via
    #: :meth:`~repro.synthesis.store.SynthesisStore.export_fresh` for
    #: the parent to absorb into the run tier in point order.
    store_entries: list[tuple[str, str, bytes]] = field(default_factory=list)


def _run_point(
    env: SynthesisEnv,
    sim: SimTrace,
    sampling_ns: float,
    vdd: float,
    clk_ns: float,
    point_index: int = 0,
) -> _PointOutcome:
    """Synthesize one operating point: initial solution + improvement.

    Every point is independent of every other — it owns its initial
    solution and improvement trajectory, and all mutable per-point state
    (module cache, resynthesis memo, name counter, cost caches) lives in
    *env*, which the caller either resets between points (serial sweep)
    or instantiates fresh per worker (parallel sweep).
    """
    top = env.design.top
    rec = env.trace
    if rec is not None:
        rec.point = point_index
        t_point = rec.clock()
        rec.emit("point_start", point=point_index, vdd=vdd, clk_ns=clk_ns)
    t0 = time.perf_counter()
    init = initial_solution(env, top, sim, clk_ns, vdd, sampling_ns)
    env.telemetry.add_time("initial", time.perf_counter() - t0)
    if rec is not None:
        rec.emit("init", point=point_index, cycles=init.schedule().length,
                 budget=init.deadline_cycles)
    # A structurally hopeless point (even the unconstrained makespan far
    # beyond the budget) is skipped; a borderline miss is still
    # improved, since moves (e.g. replacing a quantization-wasteful
    # module) can recover feasibility.
    if init.schedule().length > 2 * init.deadline_cycles:
        env.telemetry.points_skipped += 1
        if rec is not None:
            rec.emit("point_end", point=point_index, status="skipped",
                     dur_ns=rec.elapsed_ns(t_point))
        return _PointOutcome(vdd, clk_ns, None, None, [])
    env.telemetry.points_explored += 1
    point_history: list[PassRecord] = []
    t1 = time.perf_counter()
    improved = improve_solution(env, init, sim, history=point_history)
    metrics = env.context(sim).evaluate(improved)
    env.telemetry.add_time("improve", time.perf_counter() - t1)
    if rec is not None:
        rec.emit(
            "point_end", point=point_index, status="explored",
            feasible=metrics.feasible,
            cost=metrics.objective_value(env.objective),
            area=metrics.area, power=metrics.power,
            cycles=metrics.schedule_length,
            dur_ns=rec.elapsed_ns(t_point),
        )
    return _PointOutcome(vdd, clk_ns, improved, metrics, point_history)


def _point_worker(
    payload: tuple[
        Design, ModuleLibrary, Objective, SynthesisConfig, SimTrace, float,
        float, float, int,
    ],
) -> tuple[_PointOutcome, Telemetry]:
    """Process-pool entry: run one operating point in a fresh env.

    A fresh :class:`SynthesisEnv` is bit-equivalent to a reset one (name
    counter at zero, empty caches), so worker results match the serial
    sweep exactly.  The worker's telemetry — and, when tracing, its
    buffered trace events — ride back with the outcome for the parent
    to merge in point order.
    """
    (design, library, objective, config, sim, sampling_ns, vdd, clk_ns,
     point_index) = payload
    env = SynthesisEnv(design, library, objective, config)
    outcome = _run_point(env, sim, sampling_ns, vdd, clk_ns, point_index)
    if env.trace is not None:
        outcome.events = env.trace.events
        outcome.events_dropped = env.trace.dropped
    outcome.store_entries = env.store.export_fresh()
    return outcome, env.telemetry


def _sweep_points(
    env: SynthesisEnv,
    sim: SimTrace,
    sampling_ns: float,
    points: list[tuple[float, float]],
) -> list[_PointOutcome]:
    """Run every operating point, in parallel when configured.

    Outcomes are returned in the order of *points* regardless of worker
    completion order, so best-solution selection (strict ``<`` on the
    objective) is identical to the serial sweep.  Pool failures
    (platforms without process support, unpicklable payloads) fall back
    to the serial path.
    """
    n_workers = max(1, env.config.n_workers)
    if n_workers > 1 and len(points) > 1:
        payloads = [
            (env.design, env.library, env.objective, env.config, sim,
             sampling_ns, vdd, clk_ns, idx)
            for idx, (vdd, clk_ns) in enumerate(points)
        ]
        try:
            with ProcessPoolExecutor(
                max_workers=min(n_workers, len(points))
            ) as pool:
                paired = list(pool.map(_point_worker, payloads))
        except (OSError, ImportError, BrokenProcessPool,
                pickle.PicklingError):
            paired = None
        if paired is not None:
            for outcome, worker_telemetry in paired:
                env.telemetry.merge(worker_telemetry)
                if env.trace is not None:
                    # Point order == serial emission order, so the
                    # merged trace matches the n_workers=1 trace.
                    env.trace.absorb(outcome.events, outcome.events_dropped)
                    outcome.events = []
                # Fold worker-minted store entries into the parent's run
                # tier (and persistent tier writes already happened in
                # the worker), so later runs warm-start from them.
                env.store.absorb(outcome.store_entries)
                outcome.store_entries = []
            return [outcome for outcome, _tel in paired]

    outcomes: list[_PointOutcome] = []
    for idx, (vdd, clk_ns) in enumerate(points):
        env.reset_point_caches()
        outcomes.append(_run_point(env, sim, sampling_ns, vdd, clk_ns, idx))
    return outcomes


def _synthesize(
    design: Design,
    library: ModuleLibrary | None,
    sampling_ns: float | None,
    laxity_factor: float | None,
    objective: Objective,
    traces: TraceSet | None,
    config: SynthesisConfig | None,
    n_samples: int,
    flatten_input: bool,
) -> SynthesisResult:
    started = time.perf_counter()
    library = library or default_library()
    validate_design(design)

    if (sampling_ns is None) == (laxity_factor is None):
        raise SynthesisError("give exactly one of sampling_ns / laxity_factor")
    if sampling_ns is None:
        assert laxity_factor is not None
        sampling_ns = laxity_sampling_ns(design, library, laxity_factor)

    if flatten_input:
        design = flatten_for_synthesis(design)

    top = design.top
    traces = _prepare_traces(design, traces, n_samples)
    input_streams = [traces[name] for name in top.inputs]
    env = SynthesisEnv(design, library, objective, config)
    try:
        return _synthesize_in_env(
            env, design, top, traces, input_streams, sampling_ns, objective,
            flatten_input, started,
        )
    finally:
        # Run teardown — on the failure paths too: the activity memos
        # pin simulated streams by id, and a long-lived process (job
        # server worker, REPL) that survives a SynthesisError must not
        # retain them, nor keep the run's persistent-store connections
        # open.  Post-processing (voltage scaling, corner sweeps) simply
        # repopulates the memos from the result's own sim.
        reset_activity_caches()
        _reset_energy_memos()
        env.store.close()


def _synthesize_in_env(
    env: SynthesisEnv,
    design: Design,
    top,
    traces: TraceSet,
    input_streams: list,
    sampling_ns: float,
    objective: Objective,
    flatten_input: bool,
    started: float,
) -> SynthesisResult:
    """The run body of :func:`_synthesize`, between setup and teardown."""
    t_sim = time.perf_counter()
    sim = simulate_subgraph(design, top, input_streams)
    env.telemetry.add_time("simulate", time.perf_counter() - t_sim)
    library = env.library

    vdds = candidate_vdds(design, library, sampling_ns)
    if objective == "area":
        # Area is supply-independent; synthesize at the reference supply
        # (Table 3 synthesizes column A at 5 V, scaling afterwards).
        vdds = vdds[:1]
    if not vdds:
        raise SynthesisError(
            f"throughput unachievable: sampling_ns={sampling_ns:.1f} is below "
            "the minimum critical path at every supply voltage"
        )

    points = [
        (vdd, clk_ns)
        for vdd in vdds
        for clk_ns in candidate_clocks(
            library, vdd, sampling_ns, n_clocks=env.config.n_clocks
        )
    ]

    if env.trace is not None:
        env.trace.emit(
            "run_start",
            schema=TRACE_SCHEMA_VERSION,
            design=design.name,
            objective=objective,
            sampling_ns=sampling_ns,
            flattened=flatten_input,
            n_points=len(points),
            config=_traced_config(env.config),
            provenance=env.config.trace_meta,
            # Optional v3 header field: absent (and byte-invisible) for
            # the default policy, so pre-policy goldens stay valid.
            policy=(
                env.config.search_policy
                if env.config.search_policy != "default"
                else None
            ),
        )

    t_sweep = time.perf_counter()
    outcomes = _sweep_points(env, sim, sampling_ns, points)
    env.telemetry.add_time("sweep", time.perf_counter() - t_sweep)

    best: tuple[float, Solution, Metrics, float, float, int] | None = None
    history: dict[tuple[float, float], list[PassRecord]] = {}
    candidates: list[PointCandidate] = []
    for idx, outcome in enumerate(outcomes):
        if outcome.solution is None or outcome.metrics is None:
            continue
        history[(outcome.vdd, outcome.clk_ns)] = outcome.history
        if not outcome.metrics.feasible:
            continue
        candidates.append(
            PointCandidate(
                outcome.vdd, outcome.clk_ns, outcome.solution, outcome.metrics
            )
        )
        value = outcome.metrics.objective_value(objective)
        if best is None or value < best[0]:
            best = (
                value, outcome.solution, outcome.metrics,
                outcome.vdd, outcome.clk_ns, idx,
            )

    if best is None:
        raise SynthesisError(
            f"no feasible implementation found for {design.name!r} at "
            f"sampling period {sampling_ns:.1f} ns"
        )

    value, solution, metrics, vdd, clk_ns, winner_idx = best
    if env.trace is not None:
        env.trace.emit(
            "run_end",
            winner={
                "point": winner_idx, "vdd": vdd, "clk_ns": clk_ns,
                "cost": value, "area": metrics.area, "power": metrics.power,
            },
            events_dropped=env.trace.dropped,
            stage_s=(
                {k: round(v, 6) for k, v in sorted(env.telemetry.stage_s.items())}
                if env.trace.timings
                else None
            ),
            # Store counters ride with the timings gate: totals vary
            # with worker counts (each worker probes its own tiers), so
            # they would break byte-identical --no-trace-timings traces.
            store=(env.store.counters() if env.trace.timings else None),
        )
    return SynthesisResult(
        solution=solution,
        metrics=metrics,
        objective=objective,
        vdd=vdd,
        clk_ns=clk_ns,
        sampling_ns=sampling_ns,
        elapsed_s=time.perf_counter() - started,
        flattened=flatten_input,
        design=design,
        library=library,
        sim=sim,
        history=history,
        telemetry=env.telemetry,
        trace_events=env.trace.events if env.trace is not None else None,
        candidates=candidates,
    )


def _traced_config(config: SynthesisConfig) -> dict[str, Any]:
    """Search-shaping knobs recorded in a trace's ``run_start`` event.

    The execution-only fields of
    :data:`~repro.dfg.canonical.EXECUTION_ONLY_FIELDS` (worker count,
    ``validate_incremental``, the ``trace_*`` family
    and the store knobs) do not change what the search does (or what
    its trace records), and keeping them out is what lets a 1-worker
    and a 4-worker run — or a cold and a warm-cache run — produce
    byte-identical traces.  ``incremental`` and
    ``prune`` *are* recorded: both leave the search outcome intact, but
    they shape per-step eval/pruned counts in the trace, so a replay
    must run them the same way.  ``trace_meta`` rides separately as the
    provenance field.  Policy selection rides as run_start's optional
    ``policy`` field instead (absent for the default policy), keeping
    default-policy traces byte-identical to pre-policy ones; replay
    re-executes recorded committed moves, which is policy-independent.
    """
    return {
        f.name: getattr(config, f.name)
        for f in dataclasses.fields(config)
        if f.name not in EXECUTION_ONLY_FIELDS
    }


def voltage_scale(
    result: SynthesisResult,
    voltages: tuple[float, ...] = SUPPLY_VOLTAGES,
    continuous: bool = False,
) -> SynthesisResult:
    """Voltage-scale a synthesized architecture for low power.

    Scaling multiplies every cell delay by the CMOS factor; stretching
    the clock by the same factor keeps all cycle counts (and hence the
    schedule and binding) identical, so the architecture is unchanged.
    The lowest supply whose stretched schedule still meets the sampling
    period wins.

    With ``continuous=True`` the supply is scaled "to just meet the
    sampling period constraint" (Table 4's Vdd-sc column) instead of
    snapping to the discrete library voltages.

    The returned result (when scaling wins) reports ``elapsed_s`` as the
    original synthesis time **plus** the time spent scaling, and the
    candidate list is deduplicated — a continuous candidate that lands
    on a discrete library voltage is evaluated once, not twice.
    """
    started = time.perf_counter()

    base_scale = delay_scale(result.vdd)
    length = result.solution.schedule().length
    candidates = _scale_candidates(result, voltages, continuous)
    best: tuple[Solution, Metrics, float, float] | None = None
    for vdd in candidates:
        stretch = delay_scale(vdd) / base_scale
        new_clk = result.clk_ns * stretch
        if length * new_clk > result.sampling_ns + 1e-9:
            continue
        scaled = result.solution.clone()
        scaled.clk_ns = new_clk
        scaled.vdd = vdd
        scaled.sampling_ns = result.sampling_ns
        ctx = EvaluationContext(result.sim, (), result.objective)
        metrics = ctx.evaluate(scaled)
        if not metrics.feasible:
            continue
        best_power = best[1].power if best is not None else result.metrics.power
        if metrics.power < best_power:
            best = (scaled, metrics, vdd, new_clk)

    if best is None:
        return result
    solution, metrics, vdd, new_clk = best
    trace_events = result.trace_events
    if trace_events is not None:
        # The scaled result keeps the synthesis trace and annotates the
        # supply change; replay targets the pre-scale run_end winner.
        trace_events = trace_events + [
            {"k": "voltage_scale", "vdd": vdd, "clk_ns": new_clk,
             "power": metrics.power}
        ]
    return SynthesisResult(
        solution=solution,
        metrics=metrics,
        objective=result.objective,
        vdd=vdd,
        clk_ns=new_clk,
        sampling_ns=result.sampling_ns,
        elapsed_s=result.elapsed_s + (time.perf_counter() - started),
        flattened=result.flattened,
        design=result.design,
        library=result.library,
        sim=result.sim,
        history=result.history,
        telemetry=result.telemetry,
        trace_events=trace_events,
        candidates=result.candidates,
    )


def _scale_candidates(
    result: SynthesisResult,
    voltages: tuple[float, ...],
    continuous: bool,
) -> list[float]:
    """Deduplicated candidate supplies below the result's Vdd.

    The continuous just-meets-the-period candidate can coincide with a
    discrete library voltage (when the schedule's slack is an exact CMOS
    delay ratio); evaluating it twice wastes a full netlist + power pass
    for an identical answer.
    """
    from ..library.voltage import vdd_for_delay_scale

    candidates: list[float] = []

    def add(v: float) -> None:
        if v < result.vdd and not any(abs(v - c) < 1e-9 for c in candidates):
            candidates.append(v)

    for v in voltages:
        add(v)
    if continuous:
        base_scale = delay_scale(result.vdd)
        length = result.solution.schedule().length
        slack_factor = result.sampling_ns / max(length * result.clk_ns, 1e-9)
        exact = vdd_for_delay_scale(base_scale * slack_factor)
        if exact is not None:
            add(exact)
    return candidates
