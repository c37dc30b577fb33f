"""Process-pool side of the job server: run one job, stay bounded.

:func:`run_job` is the pool entry point the server dispatches to.  It
rebuilds the design from the request, runs the same flow as ``repro
synth`` (complex-library build, synthesis, optional differential
verification), and returns a JSON-serializable result dict — the
server owns the registry and store writes.

Two obligations matter for a *long-lived* worker serving many jobs:

* **progress visibility** — the worker appends stage events to the
  job's progress file (and, when tracing is requested, writes the full
  search trace), so the status endpoint can stream what a job is doing
  without any channel back from the pool;
* **memory-boundedness** — every job ends (success *or* failure) with
  :func:`~repro.power.activity.reset_activity_caches` and the energy
  memos dropped, so the module-level caches of this process never pin
  streams of finished jobs.  The engine tears these down inside
  :func:`~repro.synthesis.api._synthesize` as well; the worker-level
  ``finally`` also covers failures in library building, trace writing
  and verification, which run outside the engine.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Any

from ..power import image_traces, speech_traces, white_traces
from ..power.activity import reset_activity_caches
from ..reporting.export import result_to_dict
from ..reporting.sweep import quick_config
from ..rtl import emit_netlist
from ..synthesis.context import SynthesisConfig
from ..synthesis.incremental import _reset_energy_memos
from .jobs import JobRequest, resolve_job_design

__all__ = ["job_config", "run_job"]

_TRACE_GENERATORS = {
    "speech": speech_traces,
    "white": white_traces,
    "image": image_traces,
}


def job_config(request: JobRequest, payload: dict[str, Any]) -> SynthesisConfig:
    """The engine configuration one request resolves to.

    Shared by the worker and by :func:`~repro.service.jobs.
    request_fingerprint` callers so the fingerprint's config signature
    matches what actually runs.
    """
    config = quick_config() if request.effort == "quick" else SynthesisConfig()
    config.cache_dir = payload.get("cache_dir")
    config.persistent_cache = payload.get("persistent_cache", True)
    if request.trace:
        config.trace = True
        # Timings off: job traces double as bit-identity witnesses
        # (cold vs. store-served repeats), so they must be
        # byte-reproducible.
        config.trace_timings = False
        config.trace_meta = {
            "benchmark": request.benchmark,
            "design_path": None,
            "traces": request.traces,
            "seed": request.seed,
            "samples": request.samples,
            "built_library": not request.flatten,
        }
    elif request.priors:
        # Priors are mined from the structured trace, so record it even
        # when the client did not ask for a trace artifact.
        config.trace = True
    if request.policy is not None:
        config.search_policy = request.policy
    elif request.priors:
        config.search_policy = "priors"
    return config


class _Progress:
    """Append-only JSONL progress writer (one flush per event)."""

    def __init__(self, path: Path | None):
        self._path = path
        if path is not None:
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text("")

    def emit(self, kind: str, **fields: Any) -> None:
        if self._path is None:
            return
        event = {"k": kind, "ts": round(time.time(), 3), **fields}
        with self._path.open("a") as fh:
            fh.write(json.dumps(event, sort_keys=True) + "\n")


def run_job(payload: dict[str, Any]) -> dict[str, Any]:
    """Execute one synthesis job; the process-pool entry point.

    *payload* carries the wire request plus server-side placement:
    ``job_id``, ``request`` (dict), ``cache_dir``/``persistent_cache``
    (the shared store), ``jobs_dir`` (progress and
    trace files; ``None`` silences both), and ``fingerprint`` (echoed
    into the result).  Raises :class:`~repro.errors.ReproError`
    subclasses on invalid/ infeasible jobs — the server records them as
    the job's failure.
    """
    request = JobRequest.from_dict(payload["request"])
    job_id = payload.get("job_id", "local")
    jobs_dir = payload.get("jobs_dir")
    progress = _Progress(
        Path(jobs_dir) / f"{job_id}.progress.jsonl" if jobs_dir else None
    )
    progress.emit("job_start", job_id=job_id)
    try:
        design = resolve_job_design(request)
        progress.emit(
            "design_resolved",
            design=design.name,
            operations=design.total_operations(),
        )
        config = job_config(request, payload)

        from ..library import default_library
        from ..synthesis import synthesize, synthesize_flat
        from ..synthesis.library_gen import build_complex_library

        library = default_library()
        if not request.flatten and any(
            dfg.hier_nodes() for dfg in design.dfgs()
        ):
            t0 = time.perf_counter()
            library = build_complex_library(design, library, config=config)
            progress.emit(
                "library_built", elapsed_s=round(time.perf_counter() - t0, 3)
            )

        traces = _TRACE_GENERATORS[request.traces](
            design.top, n=request.samples, seed=request.seed
        )
        run = synthesize_flat if request.flatten else synthesize
        result = run(
            design,
            library,
            sampling_ns=request.sampling_ns,
            laxity_factor=request.laxity_factor,
            objective=request.objective,  # type: ignore[arg-type]
            traces=traces,
            config=config,
            n_samples=request.samples,
        )
        progress.emit(
            "synthesized",
            area=result.area,
            power=result.power,
            vdd=result.vdd,
            clk_ns=result.clk_ns,
            elapsed_s=round(result.elapsed_s, 3),
        )

        payload_out = result_to_dict(result)
        payload_out["fingerprint"] = payload.get("fingerprint")
        payload_out["design"] = design.name
        payload_out["netlist"] = emit_netlist(result.netlist())
        payload_out["controller_states"] = result.controller().n_states
        if request.priors and result.trace_events is not None:
            from ..dfg.canonical import design_fingerprint
            from ..search.priors import mine_events, save_priors
            from ..synthesis.store import SynthesisStore

            table = mine_events(result.trace_events)
            if config.cache_dir:
                priors_store = SynthesisStore.from_config(config)
                try:
                    save_priors(
                        priors_store,
                        design_fingerprint(design, design.top),
                        table,
                    )
                finally:
                    priors_store.close()
            progress.emit("priors_mined", stats=len(table.stats))

        if request.verify:
            check = result.verify()
            payload_out["verification"] = {
                "ok": check.ok,
                "n_samples": check.n_samples,
                "counterexample": (
                    check.counterexample.describe()
                    if check.counterexample is not None
                    else None
                ),
            }
            progress.emit("verified", ok=check.ok)

        if request.trace and jobs_dir and result.trace_events is not None:
            from ..trace import write_trace

            trace_path = Path(jobs_dir) / f"{job_id}.trace.jsonl"
            n_events = write_trace(result.trace_events, trace_path)
            payload_out["trace_events"] = n_events
        progress.emit("job_end", status="done")
        return payload_out
    except BaseException as exc:
        progress.emit(
            "job_end", status="failed", error=f"{type(exc).__name__}: {exc}"
        )
        raise
    finally:
        # Per-job teardown: keep a long-lived worker memory-bounded
        # even when the failure happened outside the engine's own
        # teardown (library build, netlist emission, verification).
        reset_activity_caches()
        _reset_energy_memos()
