"""Metric names, units and the per-layer metric assembly.

``END_TO_END`` and ``PER_LAYER`` are the benchmark's contract: every
run prints exactly one of the two sets (untraced runs the first, traced
runs the second), on every workload.  A per-layer metric that a
workload never exercises reads 0 there.
"""

from __future__ import annotations

END_TO_END: dict[str, str] = {
    "wall_s": "s",
    "wall_geomean_s": "s",
    "power_geomean": "power",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "job_latency_p50_s": "s",
    "job_latency_tail_s": "s",
    "jobs_per_s": "1/s",
}

#: Layers whose self time is also split by top-level phase.
PHASED_LAYERS = (
    "synthesis.synthesize",
    "synthesis.initial",
    "synthesis.improve",
    "synthesis.resynth",
    "synthesis.moves.discover",
    "synthesis.moves.prune",
    "synthesis.costs",
    "synthesis.incremental.plan",
    "synthesis.incremental.finish",
    "synthesis.store",
    "power.simulate",
    "power.activity",
    "scheduling",
    "rtl.netlist",
    "rtl.embed",
)

#: Span names outside the program's layers: the traced process's own
#: phases (``bench.process`` is the glue between them) and tracing set-up.
BENCH_SPANS = (
    "bench.process",
    "bench.import",
    "bench.design",
    "bench.traces",
    "bench.emit",
    "bench.verify",
    "trace.install",
)

#: Layers reported by self time only.
PLAIN_LAYERS = ("rtl.emit", "verify", "service.job")

#: Self time of every span name; they plus ``trace.unaccounted_s`` add
#: up to the traced processes' wall.  ``library_gen`` reports its self
#: time as ``library_gen.self_s`` (``library_gen.s`` is inclusive).
SELF_TIME_METRICS = (
    tuple(f"{name}.s" for name in BENCH_SPANS + PHASED_LAYERS + PLAIN_LAYERS)
    + ("library_gen.self_s",)
)
#: Every span name a traced process may record.
SPAN_NAMES = frozenset(BENCH_SPANS + PHASED_LAYERS + PLAIN_LAYERS + ("library_gen",))
#: Spans of work the traced run adds to what the timed run does
#: (netlist emission and verification of the winning RTL).
EXTRA_WORK_SPANS = ("bench.emit", "bench.verify")


def trace_times(agg: dict[str, dict], wall_s: float) -> dict[str, float]:
    """``trace.unaccounted_s`` and the traced wall net of the extra work.

    ``trace.unaccounted_s`` is the traced processes' wall outside their
    root span (interpreter start-up and exit), measured independently
    of the span self times, so self times + unaccounted == wall checks
    that the self-time metrics cover every span exactly once.
    """
    root = agg.get("bench.process", {}).get("inclusive_s", 0.0)
    extra = sum(agg.get(n, {}).get("inclusive_s", 0.0) for n in EXTRA_WORK_SPANS)
    return {"trace.unaccounted_s": wall_s - root, "net_wall_s": wall_s - extra}


def _per_layer() -> dict[str, str]:
    units: dict[str, str] = {
        "import.s": "s",
        "import.scipy_s": "s",
        "import.networkx_s": "s",
        "library_gen.s": "s",
        "library_gen.self_s": "s",
        "library_gen.modules": "count",
        "library_gen.synth_calls": "count",
    }
    for name in PHASED_LAYERS:
        units[f"{name}.s"] = "s"
        units[f"{name}.library_s"] = "s"
        units[f"{name}.search_s"] = "s"
    for name in BENCH_SPANS + PLAIN_LAYERS:
        units[f"{name}.s"] = "s"
    units.update({
        "synthesis.incremental.delta_ratio": "ratio",
        "synthesis.incremental.full_evals": "count",
        "synthesis.costs.evaluations": "count",
        "synthesis.costs.cache_hit_ratio": "ratio",
        "power.activity.calls": "count",
        "scheduling.calls": "count",
        "synthesis.moves.discovered": "count",
        "synthesis.moves.materialized": "count",
        "synthesis.moves.pruned": "count",
        "synthesis.moves.tried": "count",
        "synthesis.moves.commit_ratio": "ratio",
        "synthesis.store.point.hit_ratio": "ratio",
        "synthesis.store.run.hit_ratio": "ratio",
        "synthesis.store.persistent.hit_ratio": "ratio",
        "verify.failures": "count",
        "service.submit_s": "s",
        "service.result_s": "s",
        "service.hit_s": "s",
        "service.worker_s": "s",
        "service.library_s": "s",
        "service.dispatch_s": "s",
        "service.store_hits": "count",
        "service.synth_runs": "count",
        "service.rejected": "count",
        "trace.wall_s": "s",
        "trace.overhead_s": "s",
        "trace.unaccounted_s": "s",
        "trace.spans": "count",
        "failed_ratio": "ratio",
    })
    return units


PER_LAYER: dict[str, str] = _per_layer()


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


#: ``Telemetry.as_dict()`` fields read below, as a run that priced nothing.
_NO_TELEMETRY = {
    "delta_hits": 0, "cache_misses": 0, "full_evals": 0, "evaluations": 0,
    "cache_hits": 0, "moves_tried": {}, "moves_committed": {},
    "moves_discovered": {}, "moves_materialized": {}, "moves_pruned": {},
    "store_hits": {}, "store_misses": {},
}


def telemetry_metrics(tel: dict | None) -> dict[str, float]:
    """Counters of the merged synthesis telemetry of the traced runs."""
    tel = tel or _NO_TELEMETRY
    tried = sum(tel["moves_tried"].values())
    out = {
        "synthesis.incremental.delta_ratio": _ratio(
            tel["delta_hits"], tel["cache_misses"]),
        "synthesis.incremental.full_evals": tel["full_evals"],
        "synthesis.costs.evaluations": tel["evaluations"],
        "synthesis.costs.cache_hit_ratio": _ratio(
            tel["cache_hits"], tel["evaluations"]),
        "synthesis.moves.discovered": sum(tel["moves_discovered"].values()),
        "synthesis.moves.materialized": sum(tel["moves_materialized"].values()),
        "synthesis.moves.pruned": sum(tel["moves_pruned"].values()),
        "synthesis.moves.tried": tried,
        "synthesis.moves.commit_ratio": _ratio(
            sum(tel["moves_committed"].values()), tried),
    }
    for tier in ("point", "run", "persistent"):
        hits = sum(n for k, n in tel["store_hits"].items()
                   if k.split(".", 1)[0] == tier)
        misses = sum(n for k, n in tel["store_misses"].items()
                     if k.split(".", 1)[0] == tier)
        out[f"synthesis.store.{tier}.hit_ratio"] = _ratio(hits, hits + misses)
    return out


def merge_telemetry(into: dict | None, tel: dict | None) -> dict | None:
    """Sum two ``Telemetry.as_dict()`` payloads (counters only)."""
    if tel is None:
        return into
    if into is None:
        return {k: (dict(v) if isinstance(v, dict) else v)
                for k, v in tel.items()}
    for key, value in tel.items():
        if isinstance(value, dict):
            mine = into.setdefault(key, {})
            for k, v in value.items():
                if isinstance(v, (int, float)):
                    mine[k] = mine.get(k, 0) + v
        elif isinstance(value, (int, float)) and not key.endswith("_rate"):
            into[key] = into.get(key, 0) + value
    return into


def layer_metrics(agg: dict[str, dict], library_modules: int) -> dict[str, float]:
    """Self times, phase splits and call counts from span aggregates."""

    def row(name: str) -> dict:
        return agg.get(name, {})

    out: dict[str, float] = {}
    for name in PHASED_LAYERS:
        r = row(name)
        out[f"{name}.s"] = r.get("self_s", 0.0)
        out[f"{name}.library_s"] = r.get("library_s", 0.0)
        out[f"{name}.search_s"] = r.get("search_s", 0.0)
    for name in BENCH_SPANS + PLAIN_LAYERS:
        out[f"{name}.s"] = row(name).get("self_s", 0.0)
    lib = row("library_gen")
    out["library_gen.s"] = lib.get("inclusive_s", 0.0)
    out["library_gen.self_s"] = lib.get("self_s", 0.0)
    out["library_gen.modules"] = library_modules
    out["library_gen.synth_calls"] = row("synthesis.synthesize").get(
        "library_calls", 0)
    out["power.activity.calls"] = row("power.activity").get("calls", 0)
    out["scheduling.calls"] = row("scheduling").get("calls", 0)
    return out


def merge_aggregates(into: dict[str, dict], agg: dict[str, dict]) -> dict[str, dict]:
    for name, r in agg.items():
        mine = into.setdefault(name, {})
        for k, v in r.items():
            mine[k] = mine.get(k, 0) + v
    return into


def import_profile(stderr: str) -> dict[str, float]:
    """Sum ``-X importtime`` self times: all, scipy's and networkx's."""
    total = scipy = networkx = 0.0
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        parts = line[len("import time:"):].split("|")
        try:
            self_us = float(parts[0])
        except ValueError:
            continue  # the header line
        module = parts[2].strip()
        total += self_us
        top = module.split(".", 1)[0]
        if top == "scipy":
            scipy += self_us
        elif top == "networkx":
            networkx += self_us
    return {
        "import.s": total / 1e6,
        "import.scipy_s": scipy / 1e6,
        "import.networkx_s": networkx / 1e6,
    }
