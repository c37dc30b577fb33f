"""Fast self-check of the benchmark (about a minute).

    python3 perfbench/smoke.py

Runs a traced ``table3-hier`` pass over test1 alone and a traced
``service-gen`` request set over one generated design, then asserts:

* every metric the benchmark defines is emitted with its unit, in both
  the untraced and the traced result line, and ``BENCHMARK.json`` lists
  the same metrics;
* every child span lies inside its parent span;
* every recorded span has a self-time metric, and the self times plus
  ``trace.unaccounted_s`` (wall outside the root span, measured on its
  own) add up to the traced processes' wall;
* no output check failed.
"""

from __future__ import annotations

import json
import math
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import common  # noqa: E402
import metrics as m  # noqa: E402
import run  # noqa: E402
import service_gen  # noqa: E402
import table3  # noqa: E402
import tracer as tr  # noqa: E402

#: Metric names the benchmark's specification requires, by section.
REQUIRED_END_TO_END = (
    "wall_s", "wall_geomean_s", "power_geomean", "peak_rss_mb", "setup_s",
    "job_latency_p50_s", "job_latency_tail_s", "jobs_per_s",
)
REQUIRED_PER_LAYER = (
    "import.s", "import.scipy_s", "import.networkx_s",
    "library_gen.s", "library_gen.modules", "library_gen.synth_calls",
    "synthesis.incremental.plan.s", "synthesis.incremental.finish.s",
    "synthesis.incremental.delta_ratio", "synthesis.incremental.full_evals",
    "synthesis.costs.s", "synthesis.costs.evaluations",
    "synthesis.costs.cache_hit_ratio",
    "power.activity.s", "power.activity.calls", "rtl.netlist.s",
    "synthesis.moves.discover.s", "synthesis.moves.prune.s",
    "synthesis.moves.discovered", "synthesis.moves.materialized",
    "synthesis.moves.pruned", "synthesis.moves.tried",
    "synthesis.moves.commit_ratio",
    "synthesis.improve.s", "synthesis.resynth.s", "synthesis.initial.s",
    "power.simulate.s", "scheduling.s", "scheduling.calls", "rtl.embed.s",
    "synthesis.store.s", "synthesis.store.point.hit_ratio",
    "synthesis.store.run.hit_ratio", "synthesis.store.persistent.hit_ratio",
    "service.submit_s", "service.result_s", "service.hit_s",
    "service.worker_s", "service.library_s", "service.dispatch_s",
    "service.store_hits", "service.synth_runs", "service.rejected",
    "verify.s", "verify.failures", "trace.overhead_s", "trace.unaccounted_s",
    "failed_ratio",
)


def check_lines(name: str, result: dict) -> None:
    for trace, required in ((False, REQUIRED_END_TO_END), (True, REQUIRED_PER_LAYER)):
        line = run.result_line(result, trace)
        json.dumps(line)  # must serialize
        emitted = line["metrics"]
        missing = [n for n in required if n not in emitted]
        assert not missing, f"{name}: metrics not emitted: {missing}"
        expected = m.PER_LAYER if trace else m.END_TO_END
        assert set(emitted) == set(expected), f"{name}: unexpected metric set"
        for metric, entry in emitted.items():
            assert entry["unit"] == expected[metric], f"{name}: {metric} unit"
            assert isinstance(entry["value"], (int, float)), f"{name}: {metric}"
            assert math.isfinite(entry["value"]), f"{name}: {metric} not finite"
        assert line["correct"] and line["failed"] == 0, (
            f"{name}: failures {result['failures']}")


def check_time_sum(name: str, result: dict) -> None:
    layer = result["per_layer"]
    unknown = set(result["span_names"]) - m.SPAN_NAMES
    assert not unknown, f"{name}: spans without a self-time metric: {unknown}"
    self_sum = sum(layer[metric] for metric in m.SELF_TIME_METRICS)
    total = self_sum + layer["trace.unaccounted_s"]
    assert abs(total - layer["trace.wall_s"]) < 1e-6, (
        f"{name}: self times {self_sum} + unaccounted "
        f"{layer['trace.unaccounted_s']} != wall {layer['trace.wall_s']}")
    assert 0.0 <= layer["trace.unaccounted_s"] < 0.2 * layer["trace.wall_s"], (
        f"{name}: unaccounted {layer['trace.unaccounted_s']} of "
        f"{layer['trace.wall_s']} s")


def check_nesting(paths: list) -> None:
    for path in paths:
        arrays, _names = tr.load(str(path))
        bad = tr.nesting_violations(arrays)
        assert bad == 0, f"{path.name}: {bad} spans outside their parent"


def check_manifest() -> None:
    manifest = json.loads((common.ROOT / "BENCHMARK.json").read_text())
    e2e = {e["name"]: e["unit"] for e in manifest["end_to_end"]}
    layer = {e["name"]: e["unit"] for e in manifest["per_layer"]}
    assert e2e == m.END_TO_END, "BENCHMARK.json end_to_end differs"
    assert layer == m.PER_LAYER, "BENCHMARK.json per_layer differs"
    assert {w["name"] for w in manifest["workloads"]} == set(run.WORKLOADS)


def main() -> int:
    common.check_program()
    service_gen.refuse_stray_server()
    check_manifest()
    for stale in common.STATE.glob("traced-*.spans.npz"):
        stale.unlink()

    hier = table3.run(False, 0, 0.0, True, designs=("test1",))
    check_lines("table3-hier/test1", hier)
    check_time_sum("table3-hier/test1", hier)
    assert hier["per_layer"]["library_gen.synth_calls"] > 0

    service = service_gen.run(0, 0.0, True, k=1)
    check_lines("service-gen/k=1", service)
    check_time_sum("service-gen/k=1", service)
    assert service["per_layer"]["service.store_hits"] == 3

    check_nesting(sorted(common.STATE.glob("traced-*.spans.npz")))
    print("smoke: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
