"""Benchmark of record: Table-3 CLI suites and a generated-design job-server mix.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload table3-hier --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 0      # every workload

Workloads: ``table3-hier``, ``table3-flat`` (see ``table3.py``) and
``service-gen`` (see ``service_gen.py``).  With ``--trace 0`` the run
is timed untraced and prints the end-to-end metrics; with ``--trace 1``
it also makes the traced run and prints the per-layer metrics instead.
Human-readable report lines come first; the last line of standard
output is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``.  The full result set, with provenance, is also written to
``perfbench/_state/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import common  # noqa: E402
import metrics as m  # noqa: E402

WORKLOADS = ("table3-hier", "table3-flat", "service-gen")


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    if name == "service-gen":
        import service_gen

        return service_gen.run(seed, seconds, trace)
    import table3

    return table3.run(name == "table3-flat", seed, seconds, trace)


def result_line(result: dict, trace: bool) -> dict:
    """The contract's last-line object for one workload's result."""
    attempted = result["attempted"]
    failed = min(len(result["failures"]), attempted)
    names = m.PER_LAYER if trace else m.END_TO_END
    values = result["per_layer"] if trace else result["end_to_end"]
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": values[name], "unit": unit}
            for name, unit in names.items()
        },
    }


def print_report(name: str, result: dict, trace: bool) -> None:
    print(f"== {name}")
    for line in result["report"]:
        print(line)
    tail = result["tail"]
    print(f"job latency tail: p{tail['percentile']:.1f} of {tail['samples']} samples")
    attempted = result["attempted"]
    print(f"failed_ratio: {len(result['failures'])}/{attempted} = "
          f"{min(len(result['failures']), attempted) / attempted:.4f}")
    for failure in result["failures"]:
        print(f"FAILED: {failure}")
    for metric, unit in m.END_TO_END.items():
        print(f"{metric:<22}{result['end_to_end'][metric]:>14.6g} {unit}")
    if trace:
        print("per-layer (self seconds; library / search phase):")
        layer = result["per_layer"]
        for metric, unit in m.PER_LAYER.items():
            extra = ""
            base = metric[:-2] if metric.endswith(".s") else None
            if base and f"{base}.library_s" in layer:
                extra = (f"  ({layer[f'{base}.library_s']:.3f} / "
                         f"{layer[f'{base}.search_s']:.3f})")
            if metric.endswith((".library_s", ".search_s")):
                continue
            print(f"  {metric:<40}{layer[metric]:>12.6g} {unit}{extra}")


def save_result(name: str, seed: int, trace: bool, result: dict, prov: dict) -> None:
    out_dir = common.STATE / "results"
    out_dir.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    path = out_dir / f"{name}-seed{seed}-trace{int(trace)}-{stamp}.json"
    path.write_text(json.dumps({"workload": name, "provenance": prov,
                                **result}, indent=1, default=str))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="measure while another whole pass fits in "
                             "this many seconds (at least one pass)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    common.install_signal_exit()
    try:
        common.check_program()
        import service_gen

        service_gen.refuse_stray_server()
    except common.BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    trace = bool(args.trace)
    lines = {}
    for name in names:
        prov = common.provenance(args.seed)
        try:
            result = run_workload(name, args.seed, args.seconds, trace)
        except common.BenchError as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 2
        prov["loadavg_after"] = list(os.getloadavg())
        save_result(name, args.seed, trace, result, prov)
        print(f"provenance: {json.dumps(prov, sort_keys=True)}")
        print_report(name, result, trace)
        lines[name] = result_line(result, trace)
    if len(names) == 1:
        final = lines[names[0]]
    else:
        final = {
            "correct": all(line["correct"] for line in lines.values()),
            "attempted": sum(line["attempted"] for line in lines.values()),
            "failed": sum(line["failed"] for line in lines.values()),
            "metrics": {f"{name}.{metric}": value
                        for name, line in lines.items()
                        for metric, value in line["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
