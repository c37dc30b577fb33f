"""Traced mirror of one ``repro synth`` run or of a service request set.

Run in a fresh interpreter::

    python perfbench/traced_child.py SPEC.json OUT.json

``SPEC.json`` is either ``{"kind": "synth", "design", "flatten", "seed"}``
— ``repro synth`` run in-process through ``repro.cli.main`` with the
timed run's arguments, plus netlist emission and differential
verification of the winning RTL —
or ``{"kind": "service", "jobs": [...], "cache_dir"}``, which runs each
job payload through the worker entry point ``repro.service.run_job``
in order against one persistent store.  The child writes its results
and counters to ``OUT.json`` and its raw spans next to it.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import tracer as tr  # noqa: E402


class Collector:
    """Counters gathered from the results the traced entry points return."""

    def __init__(self) -> None:
        self.telemetry = None
        self.last_result = None
        self.library_modules = 0
        self.verify_failures = 0

    def on_synth(self, result) -> None:
        if self.telemetry is None:
            self.telemetry = type(result.telemetry)()
        self.telemetry.merge(result.telemetry)
        self.last_result = result

    def count_module(self, add_complex_module):
        def counted(library, module):
            self.library_modules += 1
            return add_complex_module(library, module)

        return counted

    def on_verify(self, result) -> None:
        if not result.ok:
            self.verify_failures += 1


#: Steps of ``repro synth`` outside the program's layers, traced as the
#: benchmark's own phases.
CLI_STEPS = (
    ("bench.design", "repro.bench_suite.registry", "get_benchmark"),
    ("bench.traces", "repro.power.traces", "speech_traces"),
)


def run_synth(spec: dict, tracer: tr.Tracer, collector: Collector,
              out: dict) -> None:
    """``repro synth`` in this process, then emission and verification.

    The CLI runs with the timed run's arguments; its winning result is
    the last one a ``synthesize``/``synthesize_flat`` call returns
    (library-build calls return before it).
    """
    import repro.cli as cli
    from repro.rtl import emit_netlist
    import table3

    tr.install(tracer, layers=CLI_STEPS)
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = cli.main(table3.synth_args(spec["design"], spec["flatten"],
                                          spec["seed"]))
    out["exit"] = code
    out["result"] = table3.parse_synth(stdout.getvalue())
    result = collector.last_result
    if code != 0 or out["result"] is None or result is None:
        out["verify_ok"] = False
        out["verify_error"] = f"repro synth exited {code}"
        return
    # What `--netlist` and `--verify` add, kept outside the CLI call so
    # that the CLI runs with exactly the timed run's configuration.
    with tracer.span("bench.emit"):
        emit_netlist(result.netlist())
    with tracer.span("bench.verify"):
        check = result.verify()
    out["verify_ok"] = bool(check.ok)
    if not check.ok and check.counterexample is not None:
        out["verify_error"] = check.counterexample.describe()


def run_service(spec: dict, tracer: tr.Tracer, out: dict) -> None:
    import repro.service as service

    results = []
    for i, job in enumerate(spec["jobs"]):
        tracer.run_id = i
        payload = {
            "job_id": f"traced-{i}",
            "request": job,
            "cache_dir": spec["cache_dir"],
            "persistent_cache": True,
            "jobs_dir": None,
        }
        res = service.run_job(payload)
        results.append({"power": res["power"], "area": res["area"]})
    out["results"] = results


def main(argv: list[str]) -> int:
    spec_path, out_path = argv[1], argv[2]
    with open(spec_path) as fh:
        spec = json.load(fh)
    tracer = tr.Tracer()
    root = tracer.open("bench.process")
    tracer.start[root] = T_START
    with tracer.span("bench.import"):
        import repro.cli  # noqa: F401  (what every CLI run pays)
        if spec["kind"] == "service":
            import repro.service.worker  # noqa: F401
    collector = Collector()
    with tracer.span("trace.install"):
        from repro.library.library import ModuleLibrary

        ModuleLibrary.add_complex_module = collector.count_module(
            ModuleLibrary.add_complex_module)
        tr.install(tracer, {
            "synthesize": collector.on_synth,
            "synthesize_flat": collector.on_synth,
            "verify_solution": collector.on_verify,
        })
    out: dict = {}
    if spec["kind"] == "synth":
        run_synth(spec, tracer, collector, out)
    else:
        run_service(spec, tracer, out)
    tracer.close(root)

    tel = collector.telemetry
    out["telemetry"] = tel.as_dict() if tel is not None else None
    out["library_modules"] = collector.library_modules
    out["verify_failures"] = collector.verify_failures
    out["spans"] = len(tracer.start)
    spans_path = os.path.splitext(out_path)[0] + ".spans.npz"
    tracer.save(spans_path)
    out["spans_path"] = spans_path
    with open(out_path, "w") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
