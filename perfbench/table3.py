"""The ``table3-hier`` and ``table3-flat`` workloads: one CLI process per design.

Each design of the paper's Table 3 runs as its own ``python -m repro
synth`` process (power objective, laxity factor 2.2, quick effort,
``--workers 1``, no ``--cache-dir``, ``--seed`` = the workload seed),
timed from spawn to exit, with a host-speed probe sample before each
(see ``calibrate.py``); time metrics are in reference seconds.  A
traced run then repeats every design in a fresh traced process (see
``traced_child.py``) for the per-layer breakdown and the output checks.
"""

from __future__ import annotations

import re
import time

import calibrate
import common
import metrics as m

DESIGNS = ("avenhaus_cascade", "lat", "dct", "iir", "hier_paulin", "test1")
LAXITY = "2.2"
#: Fresh-interpreter ``import repro.cli`` repetitions behind ``setup_s``.
SETUP_REPS = 3

_FIELDS = {
    "area": re.compile(r"^area:\s+(\S+)", re.M),
    "power": re.compile(r"^power:\s+(\S+)", re.M),
    "schedule": re.compile(r"^schedule:\s+(\d+) cycles \(budget (\d+)\)", re.M),
}


def synth_args(design: str, flatten: bool, seed: int) -> list[str]:
    """``repro synth`` arguments of one design, shared with the traced run."""
    args = ["synth", "--benchmark", design, "--laxity", LAXITY,
            "--objective", "power", "--workers", "1", "--seed", str(seed)]
    if flatten:
        args.append("--flatten")
    return args


def synth_argv(design: str, flatten: bool, seed: int) -> list[str]:
    return common.python_argv("-m", "repro", *synth_args(design, flatten, seed))


def parse_synth(stdout: str) -> dict | None:
    """Power, area and schedule as ``repro synth`` prints them."""
    found = {k: rx.search(stdout) for k, rx in _FIELDS.items()}
    if not all(found.values()):
        return None
    length, budget = (int(g) for g in found["schedule"].groups())
    return {
        "power": found["power"].group(1),
        "area": found["area"].group(1),
        "schedule": length,
        "budget": budget,
    }


def measure_setup(reps: int = SETUP_REPS) -> list[float]:
    """Walls of fresh interpreters importing ``repro.cli``.

    In a fresh checkout the first import also writes the bytecode
    caches; the median over the repetitions leaves that one out.
    """
    argv = common.python_argv("-c", "import repro.cli")
    walls = []
    for _ in range(reps):
        run = common.run_child(argv)
        if run.returncode != 0:
            raise common.BenchError(f"import repro.cli failed:\n{run.stderr}")
        walls.append(run.wall_s)
    return walls


def ref_key(design: str, flatten: bool, seed: int) -> str:
    return f"table3/{'flat' if flatten else 'hier'}/{design}/{seed}"


def run(
    flatten: bool,
    seed: int,
    seconds: float,
    trace: bool,
    designs: tuple[str, ...] = DESIGNS,
) -> dict:
    refs = common.References()
    failures: list[str] = []
    probes = [calibrate.probe()]
    setup = measure_setup()

    # Timed passes over the suite, while another whole pass fits.
    passes: list[list[dict]] = []
    t_begin = time.perf_counter()
    while True:
        t_pass = time.perf_counter()
        rows = []
        for design in designs:
            probes.append(calibrate.probe())
            child = common.run_child(synth_argv(design, flatten, seed))
            out = parse_synth(child.stdout) if child.returncode == 0 else None
            row = {
                "design": design,
                "wall_s": child.wall_s,
                "cpu_s": child.cpu_s,
                "maxrss_mb": child.maxrss_mb,
                "out": out,
            }
            if child.timed_out:
                failures.append(f"{design}: timed out")
            elif child.returncode != 0 or out is None:
                failures.append(
                    f"{design}: exit {child.returncode}: "
                    f"{child.stderr.strip()[-300:]}")
            elif out["schedule"] > out["budget"]:
                failures.append(f"{design}: schedule {out['schedule']} "
                                f"over budget {out['budget']}")
                row["out"] = None
            rows.append(row)
        passes.append(rows)
        probes.append(calibrate.probe())
        pass_s = time.perf_counter() - t_pass
        if time.perf_counter() - t_begin + pass_s > seconds:
            break

    # Every pass of a design must print the same numbers.
    for later in passes[1:]:
        for first, row in zip(passes[0], later):
            if first["out"] and row["out"] and first["out"] != row["out"]:
                failures.append(f"{row['design']}: passes disagree")
                row["out"] = None

    result: dict = {"rows": passes[0], "passes": len(passes)}
    traced = None
    if trace:
        traced, span_names = run_traced(
            flatten, seed, designs, passes[0], refs, failures)
    for row in passes[0]:
        if row["out"] is None:
            continue
        values = {k: row["out"][k] for k in ("power", "area", "schedule")}
        problem = refs.check(ref_key(row["design"], flatten, seed), values, "timed")
        if problem:
            failures.append(problem)
    refs.save()

    attempted = sum(len(rows) for rows in passes)
    # Every time metric in reference seconds (see calibrate.py).
    speed = calibrate.factor(probes)
    walls = [[r["wall_s"] * speed for r in rows] for rows in passes]
    # One latency per design whatever the number of passes, so the
    # statistics below keep their meaning when a faster program fits
    # more passes into the run.
    design_walls = [common.median([w[i] for w in walls])
                    for i in range(len(designs))]
    powers = [float(r["out"]["power"]) for r in passes[0] if r["out"]]
    p_tail, p_pct, n_lat = common.tail(design_walls)
    e2e = {
        "wall_s": common.median([sum(w) for w in walls]),
        "wall_geomean_s": common.median([common.geomean(w) for w in walls]),
        "power_geomean": common.geomean(powers) if powers else 0.0,
        "peak_rss_mb": max(r["maxrss_mb"] for rows in passes for r in rows),
        "setup_s": common.median(setup) * speed,
        "job_latency_p50_s": common.center(design_walls),
        "job_latency_tail_s": p_tail,
        "jobs_per_s": attempted / sum(sum(w) for w in walls),
    }
    result.update({
        "attempted": attempted + (len(designs) if trace else 0),
        "failures": failures,
        "end_to_end": e2e,
        "tail": {"percentile": p_pct, "samples": n_lat},
        "setup_walls": setup,
        "probes": probes,
        "speed_factor": speed,
        "report": report_rows(passes[0], flatten, seed, refs) + [
            f"host speed: {speed:.3f} x measured wall = reference seconds "
            f"(mean of {len(probes)} probe samples)"],
    })
    if traced is not None:
        traced["failed_ratio"] = len(failures) / result["attempted"]
        result["per_layer"] = traced
        result["span_names"] = span_names
    return result


def run_traced(
    flatten: bool,
    seed: int,
    designs: tuple[str, ...],
    timed_rows: list[dict],
    refs: common.References,
    failures: list[str],
) -> tuple[dict, list[str]]:
    """Traced process per design; per-layer metrics plus output checks.

    Returns the per-layer metrics and the names of the spans recorded.
    """
    agg: dict[str, dict] = {}
    telemetry = None
    library_modules = verify_failures = n_spans = 0
    traced_wall = 0.0
    for design, timed in zip(designs, timed_rows):
        spec = {"kind": "synth", "design": design, "flatten": flatten,
                "seed": seed}
        out = common.traced_child(spec, f"{'flat' if flatten else 'hier'}-{design}")
        traced_wall += out["wall_s"]
        if out.get("error"):
            failures.append(f"{design} (traced): {out['error']}")
            continue
        if out["nesting_violations"]:
            failures.append(f"{out['nesting_violations']} traced spans lie "
                            "outside their parent span")
        agg = m.merge_aggregates(agg, out["aggregate"])
        telemetry = m.merge_telemetry(telemetry, out["telemetry"])
        library_modules += out["library_modules"]
        n_spans += out["spans"]
        if not out["verify_ok"]:
            verify_failures += 1
            failures.append(f"{design}: winning RTL fails verification: "
                            f"{out.get('verify_error')}")
        res = out["result"]
        if res is None:
            continue
        values = {k: res[k] for k in ("power", "area", "schedule")}
        if timed["out"] is not None:
            timed_values = {k: timed["out"][k] for k in values}
            if timed_values != values:
                failures.append(f"{design}: timed run printed {timed_values}, "
                                f"traced run {values}")
        problem = refs.check(ref_key(design, flatten, seed), values, "traced")
        if problem:
            failures.append(problem)
    times = m.trace_times(agg, traced_wall)
    untraced_wall = sum(r["wall_s"] for r in timed_rows)
    layer = m.layer_metrics(agg, library_modules)
    layer.update(m.telemetry_metrics(telemetry))
    layer.update(common.measure_imports())
    layer.update({name: 0 for name in m.PER_LAYER if name.startswith("service.")
                  and name != "service.job.s"})
    layer.update({
        "verify.failures": verify_failures,
        "trace.wall_s": traced_wall,
        "trace.overhead_s": times["net_wall_s"] - untraced_wall,
        "trace.unaccounted_s": times["trace.unaccounted_s"],
        "trace.spans": n_spans,
    })
    return layer, sorted(agg)


def report_rows(
    rows: list[dict], flatten: bool, seed: int, refs: common.References
) -> list[str]:
    """Per-design wall, power, area and hierarchical/flat power ratio.

    The other mode's power comes from the reference of the same design
    and seed, when a run of that mode was made in this checkout.
    """
    lines = [f"{'design':<18}{'mode':<6}{'wall s':>9}{'cpu s':>9}"
             f"{'power':>9}{'area':>9}{'hier/flat':>11}"]
    ratios = []
    for row in rows:
        out = row["out"] or {}
        other = refs.get(ref_key(row["design"], not flatten, seed))
        ratio = None
        if out and other:
            hier, flat = ((other["power"], out["power"]) if flatten
                          else (out["power"], other["power"]))
            ratio = float(hier) / float(flat)
            ratios.append(ratio)
        lines.append(
            f"{row['design']:<18}{'flat' if flatten else 'hier':<6}"
            f"{row['wall_s']:>9.2f}{row['cpu_s']:>9.2f}"
            f"{out.get('power', '-'):>9}{out.get('area', '-'):>9}"
            f"{(f'{ratio:.3f}' if ratio else 'n/a'):>11}")
    if ratios and len(ratios) == len(rows):
        g = common.geomean(ratios)
        lines.append(f"hier/flat power geomean ratio: {g:.4f} "
                     f"({(g - 1) * 100:+.1f}%; paper: -13.3%)")
    return lines
