"""Command-line interface (the H-SYN executable equivalent).

Subcommands
-----------
``info``   — parse/validate a textual design and print its statistics;
``synth``  — synthesize a textual design or a built-in benchmark and
             optionally write the datapath netlist and FSM controller;
``tables`` — regenerate the paper's Table 3/Table 4 for chosen circuits;
``gen``    — emit seeded random hierarchical designs (fuzzing corpus);
``serve``  — run the synthesis job server (see ``docs/SERVICE.md``);
``submit`` — send a job to a running server;
``status`` — query a job (or the server's counters).

Examples::

    python -m repro info mydesign.dfg
    python -m repro synth --benchmark dct --laxity 2.2 --objective power \\
        --netlist dct.v --fsm dct.fsm
    python -m repro synth mydesign.dfg --sampling-ns 400 --flatten
    python -m repro tables --circuits lat,test1 --laxity-factors 1.2,2.2
    python -m repro gen --seed 7 --count 20 --out-dir corpus/
    python -m repro serve --port 8000 --workers 4 --cache-dir .repro-service
    python -m repro submit --benchmark lat --laxity 2.2 --wait
    python -m repro status 5c44bb0234854ce2
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from .bench_suite import benchmark_names, get_benchmark
from .dfg import Design, flatten, op_histogram, parse_design, validate_design
from .errors import ReproError
from .library import default_library
from .power import image_traces, speech_traces, white_traces
from .reporting import (
    quick_config,
    render_stats,
    render_table3,
    render_table4,
    run_sweep,
)
from .rtl import emit_controller, emit_netlist
from .search import available_policies
from .synthesis import SynthesisConfig, synthesize, synthesize_flat, voltage_scale
from .synthesis.library_gen import build_complex_library

__all__ = ["main", "build_parser"]

_TRACE_GENERATORS = {
    "speech": speech_traces,
    "white": white_traces,
    "image": image_traces,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Hierarchical power/area high-level synthesis "
            "(Lakshminarayana & Jha, DAC 1998 reproduction)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    info = sub.add_parser("info", help="validate a design and print statistics")
    info.add_argument("design", type=Path, help="textual .dfg design file")

    synth = sub.add_parser("synth", help="synthesize a design")
    source = synth.add_mutually_exclusive_group(required=True)
    source.add_argument("design", nargs="?", type=Path, default=None,
                        help="textual .dfg design file")
    source.add_argument(
        "--benchmark", choices=sorted(benchmark_names()), default=None,
        help="use a built-in benchmark instead of a file",
    )
    constraint = synth.add_mutually_exclusive_group(required=True)
    constraint.add_argument("--laxity", type=float, default=None,
                            help="laxity factor (multiple of the minimum period)")
    constraint.add_argument("--sampling-ns", type=float, default=None,
                            help="absolute sampling period in nanoseconds")
    synth.add_argument("--objective", choices=("area", "power"), default="power")
    synth.add_argument("--policy", choices=available_policies(), default=None,
                       metavar="NAME",
                       help="search policy biasing the improvement driver "
                            "(default: the paper's fixed scheme; see "
                            "docs/SEARCH.md; choices: "
                            f"{', '.join(available_policies())})")
    synth.add_argument("--priors", action="store_true",
                       help="search with trace-mined move priors and, after "
                            "the run, mine this run's trace back into the "
                            "priors store (persists with --cache-dir)")
    synth.add_argument("--flatten", action="store_true",
                       help="run the flattened baseline instead of hierarchical")
    synth.add_argument("--no-library", action="store_true",
                       help="skip pre-building the complex-module library")
    synth.add_argument("--voltage-scale", action="store_true",
                       help="voltage-scale the result to just meet the period")
    synth.add_argument("--traces", choices=sorted(_TRACE_GENERATORS), default="speech")
    synth.add_argument("--samples", type=int, default=48,
                       help="trace length used for power estimation")
    synth.add_argument("--seed", type=int, default=0)
    synth.add_argument("--effort", choices=("quick", "full"), default="quick")
    synth.add_argument("--workers", type=int, default=1,
                       help="processes for the (Vdd, clock) operating-point "
                            "sweep (1 = serial; results are identical)")
    synth.add_argument("--no-incremental", action="store_true",
                       help="price every candidate from scratch instead of "
                            "by delta against the current solution "
                            "(results are bit-identical either way)")
    synth.add_argument("--validate-incremental", action="store_true",
                       help="cross-check every delta-priced candidate against "
                            "a from-scratch evaluation and fail on any "
                            "bitwise mismatch (debug mode; slow)")
    synth.add_argument("--no-prune", action="store_true",
                       help="disable dominance/feasibility pruning of "
                            "candidates before pricing")
    synth.add_argument("--saturate", action="store_true",
                       help="before synthesis, saturate each non-top "
                            "behavior with bit-true algebraic rewrites "
                            "(commutativity, sub->add+neg, associativity) "
                            "to a bounded fixpoint, enlarging the move-A "
                            "anisomorphic-variant space; every discovered "
                            "variant is verified bit-true before use")
    synth.add_argument("--corners", action="store_true",
                       help="after synthesis, re-price every explored "
                            "architecture across the ±10%% supply × "
                            "(-40..125 °C) corner grid and print the "
                            "per-corner Pareto report")
    synth.add_argument("--cache-dir", type=Path, default=None, metavar="DIR",
                       help="persist the content-addressed synthesis store "
                            "here so later runs warm-start (results are "
                            "bit-identical cold vs. warm)")
    synth.add_argument("--no-persistent-cache", action="store_true",
                       help="with --cache-dir: read/write nothing on disk "
                            "(keeps only the in-memory point/run tiers)")
    synth.add_argument("--stats", action="store_true",
                       help="print synthesis telemetry (evaluations, cost-cache "
                            "hit rate, delta-hit rate, moves per family, "
                            "stage times)")
    synth.add_argument("--verify", action="store_true",
                       help="differentially verify the RTL: re-check every "
                            "committed improvement pass and the final "
                            "architecture against the behavioral simulation")
    synth.add_argument("--trace", type=Path, default=None, metavar="JSONL",
                       help="record the search as a structured JSONL trace "
                            "(inspect with `repro-trace report/replay/profile`)")
    synth.add_argument("--no-trace-timings", action="store_true",
                       help="omit wall-clock spans from the trace, making it "
                            "byte-reproducible across runs and worker counts")
    synth.add_argument("--profile", type=Path, default=None, metavar="PSTATS",
                       help="run synthesis under cProfile and dump the stats "
                            "here (inspect with `python -m pstats`)")
    synth.add_argument("--netlist", type=Path, default=None,
                       help="write the structural datapath netlist here")
    synth.add_argument("--fsm", type=Path, default=None,
                       help="write the FSM controller description here")

    tables = sub.add_parser("tables", help="regenerate Tables 3 and 4")
    tables.add_argument("--circuits", default="lat,test1",
                        help="comma-separated benchmark names")
    tables.add_argument("--laxity-factors", default="1.2,2.2",
                        help="comma-separated laxity factors")
    tables.add_argument("--workers", type=int, default=1,
                        help="processes for each run's operating-point sweep")
    tables.add_argument("--cache-dir", type=Path, default=None, metavar="DIR",
                        help="persist the synthesis store here so repeated "
                             "table regenerations warm-start")

    cache = sub.add_parser(
        "cache", help="inspect or clear a persistent synthesis store"
    )
    cache_sub = cache.add_subparsers(dest="cache_command", required=True)
    cache_stats = cache_sub.add_parser(
        "stats", help="print entry counts and size of a store"
    )
    cache_stats.add_argument("--cache-dir", type=Path, required=True,
                             metavar="DIR", help="store directory to inspect")
    cache_clear = cache_sub.add_parser(
        "clear", help="delete every entry from a store"
    )
    cache_clear.add_argument("--cache-dir", type=Path, required=True,
                             metavar="DIR", help="store directory to clear")
    cache_prune = cache_sub.add_parser(
        "prune", help="evict oldest entries beyond a size bound"
    )
    cache_prune.add_argument("--cache-dir", type=Path, required=True,
                             metavar="DIR", help="store directory to prune")
    cache_prune.add_argument("--max-entries", type=int, required=True,
                             help="keep at most this many entries "
                                  "(oldest-inserted evicted first)")

    gen = sub.add_parser(
        "gen",
        help="generate seeded random hierarchical designs",
    )
    gen.add_argument("--seed", type=int, default=0,
                     help="base seed; per-design seeds derive from it")
    gen.add_argument("--count", type=int, default=1,
                     help="number of designs to generate")
    gen.add_argument("--out-dir", type=Path, default=None, metavar="DIR",
                     help="write a corpus (design files + manifest.json) "
                          "here instead of printing designs to stdout")
    gen.add_argument("--hierarchy-depth", type=int, default=None,
                     help="maximum hierarchy depth (1 = flat)")
    gen.add_argument("--max-ops", type=int, default=None,
                     help="upper bound of simple operations per DFG body")
    gen.add_argument("--max-variants", type=int, default=None,
                     help="upper bound of DFG variants per behavior "
                          "(>1 exercises anisomorphic-module moves)")
    gen.add_argument("--stimulus", choices=sorted(_TRACE_GENERATORS),
                     default=None, help="paired stimulus family")
    gen.add_argument("--samples", type=int, default=None,
                     help="samples per input in the paired stimulus")

    serve = sub.add_parser(
        "serve", help="run the synthesis job server (see docs/SERVICE.md)"
    )
    serve.add_argument("--host", default="127.0.0.1",
                       help="interface to bind")
    serve.add_argument("--port", type=int, default=8000,
                       help="TCP port; 0 binds an ephemeral free port "
                            "(the chosen port is printed at startup)")
    serve.add_argument("--workers", type=int, default=1,
                       help="worker processes synthesizing jobs concurrently")
    serve.add_argument("--cache-dir", type=Path,
                       default=Path(".repro-service"), metavar="DIR",
                       help="service state directory: job registry, per-job "
                            "artifacts, and the shared persistent store")
    serve.add_argument("--threads", action="store_true",
                       help="thread workers instead of processes (hermetic "
                            "tests, platforms without process pools)")
    serve.add_argument("--prune-jobs", type=int, default=None, metavar="N",
                       help="at boot, keep at most N finished jobs in the "
                            "registry (oldest dropped, with their artifacts)")
    serve.add_argument("--prune-store", type=int, default=None, metavar="N",
                       help="at boot, keep at most N persistent-store "
                            "entries (oldest-inserted evicted first)")

    submit = sub.add_parser(
        "submit", help="submit a synthesis job to a running server"
    )
    submit.add_argument("--url", default="http://127.0.0.1:8000",
                        help="base URL of the job server")
    submit_source = submit.add_mutually_exclusive_group(required=True)
    submit_source.add_argument("design", nargs="?", type=Path, default=None,
                               help="textual .dfg design file (sent inline)")
    submit_source.add_argument(
        "--benchmark", choices=sorted(benchmark_names()), default=None,
        help="use a built-in benchmark instead of a file",
    )
    submit_source.add_argument("--gen-seed", type=int, default=None,
                               help="synthesize the seeded generated design "
                                    "(repro.gen) with this seed")
    submit_constraint = submit.add_mutually_exclusive_group(required=True)
    submit_constraint.add_argument(
        "--laxity", type=float, default=None,
        help="laxity factor (multiple of the minimum period)")
    submit_constraint.add_argument(
        "--sampling-ns", type=float, default=None,
        help="absolute sampling period in nanoseconds")
    submit.add_argument("--objective", choices=("area", "power"),
                        default="power")
    submit.add_argument("--traces", choices=sorted(_TRACE_GENERATORS),
                        default="speech")
    submit.add_argument("--samples", type=int, default=48,
                        help="trace length used for power estimation")
    submit.add_argument("--seed", type=int, default=0)
    submit.add_argument("--effort", choices=("quick", "full"),
                        default="quick")
    submit.add_argument("--flatten", action="store_true",
                        help="run the flattened baseline instead of "
                             "hierarchical")
    submit.add_argument("--policy", choices=available_policies(),
                        default=None, metavar="NAME",
                        help="search policy biasing the improvement driver "
                             "(see docs/SEARCH.md)")
    submit.add_argument("--priors", action="store_true",
                        help="search with the server's trace-mined move "
                             "priors and mine this run back into them")
    submit.add_argument("--verify", action="store_true",
                        help="differentially verify the winning RTL on the "
                             "server (a failing check fails the job)")
    submit.add_argument("--trace", action="store_true",
                        help="record the search trace server-side (fetch "
                             "with `repro status <id> --trace FILE`)")
    submit.add_argument("--wait", action="store_true",
                        help="poll until the job finishes and print its "
                             "outcome (exit 1 on a failed job)")
    submit.add_argument("--timeout", type=float, default=600.0,
                        help="seconds to wait with --wait before giving up")

    status = sub.add_parser(
        "status", help="query a job's status, or the server's counters"
    )
    status.add_argument("job_id", nargs="?", default=None,
                        help="job id from `repro submit`; omit to print "
                             "server-wide counters and queue depth")
    status.add_argument("--url", default="http://127.0.0.1:8000",
                        help="base URL of the job server")
    status.add_argument("--result", type=Path, default=None, metavar="JSON",
                        help="write the job's full result JSON here "
                             "(done jobs only)")
    status.add_argument("--trace", type=Path, default=None, metavar="JSONL",
                        help="write the job's recorded search trace here "
                             "(jobs submitted with --trace only)")

    hier = sub.add_parser(
        "hierarchize",
        help="derive a hierarchical design from a flat one (subproblem (i))",
    )
    hier.add_argument("design", type=Path, help="textual .dfg design file")
    hier.add_argument("--max-cluster", type=int, default=8)
    hier.add_argument("--min-cluster", type=int, default=2)
    hier.add_argument("--output", type=Path, default=None,
                      help="write the hierarchical design here (textual format)")
    return parser


def _load_design(path: Path) -> Design:
    design = parse_design(
        path.read_text(), name_hint=path.stem, source=path.name
    )
    validate_design(design)
    return design


def _cmd_info(args: argparse.Namespace) -> int:
    design = _load_design(args.design)
    flat = flatten(design)
    print(f"design {design.name!r}: {len(list(design.dfgs()))} DFGs, "
          f"top {design.top_name!r}, hierarchy depth {design.depth()}")
    print(f"behaviors: {', '.join(sorted(design.behaviors()))}")
    print(f"flattened: {len(flat.op_nodes())} operations, "
          f"{len(flat.inputs)} inputs, {len(flat.outputs)} outputs")
    print("operation mix:")
    for op, count in sorted(op_histogram(flat).items(), key=lambda kv: str(kv[0])):
        print(f"  {op}: {count}")
    return 0


def _cmd_synth(args: argparse.Namespace) -> int:
    if args.benchmark:
        design = get_benchmark(args.benchmark)
    else:
        design = _load_design(args.design)

    config = quick_config() if args.effort == "quick" else SynthesisConfig()
    config.n_workers = args.workers
    config.incremental = not args.no_incremental
    config.validate_incremental = args.validate_incremental
    config.prune = not args.no_prune
    config.verify_moves = args.verify
    # Set before the library build so module pre-characterization also
    # warm-starts from (and feeds) the persistent store.
    config.cache_dir = str(args.cache_dir) if args.cache_dir else None
    config.persistent_cache = not args.no_persistent_cache
    if args.policy:
        config.search_policy = args.policy
    elif args.priors:
        config.search_policy = "priors"
    if args.priors and not args.cache_dir:
        print("note: --priors without --cache-dir starts from empty priors "
              "and persists nothing", file=sys.stderr)
    if args.saturate:
        # Saturation runs before the library build: every verified
        # variant registers as an anisomorphic alternative of its
        # behavior, and build_complex_library then characterizes it
        # into the complex-module library move A draws from.
        from .synthesis.saturate import saturate_design

        n_new = saturate_design(design)
        print(f"equivalence saturation: {n_new} new bit-true variant(s)",
              file=sys.stderr)
    library = default_library()
    built_library = False
    if not args.no_library and not args.flatten and any(
        dfg.hier_nodes() for dfg in design.dfgs()
    ):
        print("building complex-module library...", file=sys.stderr)
        # Library preparation is untraced: only the main run's search
        # belongs in the trace (config.trace is still False here).
        start = time.perf_counter()
        library = build_complex_library(design, library, config=config)
        library_s = time.perf_counter() - start
        built_library = True
        # stderr, so stdout (and the goldens over it) stays deterministic.
        print(f"complex-module library: {library.n_complex_modules()} modules "
              f"in {library_s:.2f} s", file=sys.stderr)

    if args.trace:
        config.trace = True
        config.trace_timings = not args.no_trace_timings
        # Everything `repro-trace replay` needs to rebuild this run
        # without the original process (see repro.trace.replay).
        config.trace_meta = {
            "benchmark": args.benchmark,
            "design_path": str(args.design) if args.design else None,
            "traces": args.traces,
            "seed": args.seed,
            "samples": args.samples,
            "built_library": built_library,
        }
    elif args.priors:
        # Priors are mined from the structured trace, so record it even
        # when no trace file was requested.
        config.trace = True

    trace_gen = _TRACE_GENERATORS[args.traces]
    traces = trace_gen(design.top, n=args.samples, seed=args.seed)

    profiler = None
    if args.profile:
        import cProfile

        profiler = cProfile.Profile()
        profiler.enable()
    run = synthesize_flat if args.flatten else synthesize
    result = run(
        design,
        library,
        sampling_ns=args.sampling_ns,
        laxity_factor=args.laxity,
        objective=args.objective,
        traces=traces,
        config=config,
        n_samples=args.samples,
    )
    if args.voltage_scale:
        result = voltage_scale(result, continuous=True)
    if profiler is not None:
        profiler.disable()
        profiler.dump_stats(args.profile)

    sched = result.solution.schedule()
    print(f"objective:      {args.objective}"
          f"{' (flattened)' if args.flatten else ''}")
    print(f"area:           {result.area:.1f}")
    print(f"power:          {result.power:.4f}")
    print(f"supply:         {result.vdd:.2f} V")
    print(f"clock:          {result.clk_ns:.2f} ns")
    print(f"schedule:       {sched.length} cycles "
          f"(budget {result.solution.deadline_cycles})")
    print(f"sampling:       {result.sampling_ns:.1f} ns")
    print(f"synthesis time: {result.elapsed_s:.2f} s")
    if args.verify:
        check = result.verify()
        if not check.ok:
            assert check.counterexample is not None
            print(f"verification:   FAILED — {check.counterexample.describe()}",
                  file=sys.stderr)
            return 1
        print(f"verification:   OK ({check.n_samples} samples, "
              f"{result.telemetry.verify_checks} checks)")
    if args.corners:
        from .reporting import evaluate_corners, render_corner_report

        store = None
        prefix = None
        if config.cache_dir:
            from .synthesis.store import SynthesisStore, context_signature

            store = SynthesisStore.from_config(config)
            prefix = context_signature(library, config)
        try:
            report = evaluate_corners(result, store=store, store_prefix=prefix)
        finally:
            if store is not None:
                store.close()
        print()
        print(render_corner_report(report))
    if args.stats:
        if built_library:
            result.telemetry.add_time("library", library_s)
        print()
        print(render_stats(result.telemetry, history=result.history))
    if args.trace:
        from .trace import write_trace

        n_events = write_trace(result.trace_events, args.trace)
        print(f"trace written to {args.trace} ({n_events} events)")
    if args.priors:
        from .dfg.canonical import design_fingerprint
        from .search.priors import mine_events, save_priors

        table = mine_events(result.trace_events or [])
        if config.cache_dir:
            from .synthesis.store import SynthesisStore

            store = SynthesisStore.from_config(config)
            try:
                fingerprint = design_fingerprint(
                    result.design, result.design.top
                )
                save_priors(store, fingerprint, table)
            finally:
                store.close()
            print(f"priors: mined {len(table.stats)} (regime, kind) "
                  f"statistics into {args.cache_dir}")
        else:
            print(f"priors: mined {len(table.stats)} (regime, kind) "
                  f"statistics (not persisted; no --cache-dir)")
    if args.profile:
        print(f"profile written to {args.profile}")

    if args.netlist:
        args.netlist.write_text(emit_netlist(result.netlist()) + "\n")
        print(f"netlist written to {args.netlist}")
    if args.fsm:
        args.fsm.write_text(emit_controller(result.controller()) + "\n")
        print(f"controller written to {args.fsm}")
    return 0


def _cmd_tables(args: argparse.Namespace) -> int:
    circuits = tuple(c.strip() for c in args.circuits.split(",") if c.strip())
    laxities = tuple(float(x) for x in args.laxity_factors.split(","))
    config = quick_config()
    config.n_workers = args.workers
    config.cache_dir = str(args.cache_dir) if args.cache_dir else None
    results = run_sweep(
        circuits=circuits,
        laxity_factors=laxities,
        config=config,
        verbose=True,
    )
    print()
    print(render_table3(results))
    print()
    print(render_table4(results))
    return 0


def _cmd_cache(args: argparse.Namespace) -> int:
    from .synthesis.store import SynthesisStore

    store = SynthesisStore(cache_dir=str(args.cache_dir))
    try:
        if not store.persistent:
            print(f"error: no usable store under {args.cache_dir}",
                  file=sys.stderr)
            return 1
        if args.cache_command == "stats":
            stats = store.persistent_stats()
            print(f"store:   {stats['path']}")
            print(f"entries: {stats['total_entries']}")
            for ns, count in sorted(stats["entries"].items()):
                print(f"  {ns}: {count}")
            print(f"size:    {stats['bytes']} bytes")
            return 0
        if args.cache_command == "prune":
            removed = store.prune_persistent(args.max_entries)
            kept = store.persistent_stats()["total_entries"]
            print(f"pruned {removed} entries from {args.cache_dir} "
                  f"({kept} kept)")
            return 0
        assert args.cache_command == "clear"
        removed = store.clear_persistent()
        print(f"cleared {removed} entries from {args.cache_dir}")
        return 0
    finally:
        store.close()


def _cmd_gen(args: argparse.Namespace) -> int:
    import dataclasses

    from .gen import GenConfig, generate_batch, write_corpus

    config = GenConfig()
    overrides: dict[str, object] = {}
    if args.hierarchy_depth is not None:
        overrides["hierarchy_depth"] = args.hierarchy_depth
    if args.max_ops is not None:
        lo = min(config.ops_per_dfg[0], args.max_ops)
        overrides["ops_per_dfg"] = (lo, args.max_ops)
    if args.max_variants is not None:
        lo = min(config.variants_per_behavior[0], args.max_variants)
        overrides["variants_per_behavior"] = (lo, args.max_variants)
    if args.stimulus is not None:
        overrides["stimulus"] = args.stimulus
    if args.samples is not None:
        overrides["n_samples"] = args.samples
    if overrides:
        config = dataclasses.replace(config, **overrides)

    generated = generate_batch(args.seed, args.count, config)
    if args.out_dir is not None:
        manifest = write_corpus(args.out_dir, generated)
        total_ops = sum(g.design.total_operations() for g in generated)
        print(f"wrote {len(generated)} designs ({total_ops} operations) "
              f"to {args.out_dir}")
        print(f"manifest: {manifest}")
        return 0
    for gen in generated:
        sys.stdout.write(gen.text)
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from .service.server import ServiceConfig, run_service

    config = ServiceConfig(
        host=args.host,
        port=args.port,
        workers=args.workers,
        cache_dir=str(args.cache_dir),
        use_processes=not args.threads,
        prune_jobs=args.prune_jobs,
        prune_store=args.prune_store,
    )
    return run_service(config)


def _print_job_status(status: dict) -> None:
    print(f"job {status['job_id']}: {status['state']}"
          f"{' (served from store)' if status['served_from_store'] else ''}"
          f" — {status['clients']} client(s)")
    if status.get("error"):
        print(f"error: {status['error']}")
    summary = status.get("summary")
    if summary:
        print(f"area:   {summary['area']:.1f}")
        print(f"power:  {summary['power']:.4f}")
        print(f"supply: {summary['vdd']:.2f} V")
        print(f"clock:  {summary['clk_ns']:.2f} ns")
    for event in status.get("progress", []):
        fields = {k: v for k, v in event.items() if k not in ("k", "ts")}
        detail = ", ".join(f"{k}={v}" for k, v in sorted(fields.items()))
        print(f"  {event['k']}{': ' + detail if detail else ''}")


def _cmd_submit(args: argparse.Namespace) -> int:
    from .service import JobRequest, ServiceClient

    request = JobRequest(
        design_text=args.design.read_text() if args.design else None,
        benchmark=args.benchmark,
        gen_seed=args.gen_seed,
        objective=args.objective,
        laxity_factor=args.laxity,
        sampling_ns=args.sampling_ns,
        traces=args.traces,
        samples=args.samples,
        seed=args.seed,
        effort=args.effort,
        flatten=args.flatten,
        verify=args.verify,
        trace=args.trace,
        policy=args.policy,
        priors=args.priors,
    )
    client = ServiceClient(args.url)
    receipt = client.submit(request)
    how = (
        "coalesced onto a running job" if receipt["coalesced"]
        else "served from store" if receipt["served_from_store"]
        else "dispatched"
    )
    print(f"job {receipt['job_id']}: {receipt['state']} ({how})")
    if args.wait:
        final = client.wait(receipt["job_id"], timeout_s=args.timeout)
        _print_job_status(final)
        return 1 if final["state"] == "failed" else 0
    return 0


def _cmd_status(args: argparse.Namespace) -> int:
    from .service import ServiceClient

    client = ServiceClient(args.url)
    if args.job_id is None:
        stats = client.stats()
        print(f"workers: {stats['workers']}")
        print("counters:")
        for key, value in sorted(stats["counters"].items()):
            print(f"  {key}: {value}")
        queue = stats["queue"]
        print(f"queue:   depth {queue['depth']} "
              f"(queued {queue['queued']}, running {queue['running']}, "
              f"done {queue['done']}, failed {queue['failed']})")
        store = stats["store"]
        if store:
            print(f"store:   {store.get('total_entries', 0)} entries, "
                  f"{store.get('bytes', 0)} bytes")
        return 0
    status = client.status(args.job_id)
    _print_job_status(status)
    if args.result is not None:
        import json as _json

        result = client.result(args.job_id)["result"]
        args.result.write_text(_json.dumps(result, indent=2, sort_keys=True)
                               + "\n")
        print(f"result written to {args.result}")
    if args.trace is not None:
        args.trace.write_text(client.trace(args.job_id))
        print(f"trace written to {args.trace}")
    return 1 if status["state"] == "failed" else 0


def _cmd_hierarchize(args: argparse.Namespace) -> int:
    from .dfg import hierarchize, write_design

    design = _load_design(args.design)
    flat = flatten(design)
    derived = hierarchize(
        flat,
        max_cluster_size=args.max_cluster,
        min_cluster_size=args.min_cluster,
    )
    validate_design(derived)
    hier_nodes = derived.top.hier_nodes()
    behaviors = {n.behavior for n in hier_nodes}
    print(
        f"derived {len(hier_nodes)} hierarchical nodes over "
        f"{len(behaviors)} behaviors from {len(flat.op_nodes())} operations"
    )
    text = write_design(derived)
    if args.output:
        args.output.write_text(text + "\n")
        print(f"written to {args.output}")
    else:
        print(text)
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "info":
            return _cmd_info(args)
        if args.command == "synth":
            return _cmd_synth(args)
        if args.command == "tables":
            return _cmd_tables(args)
        if args.command == "cache":
            return _cmd_cache(args)
        if args.command == "gen":
            return _cmd_gen(args)
        if args.command == "serve":
            return _cmd_serve(args)
        if args.command == "submit":
            return _cmd_submit(args)
        if args.command == "status":
            return _cmd_status(args)
        if args.command == "hierarchize":
            return _cmd_hierarchize(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    raise AssertionError("unreachable")  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
