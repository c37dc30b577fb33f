"""Generative differential fuzzer: seeded designs through full synthesis.

Draws round seeds from a base seed, and for each one runs the
differential oracle in :mod:`repro.gen.fuzz`: generate a random
hierarchical design, synthesize it end-to-end, verify the winning RTL
against the behavioral simulation, re-synthesize with the batched
activity kernel disabled (must be bit-identical), and — on a stride of
rounds — run cold-then-warm against one persistent synthesis store
(also bit-identical).  Any divergence is a synthesis bug::

    PYTHONPATH=src python benchmarks/fuzz_designs.py --count 200 --seed 0

Each round is a pure function of its round seed, so a failure report's
``seed N`` replays in isolation::

    PYTHONPATH=src python benchmarks/fuzz_designs.py --replay N

Failing designs are shrunk to minimal reproducers and written under
``--artifacts`` (default ``fuzz-artifacts/``)::

    fuzz-artifacts/seed-N/original.dfg   # as generated
    fuzz-artifacts/seed-N/shrunk.dfg     # minimized, still failing
    fuzz-artifacts/seed-N/report.txt     # failure details + replay command

The nightly CI job runs a 1000-round batch (see
``.github/workflows/nightly.yml``); the PR-gating tier runs a small
fixed-seed slice (``tests/integration/test_gen_fuzz.py``).
"""

from __future__ import annotations

import argparse
import random
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

from repro.dfg import write_design
from repro.gen import GenConfig, generate_design
from repro.gen.fuzz import (
    DEFAULT_LAXITY,
    FuzzOutcome,
    check_seed,
    shrink_failing_seed,
)


def _run_round(task: tuple[int, float, bool]) -> FuzzOutcome:
    seed, laxity, store_check = task
    return check_seed(seed, laxity=laxity, store_check=store_check)


def _write_artifacts(
    outcome: FuzzOutcome, laxity: float, store_check: bool, artifacts: Path
) -> Path:
    """Shrink the failing seed and persist a replayable reproducer."""
    out = artifacts / f"seed-{outcome.seed}"
    out.mkdir(parents=True, exist_ok=True)
    gen = generate_design(outcome.seed, GenConfig())
    (out / "original.dfg").write_text(gen.text)
    shrunk = shrink_failing_seed(
        outcome.seed, laxity=laxity, store_check=store_check
    )
    (out / "shrunk.dfg").write_text(write_design(shrunk) + "\n")
    replay = (
        f"PYTHONPATH=src python benchmarks/fuzz_designs.py "
        f"--replay {outcome.seed}"
    )
    report = [
        f"seed:      {outcome.seed}",
        f"design:    {outcome.design_name}",
        f"objective: {outcome.objective}",
        f"replay:    {replay}",
        "",
        "failures:",
        *(f"  - {f}" for f in outcome.failures),
        "",
        f"shrunk to {sum(len(d) for d in shrunk.dfgs())} nodes "
        f"across {len(shrunk.dfg_names())} DFGs (shrunk.dfg)",
        "",
    ]
    (out / "report.txt").write_text("\n".join(report))
    return out


def build_parser() -> argparse.ArgumentParser:
    """The command-line interface of this script."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--count", type=int, default=200,
                        help="rounds to run (default: 200)")
    parser.add_argument("--seed", type=int, default=0,
                        help="base RNG seed round seeds derive from")
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes (default: 1 = in-process)")
    parser.add_argument("--laxity", type=float, default=DEFAULT_LAXITY,
                        help=f"laxity factor (default: {DEFAULT_LAXITY})")
    parser.add_argument("--store-stride", type=int, default=8, metavar="N",
                        help="run the cold/warm persistent-store cross-check "
                             "on every Nth round (0 = never; default: 8)")
    parser.add_argument("--artifacts", type=Path, default=Path("fuzz-artifacts"),
                        help="directory for shrunk failing designs")
    parser.add_argument("--replay", type=int, default=None, metavar="SEED",
                        help="replay exactly one round with this round seed "
                             "(as printed in a failure report)")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)

    if args.replay is not None:
        outcome = check_seed(
            args.replay, laxity=args.laxity, store_check=True
        )
        print(f"replayed seed {args.replay} ({outcome.design_name}, "
              f"{outcome.objective}): {outcome.checks} checks, "
              f"{len(outcome.failures)} failures")
        for failure in outcome.failures:
            print(f"FAIL [seed {outcome.seed}] {failure}", file=sys.stderr)
        if not outcome.ok:
            out = _write_artifacts(
                outcome, args.laxity, True, args.artifacts
            )
            print(f"artifacts written to {out}", file=sys.stderr)
        return 1 if outcome.failures else 0

    seeder = random.Random(args.seed)
    tasks = []
    for k in range(args.count):
        round_seed = seeder.randrange(1 << 30)
        store_check = args.store_stride > 0 and k % args.store_stride == 0
        tasks.append((round_seed, args.laxity, store_check))

    started = time.monotonic()
    if args.jobs > 1:
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            outcomes = list(pool.map(_run_round, tasks, chunksize=4))
    else:
        outcomes = [_run_round(task) for task in tasks]
    elapsed = time.monotonic() - started

    failing = [o for o in outcomes if not o.ok]
    total_checks = sum(o.checks for o in outcomes)
    print(f"fuzzed {len(outcomes)} generated designs, {total_checks} "
          f"differential checks, {len(failing)} failing seeds "
          f"({elapsed:.1f} s)")
    for outcome in failing:
        store_check = args.store_stride > 0 and any(
            t[0] == outcome.seed and t[2] for t in tasks
        )
        out = _write_artifacts(
            outcome, args.laxity, store_check, args.artifacts
        )
        for failure in outcome.failures:
            print(f"FAIL [seed {outcome.seed}] {failure}", file=sys.stderr)
        print(f"  artifacts: {out}", file=sys.stderr)
    return 1 if failing else 0


if __name__ == "__main__":
    sys.exit(main())
