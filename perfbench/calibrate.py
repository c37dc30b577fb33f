"""Host-speed probe: a fixed piece of pure-Python work, timed.

The benchmark runs on a few cores of a shared host whose speed drifts
by a third and more over minutes as neighbours come and go.  CPU time
drifts with wall (the slowdown is in how fast the core executes, not in
waiting for it), so CPU time is no escape.  The probe does work of the
same kind as synthesis (small objects, dicts keyed by tuples, sets,
attribute access and function calls, small numpy arrays) in the
benchmark's own interpreter and never changes with the program, so its
time tells how fast the host runs at the moment.

A run takes probe samples between its timed steps (never during one)
and reports every time metric as its measured wall times
``REFERENCE_S / mean(samples)``: seconds at the reference host speed.
The host's bursts last seconds and its drift minutes, so one run-wide
factor from many samples follows the drift without adding the noise of
a single sample.  The mean, not the median, because a run's walls add
up the slow stretches as well.  On a 2-core Xeon VM, 16 passes of the
hierarchical Table-3 suite over ten minutes spread 0.233 (interquartile
range over median) in wall and 0.02 to 0.06 in reference seconds,
depending on the probe's length; the least-squares slope of log wall on
log probe was 0.84 to 0.88.  A workload that keeps both cores busy is
probed on both (``probe(parallel=2)``).  The raw walls and the samples
stay in the saved result set.
"""

from __future__ import annotations

import gc
import os
import statistics
import subprocess
import sys
import time

import numpy as np

#: Probe sample on an idle 2-core Xeon VM: the reference speed.
REFERENCE_S = 0.05
#: Repetitions per sample; a sample is their median.
REPS = 3
#: Units of work per repetition (about REFERENCE_S on the reference host).
ROUNDS = 14


class _Node:
    __slots__ = ("key", "weight", "succ")

    def __init__(self, key: int, weight: int) -> None:
        self.key = key
        self.weight = weight
        self.succ: list[int] = []


def _work() -> int:
    """One fixed unit of work; returns a checksum so nothing is skipped.

    Successors are indices, not references, so the work makes no
    reference cycles and leaves nothing for the cyclic collector.
    """
    nodes = [_Node(i, (i * 7919) % 101) for i in range(1500)]
    for i, node in enumerate(nodes):
        node.succ = [(i * 31 + j * 17) % 1500 for j in range(4)]
    best: dict[tuple[int, int], int] = {}
    for node in nodes:
        for j in node.succ:
            nxt = nodes[j]
            key = (node.key % 97, nxt.key % 89)
            best[key] = max(best.get(key, 0), node.weight + nxt.weight)
    seen: set[int] = set()
    for node in nodes:
        if node.weight & 1:
            seen.update(node.succ)
    acc = sum(best.values()) + len(seen)
    arr = np.arange(256, dtype=np.int64)
    for k in range(60):
        acc += int(((arr * (k + 3)) ^ (arr >> 2)).sum() & 0xFFFF)
    return acc


def probe(parallel: int = 1) -> float:
    """One sample, in seconds.

    With *parallel* > 1 that many probe processes run at once, one per
    core the workload keeps busy, and their mean is the sample.  On the
    2-core VM each of two busy cores ran the probe at about half the
    speed of one busy core, so a probe on one core does not tell how fast
    a workload that keeps both busy runs.
    """
    if parallel == 1:
        return _sample()
    children = [
        subprocess.Popen([sys.executable, os.path.abspath(__file__)],
                         stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                         text=True)
        for _ in range(parallel)
    ]
    try:
        for child in children:
            if child.stdout.readline().strip() != "ready":
                raise RuntimeError("host-speed probe process failed to start")
        for child in children:  # start together
            child.stdin.write("go\n")
            child.stdin.flush()
        return statistics.mean(float(child.stdout.readline())
                               for child in children)
    finally:
        for child in children:
            child.kill()
            child.wait()
            child.stdin.close()
            child.stdout.close()


def _sample() -> float:
    """Median wall of :data:`REPS` repetitions, in seconds.

    An untimed unit first brings the caches back after the benchmark
    process has waited on a child.  The cyclic collector is off while
    timing: its passes walk the whole heap of the calling process, which
    would make the sample depend on what the benchmark holds.
    """
    _work()
    walls = []
    enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(REPS):
            t0 = time.perf_counter()
            for _ in range(ROUNDS):
                _work()
            walls.append(time.perf_counter() - t0)
    finally:
        if enabled:
            gc.enable()
    return statistics.median(walls)


def factor(samples: list[float]) -> float:
    """Multiplier taking walls measured among *samples* to reference seconds."""
    return REFERENCE_S / statistics.mean(samples)


if __name__ == "__main__":
    # One probe process of ``probe(parallel)``: ready, wait for go, sample.
    print("ready", flush=True)
    sys.stdin.readline()
    print(_sample(), flush=True)
