"""Shared pieces of the benchmark: paths, child processes, statistics.

Everything the benchmark writes goes under ``perfbench/_state/`` of the
checkout it runs in.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import metrics
import tracer as tr

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
STATE = BENCH_DIR / "_state"
#: Server pid written while a benchmark-launched server runs.
SERVER_PIDFILE = STATE / "server.pid"

# The benchmark process itself uses the program's client and generator.
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

#: Longest any single child may run before it is killed and counted failed.
CHILD_TIMEOUT_S = 150.0


class BenchError(RuntimeError):
    """The benchmark cannot run here (no program, stray server, ...)."""


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("PYTHONSTARTUP", None)
    return env


def check_program() -> None:
    """Refuse to run without the program's sources next to the benchmark."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"no program sources under {SRC}")


@dataclass
class ChildRun:
    """Outcome of one child process, measured from spawn to reap."""

    returncode: int
    wall_s: float
    cpu_s: float
    maxrss_mb: float
    stdout: str
    stderr: str
    timed_out: bool


def run_child(argv: list[str], timeout_s: float = CHILD_TIMEOUT_S) -> ChildRun:
    """Spawn *argv* with the program on ``PYTHONPATH`` and reap it.

    The child is reaped with ``wait4`` so its own peak RSS and CPU time
    come back with it; output goes to files so no pipe can fill up.
    """
    STATE.mkdir(parents=True, exist_ok=True)
    out_path = STATE / f"child-{os.getpid()}.out"
    err_path = STATE / f"child-{os.getpid()}.err"
    try:
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(
                argv, stdout=out, stderr=err, stdin=subprocess.DEVNULL,
                env=child_env(), cwd=ROOT,
            )
            timed_out = threading.Event()

            def _kill() -> None:
                timed_out.set()
                proc.kill()

            timer = threading.Timer(timeout_s, _kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return ChildRun(
            returncode=proc.returncode,
            wall_s=wall,
            cpu_s=usage.ru_utime + usage.ru_stime,
            maxrss_mb=usage.ru_maxrss / 1024.0,
            stdout=out_path.read_text(errors="replace"),
            stderr=err_path.read_text(errors="replace"),
            timed_out=timed_out.is_set(),
        )
    finally:
        out_path.unlink(missing_ok=True)
        err_path.unlink(missing_ok=True)


def python_argv(*args: str) -> list[str]:
    return [sys.executable, *args]


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def median(values: list[float]) -> float:
    return float(statistics.median(values))


def geomean(values: list[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def center(values: list[float]) -> float:
    """Median; with ten samples or fewer, the interquartile mean.

    The median of the six Table-3 designs rests on the two middle
    designs alone and moved by a fifth between workload seeds; the mean
    of the middle half rests on four.
    """
    data = sorted(values)
    n = len(data)
    if n > 10:
        return median(data)
    middle = data[n // 4:n - n // 4]
    return sum(middle) / len(middle)


def tail(values: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least ten samples beyond it.

    Returns ``(value, percentile, n)``.  With ten samples or fewer no
    percentile qualifies; the mean of the slower half is returned as
    percentile 50 instead.  (The maximum alone is one design's wall,
    which moved by half between workload seeds on the Table-3 suites.)
    """
    data = sorted(values)
    n = len(data)
    if n <= 10:
        upper = data[n // 2:]
        return sum(upper) / len(upper), 50.0, n
    return data[n - 11], 100.0 * (n - 10) / n, n


# ----------------------------------------------------------------------
# Provenance and state
# ----------------------------------------------------------------------
def source_digest() -> str:
    """Content hash of the program sources (the checkout has no git)."""
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def code_version() -> str:
    """Program sources plus the Python and numpy that run them."""
    import numpy

    return f"{source_digest()}/py{platform.python_version()}/np{numpy.__version__}"


def git_commit() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def provenance(seed: int) -> dict:
    import numpy

    return {
        "seed": seed,
        "git_commit": git_commit(),
        "source_digest": source_digest(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "loadavg_before": list(os.getloadavg()),
    }


class References:
    """Per-(design, setting, seed) outputs of one code version, kept across runs.

    A traced run records its verified outputs; later runs of the same
    key must print the same values.  A timed run with no reference yet
    records its own outputs, so a later run of that key still checks
    that the program is deterministic across processes.

    The store is bound to :func:`code_version`: references recorded by
    other sources or other Python/numpy versions are dropped on load, so
    a change that rightly moves a design's outputs starts afresh.
    """

    def __init__(self) -> None:
        self.path = STATE / "references.json"
        self.version = code_version()
        try:
            stored = json.loads(self.path.read_text())
        except (OSError, json.JSONDecodeError):
            stored = {}
        same = stored.get("version") == self.version
        self.data: dict = stored.get("refs", {}) if same else {}

    def check(self, key: str, values: dict, source: str) -> str | None:
        """Compare with the stored reference; returns a mismatch message."""
        ref = self.data.get(key)
        if ref is not None:
            for name, value in values.items():
                if ref.get(name) != value:
                    return (f"{key}: {name} {value!r} differs from the "
                            f"{ref['source']} reference {ref.get(name)!r}")
        if ref is None or source == "traced":
            self.data[key] = {"source": source, **values}
        return None

    def get(self, key: str) -> dict | None:
        return self.data.get(key)

    def save(self) -> None:
        STATE.mkdir(parents=True, exist_ok=True)
        tmp = self.path.with_suffix(".tmp")
        tmp.write_text(json.dumps({"version": self.version, "refs": self.data},
                                  sort_keys=True, indent=1))
        tmp.replace(self.path)


def install_signal_exit() -> None:
    """Turn SIGTERM into SystemExit so ``finally`` blocks clean up."""

    def _exit(signum, _frame):
        raise SystemExit(128 + signum)

    signal.signal(signal.SIGTERM, _exit)


def measure_imports() -> dict[str, float]:
    """``-X importtime`` profile of a fresh ``import repro.cli``."""
    run = run_child(python_argv("-X", "importtime", "-c", "import repro.cli"))
    return metrics.import_profile(run.stderr)


def traced_child(spec: dict, tag: str) -> dict:
    """Run ``traced_child.py`` on *spec*; returns its output plus wall."""
    STATE.mkdir(parents=True, exist_ok=True)
    spec_path = STATE / f"traced-{tag}.spec.json"
    out_path = STATE / f"traced-{tag}.json"
    spec_path.write_text(json.dumps(spec))
    child = run_child(python_argv(
        str(BENCH_DIR / "traced_child.py"), str(spec_path), str(out_path)))
    spec_path.unlink()
    if child.returncode != 0 or not out_path.is_file():
        return {"wall_s": child.wall_s,
                "error": f"exit {child.returncode}: {child.stderr.strip()[-300:]}"}
    out = json.loads(out_path.read_text())
    out_path.unlink()
    arrays, names = tr.load(out["spans_path"])
    out["aggregate"] = tr.aggregate(arrays, names)
    out["nesting_violations"] = tr.nesting_violations(arrays)
    out["wall_s"] = child.wall_s
    return out
