"""The ``service-gen`` workload: a generated-design request set against ``repro serve``.

A fresh ``repro serve --workers 2`` (process workers, fresh
``--cache-dir``) takes one request set from a single client process
with two closed-loop threads (each sends its next request only after
the previous one is done).  The set, in order, with a barrier between
phases:

1. K hierarchical generated designs at LF 2.2, power objective — cold;
   they write the persistent store;
2. the same designs at LF 3.0 power, then at LF 2.2 area — new results
   whose library build reads the store back;
3. the whole set again — answered from the store's ``service``
   namespace without a worker.

The server and its workers are always shut down and their directory
removed, also on failure or interrupt.  Host-speed probe samples (see
``calibrate.py``) are taken before each server start and each phase,
outside the timed spans; time metrics are in reference seconds.
"""

from __future__ import annotations

import json
import os
import random
import re
import select
import shutil
import signal
import subprocess
import threading
import time

import calibrate
import common
import metrics as m

K = 8
#: Hierarchical designs only, with a bounded operation count, so one
#: request set stays within a run's time.
OPS_RANGE = (6, 10)
#: The design pool is drawn once, from this seed.  Synthesis time
#: differs up to 5x between generated designs, so a pool drawn from the
#: workload seed moved the request-set wall by 2x between seeds; the
#: workload seed instead orders the pool and seeds every stimulus.
POOL_SEED = 0
SERVER_WORKERS = 2
CLIENT_THREADS = 2
#: Server starts behind ``setup_s`` (the last one serves the request set).
SETUP_STARTS = 3
POLL_S = 0.05
JOB_TIMEOUT_S = 120.0
SETTINGS = ((2.2, "power"), (3.0, "power"), (2.2, "area"))


def pick_designs(seed: int, k: int = K) -> list[int]:
    """``gen_seed``s of the pool of *k* hierarchical generated designs,
    in the order the workload *seed* submits them."""
    from repro.gen import GenConfig, generate_design

    rng = random.Random(f"service-gen/{POOL_SEED}")
    picked: list[int] = []
    while len(picked) < k:
        gen_seed = rng.randrange(1, 1 << 31)
        design = generate_design(gen_seed, GenConfig()).design
        ops = design.total_operations()
        if (any(dfg.hier_nodes() for dfg in design.dfgs())
                and OPS_RANGE[0] <= ops <= OPS_RANGE[1]):
            picked.append(gen_seed)
    random.Random(f"service-gen/order/{seed}").shuffle(picked)
    return picked


def request_phases(seed: int, gen_seeds: list[int]) -> list[list[dict]]:
    def req(gen_seed: int, lf: float, objective: str) -> dict:
        return {"gen_seed": gen_seed, "laxity_factor": lf,
                "objective": objective, "seed": seed}

    cold = [req(g, *SETTINGS[0]) for g in gen_seeds]
    warm = [req(g, *s) for s in SETTINGS[1:] for g in gen_seeds]
    return [cold, warm, cold + warm]


def refuse_stray_server() -> None:
    """Fail if a server this benchmark started earlier is still alive."""
    try:
        pid = int(common.SERVER_PIDFILE.read_text().split()[0])
    except (OSError, ValueError, IndexError):
        return
    try:
        cmdline = open(f"/proc/{pid}/cmdline", "rb").read()
    except OSError:
        cmdline = b""
    if b"repro" in cmdline and b"serve" in cmdline:
        raise common.BenchError(
            f"a server this benchmark launched (pid {pid}) is still "
            f"alive; stop it before benchmarking")
    common.SERVER_PIDFILE.unlink()


class Server:
    """One ``repro serve`` process with its own state directory."""

    def __init__(self, tag: str):
        self.dir = common.STATE / f"serve-{tag}"
        self.proc: subprocess.Popen | None = None
        self.url = ""

    def start(self) -> float:
        """Spawn; returns seconds from spawn to the first ``/healthz`` 200."""
        from repro.errors import ServiceError
        from repro.service import ServiceClient

        refuse_stray_server()
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        t0 = time.perf_counter()
        with open(self.dir / "stderr", "wb") as stderr:
            self.proc = subprocess.Popen(
                common.python_argv(
                    "-m", "repro", "serve", "--port", "0",
                    "--workers", str(SERVER_WORKERS),
                    "--cache-dir", str(self.dir / "cache"),
                ),
                stdout=subprocess.PIPE, stderr=stderr,
                stdin=subprocess.DEVNULL, env=common.child_env(),
                cwd=common.ROOT, start_new_session=True,
            )
        common.SERVER_PIDFILE.write_text(f"{self.proc.pid}\n")
        deadline = t0 + 60.0
        line = b""
        while b"\n" not in line:
            left = deadline - time.perf_counter()
            ready, _, _ = select.select([self.proc.stdout], [], [], max(0.0, left))
            chunk = os.read(self.proc.stdout.fileno(), 4096) if ready else b""
            if not chunk:
                raise common.BenchError(
                    f"server did not announce its port: "
                    f"{(self.dir / 'stderr').read_text()[-300:]}")
            line += chunk
        match = re.search(rb"http://[\w.]+:\d+", line)
        if match is None:
            raise common.BenchError(f"unexpected server banner {line!r}")
        self.url = match.group(0).decode()
        client = ServiceClient(self.url, timeout_s=5.0)
        while True:
            try:
                client.health()
                return time.perf_counter() - t0
            except ServiceError:
                if time.perf_counter() > deadline:
                    raise
                time.sleep(0.005)

    def stop(self) -> float:
        """Graceful stop (SIGTERM), else kill the session; returns peak RSS MB.

        ``wait4`` reports the largest RSS of the server and of the
        worker processes it reaped.
        """
        maxrss = 0.0
        proc = self.proc
        if proc is not None:
            timer = threading.Timer(30.0, lambda: _kill_session(proc.pid))
            timer.start()
            try:
                _signal(proc.pid, signal.SIGTERM)
                _, status, usage = os.wait4(proc.pid, 0)
                proc.returncode = os.waitstatus_to_exitcode(status)
                maxrss = usage.ru_maxrss / 1024.0
            except ChildProcessError:
                pass
            finally:
                timer.cancel()
                # Anything left in the session (a wedged pool worker).
                _kill_session(proc.pid)
                proc.stdout.close()
            self.proc = None
        common.SERVER_PIDFILE.unlink(missing_ok=True)
        shutil.rmtree(self.dir, ignore_errors=True)
        return maxrss


def _signal(pid: int, sig: int) -> None:
    try:
        os.kill(pid, sig)
    except ProcessLookupError:
        pass


def _kill_session(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def _one_job(client, request: dict) -> dict:
    """Submit, poll until done, fetch the result; times every step."""
    from repro.errors import ServiceError

    row: dict = {"request": request}
    t0 = time.perf_counter()
    try:
        receipt = client.submit(request)
        row["submit_s"] = time.perf_counter() - t0
        row["served_from_store"] = receipt["served_from_store"]
        row["coalesced"] = receipt["coalesced"]
        state = receipt["state"]
        status = None
        while state not in ("done", "failed"):
            if time.perf_counter() - t0 > JOB_TIMEOUT_S:
                row["error"] = f"timed out in state {state}"
                return row
            time.sleep(POLL_S)
            status = client.status(receipt["job_id"])
            state = status["state"]
        row["latency_s"] = time.perf_counter() - t0
        if state == "failed":
            row["error"] = f"job failed: {status and status.get('error')}"
            return row
        if status is None:
            status = client.status(receipt["job_id"])
        events = {e["k"]: e for e in status.get("progress", [])}
        if "job_start" in events and "job_end" in events:
            row["worker_s"] = events["job_end"]["ts"] - events["job_start"]["ts"]
        if "library_built" in events:
            row["library_s"] = events["library_built"]["elapsed_s"]
        t1 = time.perf_counter()
        row["result"] = client.result(receipt["job_id"])["result"]
        row["result_s"] = time.perf_counter() - t1
    except ServiceError as exc:
        row["error"] = str(exc)
    return row


def run_phase(url: str, requests: list[dict]) -> list[dict]:
    """Closed loop: each client thread sends its next request when done."""
    from repro.service import ServiceClient

    rows: list[dict | None] = [None] * len(requests)
    lock = threading.Lock()
    pending = iter(range(len(requests)))

    def loop() -> None:
        client = ServiceClient(url, timeout_s=30.0)
        while True:
            with lock:
                i = next(pending, None)
            if i is None:
                return
            rows[i] = _one_job(client, requests[i])

    threads = [threading.Thread(target=loop, daemon=True)
               for _ in range(CLIENT_THREADS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return rows  # type: ignore[return-value]


def ref_key(request: dict) -> str:
    return (f"service/{request['gen_seed']}/{request['laxity_factor']}/"
            f"{request['objective']}/{request['seed']}")


def run(seed: int, seconds: float, trace: bool, k: int = K) -> dict:
    from repro.service import ServiceClient

    refs = common.References()
    failures: list[str] = []
    gen_seeds = pick_designs(seed, k)
    cold, warm, repeats = request_phases(seed, gen_seeds)

    setup = []
    probes = []
    for i in range(SETUP_STARTS - 1):
        server = Server(f"setup{i}")
        try:
            probes.append(calibrate.probe(SERVER_WORKERS))
            setup.append(server.start())
        finally:
            server.stop()

    server = Server("main")
    try:
        probes.append(calibrate.probe(SERVER_WORKERS))
        setup.append(server.start())
        phase_rows = []
        set_wall = 0.0
        for phase in (cold, warm, repeats):
            probes.append(calibrate.probe(SERVER_WORKERS))
            t0 = time.perf_counter()
            phase_rows.append(run_phase(server.url, phase))
            set_wall += time.perf_counter() - t0
        probes.append(calibrate.probe(SERVER_WORKERS))
        worker_rows = phase_rows[0] + phase_rows[1]
        repeat_rows = phase_rows[2]
        stats = ServiceClient(server.url).stats()
    finally:
        peak_rss = server.stop()

    for row in worker_rows:
        req = row["request"]
        if row.get("error"):
            failures.append(f"{ref_key(req)}: {row['error']}")
        elif row["served_from_store"] or row["coalesced"]:
            failures.append(f"{ref_key(req)}: cold request did not run on a worker")
            row["error"] = "not cold"
    for cold_row, row in zip(worker_rows, repeat_rows):
        req = row["request"]
        if row.get("error"):
            failures.append(f"{ref_key(req)} (repeat): {row['error']}")
        elif not row["served_from_store"]:
            failures.append(f"{ref_key(req)} (repeat): not served from the store")
        elif "result" in cold_row and (
                json.dumps(row["result"], sort_keys=True)
                != json.dumps(cold_row["result"], sort_keys=True)):
            failures.append(f"{ref_key(req)} (repeat): result differs from cold run")

    done = [r for r in worker_rows if not r.get("error")]
    per_layer = None
    if trace:
        per_layer, span_names = run_traced(
            seed, cold + warm, worker_rows, refs, failures)
    for row in done:
        values = {"power": row["result"]["power"], "area": row["result"]["area"]}
        problem = refs.check(ref_key(row["request"]), values, "timed")
        if problem:
            failures.append(problem)
    refs.save()

    # Every time metric in reference seconds (see calibrate.py).
    speed = calibrate.factor(probes)
    latencies = [r["latency_s"] * speed for r in done]
    attempted = len(worker_rows) + len(repeat_rows) + (len(worker_rows) if trace else 0)
    completed = sum(1 for r in worker_rows + repeat_rows if not r.get("error"))
    lat_tail, tail_pct, n_lat = common.tail(latencies) if latencies else (0.0, 0.0, 0)
    e2e = {
        "wall_s": set_wall * speed,
        "wall_geomean_s": common.geomean(latencies) if latencies else 0.0,
        "power_geomean": (common.geomean([r["result"]["power"] for r in done])
                          if done else 0.0),
        "peak_rss_mb": peak_rss,
        "setup_s": common.median(setup) * speed,
        "job_latency_p50_s": common.center(latencies) if latencies else 0.0,
        "job_latency_tail_s": lat_tail,
        "jobs_per_s": completed / (set_wall * speed),
    }
    result = {
        "attempted": attempted,
        "failures": failures,
        "end_to_end": e2e,
        "tail": {"percentile": tail_pct, "samples": n_lat},
        "setup_walls": setup,
        "probes": probes,
        "speed_factor": speed,
        "gen_seeds": gen_seeds,
        "report": report_rows(worker_rows, repeat_rows, stats) + [
            f"host speed: {speed:.3f} x measured wall = reference seconds "
            f"(mean of {len(probes)} probe samples)"],
    }
    if per_layer is not None:
        per_layer.update(service_metrics(worker_rows, repeat_rows, stats))
        per_layer["failed_ratio"] = len(failures) / attempted
        result["per_layer"] = per_layer
        result["span_names"] = span_names
    return result


def service_metrics(worker_rows: list[dict], repeat_rows: list[dict],
                    stats: dict) -> dict[str, float]:
    def med(rows: list[dict], key: str) -> float:
        values = [r[key] for r in rows if key in r and not r.get("error")]
        return common.median(values) if values else 0.0

    done = [r for r in worker_rows if not r.get("error") and "worker_s" in r]
    counters = stats["counters"]
    return {
        "service.submit_s": med(worker_rows + repeat_rows, "submit_s"),
        "service.result_s": med(worker_rows + repeat_rows, "result_s"),
        "service.hit_s": med(repeat_rows, "latency_s"),
        "service.worker_s": med(worker_rows, "worker_s"),
        "service.library_s": med(worker_rows, "library_s"),
        "service.dispatch_s": (common.median(
            [r["latency_s"] - r["worker_s"] for r in done]) if done else 0.0),
        "service.store_hits": counters["store_hits"],
        "service.synth_runs": counters["synth_runs"],
        "service.rejected": counters["rejected"],
    }


def run_traced(seed: int, requests: list[dict], worker_rows: list[dict],
               refs: common.References, failures: list[str]
               ) -> tuple[dict, list[str]]:
    """Traced mirror of the worker jobs, in order, on one fresh store.

    Returns the per-layer metrics and the names of the spans recorded.
    """
    cache_dir = common.STATE / "traced-service-cache"
    shutil.rmtree(cache_dir, ignore_errors=True)
    try:
        out = common.traced_child(
            {"kind": "service", "jobs": requests, "cache_dir": str(cache_dir)},
            "service")
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
    if out.get("error"):
        failures.append(f"traced service jobs: {out['error']}")
        layer = {name: 0 for name in m.PER_LAYER}
        layer["trace.wall_s"] = out["wall_s"]
        return layer, []
    if out["nesting_violations"]:
        failures.append(f"{out['nesting_violations']} traced spans lie "
                        "outside their parent span")
    for req, row, res in zip(requests, worker_rows, out["results"]):
        values = {"power": res["power"], "area": res["area"]}
        if "result" in row:
            timed = {"power": row["result"]["power"], "area": row["result"]["area"]}
            if timed != values:
                failures.append(f"{ref_key(req)}: server result {timed}, "
                                f"traced run {values}")
        problem = refs.check(ref_key(req), values, "traced")
        if problem:
            failures.append(problem)
    layer = m.layer_metrics(out["aggregate"], out["library_modules"])
    layer.update(m.telemetry_metrics(out["telemetry"]))
    layer.update(common.measure_imports())
    untraced = sum(r.get("worker_s", 0.0) for r in worker_rows)
    job_s = out["aggregate"].get("service.job", {}).get("inclusive_s", 0.0)
    layer.update({
        "verify.failures": out["verify_failures"],
        "trace.wall_s": out["wall_s"],
        "trace.overhead_s": job_s - untraced,
        "trace.unaccounted_s": m.trace_times(
            out["aggregate"], out["wall_s"])["trace.unaccounted_s"],
        "trace.spans": out["spans"],
    })
    return layer, sorted(out["aggregate"])


def report_rows(worker_rows: list[dict], repeat_rows: list[dict],
                stats: dict) -> list[str]:
    lines = [f"{'gen_seed':>11} {'lf':>4} {'objective':<9}{'latency s':>10}"
             f"{'worker s':>9}{'repeat s':>9}{'power':>9}{'area':>9}"]
    for row, rep in zip(worker_rows, repeat_rows):
        req = row["request"]
        res = row.get("result") or {}
        lines.append(
            f"{req['gen_seed']:>11} {req['laxity_factor']:>4} "
            f"{req['objective']:<9}{row.get('latency_s', float('nan')):>10.3f}"
            f"{row.get('worker_s', float('nan')):>9.3f}"
            f"{rep.get('latency_s', float('nan')):>9.3f}"
            f"{res.get('power', float('nan')):>9.4f}"
            f"{res.get('area', float('nan')):>9.1f}")
    lines.append(f"server counters: {json.dumps(stats['counters'], sort_keys=True)}")
    return lines
