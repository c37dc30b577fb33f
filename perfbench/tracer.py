"""In-memory span recorder that wraps the program's layer entry points.

Tracing lives entirely in the benchmark: :func:`install` replaces each
layer's public entry point with a timing wrapper in every loaded
``repro`` module that binds it (module globals, module-level dispatch
dicts and class attributes), so no file under ``src/`` changes.  Each
span records its layer name, start, end, parent span and run id; spans
stay in flat arrays until :meth:`Tracer.save` writes them out.

Self time of a span is its duration minus the durations of its direct
children.  Every span is attributed to a top-level phase: ``library``
when it runs inside the complex-module library build, ``search`` when
it runs inside a top-level ``synthesize`` call, ``other`` otherwise.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from typing import Any, Callable

import numpy as np

#: (layer, module, attribute) for every traced entry point.  A dotted
#: attribute names a method (``Class.method``).
LAYERS: tuple[tuple[str, str, str], ...] = (
    ("library_gen", "repro.synthesis.library_gen", "build_complex_library"),
    ("synthesis.synthesize", "repro.synthesis.api", "synthesize"),
    ("synthesis.synthesize", "repro.synthesis.api", "synthesize_flat"),
    ("synthesis.initial", "repro.synthesis.initial", "initial_solution"),
    ("synthesis.improve", "repro.synthesis.improve", "improve_solution"),
    ("synthesis.resynth", "repro.synthesis.improve", "resynthesize_module"),
    ("synthesis.moves.discover", "repro.synthesis.moves", "type_a_b_candidates"),
    ("synthesis.moves.discover", "repro.synthesis.moves", "sharing_candidates"),
    ("synthesis.moves.discover", "repro.synthesis.moves", "splitting_candidates"),
    ("synthesis.moves.prune", "repro.synthesis.moves", "prune_candidates"),
    ("synthesis.costs", "repro.synthesis.costs", "EvaluationContext.evaluate"),
    ("synthesis.costs", "repro.synthesis.costs", "EvaluationContext.evaluate_batch"),
    ("synthesis.costs", "repro.synthesis.costs", "EvaluationContext.prime"),
    ("synthesis.incremental.plan", "repro.synthesis.incremental", "plan_evaluation"),
    ("synthesis.incremental.finish", "repro.synthesis.incremental", "finish_evaluation"),
    ("synthesis.store", "repro.synthesis.store", "SynthesisStore.get"),
    ("synthesis.store", "repro.synthesis.store", "SynthesisStore.fetch"),
    ("synthesis.store", "repro.synthesis.store", "SynthesisStore.put"),
    ("synthesis.store", "repro.synthesis.store", "SynthesisStore.load"),
    ("synthesis.store", "repro.synthesis.store", "SynthesisStore.contains"),
    ("synthesis.store", "repro.synthesis.store", "SynthesisStore.replace"),
    ("power.simulate", "repro.power.simulate", "simulate_design"),
    ("power.simulate", "repro.power.simulate", "simulate_dfg"),
    ("power.simulate", "repro.power.simulate", "simulate_subgraph"),
    ("power.activity", "repro.power.activity", "batch_activities"),
    ("power.activity", "repro.power.activity", "stream_activity"),
    ("power.activity", "repro.power.activity", "interleaved_activity"),
    ("power.activity", "repro.power.activity", "operand_activity"),
    ("scheduling", "repro.scheduling.scheduler", "schedule_tasks"),
    ("rtl.netlist", "repro.synthesis.datapath_build", "build_netlist"),
    ("rtl.embed", "repro.rtl.embedding", "embed_netlists"),
    ("rtl.emit", "repro.rtl.emit", "emit_netlist"),
    ("verify", "repro.verify.oracle", "verify_solution"),
    ("service.job", "repro.service.worker", "run_job"),
)

#: Spans that open a top-level phase (see :func:`phases`).
PHASE_OF = {"library_gen": "library", "synthesis.synthesize": "search"}
PHASES = ("library", "search", "other")


class Tracer:
    """Flat, append-only span store plus the wrapper factory."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_id: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.run = array("i")
        self.run_id = 0
        self._stack: list[int] = []

    def _intern(self, name: str) -> int:
        nid = self._name_id.get(name)
        if nid is None:
            nid = self._name_id[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, name: str) -> int:
        idx = len(self.start)
        self.name.append(self._intern(name))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.run.append(self.run_id)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def span(self, name: str) -> "_Span":
        return _Span(self, name)

    def wrap(
        self,
        name: str,
        fn: Callable,
        on_result: Callable[[Any], None] | None = None,
    ) -> Callable:
        nid = self._intern(name)
        # open()/close() inlined over local names: the wrapper runs on
        # every call of hot entry points (tens of thousands per design).
        stack, start, end, parent, run, names = (
            self._stack, self.start, self.end, self.parent, self.run, self.name
        )
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            names.append(nid)
            parent.append(stack[-1] if stack else -1)
            run.append(tracer.run_id)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "run": np.frombuffer(self.run, dtype=np.int32).copy(),
        }

    def save(self, path: str) -> None:
        """Write every span (and the layer-name table) to an ``.npz``."""
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


class _Span:
    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self) -> "_Span":
        self.idx = self.tracer.open(self.name)
        return self

    def __exit__(self, *exc) -> None:
        self.tracer.close(self.idx)


def _rebind(old: Callable, new: Callable) -> int:
    """Point every loaded ``repro`` binding of *old* at *new*."""
    n = 0
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "repro" or mod_name.startswith("repro.")):
            continue
        for key, value in list(vars(mod).items()):
            if value is old:
                setattr(mod, key, new)
                n += 1
            elif isinstance(value, dict) and not key.startswith("__"):
                for dkey, dvalue in list(value.items()):
                    if dvalue is old:
                        value[dkey] = new
                        n += 1
    return n


def install(
    tracer: Tracer,
    on_result: dict[str, Callable[[Any], None]] | None = None,
    layers: tuple[tuple[str, str, str], ...] = LAYERS,
) -> None:
    """Wrap every entry point in *layers* (by default :data:`LAYERS`).

    The packages that re-export entry points are imported first, so
    every binding exists when it is replaced and lazy ``from .x import
    f`` statements executed later resolve to the wrapper too.
    """
    on_result = on_result or {}
    for pkg in ("repro.cli", "repro.verify", "repro.service", "repro.synthesis"):
        importlib.import_module(pkg)
    for layer, mod_name, attr in layers:
        mod = importlib.import_module(mod_name)
        hook = on_result.get(attr.rsplit(".", 1)[-1])
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(mod, cls_name)
            orig = cls.__dict__[meth]
            setattr(cls, meth, tracer.wrap(layer, orig, hook))
            continue
        orig = getattr(mod, attr)
        if _rebind(orig, tracer.wrap(layer, orig, hook)) == 0:
            raise RuntimeError(f"no binding of {mod_name}.{attr} found")


def self_times(arrays: dict[str, np.ndarray]) -> np.ndarray:
    """Per-span self time: duration minus direct children's durations."""
    dur = arrays["end"] - arrays["start"]
    child = np.zeros_like(dur)
    parent = arrays["parent"]
    mask = parent >= 0
    np.add.at(child, parent[mask], dur[mask])
    return dur - child


def phases(arrays: dict[str, np.ndarray], names: list[str]) -> np.ndarray:
    """Top-level phase index (into :data:`PHASES`) of every span.

    Parents are appended before their children, so one forward sweep
    resolves each span from its parent.
    """
    opener = np.full(len(names), PHASES.index("other"), dtype=np.int8)
    for nid, name in enumerate(names):
        if name in PHASE_OF:
            opener[nid] = PHASES.index(PHASE_OF[name])
    other = PHASES.index("other")
    name_ids = arrays["name"].tolist()
    parent = arrays["parent"].tolist()
    out = [other] * len(name_ids)
    for i, (nid, p) in enumerate(zip(name_ids, parent)):
        inherited = out[p] if p >= 0 else other
        out[i] = inherited if inherited != other else int(opener[nid])
    return np.array(out, dtype=np.int8)


def nesting_violations(arrays: dict[str, np.ndarray]) -> int:
    """Spans that are not inside their parent's interval (or never closed)."""
    start, end, parent = arrays["start"], arrays["end"], arrays["parent"]
    bad = int(np.sum(end < start))
    mask = parent >= 0
    p = parent[mask]
    bad += int(np.sum(start[mask] < start[p]))
    bad += int(np.sum(end[mask] > end[p]))
    return bad


def aggregate(arrays: dict[str, np.ndarray], names: list[str]) -> dict[str, dict]:
    """Per-layer self seconds (total and by phase), calls and inclusive time.

    ``calls`` counts entries into a layer from a different layer, so a
    layer's recursion into itself is one call.  ``inclusive_s`` sums the
    durations of a layer's outermost spans.
    """
    st = self_times(arrays)
    ph = phases(arrays, names)
    dur = arrays["end"] - arrays["start"]
    name_ids = arrays["name"]
    parent = arrays["parent"]
    parent_name = np.where(parent >= 0, name_ids[np.maximum(parent, 0)], -1)
    entry = parent_name != name_ids
    out: dict[str, dict] = {}
    for nid, name in enumerate(names):
        sel = name_ids == nid
        row = {
            "self_s": float(st[sel].sum()),
            "calls": int(np.sum(sel & entry)),
            "inclusive_s": float(dur[sel & entry].sum()),
        }
        for pi, phase in enumerate(PHASES):
            in_phase = sel & (ph == pi)
            row[f"{phase}_s"] = float(st[in_phase].sum())
            row[f"{phase}_calls"] = int(np.sum(in_phase & entry))
        out[name] = row
    return out


def load(path: str) -> tuple[dict[str, np.ndarray], list[str]]:
    """Read spans written by :meth:`Tracer.save`."""
    with np.load(path) as data:
        arrays = {k: data[k] for k in ("name", "start", "end", "parent", "run")}
        names = [str(n) for n in data["names"]]
    return arrays, names
