"""Tiered, content-addressed store for memoized synthesis results.

One :class:`SynthesisStore` replaces the engine's previously separate
memo dictionaries (the characterization module cache, the move-B
resynthesis memo, and schedule memoization) with three tiers:

* **point tier** — per-namespace :class:`~repro.synthesis.caching.
  LRUCache` instances holding *live* objects, keyed exactly like the
  legacy memos and cleared between operating points
  (:meth:`SynthesisStore.reset_point`).  This tier preserves the legacy
  caches' semantics bit for bit.
* **run tier** — one LRU of pickled blobs addressed by ``(namespace,
  content digest)``.  Content digests are built from canonical content
  keys (:mod:`repro.dfg.canonical`), never from counter-generated
  names, so the tier survives point resets and answers across operating
  points.  Loads unpickle a fresh copy, which is what keeps cached
  values immune to later in-place mutation (e.g. ``ensure_behavior``
  adding behaviors to a module).
* **persistent tier** — an optional SQLite database (``--cache-dir``)
  with the same addressing, shared across runs and across worker
  processes.  Writes are ``INSERT OR IGNORE``: content-addressed
  entries are immutable, so concurrent writers at ``n_workers > 1``
  can only race to store the same bytes.  The tier is one database
  file, ``synthesis_store.sqlite``; any other file in the directory is
  ignored.

The lookup protocol is two-step to mirror the legacy control flow
exactly: :meth:`get` probes only the point tier (the legacy fast path,
requiring no content key), and :meth:`fetch` — called only after a
point miss — builds on the caller-supplied content key to probe the run
and persistent tiers.  :data:`MISSING` distinguishes "absent" from a
stored ``None`` (the resynthesis memo stores ``None`` for infeasible
budgets).

One namespace holds a **mutable aggregate** rather than immutable
results: ``priors`` (trace-mined move statistics, see
:mod:`repro.search.priors`).  It uses the content-only
:meth:`load`/:meth:`replace` pair — replace-semantics writes, no point
tier — and is only ever read by the priors policy, so populating it
cannot perturb a default run's lookup sequence.

Per-tier hit/miss/eviction counters are written into the bound
:class:`~repro.telemetry.Telemetry` (``store_hits``/``store_misses``/
``store_evictions``, keyed ``"{tier}.{namespace}"``) and surface in
``--stats`` and trace reports.
"""

from __future__ import annotations

import hashlib
import pickle
import sqlite3
import threading
import time
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable

from ..dfg.canonical import (
    config_signature,
    design_fingerprint,
    library_signature,
    stream_digest,
)
from .caching import LRUCache

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..dfg.hierarchy import Design
    from ..library.library import ModuleLibrary
    from ..rtl.module import RTLModule
    from .context import SynthesisConfig
    from .solution import Solution

__all__ = [
    "MISSING",
    "STORE_SCHEMA_VERSION",
    "SynthesisStore",
    "context_signature",
    "module_content_signature",
    "sim_level_digest",
    "solution_pricing_signature",
    "solution_signature",
]

#: Bumped whenever the serialized value format or the content-key
#: construction changes incompatibly; a persistent database recorded
#: under a different version is dropped on open.
STORE_SCHEMA_VERSION = 2

#: Sentinel distinguishing "not stored" from a stored ``None``.
MISSING = object()

#: Database filename inside ``--cache-dir``.
_DB_NAME = "synthesis_store.sqlite"

#: Retries for transient ``database is locked`` write failures; WAL
#: allows concurrent readers but serializes writers, and a busy server
#: fleet can exceed even a generous busy timeout under checkpointing.
_WRITE_RETRIES = 5
_WRITE_RETRY_SLEEP_S = 0.02


def digest_content(content: tuple) -> str:
    """SHA-256 hex digest of a content-key tuple.

    Content keys are tuples of str/int/float/bool/None (and nested
    tuples thereof), whose ``repr`` is deterministic across processes
    and Python sessions, so the digest is a stable cross-run address.
    """
    return hashlib.sha256(repr(content).encode("utf-8")).hexdigest()


def context_signature(library: "ModuleLibrary", config: "SynthesisConfig") -> str:
    """Invalidation signature shared by every content key of one env.

    Combines the store schema version with the library and
    configuration signatures: a cached sub-result is only reusable when
    the cells/modules pricing it and the search knobs shaping it are
    unchanged.
    """
    return digest_content(
        (
            "ctx",
            STORE_SCHEMA_VERSION,
            library_signature(library),
            config_signature(config),
        )
    )


def solution_signature(solution: "Solution", design: "Design") -> tuple:
    """Name-free structural identity of a solution.

    Unlike :meth:`Solution.fingerprint
    <repro.synthesis.solution.Solution.fingerprint>` (which embeds
    ``id(dfg)`` and module *names*), this signature identifies module
    instances by their recursive content
    (:func:`module_content_signature`) and the DFG by its
    design-resolved fingerprint, so two structurally identical solutions
    built under different generated-name sequences compare equal.
    """
    return (
        design_fingerprint(design, solution.dfg),
        solution.clk_ns,
        solution.vdd,
        solution.sampling_ns,
        tuple(
            (
                inst_id,
                module_content_signature(inst.module, design)
                if inst.module is not None
                else ("cell", inst.cell.name),
                tuple(solution.executions[inst_id]),
            )
            for inst_id, inst in solution.instances.items()
        ),
        tuple(
            (reg_id, tuple(signals))
            for reg_id, signals in solution.reg_signals.items()
        ),
    )


def module_content_signature(module: "RTLModule", design: "Design") -> tuple:
    """Content identity of an RTL module, independent of generated names.

    Synthesized modules (those carrying a
    :class:`~repro.synthesis.modulegen.ModuleInternal`) are identified
    by their internal solution's :func:`solution_signature`; library
    modules — whose netlists are externally supplied and whose names
    are user-chosen identities covered by the library signature — by
    name.  Memoized on the module object: internal solutions are frozen
    after characterization (moves clone before mutating), and the
    signature deliberately excludes ``_impls`` so later
    ``ensure_behavior`` aliasing cannot stale it.
    """
    cached = getattr(module, "_store_content_sig", None)
    if cached is not None:
        return cached
    internal = getattr(module, "internal", None)
    solution = getattr(internal, "solution", None)
    if solution is not None:
        sig = ("syn", solution_signature(solution, design))
    else:
        sig = ("lib", module.name)
    module._store_content_sig = sig  # type: ignore[attr-defined]
    return sig


def module_pricing_signature(module: "RTLModule", design: "Design") -> tuple:
    """Identity of a module as the *evaluator* prices it.

    :func:`module_content_signature` pins structure but deliberately
    ignores the characterized timing/energy numbers — yet those numbers
    are exactly what pricing reads, and a structurally identical module
    characterized under different input streams carries different ones.
    Not memoized: RTL embedding adds behaviors in place.
    """
    return (
        module_content_signature(module, design),
        tuple(
            sorted(
                (
                    (behavior, impl.profile, impl.cap_internal)
                    for behavior, impl in module._impls.items()
                ),
                key=lambda entry: entry[0],
            )
        ),
    )


def solution_pricing_signature(solution: "Solution", design: "Design") -> tuple:
    """Everything area/power evaluation reads from a solution.

    Extends :func:`solution_signature`'s structural identity with the
    deadline and the per-instance characterization numbers — together
    with the operand streams (:func:`sim_level_digest`) and the
    library/config (the store signature), this covers the full input
    domain of :func:`~repro.synthesis.incremental.evaluate_solution`.
    """
    return (
        solution_signature(solution, design),
        solution.deadline_cycles,
        tuple(
            (inst_id, module_pricing_signature(inst.module, design))
            for inst_id, inst in solution.instances.items()
            if inst.module is not None
        ),
    )


def sim_level_digest(sim, path: tuple = ()) -> str:
    """Digest of every value stream at one hierarchy level of a trace.

    Evaluation reads operand streams only at the context's own path, so
    this digest pins the trace-driven side of power estimation.
    Memoized on the trace object: a :class:`~repro.power.simulate.
    SimTrace` is fully populated at construction and never mutated
    afterwards.
    """
    cache = getattr(sim, "_level_digests", None)
    if cache is None:
        cache = sim._level_digests = {}
    digest = cache.get(path)
    if digest is None:
        pairs = sim.items_at(path)
        digest = digest_content(
            (
                tuple(signal for signal, _stream in pairs),
                stream_digest(stream for _signal, stream in pairs),
            )
        )
        cache[path] = digest
    return digest


class SynthesisStore:
    """Point / run / persistent tiers behind one lookup protocol."""

    #: Point-tier capacity for namespaces without an explicit size.
    _DEFAULT_POINT_SIZE = 256

    def __init__(
        self,
        point_sizes: dict[str, int] | None = None,
        run_cache_size: int = 4096,
        cache_dir: str | None = None,
        persistent: bool = True,
    ):
        self._point_sizes = dict(point_sizes or {})
        self._point: dict[str, LRUCache] = {}
        self._run: LRUCache[tuple[str, str], bytes] = LRUCache(run_cache_size)
        #: Blobs written since the last export/reset; the parallel sweep
        #: ships them from worker outcomes back into the parent's run
        #: tier (see ``api._sweep_points``).
        self._fresh: list[tuple[str, str, bytes]] = []
        #: Guards the run tier, the counters and the SQLite connection:
        #: the job server uses its store from more than one thread.
        self._lock = threading.Lock()
        #: id(content) → (content, digest).  One content tuple flows
        #: through two digesting calls per candidate (``fetch``, then
        #: ``put`` after pricing); re-hashing the multi-KB repr each
        #: time was a measurable fraction of pricing.  The content
        #: tuple is kept in the value so its id cannot be recycled while
        #: the entry lives; the identity check on lookup makes a stale
        #: entry merely a recompute, never a wrong digest.
        self._digest_memo: dict[int, tuple[tuple, str]] = {}
        self.cache_dir = str(cache_dir) if cache_dir else None
        self.persistent = self.cache_dir is not None and persistent
        #: Persistent-tier connection (``None`` when the tier is
        #: disabled or unusable).
        self._db: sqlite3.Connection | None = None
        self._hits: dict[str, int] = {}
        self._misses: dict[str, int] = {}
        self._evictions: dict[str, int] = {}
        if self.persistent:
            try:
                self._db = self._open_db()
            except (sqlite3.Error, OSError):
                # A broken/locked database (or an unusable directory)
                # must never break synthesis; degrade to memory tiers.
                self.persistent = False

    @classmethod
    def from_config(cls, config: "SynthesisConfig") -> "SynthesisStore":
        """Build a store from a :class:`SynthesisConfig`'s cache knobs."""
        sizes = {
            "module": config.module_cache_size,
            "resynth": config.module_cache_size,
            "schedule": config.cost_cache_size,
            # Metrics live in the context's own fingerprint-keyed cost
            # cache; a point tier here would only duplicate it.
            "metrics": 0,
        }
        return cls(
            sizes,
            run_cache_size=config.run_cache_size,
            cache_dir=config.cache_dir,
            persistent=config.persistent_cache,
        )

    def bind(self, telemetry) -> None:
        """Write per-tier counters into *telemetry*'s store dicts.

        The dicts are shared by reference, so worker stores feeding a
        worker :class:`~repro.telemetry.Telemetry` merge into run totals
        through the existing ``Telemetry.merge``.
        """
        for mine, theirs in (
            (self._hits, telemetry.store_hits),
            (self._misses, telemetry.store_misses),
            (self._evictions, telemetry.store_evictions),
        ):
            for key, n in mine.items():
                theirs[key] = theirs.get(key, 0) + n
        self._hits = telemetry.store_hits
        self._misses = telemetry.store_misses
        self._evictions = telemetry.store_evictions

    # ------------------------------------------------------------------
    # Lookup protocol
    # ------------------------------------------------------------------
    def point_tier(self, ns: str) -> LRUCache:
        """The live-object point tier of namespace *ns* (created lazily)."""
        tier = self._point.get(ns)
        if tier is None:
            tier = LRUCache(
                self._point_sizes.get(ns, self._DEFAULT_POINT_SIZE)
            )
            self._point[ns] = tier
        return tier

    def _tick(self, counters: dict[str, int], key: str) -> None:
        counters[key] = counters.get(key, 0) + 1

    def _digest(self, content: tuple) -> str:
        """Memoized :func:`digest_content` (same object → cached digest)."""
        entry = self._digest_memo.get(id(content))
        if entry is not None and entry[0] is content:
            return entry[1]
        digest = digest_content(content)
        if len(self._digest_memo) >= 4096:
            self._digest_memo.clear()
        self._digest_memo[id(content)] = (content, digest)
        return digest

    def get(self, ns: str, key) -> Any:
        """Probe the point tier only; returns :data:`MISSING` on a miss.

        This is the legacy fast path: point keys need no canonical
        content (callers build the content key — which may require
        gathering streams — only after a point miss, via :meth:`fetch`).
        """
        tier = self.point_tier(ns)
        with self._lock:
            if key in tier:
                self._tick(self._hits, f"point.{ns}")
                return tier[key]
            self._tick(self._misses, f"point.{ns}")
            return MISSING

    def fetch(
        self,
        ns: str,
        key,
        content: tuple,
        decode: Callable[[Any], Any] | None = None,
    ) -> Any:
        """Probe the run and persistent tiers after a point miss.

        On a hit the blob is unpickled (a fresh copy every time), passed
        through *decode* when given (module loads route through
        ``SynthesisEnv.adopt_loaded_module`` to keep generated-name
        sequences consistent), installed into the point tier under
        *key*, and returned; otherwise :data:`MISSING`.
        """
        blob_key = (ns, self._digest(content))
        with self._lock:
            blob = self._run.get(blob_key)
            if blob is not None:
                self._tick(self._hits, f"run.{ns}")
            else:
                self._tick(self._misses, f"run.{ns}")
                blob = self._db_get(blob_key)
                if blob is not None:
                    self._run_put(blob_key, blob)
        if blob is None:
            return MISSING
        value = pickle.loads(blob)
        if decode is not None:
            value = decode(value)
        with self._lock:
            self._point_put(ns, key, value)
        return value

    def contains(self, ns: str, content: tuple) -> bool:
        """Whether the run or persistent tier holds *content*.

        A pure probe — no counters, no point-tier install.  The engine
        itself probes through the counted :meth:`fetch`; this method
        stays public because ``perfbench/tracer.py`` binds it by name.
        """
        blob_key = (ns, self._digest(content))
        with self._lock:
            if self._run.peek(blob_key) is not None:
                return True
            if self._db is None:
                return False
            try:
                row = self._db.execute(
                    "SELECT 1 FROM store WHERE ns = ? AND key = ?", blob_key
                ).fetchone()
            except sqlite3.Error:
                return False
            return row is not None

    def put(self, ns: str, key, content: tuple, value: Any) -> None:
        """Store a freshly computed value in every tier."""
        blob = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        blob_key = (ns, self._digest(content))
        with self._lock:
            self._point_put(ns, key, value)
            self._run_put(blob_key, blob)
            self._db_put(blob_key, blob)
            self._fresh.append((ns, blob_key[1], blob))

    def load(self, ns: str, content: tuple) -> Any:
        """Content-only probe of the run and persistent tiers.

        For namespaces addressed purely by content (no per-point live
        key): ``priors`` tables.  Returns a
        fresh unpickled copy, or :data:`MISSING` — without installing
        anything into a point tier, so these reads can never perturb the
        point-keyed namespaces' hit sequences.
        """
        blob_key = (ns, self._digest(content))
        with self._lock:
            blob = self._run.get(blob_key)
            if blob is not None:
                self._tick(self._hits, f"run.{ns}")
            else:
                self._tick(self._misses, f"run.{ns}")
                blob = self._db_get(blob_key)
                if blob is not None:
                    self._run_put(blob_key, blob)
        if blob is None:
            return MISSING
        return pickle.loads(blob)

    def replace(self, ns: str, content: tuple, value: Any) -> None:
        """Store *value* under *content*, overwriting any previous value.

        The mutable-aggregate counterpart of :meth:`put`: most
        namespaces hold immutable content-addressed results (``INSERT
        OR IGNORE``), but priors tables are *updated in place* under a
        stable address, so this path writes
        ``INSERT OR REPLACE`` and overwrites the run-tier blob.
        Last-writer-wins under concurrency — acceptable for advisory
        aggregates, never used for priced results.
        """
        blob = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        blob_key = (ns, self._digest(content))
        with self._lock:
            self._run_put(blob_key, blob)
            self._db_write(
                "INSERT OR REPLACE INTO store VALUES (?, ?, ?)",
                blob_key, blob,
            )
            self._fresh.append((ns, blob_key[1], blob))

    def _point_put(self, ns: str, key, value: Any) -> None:
        tier = self.point_tier(ns)
        if key not in tier and 0 < tier.maxsize <= len(tier):
            self._tick(self._evictions, f"point.{ns}")
        tier.put(key, value)

    def _run_put(self, blob_key: tuple[str, str], blob: bytes) -> None:
        if blob_key not in self._run and 0 < self._run.maxsize <= len(self._run):
            self._tick(self._evictions, f"run.{blob_key[0]}")
        self._run.put(blob_key, blob)

    # ------------------------------------------------------------------
    # Point lifecycle / parallel-sweep plumbing
    # ------------------------------------------------------------------
    def reset_point(self) -> None:
        """Clear the point tiers (and pending exports) between points.

        The run and persistent tiers survive: their content addressing
        does not depend on per-point generated names.
        """
        with self._lock:
            for tier in self._point.values():
                tier.clear()
            self._fresh.clear()

    def export_fresh(self) -> list[tuple[str, str, bytes]]:
        """Drain the blobs written since the last export (worker side)."""
        with self._lock:
            fresh = self._fresh
            self._fresh = []
            return fresh

    def absorb(self, entries: list[tuple[str, str, bytes]]) -> None:
        """Install worker-exported blobs into this store's run tier.

        Workers with a ``--cache-dir`` already wrote the persistent
        tier themselves (idempotently), so absorption only feeds the
        parent's in-memory run tier.
        """
        with self._lock:
            for ns, digest, blob in entries:
                self._run_put((ns, digest), blob)

    def counters(self) -> dict[str, dict[str, int]]:
        """Sorted snapshot of the per-tier counters (trace ``run_end``)."""
        with self._lock:
            return {
                "hits": dict(sorted(self._hits.items())),
                "misses": dict(sorted(self._misses.items())),
                "evictions": dict(sorted(self._evictions.items())),
            }

    # ------------------------------------------------------------------
    # Persistent tier (SQLite)
    # ------------------------------------------------------------------
    def _open_db(self) -> sqlite3.Connection:
        assert self.cache_dir is not None
        path = Path(self.cache_dir)
        path.mkdir(parents=True, exist_ok=True)
        # check_same_thread=False: the job server opens its store on
        # one thread and uses it from its event-loop thread; all access
        # is serialized by self._lock.
        db = sqlite3.connect(
            path / _DB_NAME, timeout=30.0, check_same_thread=False
        )
        db.execute("PRAGMA journal_mode=WAL")
        db.execute("PRAGMA synchronous=NORMAL")
        # Belt over the connect timeout: writers blocked on another
        # process's write transaction wait instead of failing.
        db.execute("PRAGMA busy_timeout=30000")
        db.execute(
            "CREATE TABLE IF NOT EXISTS meta (key TEXT PRIMARY KEY, value TEXT)"
        )
        db.execute(
            "CREATE TABLE IF NOT EXISTS store ("
            " ns TEXT NOT NULL, key TEXT NOT NULL, value BLOB NOT NULL,"
            " PRIMARY KEY (ns, key))"
        )
        row = db.execute(
            "SELECT value FROM meta WHERE key = 'schema_version'"
        ).fetchone()
        if row is None:
            db.execute(
                "INSERT OR IGNORE INTO meta VALUES ('schema_version', ?)",
                (str(STORE_SCHEMA_VERSION),),
            )
        elif row[0] != str(STORE_SCHEMA_VERSION):
            db.execute("DELETE FROM store")
            db.execute(
                "UPDATE meta SET value = ? WHERE key = 'schema_version'",
                (str(STORE_SCHEMA_VERSION),),
            )
        db.commit()
        return db

    def _db_get(self, blob_key: tuple[str, str]) -> bytes | None:
        if self._db is None:
            return None
        ns = blob_key[0]
        try:
            row = self._db.execute(
                "SELECT value FROM store WHERE ns = ? AND key = ?", blob_key
            ).fetchone()
        except sqlite3.Error:
            return None
        if row is not None:
            self._tick(self._hits, f"persistent.{ns}")
            return row[0]
        self._tick(self._misses, f"persistent.{ns}")
        return None

    def _db_put(self, blob_key: tuple[str, str], blob: bytes) -> None:
        self._db_write(
            "INSERT OR IGNORE INTO store VALUES (?, ?, ?)", blob_key, blob
        )

    def _db_write(
        self, sql: str, blob_key: tuple[str, str], blob: bytes
    ) -> None:
        db = self._db
        if db is None:
            return
        for attempt in range(_WRITE_RETRIES):
            try:
                db.execute(sql, (blob_key[0], blob_key[1], blob))
                db.commit()
                return
            except sqlite3.OperationalError as exc:
                # Transient writer contention (WAL serializes writers);
                # ignore-writes are immutable and replace-writes are
                # last-writer-wins aggregates, so retrying is sound.
                if "locked" not in str(exc) and "busy" not in str(exc):
                    return
                try:
                    db.rollback()
                except sqlite3.Error:
                    pass
                time.sleep(_WRITE_RETRY_SLEEP_S * (attempt + 1))
            except sqlite3.Error:
                return

    def persistent_stats(self) -> dict[str, Any]:
        """Entry counts and on-disk size of the persistent tier."""
        if self._db is None or self.cache_dir is None:
            return {"path": None, "entries": {}, "total_entries": 0,
                    "bytes": 0}
        rows = self._db.execute(
            "SELECT ns, COUNT(*) FROM store GROUP BY ns ORDER BY ns"
        ).fetchall()
        entries = {ns: n for ns, n in rows}
        file = Path(self.cache_dir) / _DB_NAME
        return {
            "path": str(file),
            "entries": entries,
            "total_entries": sum(entries.values()),
            "bytes": file.stat().st_size if file.exists() else 0,
        }

    def clear_persistent(self) -> int:
        """Delete every persistent entry; returns the number removed."""
        if self._db is None:
            return 0
        with self._lock:
            n = self._db.execute("SELECT COUNT(*) FROM store").fetchone()[0]
            self._db.execute("DELETE FROM store")
            self._db.commit()
        return int(n)

    def prune_persistent(self, max_entries: int) -> int:
        """Evict oldest-inserted entries beyond *max_entries*.

        Content-addressed entries are immutable and never rewritten
        (``INSERT OR IGNORE``), so SQLite's implicit ``rowid`` is a
        faithful insertion clock: pruning lowest rowids first drops the
        longest-stored results — for a fuzzing/corpus workload, the
        designs least likely to recur.  Returns the number evicted, and
        counts them in telemetry as ``persistent.<ns>`` evictions.
        """
        if self._db is None:
            return 0
        if max_entries < 0:
            raise ValueError(f"max_entries must be >= 0, got {max_entries}")
        with self._lock:
            try:
                victims = self._db.execute(
                    "SELECT rowid, ns FROM store ORDER BY rowid DESC"
                    " LIMIT -1 OFFSET ?",
                    (max_entries,),
                ).fetchall()
                self._db.executemany(
                    "DELETE FROM store WHERE rowid = ?",
                    [(rowid,) for rowid, _ns in victims],
                )
                self._db.commit()
            except sqlite3.Error:
                return 0
            for _rowid, ns in victims:
                self._tick(self._evictions, f"persistent.{ns}")
        return len(victims)

    def close(self) -> None:
        """Close the persistent connection (idempotent)."""
        if self._db is not None:
            self._db.close()
            self._db = None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        tiers = ", ".join(
            f"{ns}:{len(t)}" for ns, t in sorted(self._point.items())
        )
        return (
            f"SynthesisStore(point=[{tiers}], run={len(self._run)}, "
            f"persistent={self.persistent})"
        )
