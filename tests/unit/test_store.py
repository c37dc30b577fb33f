"""Unit tests for the tiered synthesis store (repro.synthesis.store)."""

import sqlite3

import pytest

from repro.synthesis.store import (
    MISSING,
    STORE_SCHEMA_VERSION,
    SynthesisStore,
    digest_content,
)
from repro.telemetry import Telemetry


class TestPointTier:
    def test_get_probes_point_only(self):
        store = SynthesisStore()
        assert store.get("module", "k") is MISSING
        store.put("module", "k", ("content",), 42)
        assert store.get("module", "k") == 42

    def test_stored_none_is_not_missing(self):
        """The resynthesis memo stores None for infeasible budgets."""
        store = SynthesisStore()
        store.put("resynth", "k", ("c",), None)
        assert store.get("resynth", "k") is None
        assert store.get("other", "k") is MISSING

    def test_reset_point_clears_point_not_run(self):
        store = SynthesisStore()
        store.put("module", "k", ("c",), {"v": 1})
        store.reset_point()
        assert store.get("module", "k") is MISSING
        # The run tier still answers through fetch, with a fresh copy.
        value = store.fetch("module", "k", ("c",))
        assert value == {"v": 1}
        assert store.get("module", "k") == {"v": 1}

    def test_point_sizes_respected(self):
        store = SynthesisStore(point_sizes={"module": 2})
        for i in range(4):
            store.put("module", i, ("c", i), i)
        assert len(store.point_tier("module")) == 2
        counters = store.counters()
        assert counters["evictions"]["point.module"] == 2


class TestRunTier:
    def test_fetch_returns_fresh_copies(self):
        """Mutating a fetched value must not poison later fetches."""
        store = SynthesisStore()
        store.put("module", "k", ("c",), {"behaviors": ["a"]})
        store.reset_point()
        first = store.fetch("module", "k", ("c",))
        first["behaviors"].append("b")
        store.reset_point()
        second = store.fetch("module", "k", ("c",))
        assert second == {"behaviors": ["a"]}

    def test_fetch_decode_callback(self):
        store = SynthesisStore()
        store.put("module", "k", ("c",), 10)
        store.reset_point()
        assert store.fetch("module", "k", ("c",), decode=lambda v: v + 1) == 11
        # The decoded value is what lands in the point tier.
        assert store.get("module", "k") == 11

    def test_content_addressing_ignores_point_key(self):
        """Two different point keys with equal content share one blob."""
        store = SynthesisStore()
        store.put("resynth", "key-one", ("same", "content"), "value")
        store.reset_point()
        assert store.fetch("resynth", "other-key", ("same", "content")) == "value"
        assert store.fetch("resynth", "third", ("different",)) is MISSING

    def test_export_and_absorb(self):
        worker = SynthesisStore()
        worker.put("module", "k", ("c",), [1, 2])
        entries = worker.export_fresh()
        assert [(ns, digest) for ns, digest, _blob in entries] == [
            ("module", digest_content(("c",)))
        ]
        assert worker.export_fresh() == []

        parent = SynthesisStore()
        parent.absorb(entries)
        assert parent.fetch("module", "k2", ("c",)) == [1, 2]

    def test_reset_point_drops_pending_exports(self):
        """The serial sweep must not accumulate stale export lists."""
        store = SynthesisStore()
        store.put("module", "k", ("c",), 1)
        store.reset_point()
        assert store.export_fresh() == []


class TestContentOnlyTier:
    """``load``/``replace``: the content-addressed path priors tables use."""

    def test_load_miss_returns_missing_and_counts(self):
        store = SynthesisStore()
        assert store.load("priors", ("fp",)) is MISSING
        counters = store.counters()
        assert counters["misses"] == {"run.priors": 1}
        assert counters["hits"] == {}

    def test_replace_overwrites_previous_value(self):
        store = SynthesisStore()
        store.replace("priors", ("fp",), {"n": 1})
        store.replace("priors", ("fp",), {"n": 2})
        assert store.load("priors", ("fp",)) == {"n": 2}
        assert store.counters()["hits"] == {"run.priors": 1}

    def test_load_returns_fresh_copies(self):
        store = SynthesisStore()
        store.replace("priors", ("fp",), {"moves": [1]})
        first = store.load("priors", ("fp",))
        first["moves"].append(2)
        assert store.load("priors", ("fp",)) == {"moves": [1]}

    def test_load_installs_nothing_in_point_tiers(self):
        store = SynthesisStore()
        store.replace("priors", ("fp",), "table")
        assert store.load("priors", ("fp",)) == "table"
        assert len(store.point_tier("priors")) == 0

    def test_replace_overwrites_persistent_row(self, tmp_path):
        for value in ("old", "new"):
            writer = SynthesisStore(cache_dir=str(tmp_path))
            writer.replace("priors", ("fp",), value)
            writer.close()

        reader = SynthesisStore(cache_dir=str(tmp_path))
        assert reader.load("priors", ("fp",)) == "new"
        counters = reader.counters()
        assert counters["hits"] == {"persistent.priors": 1}
        assert counters["misses"] == {"run.priors": 1}
        # The persistent hit was installed in the run tier.
        assert reader.load("priors", ("fp",)) == "new"
        assert reader.counters()["hits"]["run.priors"] == 1
        reader.close()

    def test_replace_is_exported_to_the_parent(self):
        worker = SynthesisStore()
        worker.replace("priors", ("fp",), {"n": 3})
        entries = worker.export_fresh()
        assert [(ns, digest) for ns, digest, _blob in entries] == [
            ("priors", digest_content(("fp",)))
        ]

        parent = SynthesisStore()
        parent.absorb(entries)
        assert parent.load("priors", ("fp",)) == {"n": 3}


class TestCounters:
    def test_tick_pattern(self):
        store = SynthesisStore()
        store.get("module", "k")  # point miss
        store.fetch("module", "k", ("c",))  # run miss
        store.put("module", "k", ("c",), 1)
        store.get("module", "k")  # point hit
        store.reset_point()
        store.fetch("module", "k", ("c",))  # run hit
        counters = store.counters()
        assert counters["misses"]["point.module"] == 1
        assert counters["misses"]["run.module"] == 1
        assert counters["hits"]["point.module"] == 1
        assert counters["hits"]["run.module"] == 1

    def test_bind_shares_dicts_with_telemetry(self):
        store = SynthesisStore()
        store.get("module", "k")
        telemetry = Telemetry()
        store.bind(telemetry)
        assert telemetry.store_misses == {"point.module": 1}
        store.get("module", "k2")
        assert telemetry.store_misses == {"point.module": 2}


class TestPersistentTier:
    def test_round_trip_across_stores(self, tmp_path):
        first = SynthesisStore(cache_dir=str(tmp_path))
        first.put("schedule", "k", ("c",), (1, 2, 3))
        first.close()

        second = SynthesisStore(cache_dir=str(tmp_path))
        # The uncounted probe sees the persistent entry; the counters
        # below record only the fetch.
        assert second.contains("schedule", ("c",))
        assert not second.contains("schedule", ("other",))
        assert second.fetch("schedule", "fresh-key", ("c",)) == (1, 2, 3)
        counters = second.counters()
        assert counters["hits"]["persistent.schedule"] == 1
        assert "persistent.schedule" not in counters["misses"]
        second.close()

    def test_no_cache_dir_means_no_persistence(self):
        store = SynthesisStore()
        assert not store.persistent
        assert store.persistent_stats()["total_entries"] == 0

    def test_persistent_flag_off_disables_db(self, tmp_path):
        store = SynthesisStore(cache_dir=str(tmp_path), persistent=False)
        assert not store.persistent
        store.put("module", "k", ("c",), 1)
        store.close()
        assert not any(tmp_path.iterdir())

    def test_schema_version_mismatch_drops_entries(self, tmp_path):
        store = SynthesisStore(cache_dir=str(tmp_path))
        store.put("module", "k", ("c",), 1)
        stats = store.persistent_stats()
        assert stats["total_entries"] == 1
        store.close()

        db = sqlite3.connect(tmp_path / "synthesis_store.sqlite")
        db.execute(
            "UPDATE meta SET value = ? WHERE key = 'schema_version'",
            (str(STORE_SCHEMA_VERSION + 1),),
        )
        db.commit()
        db.close()

        reopened = SynthesisStore(cache_dir=str(tmp_path))
        assert reopened.persistent_stats()["total_entries"] == 0
        assert reopened.fetch("module", "k", ("c",)) is MISSING
        reopened.close()

    def test_concurrent_writers_are_idempotent(self, tmp_path):
        a = SynthesisStore(cache_dir=str(tmp_path))
        b = SynthesisStore(cache_dir=str(tmp_path))
        a.put("module", "k", ("c",), "same")
        b.put("module", "k", ("c",), "same")
        assert a.persistent_stats()["total_entries"] == 1
        a.close()
        b.close()

    def test_stats_and_clear(self, tmp_path):
        store = SynthesisStore(cache_dir=str(tmp_path))
        store.put("module", "k1", ("c1",), 1)
        store.put("schedule", "k2", ("c2",), 2)
        stats = store.persistent_stats()
        assert stats["entries"] == {"module": 1, "schedule": 1}
        assert stats["bytes"] > 0
        assert store.clear_persistent() == 2
        assert store.persistent_stats()["total_entries"] == 0
        store.close()

    def test_unusable_cache_dir_degrades_gracefully(self, tmp_path):
        target = tmp_path / "not-a-dir"
        target.write_text("file in the way")
        with pytest.raises(Exception):
            target.joinpath("x").mkdir()  # sanity: path is unusable
        store = SynthesisStore(cache_dir=str(target / "sub"))
        assert not store.persistent
        store.put("module", "k", ("c",), 1)  # still works in memory
        assert store.get("module", "k") == 1

    def test_leftover_shard_files_read_as_empty_store(self, tmp_path):
        """Older sharded layouts (``synthesis_store.shardNN.sqlite``) are
        ignored: the store opens its one file and every lookup misses."""
        old = SynthesisStore(cache_dir=str(tmp_path / "old"))
        keys = _corpus_keys(6)
        for i, (fp, content) in enumerate(keys):
            old.put("module", fp, content, i)
        old.close()
        for index in range(2):
            (tmp_path / f"synthesis_store.shard{index:02d}.sqlite").write_bytes(
                (tmp_path / "old" / "synthesis_store.sqlite").read_bytes()
            )
        store = SynthesisStore(cache_dir=str(tmp_path))
        assert store.persistent
        assert store.persistent_stats()["total_entries"] == 0
        for fp, content in keys:
            assert store.fetch("module", fp, content) is MISSING
        store.close()


def _corpus_keys(n: int, base_seed: int = 11) -> list[tuple[str, tuple]]:
    """Content keys drawn from a generated-design corpus.

    Fingerprints of seeded random designs are exactly the keyspace the
    store sees under fuzzing/transfer-learning workloads: high-entropy,
    collision-free, unordered.
    """
    from repro.dfg.canonical import design_fingerprint
    from repro.gen import generate_batch

    keys = []
    for gen in generate_batch(base_seed, n):
        fp = design_fingerprint(gen.design, gen.design.top)
        keys.append((fp, ("corpus", fp)))
    assert len({fp for fp, _c in keys}) == n  # sanity: no collisions
    return keys


class TestPersistentEviction:
    def test_prune_keeps_newest_insertions(self, tmp_path):
        store = SynthesisStore(cache_dir=str(tmp_path))
        keys = _corpus_keys(8)
        for i, (fp, content) in enumerate(keys):
            store.put("module", fp, content, i)
        assert store.prune_persistent(3) == 5
        assert store.persistent_stats()["total_entries"] == 3
        store.close()

        # Survivors are exactly the three newest insertions, oldest gone.
        reopened = SynthesisStore(cache_dir=str(tmp_path))
        for i, (fp, content) in enumerate(keys):
            value = reopened.fetch("module", fp, content)
            if i < 5:
                assert value is MISSING
            else:
                assert value == i
        reopened.close()

    def test_prune_orders_by_insertion_not_namespace(self, tmp_path):
        store = SynthesisStore(cache_dir=str(tmp_path))
        keys = _corpus_keys(6)
        # Interleave namespaces so lexicographic ordering would differ
        # from insertion ordering.
        namespaces = ["schedule", "module", "resynth"] * 2
        for i, ((fp, content), ns) in enumerate(zip(keys, namespaces)):
            store.put(ns, fp, content, i)
        assert store.prune_persistent(2) == 4
        stats = store.persistent_stats()
        assert stats["total_entries"] == 2
        # The two newest inserts were resynth (i=5) and module (i=4).
        assert stats["entries"] == {"module": 1, "resynth": 1}
        counters = store.counters()["evictions"]
        assert counters["persistent.schedule"] == 2
        assert counters["persistent.module"] == 1
        assert counters["persistent.resynth"] == 1
        store.close()

    def test_prune_noop_when_under_bound(self, tmp_path):
        store = SynthesisStore(cache_dir=str(tmp_path))
        for fp, content in _corpus_keys(3):
            store.put("module", fp, content, 0)
        assert store.prune_persistent(10) == 0
        assert store.persistent_stats()["total_entries"] == 3
        store.close()

    def test_prune_to_zero_empties_store(self, tmp_path):
        store = SynthesisStore(cache_dir=str(tmp_path))
        for fp, content in _corpus_keys(3):
            store.put("module", fp, content, 0)
        assert store.prune_persistent(0) == 3
        assert store.persistent_stats()["total_entries"] == 0
        store.close()

    def test_prune_rejects_negative_bound(self, tmp_path):
        store = SynthesisStore(cache_dir=str(tmp_path))
        with pytest.raises(ValueError, match="max_entries"):
            store.prune_persistent(-1)
        store.close()

    def test_prune_without_db_is_zero(self):
        assert SynthesisStore().prune_persistent(0) == 0


_WRITER_SCRIPT = """
import sys
from repro.dfg.canonical import design_fingerprint
from repro.gen import generate_batch
from repro.synthesis.store import SynthesisStore

cache_dir, base_seed, tag = sys.argv[1], int(sys.argv[2]), sys.argv[3]
own = int(sys.argv[4])
store = SynthesisStore(cache_dir=cache_dir)
# Writers share the same corpus keyspace: every put races with the
# other processes on identical (ns, key) pairs carrying identical bytes.
for gen in generate_batch(base_seed, 40):
    fp = design_fingerprint(gen.design, gen.design.top)
    store.put("module", fp, ("corpus", fp), {"fp": fp, "seed": gen.seed})
# Each writer also owns a disjoint slice, so a lost write shows.
for i in range(own):
    store.put("module", f"{tag}-{i}", ("own", tag, i), (tag, i))
store.close()
print(f"{tag} done")
"""

#: Entries each writer process stores under its own keys.
_OWN = 20


class TestConcurrentWriterProcesses:
    @pytest.mark.parametrize("n_procs", [2, 4])
    def test_processes_share_one_sqlite_tier(self, tmp_path, n_procs):
        """Independent writer processes race on one store file.

        Content addressing makes the race on shared keys benign: every
        writer stores the same bytes, so the merged tier must hold
        exactly one intact entry per key.  The per-writer slices must
        all survive: no write is lost to lock contention.
        """
        import subprocess
        import sys as _sys

        tags = [f"w{i}" for i in range(n_procs)]
        procs = [
            subprocess.Popen(
                [_sys.executable, "-c", _WRITER_SCRIPT,
                 str(tmp_path), "29", tag, str(_OWN)],
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                text=True,
            )
            for tag in tags
        ]
        for proc in procs:
            out, err = proc.communicate(timeout=120)
            assert proc.returncode == 0, err
            assert "done" in out

        assert sorted(p.name for p in tmp_path.glob("*.sqlite")) == [
            "synthesis_store.sqlite"
        ]
        store = SynthesisStore(cache_dir=str(tmp_path))
        stats = store.persistent_stats()
        assert stats["total_entries"] == 40 + _OWN * n_procs
        for fp, content in _corpus_keys(40, base_seed=29):
            value = store.fetch("module", fp, content)
            assert value == {"fp": fp, "seed": value["seed"]}
        for tag in tags:
            for i in range(_OWN):
                assert store.fetch("module", f"{tag}-{i}", ("own", tag, i)) \
                    == (tag, i)
        store.close()
