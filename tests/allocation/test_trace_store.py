"""Persistent trace store: npz round trips, hits, corruption fallback."""

import os
import pickle

import numpy as np
import pytest

from repro.allocation.columnar import (
    NPZ_SCHEMA,
    load_columns_npz,
    save_columns_npz,
)
from repro.allocation.store import TraceStore
from repro.allocation.traces import (
    TraceParams,
    generate_trace,
    production_trace_suite,
    suite_specs,
)
from repro.core import settings, telemetry
from repro.core.errors import ConfigError
from repro.core.faults import FaultPlan, corrupt_file
from repro.core.resilience import ResiliencePolicy, RetryPolicy

PARAMS = TraceParams(duration_days=2, mean_concurrent_vms=100)
SUITE_PARAMS = TraceParams(duration_days=2, mean_concurrent_vms=80)


@pytest.fixture
def store(tmp_path):
    return TraceStore(directory=tmp_path / "traces")


class TestNpzRoundTrip:
    def test_lossless(self, tmp_path):
        trace = generate_trace(seed=5, params=PARAMS)
        path = tmp_path / "t.npz"
        save_columns_npz(trace.columns, path)
        loaded = load_columns_npz(path)
        assert loaded == trace.columns
        assert loaded.digest() == trace.digest()
        assert loaded.to_vms() == trace.vms

    def test_schema_mismatch_rejected(self, tmp_path):
        trace = generate_trace(seed=5, params=PARAMS)
        path = tmp_path / "t.npz"
        arrays = {
            name: getattr(trace.columns, name)
            for name in (
                "vm_id", "arrival_hours", "lifetime_hours", "cores",
                "memory_gb", "generation", "app_index",
                "max_memory_fraction", "full_node",
            )
        }
        arrays["app_names"] = np.array(trace.columns.app_names)
        arrays["schema"] = np.array("repro-trace/0")
        np.savez(path, **arrays)
        with pytest.raises(ConfigError):
            load_columns_npz(path)

    def test_missing_column_rejected(self, tmp_path):
        path = tmp_path / "t.npz"
        np.savez(path, schema=np.array(NPZ_SCHEMA))
        with pytest.raises(ConfigError):
            load_columns_npz(path)

    def test_invalid_content_rejected(self, tmp_path):
        trace = generate_trace(seed=5, params=PARAMS)
        path = tmp_path / "t.npz"
        save_columns_npz(trace.columns, path)
        with np.load(path, allow_pickle=False) as data:
            arrays = {name: data[name] for name in data.files}
        cores = arrays["cores"].copy()
        cores[0] = -4
        arrays["cores"] = cores
        np.savez(path, **arrays)
        with pytest.raises(ConfigError):
            load_columns_npz(path)


class TestStore:
    def test_miss_then_hit(self, store):
        assert store.get(seed=5, params=PARAMS, name="t") is None
        trace = generate_trace(seed=5, params=PARAMS)
        store.put(5, PARAMS, trace.columns)
        loaded = store.get(seed=5, params=PARAMS, name="t")
        assert loaded is not None
        assert loaded.name == "t"
        assert loaded.digest() == trace.digest()
        assert loaded.vms == trace.vms
        assert (store.hits, store.misses) == (1, 1)

    def test_key_depends_on_seed_and_params(self, store):
        k = store.key(5, PARAMS)
        assert k != store.key(6, PARAMS)
        assert k != store.key(5, TraceParams(duration_days=3))

    def test_key_ignores_int_vs_float_spelling(self, store):
        # The CLI parses ``--days 3`` as 3.0; a script passes 3.  Equal
        # params must share one entry.
        assert store.key(1, TraceParams(duration_days=3)) == store.key(
            1, TraceParams(duration_days=3.0)
        )
        assert store.key(
            1, TraceParams(generation_mix=(0, 0, 1), full_node_fraction=0)
        ) == store.key(
            1, TraceParams(generation_mix=(0.0, 0.0, 1.0), full_node_fraction=0.0)
        )

    def test_suite_hits_skip_generation(self, store):
        first = production_trace_suite(
            count=2, params=SUITE_PARAMS, store=store
        )
        assert (store.hits, store.misses) == (0, 2)
        with telemetry.capture() as tel:
            second = production_trace_suite(
                count=2, params=SUITE_PARAMS, store=store
            )
        # Every trace came from the store: nothing was generated.
        assert tel.counters.get("trace.store_hits") == 2
        assert "trace.generated" not in tel.counters
        assert (store.hits, store.misses) == (2, 2)
        assert [t.digest() for t in second] == [t.digest() for t in first]
        assert [t.name for t in second] == [t.name for t in first]

    def test_corrupted_entry_falls_back_to_generation(self, store):
        production_trace_suite(count=2, params=SUITE_PARAMS, store=store)
        specs = suite_specs(count=2, params=SUITE_PARAMS)
        seed, params, _name = specs[0]
        path = store.path(seed, params)
        path.write_bytes(b"not a zip file at all")
        with telemetry.capture() as tel:
            suite = production_trace_suite(
                count=2, params=SUITE_PARAMS, store=store
            )
        assert tel.counters["trace.generated"] == 1
        assert tel.counters["trace.store_hits"] == 1
        assert tel.counters["trace.store_misses"] == 1
        # The regenerated trace matches the pristine one...
        assert suite[0].digest() == generate_trace(
            seed, params, name="x"
        ).digest()
        # ...and the suite re-put a fresh entry (the corrupt one moved
        # to quarantine — see TestCorruptionQuarantine).
        assert store.get(seed, params, "again") is not None

    def test_truncated_entry_falls_back(self, store):
        trace = generate_trace(seed=5, params=PARAMS)
        path = store.put(5, PARAMS, trace.columns)
        path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
        assert store.get(seed=5, params=PARAMS, name="t") is None

    def test_parallel_generation_matches_serial(self, store, tmp_path):
        serial = production_trace_suite(count=3, params=SUITE_PARAMS)
        parallel = production_trace_suite(
            count=3,
            params=SUITE_PARAMS,
            jobs=2,
            store=TraceStore(directory=tmp_path / "par"),
        )
        assert [t.digest() for t in parallel] == [
            t.digest() for t in serial
        ]

    def test_keep_going_neither_stores_nor_returns_a_failure(self, tmp_path):
        # A parallel suite inherits the settings' policy; a trace that
        # exhausted its retries is dropped, and only survivors are put.
        store = TraceStore(directory=tmp_path / "kept")
        policy = ResiliencePolicy(
            retry=RetryPolicy(max_retries=0),
            faults=FaultPlan(kill_indices=(1,), kill_attempts=99),
            on_failure="record",
        )
        with settings.using(policy=policy):
            suite = production_trace_suite(
                count=3, params=SUITE_PARAMS, jobs=2, store=store
            )
        assert [t.name for t in suite] == ["dc-00", "dc-02"]
        assert store.writes == 2

    def test_store_pickles_with_trace(self, store):
        # resilient_map ships traces back from workers; the store must not
        # leak unpicklable state into them.
        trace = store.get(5, PARAMS, "t") or generate_trace(5, PARAMS)
        clone = pickle.loads(pickle.dumps(trace))
        assert clone.digest() == trace.digest()


class TestCorruptionQuarantine:
    """Corrupt entries are quarantined with telemetry — never silently
    regenerated in place, never raised to the caller."""

    def _entry(self, store):
        trace = generate_trace(seed=5, params=PARAMS)
        path = store.put(5, PARAMS, trace.columns)
        return trace, path

    def _quarantined_names(self, store):
        if not store.quarantine_dir.exists():
            return []
        return sorted(p.name for p in store.quarantine_dir.iterdir())

    def test_truncated_entry_quarantined(self, store):
        _trace, path = self._entry(store)
        corrupt_file(path, mode="truncate")
        with telemetry.capture() as tel:
            assert store.get(seed=5, params=PARAMS, name="t") is None
        assert tel.counters["trace.store_quarantined"] == 1
        assert tel.counters["trace.store_misses"] == 1
        assert "trace.store_hits" not in tel.counters
        assert store.quarantined == 1
        assert not path.exists()
        assert self._quarantined_names(store) == [
            f"{path.name}.quarantined"
        ]

    def test_hash_mismatch_quarantined(self, store):
        # Bit rot that leaves a structurally valid .npz: flip one value
        # in a column (still passing shape/range validation) while
        # keeping the stored content digest — only digest verification
        # can catch this.
        trace, path = self._entry(store)
        with np.load(path, allow_pickle=False) as data:
            arrays = {name: data[name] for name in data.files}
        cores = arrays["cores"].copy()
        cores[0] = 8 if cores[0] != 8 else 4  # plausible but wrong
        arrays["cores"] = cores
        np.savez(path, **arrays)
        with pytest.raises(ConfigError, match="digest mismatch"):
            load_columns_npz(path)
        with telemetry.capture() as tel:
            assert store.get(seed=5, params=PARAMS, name="t") is None
        assert tel.counters["trace.store_quarantined"] == 1
        assert not path.exists()

    def test_concurrent_writer_crash_mid_rename(self, store):
        # A writer that died between writing its temp file and renaming
        # it leaves scratch debris plus (at worst) a torn final entry
        # from an unrelated partial copy.  The scratch file must never
        # be read as an entry, and the torn entry must be quarantined.
        trace, path = self._entry(store)
        stale_tmp = path.with_name(f"{path.name}.tmp-99999")
        stale_tmp.write_bytes(path.read_bytes()[: path.stat().st_size // 3])
        corrupt_file(path, mode="truncate")
        with telemetry.capture() as tel:
            assert store.get(seed=5, params=PARAMS, name="t") is None
        assert tel.counters["trace.store_quarantined"] == 1
        assert stale_tmp.exists()  # debris untouched: it is evidence too
        # A fresh put() repairs the entry and the next lookup hits.
        store.put(5, PARAMS, trace.columns)
        loaded = store.get(seed=5, params=PARAMS, name="t")
        assert loaded is not None
        assert loaded.digest() == trace.digest()

    def test_garbled_zip_quarantined(self, store):
        _trace, path = self._entry(store)
        corrupt_file(path, mode="garble", seed=11)
        with telemetry.capture() as tel:
            assert store.get(seed=5, params=PARAMS, name="t") is None
        assert tel.counters["trace.store_quarantined"] == 1

    def test_suite_regenerates_after_quarantine(self, store):
        # End to end: corrupt one suite entry, rerun the suite — the
        # damaged seed regenerates bit-identically and the evidence
        # lands in quarantine (replacing the PR 4 silent fallback).
        production_trace_suite(count=2, params=SUITE_PARAMS, store=store)
        specs = suite_specs(count=2, params=SUITE_PARAMS)
        seed, params, _name = specs[0]
        path = store.path(seed, params)
        corrupt_file(path, mode="truncate")
        with telemetry.capture() as tel:
            suite = production_trace_suite(
                count=2, params=SUITE_PARAMS, store=store
            )
        assert tel.counters["trace.store_quarantined"] == 1
        assert tel.counters["trace.generated"] == 1
        assert suite[0].digest() == generate_trace(
            seed, params, name="x"
        ).digest()
        assert self._quarantined_names(store) == [
            f"{path.name}.quarantined"
        ]


class TestMmapStreaming:
    """mmap=True streams columns off disk instead of eager-copying."""

    def test_mmap_load_equals_eager(self, tmp_path):
        trace = generate_trace(seed=5, params=PARAMS)
        path = tmp_path / "t.npz"
        save_columns_npz(trace.columns, path)
        streamed = load_columns_npz(path, mmap=True)
        assert streamed == trace.columns
        assert streamed.digest() == trace.digest()
        # The hot numeric columns really are memory-mapped views, not
        # copies (ascontiguousarray drops the subclass but keeps the
        # buffer).
        assert isinstance(streamed.arrival_hours.base, np.memmap)
        assert isinstance(streamed.cores.base, np.memmap)
        assert not streamed.arrival_hours.flags.owndata

    def test_store_counts_hit_kinds(self, store):
        trace = generate_trace(seed=5, params=PARAMS)
        store.put(5, PARAMS, trace.columns)
        with telemetry.capture() as tel:
            eager = store.get(5, PARAMS, "t")
            streamed = store.get(5, PARAMS, "t", mmap=True)
        assert eager is not None and streamed is not None
        assert streamed.digest() == eager.digest()
        assert tel.counters["trace.store_hits"] == 2
        assert tel.counters["trace.store_hits_eager"] == 1
        assert tel.counters["trace.store_hits_mmap"] == 1

    def test_mmap_corruption_still_quarantined(self, store):
        trace = generate_trace(seed=5, params=PARAMS)
        path = store.put(5, PARAMS, trace.columns)
        corrupt_file(path, mode="truncate")
        with telemetry.capture() as tel:
            assert store.get(5, PARAMS, "t", mmap=True) is None
        assert tel.counters["trace.store_quarantined"] == 1
        assert not path.exists()


class TestDtypeDriftQuarantine:
    """Entries whose column dtypes drifted from the schema are rejected
    in both load paths (never silently cast) and quarantined by the
    store."""

    def _drifted_entry(self, store):
        trace = generate_trace(seed=5, params=PARAMS)
        path = store.put(5, PARAMS, trace.columns)
        with np.load(path, allow_pickle=False) as data:
            arrays = {name: data[name] for name in data.files}
        arrays["cores"] = arrays["cores"].astype(np.int32)
        np.savez(path, **arrays)
        return path

    @pytest.mark.parametrize("mmap", [False, True])
    def test_load_rejects_drifted_dtype(self, store, mmap):
        path = self._drifted_entry(store)
        with pytest.raises(ConfigError, match="dtype drifted"):
            load_columns_npz(path, mmap=mmap)

    @pytest.mark.parametrize("mmap", [False, True])
    def test_store_quarantines_drifted_entry(self, store, mmap):
        path = self._drifted_entry(store)
        with telemetry.capture() as tel:
            assert store.get(5, PARAMS, "t", mmap=mmap) is None
        assert tel.counters["trace.store_quarantined"] == 1
        assert not path.exists()
        assert store.quarantine_dir.exists()


def store_on():
    return settings.current().use_trace_store


class TestStoreEnabled:
    def test_env_overrides(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE_STORE", "1")
        assert store_on()
        for off in ("0", "false", "no", "", "off", "False", "FALSE"):
            monkeypatch.setenv("REPRO_TRACE_STORE", off)
            assert not store_on()

    def test_follows_result_cache(self, monkeypatch):
        monkeypatch.delenv("REPRO_TRACE_STORE", raising=False)
        monkeypatch.delenv("REPRO_CACHE", raising=False)
        assert not store_on()
        monkeypatch.setenv("REPRO_CACHE", "1")
        assert store_on()
