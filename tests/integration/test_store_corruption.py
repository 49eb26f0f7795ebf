"""Corruption corpus: no damaged entry of any on-disk store loads or raises.

Each store kind writes one small real entry, which is then damaged in
turn: XOR 0x01 at every byte offset and truncation at every length for
the pickle and catalog entries; for the ``.npz`` trace entry, XOR 0x01
at every offset of the first 256 bytes (the first member's header) and
the last 1024 (the zip directory) plus a seeded sample of the rest.
After each damage a read must not raise, and must return a miss or a
value equal to the original.  ``mmap=True`` trace reads skip the content
digest by design, so they are held only to "never raises".

The pinned cases below are damages that once loaded as data or escaped
a store's ``get``.
"""

import random
import shutil
import struct
import sys
import types
from pathlib import Path

import pytest

from repro.allocation.store import TraceStore
from repro.allocation.traces import TraceParams, generate_trace
from repro.catalog import ResultsCatalog, SweepSpec, closure_key, run_sweep
from repro.core.ioutil import atomic_write_bytes
from repro.core.provenance import ProvenanceLog
from repro.core.resilience import CheckpointJournal
from repro.core.runner import MISSING, DiskCache

VALUE = {"savings": 0.1234, "servers": [12, 3], "trace": "seed-3"}
INPUTS = {"code": "c0de", "trace/synthetic": "7ace"}
TRACE_SEED = 3
TRACE_PARAMS = TraceParams(duration_days=0.25, mean_concurrent_vms=8)

KINDS = ["cache", "journal", "catalog", "trace-eager", "trace-mmap"]


def _entry(kind, directory):
    """``(store, entry path, original value, read)`` for one real entry.

    ``read()`` goes through the store's public ``get`` and returns the
    value, or ``None`` on a miss.
    """
    if kind in ("cache", "journal"):
        store = (DiskCache if kind == "cache" else CheckpointJournal)(
            directory
        )
        store.put("k", VALUE)

        def read():
            value = store.get("k")
            return None if value is MISSING else value

        return store, _pickle_path(store), VALUE, read
    if kind == "catalog":
        catalog = ResultsCatalog(directory)
        key = closure_key(INPUTS)
        path = catalog.put(key, INPUTS, VALUE)
        return catalog, path, VALUE, lambda: catalog.get_payload(key)
    mmap = kind == "trace-mmap"
    store = TraceStore(directory)
    columns = generate_trace(TRACE_SEED, TRACE_PARAMS).columns
    path = store.put(TRACE_SEED, TRACE_PARAMS, columns)

    def read():
        trace = store.get(TRACE_SEED, TRACE_PARAMS, "t", mmap=mmap)
        return None if trace is None else trace.columns

    return store, path, columns, read


def _pickle_path(store, key="k"):
    """A pickle store's entry file: one ``<key>.pkl`` per key."""
    return Path(store.directory) / f"{key}.pkl"


def _damages(kind, data):
    """``(label, damaged bytes)`` for every damage the corpus applies."""
    if kind.startswith("trace"):
        head = range(min(256, len(data)))
        tail = range(max(256, len(data) - 1024), len(data))
        middle = range(256, max(256, len(data) - 1024))
        sample = random.Random(17).sample(middle, min(64, len(middle)))
        offsets = sorted({*head, *tail, *sample})
        truncations = []
    else:
        offsets = range(len(data))
        truncations = range(len(data))
    for offset in offsets:
        damaged = bytearray(data)
        damaged[offset] ^= 0x01
        yield f"xor 0x01 at byte {offset}", bytes(damaged)
    for length in truncations:
        yield f"truncated to {length} bytes", data[:length]


@pytest.mark.parametrize("kind", KINDS)
def test_no_damage_loads_as_data_or_raises(kind, tmp_path):
    store, path, original, read = _entry(kind, tmp_path / kind)
    pristine = path.read_bytes()
    exact = kind != "trace-mmap"
    checked = 0
    for label, damaged in _damages(kind, pristine):
        # A new inode per damage, so a map an mmap hit still holds on
        # the previous file stays valid.
        atomic_write_bytes(path, damaged)
        try:
            value = read()
        except Exception as exc:  # noqa: BLE001 — the property under test
            pytest.fail(f"{kind}, {label}: get raised {exc!r}")
        if exact:
            assert value is None or value == original, (
                f"{kind}, {label}: a damaged entry loaded a different value"
            )
        value = None
        shutil.rmtree(path.parent / "quarantine", ignore_errors=True)
        checked += 1
    least = 1280 if kind.startswith("trace") else 2 * len(pristine)
    assert checked >= least
    atomic_write_bytes(path, pristine)
    assert read() == original


@pytest.mark.parametrize("kind", KINDS[:-1])
def test_two_corruptions_of_one_key_keep_both(kind, tmp_path):
    store, path, original, read = _entry(kind, tmp_path / kind)
    pristine = path.read_bytes()
    for damage in (b"first corruption", b"second corruption"):
        path.write_bytes(damage)
        assert read() is None
        atomic_write_bytes(path, pristine)
    assert read() == original
    assert store.quarantined == 2
    name = f"{path.name}.quarantined"
    kept = {
        p.name: p.read_bytes() for p in (path.parent / "quarantine").iterdir()
    }
    assert kept == {
        name: b"first corruption",
        f"{name}.1": b"second corruption",
    }


@pytest.mark.parametrize("store_cls", [DiskCache, CheckpointJournal])
class TestPinnedPickleCases:
    def test_float_bit_flip_is_a_miss(self, store_cls, tmp_path):
        store = store_cls(tmp_path)
        store.put("k", {"savings": 0.1234})
        path = _pickle_path(store)
        data = bytearray(path.read_bytes())
        data[data.index(struct.pack(">d", 0.1234)) + 7] ^= 0x01
        path.write_bytes(bytes(data))
        assert store.get("k") is MISSING
        assert store.quarantined == 1

    def test_entry_whose_class_module_is_gone(
        self, store_cls, tmp_path, monkeypatch
    ):
        module = types.ModuleType("repro_gone_module")
        gone = type("Gone", (), {"__module__": module.__name__})
        module.Gone = gone
        monkeypatch.setitem(sys.modules, module.__name__, module)
        store = store_cls(tmp_path)
        store.put("k", gone())
        monkeypatch.delitem(sys.modules, module.__name__)
        assert store.get("k") is MISSING
        assert store.quarantined == 1

    def test_overflowing_pickle_bytes(self, store_cls, tmp_path):
        store = store_cls(tmp_path)
        _pickle_path(store).write_bytes(bytes.fromhex("80058effffffffffffff7f"))
        assert store.get("k") is MISSING
        assert store.quarantined == 1


def test_catalog_flip_recomputes_the_point(tmp_path):
    spec = SweepSpec(
        skus=("GreenSKU-Full",),
        adoption_rules=("always",),
        buffer_fractions=(0.15,),
        cxl_dimm_counts=(None,),
        backends=("synthetic",),
        seed=3,
        vms=30,
        days=0.5,
    )
    log = ProvenanceLog(tmp_path / "p.jsonl")
    cold = run_sweep(spec, ResultsCatalog(tmp_path / "catalog"), log)
    catalog = ResultsCatalog(tmp_path / "catalog")
    path = catalog.entry_path(cold.keys[0])
    data = bytearray(path.read_bytes())
    data[20] ^= 0x01
    path.write_bytes(bytes(data))
    again = run_sweep(spec, catalog, log)
    assert again.recomputed == cold.recomputed
    assert len(again.recomputed) == 1
    assert catalog.quarantined == 1
    assert len(list(catalog.quarantine_dir.iterdir())) == 1
    assert again.payloads == cold.payloads
