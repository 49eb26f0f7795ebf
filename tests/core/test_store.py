"""The store primitive: digest-framed pickles and non-overwriting quarantine."""

import hashlib
import pickle
import threading

from repro.core import telemetry
from repro.core.store import (
    MISSING,
    PICKLE_MAGIC,
    PickleStore,
    Store,
    quarantine,
)


class TestQuarantine:
    def test_copies_never_overwrite(self, tmp_path):
        qdir = tmp_path / "quarantine"
        moved = []
        for content in (b"one", b"two", b"three"):
            entry = tmp_path / "k.pkl"
            entry.write_bytes(content)
            moved.append(quarantine(entry, qdir))
            assert not entry.exists()
        assert [p.name for p in moved] == [
            "k.pkl.quarantined",
            "k.pkl.quarantined.1",
            "k.pkl.quarantined.2",
        ]
        assert [p.read_bytes() for p in moved] == [b"one", b"two", b"three"]

    def test_empty_suffix_keeps_the_source_name(self, tmp_path):
        qdir = tmp_path / "quarantine"
        names = []
        for _ in range(2):
            source = tmp_path / "bad.csv.gz"
            source.write_bytes(b"\x1f\x8b")
            names.append(quarantine(source, qdir, suffix="").name)
        assert names == ["bad.csv.gz", "bad.csv.gz.1"]

    def test_gone_source_moves_nothing(self, tmp_path):
        assert quarantine(tmp_path / "absent", tmp_path / "quarantine") is None

    def test_concurrent_quarantiners_leave_one_copy(self, tmp_path):
        # More threads than cores race to quarantine the same file each
        # round: exactly one wins, and no copy is lost or duplicated.
        qdir = tmp_path / "quarantine"
        entry = tmp_path / "k.pkl"
        threads = 8
        barrier = threading.Barrier(threads)
        for round_no in range(25):
            entry.write_bytes(f"round {round_no}".encode())
            results = []

            def race():
                barrier.wait(timeout=10)
                results.append(quarantine(entry, qdir))

            workers = [threading.Thread(target=race) for _ in range(threads)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=10)
                assert not worker.is_alive()
            winners = [p for p in results if p is not None]
            assert len(results) == threads and len(winners) == 1
            assert winners[0].read_bytes() == f"round {round_no}".encode()
            assert not entry.exists()
        assert sorted(p.read_bytes() for p in qdir.iterdir()) == sorted(
            f"round {n}".encode() for n in range(25)
        )


class TestPickleStore:
    def test_unframed_pickle_never_loads(self, tmp_path):
        # An entry in the plain pickle format: quarantined, not loaded.
        store = PickleStore(tmp_path)
        with open(store.entry_path("k"), "wb") as fh:
            pickle.dump({"answer": 42}, fh)
        assert store.get("k") is MISSING
        assert store.quarantined == 1
        assert (store.quarantine_dir / "k.pkl.quarantined").exists()

    def test_framed_unloadable_body_is_quarantined(self, tmp_path):
        # The digest matches, but unpickling raises OverflowError.
        store = PickleStore(tmp_path)
        body = bytes.fromhex("80058effffffffffffff7f")
        store.entry_path("k").write_bytes(
            PICKLE_MAGIC + hashlib.sha256(body).digest() + body
        )
        assert store.get("k") is MISSING
        assert store.quarantined == 1


class _Counted(Store):
    suffix = ".bin"
    counter_names = {"hits": "test.hits", "quarantined": "test.quarantined"}


class TestStore:
    def test_any_decode_exception_is_corruption(self, tmp_path):
        store = _Counted(tmp_path)
        store.write("k", lambda tmp: tmp.write_bytes(b"x"))

        def decode(path):
            raise RuntimeError("codec bug or bad bytes")

        with telemetry.capture() as tel:
            assert store.read("k", decode) is MISSING
        assert (store.quarantined, store.misses, store.hits) == (1, 1, 0)
        assert tel.counters == {"test.quarantined": 1}

    def test_counts_tick_and_only_named_events_reach_telemetry(
        self, tmp_path
    ):
        store = _Counted(tmp_path)
        with telemetry.capture() as tel:
            path = store.write("k", lambda tmp: tmp.write_bytes(b"v"))
            assert store.read("k", lambda p: p.read_bytes()) == b"v"
        assert path == tmp_path / "k.bin"
        assert (store.writes, store.hits) == (1, 1)
        assert tel.counters == {"test.hits": 1}
