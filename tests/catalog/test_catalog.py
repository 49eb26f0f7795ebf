"""Unit tests for the closure-keyed results catalog store."""

import gzip
import json

from repro.catalog import (
    ResultsCatalog,
    canonical_json,
    closure_key,
    payload_digest,
)

INPUTS = {"code": "c1", "trace/synthetic": "t1"}
PAYLOAD = {"cluster_savings": 0.2, "point": {"sku": "GreenSKU-Full"}}


class TestKeys:
    def test_closure_key_order_independent(self):
        assert closure_key({"a": "1", "b": "2"}) == closure_key(
            {"b": "2", "a": "1"}
        )

    def test_closure_key_moves_with_any_input(self):
        base = closure_key(INPUTS)
        assert closure_key({**INPUTS, "code": "c2"}) != base
        assert closure_key({**INPUTS, "extra": "x"}) != base

    def test_canonical_json_is_sorted_and_compact(self):
        assert canonical_json({"b": 1, "a": [1, 2]}) == '{"a":[1,2],"b":1}'

    def test_payload_digest_tracks_content(self):
        assert payload_digest({"a": 1}) == payload_digest({"a": 1})
        assert payload_digest({"a": 1}) != payload_digest({"a": 2})


class TestStore:
    def test_put_get_roundtrip(self, tmp_path):
        catalog = ResultsCatalog(tmp_path)
        key = closure_key(INPUTS)
        catalog.put(key, INPUTS, PAYLOAD)
        document = catalog.get(key)
        assert document["payload"] == PAYLOAD
        assert document["inputs"] == INPUTS
        assert catalog.get_payload(key) == PAYLOAD
        assert catalog.hits == 2
        assert catalog.writes == 1

    def test_entry_bytes_deterministic(self, tmp_path):
        a = ResultsCatalog(tmp_path / "a")
        b = ResultsCatalog(tmp_path / "b")
        key = closure_key(INPUTS)
        pa = a.put(key, INPUTS, PAYLOAD)
        pb = b.put(key, INPUTS, PAYLOAD)
        assert pa.read_bytes() == pb.read_bytes()

    def test_unchanged_republish_skips_write(self, tmp_path):
        catalog = ResultsCatalog(tmp_path)
        key = closure_key(INPUTS)
        catalog.put(key, INPUTS, PAYLOAD)
        mtime = catalog.entry_path(key).stat().st_mtime_ns
        catalog.put(key, INPUTS, PAYLOAD)
        assert catalog.unchanged == 1
        assert catalog.writes == 1
        assert catalog.entry_path(key).stat().st_mtime_ns == mtime

    def test_miss_counts(self, tmp_path):
        catalog = ResultsCatalog(tmp_path)
        assert catalog.get("absent") is None
        assert catalog.misses == 1

    def test_corrupt_entry_quarantined_as_miss(self, tmp_path):
        catalog = ResultsCatalog(tmp_path)
        key = closure_key(INPUTS)
        catalog.put(key, INPUTS, PAYLOAD)
        catalog.entry_path(key).write_bytes(b"not gzip at all")
        assert catalog.get(key) is None
        assert catalog.quarantined == 1
        assert not catalog.entry_path(key).exists()
        quarantined = list(catalog.quarantine_dir.iterdir())
        assert len(quarantined) == 1

    def test_truncated_gzip_quarantined(self, tmp_path):
        catalog = ResultsCatalog(tmp_path)
        key = closure_key(INPUTS)
        path = catalog.put(key, INPUTS, PAYLOAD)
        path.write_bytes(path.read_bytes()[:-5])
        assert catalog.get(key) is None
        assert catalog.quarantined == 1

    def test_non_document_json_quarantined(self, tmp_path):
        catalog = ResultsCatalog(tmp_path)
        key = closure_key(INPUTS)
        catalog.entry_path(key).parent.mkdir(parents=True, exist_ok=True)
        catalog.entry_path(key).write_bytes(
            gzip.compress(json.dumps([1, 2]).encode("utf-8"))
        )
        assert catalog.get(key) is None
        assert catalog.quarantined == 1

    def test_keys_and_gc(self, tmp_path):
        catalog = ResultsCatalog(tmp_path)
        keys = []
        for i in range(3):
            inputs = {**INPUTS, "cfg": str(i)}
            key = closure_key(inputs)
            keys.append(key)
            catalog.put(key, inputs, {"i": i})
        assert catalog.keys() == sorted(keys)
        removed = catalog.gc(keys[:1])
        assert removed == 2
        assert catalog.evicted == 2
        assert catalog.keys() == [keys[0]]
        assert catalog.gc(keys[:1]) == 0

    def test_manifest_shape(self, tmp_path):
        catalog = ResultsCatalog(tmp_path)
        key = closure_key(INPUTS)
        catalog.put(key, INPUTS, PAYLOAD)
        catalog.get(key)
        manifest = catalog.manifest()
        assert manifest["schema"] == "repro-catalog/1"
        assert manifest["entries"] == 1
        assert manifest["total_bytes"] > 0
        assert manifest["hits"] == 1 and manifest["writes"] == 1

    def test_missing_directory_reads_empty(self, tmp_path):
        catalog = ResultsCatalog(tmp_path / "never-created")
        assert catalog.keys() == []
        assert catalog.manifest()["entries"] == 0


class TestCacheEffectivenessLines:
    def test_renders_active_layers_only(self):
        from repro.core.telemetry import cache_effectiveness_lines

        lines = cache_effectiveness_lines(
            {
                "catalog.hits": 9,
                "catalog.misses": 1,
                "catalog.writes": 1,
            }
        )
        joined = "\n".join(lines)
        assert "results catalog" in joined
        assert "90.0%" in joined
        assert "writes 1" in joined
        assert "disk cache" not in joined
        assert "trace store" not in joined

    def test_silent_when_no_cache_activity(self):
        from repro.core.telemetry import cache_effectiveness_lines

        assert cache_effectiveness_lines({}) == []
        assert cache_effectiveness_lines({"other.counter": 3}) == []
