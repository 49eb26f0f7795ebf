"""Unit tests for the provenance graph (records, log, invalidation)."""

import json

import pytest

from repro.core import settings
from repro.core.provenance import (
    ProvenanceLog,
    ProvenanceRecord,
    invalidated,
    record_task,
    result_digest,
)


def rec(artifact_id, inputs, output="out", kind="task"):
    return ProvenanceRecord.make(artifact_id, kind, inputs, output)


class TestRecord:
    def test_inputs_sorted_and_frozen(self):
        record = rec("a", {"z": "1", "b": "2"})
        assert record.inputs == (("b", "2"), ("z", "1"))
        assert record.inputs_map == {"b": "2", "z": "1"}

    def test_roundtrip(self):
        record = rec("a", {"x": "1"})
        assert ProvenanceRecord.from_dict(record.to_dict()) == record

    def test_result_digest_stable(self):
        assert result_digest({"a": 1}) == result_digest({"a": 1})
        assert result_digest({"a": 1}) != result_digest({"a": 2})

    def test_code_salt_env_override(self, monkeypatch):
        default = settings.current().code_salt
        monkeypatch.setenv("REPRO_CODE_SALT", "other-code")
        assert settings.current().code_salt == "other-code"
        monkeypatch.delenv("REPRO_CODE_SALT")
        assert settings.current().code_salt == default


class TestLog:
    def test_record_and_latest(self, tmp_path):
        log = ProvenanceLog(tmp_path / "p.jsonl")
        assert log.record("a", "task", {"x": "1"}, "d1")
        assert log.record("a", "task", {"x": "1"}, "d2")
        latest = log.latest()
        assert latest["a"].output_digest == "d2"
        assert len(log.records()) == 2

    def test_identical_record_is_idempotent(self, tmp_path):
        log = ProvenanceLog(tmp_path / "p.jsonl")
        assert log.record("a", "task", {"x": "1"}, "d1")
        assert not log.record("a", "task", {"x": "1"}, "d1")
        assert log.appended == 1
        assert log.unchanged == 1
        assert len(log.records()) == 1

    def test_missing_file_reads_empty(self, tmp_path):
        log = ProvenanceLog(tmp_path / "absent.jsonl")
        assert log.records() == []
        assert log.latest() == {}

    def test_corrupt_lines_skipped(self, tmp_path):
        path = tmp_path / "p.jsonl"
        log = ProvenanceLog(path)
        log.record("a", "task", {"x": "1"}, "d1")
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("not json\n")
            fh.write(json.dumps({"schema": "bogus"}) + "\n")
        log.record("b", "task", {"x": "1"}, "d2")
        fresh = ProvenanceLog(path)
        assert sorted(fresh.latest()) == ["a", "b"]
        assert fresh.skipped_corrupt == 2

    def test_reload_survives_process_boundary(self, tmp_path):
        path = tmp_path / "p.jsonl"
        ProvenanceLog(path).record("a", "task", {"x": "1"}, "d1")
        assert ProvenanceLog(path).latest()["a"].output_digest == "d1"


class TestInvalidation:
    def test_unchanged_inputs_mean_no_cone(self):
        latest = {"a": rec("a", {"leaf": "1"})}
        report = invalidated(latest, {"leaf": "1"})
        assert report.invalid == ()
        assert report.changed_inputs == ()

    def test_changed_leaf_invalidates_consumer(self):
        latest = {"a": rec("a", {"leaf": "1"}), "b": rec("b", {"leaf2": "9"})}
        report = invalidated(latest, {"leaf": "2", "leaf2": "9"})
        assert report.invalid == ("a",)
        assert report.changed_inputs == ("leaf",)
        assert report.is_invalid("a") and not report.is_invalid("b")

    def test_absent_leaves_presumed_unchanged(self):
        latest = {"a": rec("a", {"leaf": "1"})}
        assert invalidated(latest, {}).invalid == ()

    def test_cone_propagates_downstream(self):
        latest = {
            "a": rec("a", {"leaf": "1"}, output="da"),
            "b": rec("b", {"a": "da"}, output="db"),
            "c": rec("c", {"b": "db"}, output="dc"),
            "d": rec("d", {"other": "5"}, output="dd"),
        }
        report = invalidated(latest, {"leaf": "2"})
        assert report.invalid == ("a", "b", "c")

    def test_stale_edge_invalidates_dependent(self):
        # b recorded a's output as "old", but a has since recomputed.
        latest = {
            "a": rec("a", {"leaf": "1"}, output="new"),
            "b": rec("b", {"a": "old"}, output="db"),
        }
        report = invalidated(latest, {"leaf": "1"})
        assert report.invalid == ("b",)

    def test_cone_digest_deterministic_and_sensitive(self):
        latest = {"a": rec("a", {"leaf": "1"})}
        one = invalidated(latest, {"leaf": "2"})
        two = invalidated(latest, {"leaf": "2"})
        assert one.cone_digest() == two.cone_digest()
        assert one.cone_digest() != invalidated(latest, {"leaf": "1"}).cone_digest()


class TestActiveLog:
    def test_record_task_without_log_is_noop(self):
        assert settings.current().provenance is None
        record_task("key", {"v": 1})  # must not raise

    def test_recording_scopes_the_log(self, tmp_path):
        log = ProvenanceLog(tmp_path / "p.jsonl")
        with settings.using(provenance=log):
            assert settings.current().provenance is log
            record_task("some-key", {"v": 1})
        assert settings.current().provenance is None
        latest = log.latest()
        assert "task/some-key" in latest
        record = latest["task/some-key"]
        assert record.inputs_map["item"] == "some-key"
        assert record.inputs_map["code"] == settings.current().code_salt
        assert record.output_digest == result_digest({"v": 1})

    def test_resilient_map_records_tasks(self, tmp_path):
        from repro.core.resilience import resilient_map

        log = ProvenanceLog(tmp_path / "p.jsonl")
        with settings.using(provenance=log):
            out = resilient_map(str.upper, ["a", "b"], key_fn=str, jobs=1)
        assert out == ["A", "B"]
        latest = log.latest()
        assert "task/a" in latest and "task/b" in latest
        assert latest["task/a"].output_digest == result_digest("A")

    def test_experiment_run_records_artifact(self, tmp_path, monkeypatch):
        from repro.experiments import registry

        log = ProvenanceLog(tmp_path / "p.jsonl")

        class FakeModule:
            @staticmethod
            def main():
                return {"rows": [1, 2]}

        exp = registry.Experiment("fake", "fake experiment", FakeModule)
        with settings.using(provenance=log):
            registry._record_provenance(exp, FakeModule.main())
        record = log.latest()["experiment/fake"]
        assert record.kind == "experiment"
        assert record.output_digest == result_digest({"rows": [1, 2]})
