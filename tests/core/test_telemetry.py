"""Unit tests for the telemetry layer (counters, timers, spans, manifest)."""

from __future__ import annotations

import json

import pytest

from repro.core import telemetry
from repro.core.errors import ConfigError
from repro.core.telemetry import (
    SCHEMA,
    Telemetry,
    TimerStat,
    capture,
    load_manifest,
    render_manifest,
    validate_manifest,
    write_manifest,
)


class FakeClock:
    """Deterministic clock: each read advances by ``step`` seconds."""

    def __init__(self, step: float = 1.0) -> None:
        self.now = 0.0
        self.step = step

    def __call__(self) -> float:
        value = self.now
        self.now += self.step
        return value


class TestCounters:
    def test_count_creates_and_accumulates(self):
        tel = Telemetry(clock=FakeClock())
        tel.count("a")
        tel.count("a", 4)
        tel.count("b", 0)
        assert tel.counters == {"a": 5, "b": 0}

    def test_count_many_folds_batch(self):
        tel = Telemetry(clock=FakeClock())
        tel.count("a", 2)
        tel.count_many({"a": 3, "b": 7})
        assert tel.counters == {"a": 5, "b": 7}


class TestTimers:
    def test_timer_context_uses_injected_clock(self):
        clock = FakeClock(step=0.5)
        tel = Telemetry(clock=clock)
        with tel.timer("t"):
            pass
        stat = tel.timers["t"]
        # One read at start, one at stop: elapsed == one step.
        assert stat.count == 1
        assert stat.total_s == pytest.approx(0.5)
        assert stat.min_s == pytest.approx(0.5)
        assert stat.max_s == pytest.approx(0.5)

    def test_record_timer_tracks_min_max(self):
        tel = Telemetry(clock=FakeClock())
        tel.record_timer("t", 2.0)
        tel.record_timer("t", 1.0)
        tel.record_timer("t", 3.0)
        assert tel.timers["t"].as_tuple() == (3, 6.0, 1.0, 3.0)

    def test_negative_elapsed_clamped(self):
        tel = Telemetry(clock=FakeClock())
        tel.record_timer("t", -0.25)
        assert tel.timers["t"].as_tuple() == (1, 0.0, 0.0, 0.0)

    def test_timer_records_on_exception(self):
        tel = Telemetry(clock=FakeClock())
        with pytest.raises(RuntimeError):
            with tel.timer("t"):
                raise RuntimeError("boom")
        assert tel.timers["t"].count == 1

    def test_merge_skips_empty_and_keeps_extrema(self):
        stat = TimerStat()
        stat.merge(0, 99.0, 0.0, 99.0)  # no-op: count 0
        assert stat.count == 0
        stat.record(2.0)
        stat.merge(2, 4.0, 0.5, 3.5)
        assert stat.as_tuple() == (3, 6.0, 0.5, 3.5)

    def test_empty_timer_to_dict_has_zero_min(self):
        assert TimerStat().to_dict() == {
            "count": 0, "total_s": 0.0, "min_s": 0.0, "max_s": 0.0,
        }


class TestSpans:
    def test_nesting_shape(self):
        tel = Telemetry(clock=FakeClock())
        with tel.span("outer"):
            with tel.span("inner-1"):
                pass
            with tel.span("inner-2"):
                pass
        manifest = tel.manifest()
        (outer,) = manifest["spans"]
        assert outer["name"] == "outer"
        assert [c["name"] for c in outer["children"]] == [
            "inner-1", "inner-2",
        ]
        assert tel.span_depth == 0

    def test_span_exits_cleanly_on_exception(self):
        tel = Telemetry(clock=FakeClock())
        with pytest.raises(ValueError):
            with tel.span("outer"):
                raise ValueError("boom")
        assert tel.span_depth == 0
        with tel.span("after"):
            pass
        assert [n["name"] for n in tel.manifest()["spans"]] == [
            "outer", "after",
        ]

    def test_span_elapsed_from_injected_clock(self):
        clock = FakeClock(step=1.0)
        tel = Telemetry(clock=clock)
        with tel.span("s"):
            pass
        (node,) = tel.manifest()["spans"]
        assert node["elapsed_s"] == pytest.approx(1.0)


class TestActivation:
    def test_off_by_default(self):
        assert telemetry.active() is None
        assert not telemetry.enabled()
        # Module-level helpers are silent no-ops when off.
        telemetry.count("x")
        with telemetry.timer("t"):
            pass
        with telemetry.span("s"):
            pass

    def test_capture_installs_and_restores(self):
        with capture() as tel:
            assert telemetry.active() is tel
            telemetry.count("hits", 3)
            assert tel.counters["hits"] == 3
        assert telemetry.active() is None

    def test_nested_capture_shadows_without_folding(self):
        with capture() as outer:
            telemetry.count("outer")
            with capture() as inner:
                assert telemetry.active() is inner
                telemetry.count("inner")
            assert telemetry.active() is outer
            assert inner.counters == {"inner": 1}
            assert outer.counters == {"outer": 1}

    def test_capture_restores_on_exception(self):
        with pytest.raises(RuntimeError):
            with capture():
                raise RuntimeError("boom")
        assert telemetry.active() is None


class TestDrainAbsorb:
    def test_round_trip_is_lossless(self):
        clock = FakeClock()
        worker = Telemetry(clock=clock)
        worker.count("a", 2)
        worker.record_timer("t", 1.5)
        worker.record_timer("t", 0.5)

        parent = Telemetry(clock=FakeClock())
        parent.count("a", 1)
        parent.record_timer("t", 1.0)
        parent.absorb(*worker.drain())

        assert parent.counters == {"a": 3}
        assert parent.timers["t"].as_tuple() == (3, 3.0, 0.5, 1.5)

    def test_drain_is_picklable_plain_data(self):
        worker = Telemetry(clock=FakeClock())
        worker.count("a")
        worker.record_timer("t", 1.0)
        counters, timers = worker.drain()
        # Must survive a JSON round-trip (superset of pickle needs).
        assert json.loads(json.dumps([counters, timers])) is not None


class TestManifest:
    def test_manifest_keys_sorted_and_valid(self):
        tel = Telemetry(clock=FakeClock())
        tel.count("z", 1)
        tel.count("a", 2)
        tel.record_timer("t", 1.0)
        with tel.span("phase"):
            pass
        manifest = tel.manifest(command="run", argv=["run", "fig9"])
        assert list(manifest["counters"]) == ["a", "z"]
        assert manifest["schema"] == SCHEMA
        assert manifest["command"] == "run"
        assert validate_manifest(manifest) == []

    def test_json_round_trip_preserves_manifest(self, tmp_path):
        tel = Telemetry(clock=FakeClock())
        tel.count("a", 5)
        tel.record_timer("t", 0.25)
        with tel.span("outer"):
            with tel.span("inner"):
                pass
        manifest = tel.manifest(command="run")
        path = tmp_path / "tel.json"
        write_manifest(manifest, path)
        assert load_manifest(path) == manifest

    def test_load_rejects_non_object(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("[1, 2, 3]\n")
        with pytest.raises(ConfigError):
            load_manifest(path)


class TestValidation:
    def _valid(self):
        return Telemetry(clock=FakeClock()).manifest(command="run")

    def test_empty_capture_is_valid(self):
        assert validate_manifest(self._valid()) == []

    @pytest.mark.parametrize(
        "mutate, fragment",
        [
            (lambda m: m.update(schema="bogus/9"), "schema"),
            (lambda m: m.update(command=7), "command"),
            (lambda m: m.update(argv=[1]), "argv"),
            (lambda m: m.update(elapsed_s=-1.0), "elapsed_s"),
            (lambda m: m.update(counters={"a": 1.5}), "counters"),
            (lambda m: m.update(counters={"a": True}), "counters"),
            (lambda m: m.update(counters="no"), "counters"),
            (
                lambda m: m.update(timers={"t": {
                    "count": 1, "total_s": 1.0, "min_s": 2.0, "max_s": 1.0,
                }}),
                "min_s",
            ),
            (
                lambda m: m.update(timers={"t": {
                    "count": -1, "total_s": 0.0, "min_s": 0.0, "max_s": 0.0,
                }}),
                "count",
            ),
            (lambda m: m.update(spans=[{"name": ""}]), "span"),
            (lambda m: m.update(spans="no"), "spans"),
            (lambda m: m.update(settings=["jobs", 1]), "settings"),
            (lambda m: m.update(settings=None), "settings"),
        ],
    )
    def test_rejects_malformed(self, mutate, fragment):
        manifest = self._valid()
        mutate(manifest)
        problems = validate_manifest(manifest)
        assert problems, f"expected a problem mentioning {fragment!r}"
        assert any(fragment in p for p in problems)

    def test_rejects_non_dict(self):
        assert validate_manifest([1]) == ["manifest must be a JSON object"]

    def test_settings_block_is_optional(self):
        manifest = self._valid()
        assert "settings" not in manifest
        manifest["settings"] = {"jobs": 1}
        assert validate_manifest(manifest) == []


class TestRendering:
    def test_render_mentions_everything(self):
        tel = Telemetry(clock=FakeClock())
        tel.count("alloc.placements", 12345)
        tel.record_timer("alloc.replay", 0.5)
        with tel.span("experiment.fig9"):
            with tel.span("replay"):
                pass
        text = render_manifest(tel.manifest(command="run"))
        assert "alloc.placements" in text
        assert "12,345" in text
        assert "alloc.replay" in text
        assert "experiment.fig9" in text
        assert "replay" in text

    def test_render_settings_block(self):
        manifest = Telemetry(clock=FakeClock()).manifest()
        manifest["settings"] = {
            "jobs": 2, "cache": False, "provenance": None,
            "policy": {"retries": 0, "journal": None},
        }
        text = render_manifest(manifest)
        assert "settings:" in text
        assert "  jobs: 2" in text
        assert "  cache: false" in text
        assert "  provenance: null" in text
        assert '  policy: {"retries": 0, "journal": null}' in text
        versions = f"python {manifest['python']}, numpy {manifest['numpy']}"
        assert versions in text

    def test_render_empty_capture(self):
        text = render_manifest(Telemetry(clock=FakeClock()).manifest())
        assert "(empty capture)" in text
