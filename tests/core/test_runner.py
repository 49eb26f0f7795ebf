"""Tests for the shared experiment runner settings and the one map.

Every fan-out runs on ``resilient_map``; these tests pin its plain
parallel-map and cached-map behaviour, which the runner's worker-count
and cache settings feed.
"""

from __future__ import annotations

import os

import pytest

from repro.core import settings, telemetry
from repro.core.errors import ConfigError
from repro.core.resilience import resilient_map
from repro.core.runner import (
    MISSING,
    DiskCache,
    content_key,
    resolve_jobs,
)


def _square(x):
    return x * x


def _pid_tag(x):
    return (x, os.getpid())


def _size_trace(seed):
    """A picklable sizing task: probes run inside the worker process."""
    from repro.allocation.traces import TraceParams, generate_trace
    from repro.gsf.sizing import right_size
    from repro.hardware.sku import baseline_gen3

    trace = generate_trace(
        seed=seed,
        params=TraceParams(duration_days=2, mean_concurrent_vms=40),
    )
    return right_size(trace, baseline_gen3())


class TestResolveJobs:
    def test_explicit_argument_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "7")
        assert resolve_jobs(3) == 3

    def test_env_over_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "5")
        assert resolve_jobs(None) == 5

    def test_cli_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        with settings.using(jobs=2):
            assert resolve_jobs(None) == 2

    def test_flag_over_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "5")
        with settings.using(jobs=2):
            assert resolve_jobs(None) == 2

    def test_falls_back_to_cpu_count(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert resolve_jobs(None) == (os.cpu_count() or 1)

    def test_rejects_nonpositive(self):
        with pytest.raises(ConfigError):
            resolve_jobs(0)
        with pytest.raises(ConfigError):
            with settings.using(jobs=-1):
                pass


class TestParallelMap:
    """``resilient_map`` with no key, cache or policy: a parallel map."""

    def test_serial_matches_builtin_map(self):
        items = list(range(20))
        assert resilient_map(_square, items, jobs=1) == [x * x for x in items]

    def test_parallel_preserves_input_order(self):
        items = list(range(20))
        assert resilient_map(_square, items, jobs=4) == [x * x for x in items]

    def test_parallel_identical_to_serial(self):
        items = list(range(13))
        assert resilient_map(_square, items, jobs=3) == resilient_map(
            _square, items, jobs=1
        )

    def test_runs_in_worker_processes(self):
        # Two workers over four items: at least one item must land in a
        # different process than the parent.
        tagged = resilient_map(_pid_tag, [1, 2, 3, 4], jobs=2)
        assert [x for x, _pid in tagged] == [1, 2, 3, 4]
        assert any(pid != os.getpid() for _x, pid in tagged)

    def test_empty_items(self):
        assert resilient_map(_square, [], jobs=4) == []

    def test_stats_accumulate(self):
        with telemetry.capture() as tel:
            resilient_map(_square, [1, 2, 3], jobs=1)
            resilient_map(_square, [4, 5], jobs=1)
        assert tel.counters["runner.tasks"] == 5
        assert "runner.parallel_tasks" not in tel.counters


class TestTelemetryFoldIn:
    """Worker-process telemetry folds back into the parent's capture.

    The pinned invariant: every counter and timer *count* is identical
    between ``jobs=1`` and ``jobs=N`` — parallelism changes where work
    runs, never how much of it is accounted.  The only exception is
    ``runner.parallel_tasks``, which by definition counts tasks shipped
    to worker processes.
    """

    def _run(self, jobs):
        with telemetry.capture() as tel:
            results = resilient_map(_size_trace, [21, 22, 23], jobs=jobs)
        return results, tel

    def test_counters_identical_across_worker_counts(self):
        serial_results, serial_tel = self._run(jobs=1)
        parallel_results, parallel_tel = self._run(jobs=2)
        assert parallel_results == serial_results

        def comparable(tel):
            counters = dict(tel.counters)
            counters.pop("runner.parallel_tasks", None)
            return counters

        serial = comparable(serial_tel)
        parallel = comparable(parallel_tel)
        # The searches really ran and were really counted on both paths.
        assert serial["runner.tasks"] == 3
        assert serial["sizing.searches"] == 3
        assert serial["sizing.simulate_calls"] > 0
        assert serial["alloc.replays"] > 0
        assert parallel == serial
        assert parallel_tel.counters["runner.parallel_tasks"] == 3

    def test_timer_counts_identical_across_worker_counts(self):
        _, serial_tel = self._run(jobs=1)
        _, parallel_tel = self._run(jobs=2)
        assert set(serial_tel.timers) == set(parallel_tel.timers)
        assert serial_tel.timers["runner.task"].count == 3
        for name, stat in serial_tel.timers.items():
            assert parallel_tel.timers[name].count == stat.count

    def test_disabled_parent_means_no_worker_capture(self):
        # With telemetry off, workers must not capture (drained is None)
        # and the map behaves exactly as before the instrumentation.
        assert telemetry.active() is None
        results = resilient_map(_size_trace, [21], jobs=2)
        assert results == resilient_map(_size_trace, [21], jobs=1)
        assert telemetry.active() is None


class TestDiskCache:
    def test_miss_then_hit_roundtrip(self, tmp_path):
        cache = DiskCache(tmp_path)
        key = content_key("a", 1)
        assert cache.get(key) is MISSING
        cache.put(key, {"answer": 42})
        assert cache.get(key) == {"answer": 42}
        assert cache.hits == 1 and cache.misses == 1

    def test_none_is_a_valid_cached_value(self, tmp_path):
        cache = DiskCache(tmp_path)
        cache.put("k", None)
        assert cache.get("k") is None

    def test_corrupt_entry_counts_as_miss(self, tmp_path):
        cache = DiskCache(tmp_path)
        cache.put("k", [1, 2])
        (tmp_path / "k.pkl").write_bytes(b"not a pickle")
        assert cache.get("k") is MISSING
        assert cache.misses == 1

    def test_content_key_sensitivity(self):
        assert content_key("a", 1) == content_key("a", 1)
        assert content_key("a", 1) != content_key("a", 2)
        # Concatenation must not collide across part boundaries.
        assert content_key("ab", "c") != content_key("a", "bc")


class TestCachedMap:
    """``resilient_map`` with a key and a disk cache."""

    def test_cached_identical_to_uncached(self, tmp_path):
        items = list(range(8))
        cache = DiskCache(tmp_path)
        first = resilient_map(_square, items, key_fn=str, jobs=1, cache=cache)
        again = resilient_map(_square, items, key_fn=str, jobs=1, cache=cache)
        assert first == again == [x * x for x in items]
        assert cache.misses == 8 and cache.hits == 8

    def test_partial_hit_fills_only_misses(self, tmp_path):
        cache = DiskCache(tmp_path)
        resilient_map(_square, [1, 2], key_fn=str, jobs=1, cache=cache)
        result = resilient_map(_square, [1, 2, 3], key_fn=str, jobs=1,
                               cache=cache)
        assert result == [1, 4, 9]
        assert cache.hits == 2 and cache.misses == 3  # 2 initial + 1 new

    def test_disabled_by_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE", raising=False)
        assert not settings.current().cache

    def test_opt_in_via_override(self):
        with settings.using(cache=True):
            assert settings.current().cache

    def test_opt_in_switch_supplies_the_cache(self, tmp_path, monkeypatch):
        # cache=None lets the switch decide, so every fan-out (the fleet
        # included) honours --cache / REPRO_CACHE.
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        with settings.using(cache=True):
            first = resilient_map(_square, [1, 2], key_fn=str, jobs=1)
            with telemetry.capture() as tel:
                again = resilient_map(_square, [1, 2], key_fn=str, jobs=1)
        assert first == again == [1, 4]
        assert tel.counters["runner.cache_hits"] == 2
        assert DiskCache(tmp_path).get("2") == 4

    def test_cache_stays_off_by_default(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.delenv("REPRO_CACHE", raising=False)
        resilient_map(_square, [1, 2], key_fn=str, jobs=1)
        assert not list(tmp_path.iterdir())
