"""Shared experiment-execution substrate: parallel map + result caching.

Every cluster-scale experiment (Figs. 9/10/11, the ablation grids)
evaluates many independent configurations — one trace, one placement
policy, one carbon intensity at a time.  This module gives those sweeps a
common execution layer:

- :func:`parallel_map` — a deterministic process-pool map.  Results are
  collected in **input order** regardless of completion order, and each
  task is a pure function of its item, so the output is byte-identical
  to the serial path (``jobs=1``) on any worker count.
- :class:`DiskCache` — an opt-in on-disk result cache keyed by a content
  hash of the work item (trace parameters + seed content, SKU, policy),
  so benchmark reruns skip unchanged work.  It is a
  :class:`repro.core.store.PickleStore`: digest-checked entries, corrupt
  ones quarantined, hits and misses counted per cache and in telemetry.
- :func:`cached_map` — the composition the experiments use: look up each
  item, fan out only the misses, store the new results.

Worker-count resolution (first match wins): explicit ``jobs=`` argument,
the ``REPRO_JOBS`` environment variable, a process-wide default set by
the CLI's ``--jobs`` flag, then ``os.cpu_count()``.  Caching resolution
mirrors it with ``REPRO_CACHE`` / ``--cache`` / ``--no-cache`` and
defaults to *disabled* (the cache is opt-in).
"""

from __future__ import annotations

import hashlib
import os
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from typing import Callable, List, Optional, Sequence, TypeVar

from . import telemetry
from .errors import ConfigError
from .store import MISSING, PickleStore

T = TypeVar("T")
R = TypeVar("R")

#: Environment knobs (shared with the ``python -m repro`` CLI flags).
JOBS_ENV = "REPRO_JOBS"
CACHE_ENV = "REPRO_CACHE"
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: Default on-disk cache location (relative to the working directory).
DEFAULT_CACHE_DIR = ".repro-cache"

_default_jobs: Optional[int] = None
_cache_override: Optional[bool] = None


# -- worker-count / cache configuration ---------------------------------------


def set_default_jobs(jobs: Optional[int]) -> None:
    """Set the process-wide default worker count (the CLI's ``--jobs``)."""
    global _default_jobs
    if jobs is not None and jobs < 1:
        raise ConfigError(f"jobs must be >= 1, got {jobs}")
    _default_jobs = jobs


def set_cache_enabled(enabled: Optional[bool]) -> None:
    """Force the disk cache on/off process-wide (``--cache``/``--no-cache``).

    ``None`` restores the default resolution (``REPRO_CACHE`` env, else
    disabled).
    """
    global _cache_override
    _cache_override = enabled


def resolve_jobs(jobs: Optional[int] = None) -> int:
    """Resolve a worker count: argument > env > CLI default > cpu count."""
    if jobs is None:
        env = os.environ.get(JOBS_ENV)
        if env:
            try:
                jobs = int(env)
            except ValueError:
                raise ConfigError(
                    f"{JOBS_ENV} must be an integer, got {env!r}"
                ) from None
        elif _default_jobs is not None:
            jobs = _default_jobs
        else:
            jobs = os.cpu_count() or 1
    if jobs < 1:
        raise ConfigError(f"jobs must be >= 1, got {jobs}")
    return jobs


def cache_enabled() -> bool:
    """Whether the opt-in disk cache is currently enabled."""
    if _cache_override is not None:
        return _cache_override
    return os.environ.get(CACHE_ENV, "0") not in ("", "0", "false", "no")


def default_cache_dir() -> Path:
    return Path(os.environ.get(CACHE_DIR_ENV, DEFAULT_CACHE_DIR))


# -- content hashing -----------------------------------------------------------


def content_key(*parts: object) -> str:
    """A stable content hash over the ``repr`` of the given parts.

    The experiments key their caches on frozen dataclasses (TraceParams,
    VmRequest, ServerSKU) whose ``repr`` is a deterministic function of
    their field values, plus plain strings/numbers — so the digest
    changes exactly when the work item changes.
    """
    digest = hashlib.sha256()
    for part in parts:
        digest.update(repr(part).encode("utf-8"))
        digest.update(b"\x00")
    return digest.hexdigest()


# -- deterministic parallel map ------------------------------------------------


class _StatsTrackedTask:
    """Picklable wrapper carrying per-task telemetry back to the parent.

    Each task runs under a *fresh* capture (shadowing whatever the
    worker inherited via fork), so the drained counters and timers are
    exactly this task's activity and merge associatively into the
    parent's manifest through ``Telemetry.absorb``.  Whether to capture
    is decided in the parent at submit time, so workers never need the
    parent's sink.  Returns ``(result, drained_telemetry)``.
    """

    def __init__(self, fn: Callable[[T], R]):
        self._fn = fn
        self._telemetry = telemetry.enabled()

    def __call__(self, item: T):
        if not self._telemetry:
            return self._fn(item), None
        with telemetry.capture() as tel:
            with tel.timer("runner.task"):
                result = self._fn(item)
        return result, tel.drain()


def parallel_map(
    fn: Callable[[T], R],
    items: Sequence[T],
    jobs: Optional[int] = None,
) -> List[R]:
    """Map ``fn`` over ``items``, optionally on a process pool.

    Results always come back in input order (``ProcessPoolExecutor.map``
    preserves it), so a pure ``fn`` makes the output byte-identical to
    the serial path regardless of worker count or completion order.
    ``fn`` and the items must be picklable when ``jobs > 1``.

    Telemetry counted inside worker processes folds back into this
    process's capture, so the counts match the serial path.
    """
    items = list(items)
    jobs = resolve_jobs(jobs)
    tel = telemetry.active()
    if tel is not None:
        tel.count("runner.tasks", len(items))
    if jobs <= 1 or len(items) <= 1:
        if tel is None:
            return [fn(item) for item in items]
        results = []
        for item in items:
            with tel.timer("runner.task"):
                results.append(fn(item))
        return results
    workers = min(jobs, len(items))
    if tel is not None:
        tel.count("runner.parallel_tasks", len(items))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        tracked = list(pool.map(_StatsTrackedTask(fn), items))
    results: List[R] = []
    for result, drained in tracked:
        results.append(result)
        if tel is not None and drained is not None:
            tel.absorb(*drained)
    return results


# -- on-disk result cache ------------------------------------------------------


class DiskCache(PickleStore):
    """Content-addressed pickle cache for experiment results.

    One entry per content key under ``directory`` (default
    :func:`default_cache_dir`); corrupt entries quarantine and read as
    misses.  Telemetry: ``runner.cache_hits`` / ``.cache_misses`` /
    ``.cache_quarantined``.
    """

    counter_names = {
        "hits": "runner.cache_hits",
        "misses": "runner.cache_misses",
        "quarantined": "runner.cache_quarantined",
    }

    def __init__(self, directory: Optional[Path] = None) -> None:
        super().__init__(
            directory if directory is not None else default_cache_dir()
        )


def cached_map(
    fn: Callable[[T], R],
    items: Sequence[T],
    key_fn: Callable[[T], str],
    jobs: Optional[int] = None,
    cache: Optional[DiskCache] = None,
) -> List[R]:
    """:func:`parallel_map` with an optional content-addressed cache.

    When ``cache`` is None the cache is consulted only if the opt-in
    switch (:func:`cache_enabled`) is on.  Cached items are returned
    directly; only the misses fan out to workers.  The result list is in
    input order either way, so cached and uncached runs are identical.

    When a process-wide resilience policy is active (the CLI's
    ``--resume`` / ``--retries`` / ``--task-timeout`` / ``--faults``
    flags), execution routes through
    :func:`repro.core.resilience.resilient_map` instead: checkpoint
    journal first, then the cache, then retried execution of the misses
    — same ordering and bit-identical results on success.
    """
    items = list(items)
    if cache is None:
        cache = DiskCache() if cache_enabled() else None
    from . import resilience  # lazy: resilience builds on this module

    if resilience.active_policy() is not None:
        return resilience.resilient_map(
            fn, items, key_fn=key_fn, jobs=jobs, cache=cache
        )
    if cache is None:
        from . import provenance  # lazy: provenance builds on this module

        plain = parallel_map(fn, items, jobs=jobs)
        if provenance.active_log() is not None:
            for item, value in zip(items, plain):
                provenance.record_task(key_fn(item), value)
        return plain

    keys = [key_fn(item) for item in items]
    results: List[object] = [cache.get(key) for key in keys]
    missing_idx = [
        i for i, value in enumerate(results) if value is MISSING
    ]
    fresh = parallel_map(fn, [items[i] for i in missing_idx], jobs=jobs)
    for i, value in zip(missing_idx, fresh):
        cache.put(keys[i], value)
        results[i] = value
    from . import provenance  # lazy: provenance builds on this module

    if provenance.active_log() is not None:
        for key, value in zip(keys, results):
            provenance.record_task(key, value)
    return results  # type: ignore[return-value]


__all__ = [
    "DEFAULT_CACHE_DIR",
    "CACHE_DIR_ENV",
    "CACHE_ENV",
    "JOBS_ENV",
    "MISSING",
    "DiskCache",
    "cache_enabled",
    "cached_map",
    "content_key",
    "default_cache_dir",
    "parallel_map",
    "resolve_jobs",
    "set_cache_enabled",
    "set_default_jobs",
]
