"""Shared experiment-execution settings: worker count, result cache.

Every cluster-scale experiment (Figs. 9/10/11, the ablation grids, the
scenario sweep, the fleet) evaluates many independent configurations —
one trace, one placement policy, one carbon intensity at a time — and
fans them out through :func:`repro.core.resilience.resilient_map`, the
one map.  This module holds what that map resolves per call:

- the worker count (:func:`resolve_jobs`);
- :class:`DiskCache` — an opt-in on-disk result cache keyed by a content
  hash of the work item (trace parameters + seed content, SKU, policy;
  see :func:`content_key`), so benchmark reruns skip unchanged work.  It
  is a :class:`repro.core.store.PickleStore`: digest-checked entries,
  corrupt ones quarantined, hits and misses counted per cache and in
  telemetry.

Worker-count resolution (first match wins): explicit ``jobs=`` argument,
the ``REPRO_JOBS`` environment variable, a process-wide default set by
the CLI's ``--jobs`` flag, then ``os.cpu_count()``.  Caching resolution
mirrors it with ``REPRO_CACHE`` / ``--cache`` / ``--no-cache`` and
defaults to *disabled* (the cache is opt-in).
"""

from __future__ import annotations

import hashlib
import os
from pathlib import Path
from typing import Optional

from .errors import ConfigError
from .store import MISSING, PickleStore

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


__all__ = [
    "DEFAULT_CACHE_DIR",
    "CACHE_DIR_ENV",
    "CACHE_ENV",
    "JOBS_ENV",
    "MISSING",
    "DiskCache",
    "cache_enabled",
    "content_key",
    "default_cache_dir",
    "resolve_jobs",
    "set_cache_enabled",
    "set_default_jobs",
]
