"""The one map's worker count and result cache.

Every cluster-scale experiment (Figs. 9/10/11, the ablation grids, the
scenario sweep, the fleet) evaluates many independent configurations —
one trace, one placement policy, one carbon intensity at a time — and
fans them out through :func:`repro.core.resilience.resilient_map`, the
one map.  This module holds what that map resolves per call:

- the worker count (:func:`resolve_jobs`; see :mod:`repro.core.settings`);
- :class:`DiskCache` — an opt-in on-disk result cache keyed by a content
  hash of the work item (trace parameters + seed content, SKU, policy;
  see :func:`content_key`), so benchmark reruns skip unchanged work.  It
  is a :class:`repro.core.store.PickleStore`: digest-checked entries,
  corrupt ones quarantined, hits and misses counted per cache and in
  telemetry.  The map uses one when the settings' ``cache`` is on
  (``--cache`` / ``REPRO_CACHE``; off by default).
"""

from __future__ import annotations

import hashlib
from pathlib import Path
from typing import Optional

from . import settings
from .errors import ConfigError
from .store import MISSING, PickleStore


def resolve_jobs(jobs: Optional[int] = None) -> int:
    """Resolve a worker count: the argument, else the run settings'."""
    if jobs is None:
        return settings.current().jobs
    if jobs < 1:
        raise ConfigError(f"jobs must be >= 1, got {jobs}")
    return jobs


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

    One entry per content key under ``directory`` (default: the run
    settings' ``cache_dir``); corrupt entries quarantine and read as
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
            directory
            if directory is not None
            else settings.current().cache_dir
        )


__all__ = [
    "MISSING",
    "DiskCache",
    "content_key",
    "resolve_jobs",
]
