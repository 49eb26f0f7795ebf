"""Persistent on-disk trace store.

Generated traces are pure functions of ``(seed, TraceParams)``, so their
columnar form can be cached across processes: entries are ``.npz`` files
named by a content key over the generation inputs (plus a store version
that tracks the generator's draw schedule), living next to the PR 1
result cache (``<cache dir>/traces`` by default).

The store is opt-in, like the result cache: enable it explicitly with a
``TraceStore`` argument, via ``REPRO_TRACE_STORE=1``, or implicitly
whenever the result cache itself is on (``--cache`` / ``REPRO_CACHE``).

The store is a :class:`repro.core.store.Store` with the ``.npz`` codec
(:func:`save_columns_npz` / :func:`load_columns_npz`): an entry that
fails to load for any reason — truncation, schema drift, a
content-digest mismatch (bit rot inside a structurally valid zip) — is
quarantined (``trace.store_quarantined``) and read as a miss, so the
trace regenerates.  ``mmap=True`` lookups skip the content digest by
design.
"""

from __future__ import annotations

import os
from functools import partial
from pathlib import Path
from typing import Optional

from ..core import telemetry
from ..core.runner import cache_enabled, content_key, default_cache_dir
from ..core.store import MISSING, Store
from .columnar import ColumnarTrace, load_columns_npz, save_columns_npz

#: Env vars: force the store on/off, and relocate it.
STORE_ENV = "REPRO_TRACE_STORE"
STORE_DIR_ENV = "REPRO_TRACE_STORE_DIR"

#: Part of every entry key; bump when the generator's draw schedule (or
#: the npz layout) changes so stale entries miss instead of lying.
STORE_VERSION = "trace-store-v1"


def store_enabled() -> bool:
    """Whether suite generation should use the persistent store.

    ``REPRO_TRACE_STORE`` wins when set (``0``/``false``/``no``/empty
    disable); otherwise the store follows the result-cache opt-in.
    """
    env = os.environ.get(STORE_ENV)
    if env is not None:
        return env not in ("", "0", "false", "no")
    return cache_enabled()


def default_store_dir() -> Path:
    """``REPRO_TRACE_STORE_DIR`` if set, else ``<cache dir>/traces``."""
    env = os.environ.get(STORE_DIR_ENV)
    if env:
        return Path(env)
    return default_cache_dir() / "traces"


class TraceStore(Store):
    """Content-keyed ``.npz`` store of generated columnar traces."""

    suffix = ".npz"
    counter_names = {
        "hits": "trace.store_hits",
        "misses": "trace.store_misses",
        "quarantined": "trace.store_quarantined",
    }

    def __init__(self, directory: Optional[Path] = None) -> None:
        super().__init__(
            directory if directory is not None else default_store_dir()
        )

    def key(self, seed: int, params: object) -> str:
        """The entry key: a content hash of the generation inputs."""
        return content_key(STORE_VERSION, seed, params)

    def path(self, seed: int, params: object) -> Path:
        """Where the ``.npz`` entry for ``(seed, params)`` lives."""
        return self.entry_path(self.key(seed, params))

    def get(
        self, seed: int, params: object, name: str, mmap: bool = False
    ):
        """The stored trace, or ``None`` on a miss (absent or corrupt).

        Imports lazily to avoid a module cycle with ``traces``.
        """
        from .traces import VmTrace

        columns = self.get_columns(seed, params, mmap=mmap)
        if columns is None:
            return None
        return VmTrace(name=name, params=params, columns=columns)

    def get_columns(
        self, seed: int, params: object, mmap: bool = False
    ) -> Optional[ColumnarTrace]:
        """The stored columns, or ``None``; corrupt entries quarantine.

        ``mmap=True`` memory-maps the column arrays out of the ``.npz``
        (multi-GB suites stream from disk instead of loading eagerly);
        see :func:`load_columns_npz` for the checks each path runs.
        Telemetry distinguishes the paths: every hit ticks
        ``trace.store_hits`` plus either ``trace.store_hits_mmap`` or
        ``trace.store_hits_eager``.
        """
        columns = self.read(
            self.key(seed, params), partial(load_columns_npz, mmap=mmap)
        )
        if columns is MISSING:
            return None
        telemetry.count(
            "trace.store_hits_mmap" if mmap else "trace.store_hits_eager"
        )
        return columns

    def put(self, seed: int, params: object, columns: ColumnarTrace) -> Path:
        """Write one entry atomically (per-PID tmp file + rename)."""
        return self.write(
            self.key(seed, params), partial(save_columns_npz, columns)
        )
