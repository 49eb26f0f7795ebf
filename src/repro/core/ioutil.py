"""Atomic file I/O for run artifacts.

Every artifact the system persists — telemetry manifests, checkpoint
journals, ``.npz`` trace entries, disk-cache pickles, catalog entries,
rendered benchmark outputs — goes through a write-to-temp +
``os.replace`` dance so a crashed or killed writer can never leave a
half-written file under the final name.  Readers then only ever see
either the previous complete version or the new complete version;
"partially written" manifests simply cannot exist, and a corrupt file is
*evidence of corruption* (bit rot, a torn copy) rather than an expected
race, which is what lets :mod:`repro.core.store` quarantine it instead
of silently regenerating.

The temp name carries the writer's PID so concurrent writers of the same
artifact never collide on the scratch file either: last rename wins,
both renames are complete files.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator


def _tmp_path(path: Path) -> Path:
    """A per-process scratch name next to the final artifact."""
    return path.with_name(f"{path.name}.tmp-{os.getpid()}")


@contextmanager
def atomic_writer(path) -> Iterator[Path]:
    """Yield a scratch path; rename it over ``path`` only on success.

    On any exception the scratch file is removed and the final path is
    left untouched (either absent or holding its previous contents).
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = _tmp_path(path)
    try:
        yield tmp
        os.replace(tmp, path)
    finally:
        if tmp.exists():
            tmp.unlink()


def atomic_write_bytes(path, data: bytes) -> None:
    """Atomically replace ``path`` with ``data``."""
    with atomic_writer(path) as tmp:
        tmp.write_bytes(data)


def atomic_write_text(path, text: str, encoding: str = "utf-8") -> None:
    """Atomically replace ``path`` with ``text``."""
    atomic_write_bytes(path, text.encode(encoding))


__all__ = [
    "atomic_write_bytes",
    "atomic_write_text",
    "atomic_writer",
]
