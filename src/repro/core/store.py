"""One on-disk store primitive: key → file, digest-checked, quarantined.

The disk cache, checkpoint journal, trace store and results catalog are
each a :class:`Store` plus their own codec and extras.  The store owns
the one rule they share: a key maps to one file written through
:func:`repro.core.ioutil.atomic_writer`; a missing file is a miss; and
*any* exception from the codec's decode is corruption — the file moves
to ``quarantine/`` (:func:`quarantine` never overwrites earlier
evidence), the move is counted, and the read returns a miss.  Every
codec carries a digest, so bit rot is rejected rather than loaded:
pickles embed a sha256 (:data:`PICKLE_MAGIC`), trace ``.npz`` entries
their content digest (unchecked on ``mmap=True`` reads), and catalog
entries gzip's CRC32.  See ``docs/resilience.md``.
"""

from __future__ import annotations

import hashlib
import os
import pickle
from functools import partial
from pathlib import Path
from typing import Callable, ClassVar, Mapping, Optional

from . import telemetry
from .ioutil import atomic_writer

#: Sentinel distinguishing "no stored value" from a stored ``None``.
MISSING = object()

#: First bytes of every pickle entry, whose layout is
#: ``PICKLE_MAGIC | sha256(body) | body`` with ``body`` the pickle.
PICKLE_MAGIC = b"repro-pickle/1\n"

_PICKLE_HEADER = len(PICKLE_MAGIC) + hashlib.sha256().digest_size


def quarantine(
    path: Path, directory: Path, suffix: str = ".quarantined"
) -> Optional[Path]:
    """Move ``path`` into ``directory`` without overwriting any file there.

    The first copy of a name is ``<name><suffix>``; later copies get
    ``.1``, ``.2`` and so on.  Each candidate name is claimed with
    ``os.link``, which fails instead of replacing, and the source is
    unlinked only once a name is claimed, so two concurrent quarantiners
    of one file leave exactly one copy.  Returns the new path, or
    ``None`` when nothing moved: the file was already gone (a concurrent
    reader moved it) or the filesystem refused.
    """
    base = f"{path.name}{suffix}"
    target = directory / base
    try:
        directory.mkdir(parents=True, exist_ok=True)
        copies = 0
        while True:
            try:
                os.link(path, target)
                break
            except FileExistsError:
                copies += 1
                target = directory / f"{base}.{copies}"
        try:
            os.unlink(path)
        except FileNotFoundError:
            # A concurrent quarantiner moved this file first; its copy
            # is the evidence, ours is a duplicate.
            os.unlink(target)
            return None
    except OSError:
        return None
    return target


def _write_pickle(value: object, path: Path) -> None:
    """Write ``value`` to ``path`` as a digest-framed pickle."""
    body = pickle.dumps(value)
    path.write_bytes(PICKLE_MAGIC + hashlib.sha256(body).digest() + body)


def _read_pickle(path: Path) -> object:
    """Inverse of :func:`_write_pickle`.

    Raises ``ValueError`` when the header or the sha256 does not match,
    before unpickling a byte of the body.
    """
    data = path.read_bytes()
    body = data[_PICKLE_HEADER:]
    if data[:_PICKLE_HEADER] != PICKLE_MAGIC + hashlib.sha256(body).digest():
        raise ValueError(f"{path}: not a pickle entry or digest mismatch")
    return pickle.loads(body)


class Store:
    """Entries keyed by string, one file each under ``directory``.

    A subclass sets its file ``suffix`` and the telemetry counter each
    event ticks (``counter_names``, event → counter name; an event it
    does not list ticks none), and builds its public ``get``/``put`` on
    :meth:`read` and :meth:`write` with its codec.  The per-instance
    counts ``hits``, ``misses``, ``writes`` and ``quarantined`` tick on
    every event either way.
    """

    suffix: ClassVar[str] = ""
    counter_names: ClassVar[Mapping[str, str]] = {}

    def __init__(self, directory: Path) -> None:
        self.directory = Path(directory)
        self.hits = 0
        self.misses = 0
        self.writes = 0
        self.quarantined = 0

    def entry_path(self, key: str) -> Path:
        """Where the entry for ``key`` lives."""
        return self.directory / f"{key}{self.suffix}"

    @property
    def quarantine_dir(self) -> Path:
        """Where corrupt entries are moved for post-mortem inspection."""
        return self.directory / "quarantine"

    def _count(self, event: str) -> None:
        setattr(self, event, getattr(self, event) + 1)
        name = self.counter_names.get(event)
        if name is not None:
            telemetry.count(name)

    def read(self, key: str, decode: Callable[[Path], object]) -> object:
        """``decode(entry_path(key))``, or :data:`MISSING` on a miss.

        A missing file is a miss.  Any exception from ``decode`` marks
        the file corrupt: it is quarantined, counted, and read as a miss.
        """
        path = self.entry_path(key)
        try:
            value = decode(path)
        except FileNotFoundError:
            pass
        except Exception:  # noqa: BLE001 — every decode failure is corruption
            if quarantine(path, self.quarantine_dir) is not None:
                self._count("quarantined")
        else:
            self._count("hits")
            return value
        self._count("misses")
        return MISSING

    def write(self, key: str, encode: Callable[[Path], None]) -> Path:
        """Write one entry atomically and return its path.

        ``encode`` fills a per-PID scratch file, which is renamed onto
        the entry path only if it returns.
        """
        path = self.entry_path(key)
        with atomic_writer(path) as tmp:
            encode(tmp)
        self._count("writes")
        return path


class PickleStore(Store):
    """A :class:`Store` of digest-framed pickles, ``<key>.pkl``."""

    suffix = ".pkl"

    def get(self, key: str) -> object:
        """The stored value for ``key``, or :data:`MISSING`."""
        return self.read(key, _read_pickle)

    def put(self, key: str, value: object) -> None:
        """Store ``value`` under ``key`` atomically."""
        self.write(key, partial(_write_pickle, value))


__all__ = [
    "MISSING",
    "PICKLE_MAGIC",
    "PickleStore",
    "Store",
    "quarantine",
]
