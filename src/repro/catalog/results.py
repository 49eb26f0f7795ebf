"""Content-hash-keyed results catalog: compressed JSON, byte-deterministic.

The store behind ``repro catalog`` and ``repro sweep``.  Each entry is
one experiment output (a GSF evaluation payload, a sweep summary)
addressed by :func:`closure_key` — a content hash over the *full* named
input-digest closure that produced it (trace digest, hardware tables,
point config, code salt).  The addressing scheme makes entries
self-invalidating: when any input changes, the closure key changes, so
the stale entry simply stops being found and garbage collection
(:meth:`ResultsCatalog.gc`) reclaims it later.

Entries are gzip-compressed canonical JSON written with ``mtime=0`` so
identical payloads produce identical *bytes* — the reconciliation in
``repro.catalog.sweep`` and the bit-identity tests compare files
directly.  The catalog is a :class:`repro.core.store.Store`: writes
are atomic, and an entry that fails to decode for any reason (gzip's
CRC32 is its digest) is quarantined and read as a miss.

Telemetry (off by default): ``catalog.hits`` / ``catalog.misses`` /
``catalog.writes`` / ``catalog.unchanged`` / ``catalog.evicted`` /
``catalog.quarantined``.
"""

from __future__ import annotations

import gzip
import hashlib
import json
from pathlib import Path
from typing import Any, Dict, Iterable, List, Mapping, Optional

from ..core import settings, telemetry
from ..core.runner import content_key
from ..core.store import MISSING, Store

#: Entry document schema; bump on breaking layout changes.
CATALOG_SCHEMA = "repro-catalog/1"


def canonical_json(payload: Any) -> str:
    """The one true JSON encoding: sorted keys, no whitespace.

    Canonicalization is what makes 'bit-identical' meaningful for JSON
    payloads — two semantically equal dicts always serialize to the same
    bytes, so digests and file comparisons are exact.
    """
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def payload_digest(payload: Any) -> str:
    """sha256 of the canonical JSON encoding of ``payload``.

    This is the output digest recorded in the provenance graph for
    catalog-published artifacts, so a provenance record and a catalog
    entry agree about what 'the same output' means.
    """
    return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()


def _read_entry(path: Path) -> Dict[str, Any]:
    """Decode one entry file; raises on anything but an entry document."""
    document = json.loads(gzip.decompress(path.read_bytes()).decode("utf-8"))
    if not isinstance(document, dict) or "payload" not in document:
        raise ValueError("not a catalog entry document")
    return document


def closure_key(inputs: Mapping[str, str]) -> str:
    """The catalog address of an output: a hash over its input closure.

    ``inputs`` maps leaf-input names to content digests (the same pairs
    the provenance record stores).  Sorted before hashing so insertion
    order never matters.
    """
    return content_key(
        CATALOG_SCHEMA, tuple(sorted((str(k), str(v)) for k, v in inputs.items()))
    )


class ResultsCatalog(Store):
    """On-disk catalog of compressed, closure-keyed experiment outputs.

    One ``<key>.json.gz`` file per entry, each a canonical-JSON document
    ``{"schema", "inputs", "payload"}`` — the inputs travel with the
    payload so :meth:`gc` and audits can reason about liveness without
    the provenance log.  Reads count hits/misses; corrupt entries are
    quarantined under ``<directory>/quarantine/`` and read as misses.
    """

    suffix = ".json.gz"
    counter_names = {
        "hits": "catalog.hits",
        "misses": "catalog.misses",
        "writes": "catalog.writes",
        "quarantined": "catalog.quarantined",
    }

    def __init__(self, directory: Optional[Path] = None) -> None:
        super().__init__(
            directory
            if directory is not None
            else settings.current().catalog_path
        )
        self.unchanged = 0
        self.evicted = 0

    # -- entries ---------------------------------------------------------------

    @staticmethod
    def encode_entry(inputs: Mapping[str, str], payload: Any) -> bytes:
        """The deterministic on-disk bytes for one entry.

        Canonical JSON, gzip-compressed with ``mtime=0`` — the same
        (inputs, payload) always yields the same bytes, on any machine,
        at any time.
        """
        document = {
            "schema": CATALOG_SCHEMA,
            "inputs": {str(k): str(v) for k, v in inputs.items()},
            "payload": payload,
        }
        return gzip.compress(
            canonical_json(document).encode("utf-8"), mtime=0
        )

    def get(self, key: str) -> Optional[Dict[str, Any]]:
        """The decoded entry document for ``key``, or ``None`` on a miss."""
        document = self.read(key, _read_entry)
        return None if document is MISSING else document

    def get_payload(self, key: str) -> Optional[Any]:
        """Just the payload of the entry for ``key`` (``None`` on a miss)."""
        document = self.get(key)
        return None if document is None else document.get("payload")

    def put(self, key: str, inputs: Mapping[str, str], payload: Any) -> Path:
        """Publish one entry atomically; skip the write if bytes match.

        Returns the entry path.  An existing byte-identical entry is
        left untouched (and counted as ``unchanged``), so steady-state
        republishes never churn mtimes or rename over live files.
        """
        path = self.entry_path(key)
        data = self.encode_entry(inputs, payload)
        try:
            with open(path, "rb") as fh:
                if fh.read() == data:
                    self.unchanged += 1
                    return path
        except OSError:
            pass
        return self.write(key, lambda tmp: tmp.write_bytes(data))

    def keys(self) -> List[str]:
        """Every stored entry key, sorted."""
        try:
            names = list(self.directory.iterdir())
        except OSError:
            return []
        return sorted(
            p.name[: -len(self.suffix)]
            for p in names
            if p.name.endswith(self.suffix)
        )

    def gc(self, live_keys: Iterable[str]) -> int:
        """Delete every entry whose key is not in ``live_keys``.

        The closure-key scheme never overwrites stale entries — it
        abandons them — so gc is how disk space comes back.  Returns the
        number of entries removed.
        """
        live = set(live_keys)
        removed = 0
        for key in self.keys():
            if key in live:
                continue
            try:
                self.entry_path(key).unlink()
            except FileNotFoundError:
                continue
            removed += 1
        if removed:
            self.evicted += removed
            telemetry.count("catalog.evicted", removed)
        return removed

    # -- reporting -------------------------------------------------------------

    def contents(self) -> Dict[str, Any]:
        """What the directory holds: schema, directory, entries, bytes.

        The ``repro catalog stats`` view.  It reads only the directory,
        so any process sees the same numbers; a run's hits, misses and
        writes are the ``catalog.*`` counters of its telemetry manifest.
        """
        keys = self.keys()
        total_bytes = 0
        for key in keys:
            try:
                total_bytes += self.entry_path(key).stat().st_size
            except OSError:
                continue
        return {
            "schema": CATALOG_SCHEMA,
            "directory": str(self.directory),
            "entries": len(keys),
            "total_bytes": total_bytes,
        }

    def manifest(self) -> Dict[str, Any]:
        """:meth:`contents` plus this instance's own counters.

        The counters cover only the calls made through this object, so
        the view is for in-process callers.
        """
        return {
            **self.contents(),
            "hits": self.hits,
            "misses": self.misses,
            "writes": self.writes,
            "unchanged": self.unchanged,
            "evicted": self.evicted,
            "quarantined": self.quarantined,
        }


__all__ = [
    "CATALOG_SCHEMA",
    "ResultsCatalog",
    "canonical_json",
    "closure_key",
    "payload_digest",
]
