"""Provenance graph over experiment inputs and outputs.

Every artifact the reproduction computes — a ``resilient_map`` task
result, a sweep point's payload, a GSF report — is a pure function of
content-addressable inputs: trace-store entries, hardware tables,
:class:`~repro.allocation.traces.TraceParams`, sizing configs, and the
code itself.  This module records those dependency
edges so a changed input invalidates exactly its downstream cone
instead of the whole sweep (the PROBE model: provenance as a graph of
input/output digests, not timestamps):

- :class:`ProvenanceRecord` — one artifact: a stable ``artifact_id``,
  its named input digests, and the digest of its output.  An input name
  that matches another record's ``artifact_id`` is an artifact→artifact
  edge (e.g. a sweep summary depending on its points); any other name
  is a *leaf* input (a trace, a SKU table, the code salt).
- :class:`ProvenanceLog` — the append-only JSONL persistence, living
  next to the checkpoint journal under the cache directory.  Appends
  are idempotent (re-recording an identical record writes nothing), the
  latest record per artifact wins on load, and corrupt lines are
  skipped and counted, never fatal.
- :func:`invalidated` — the graph query: given the latest records and
  the *current* leaf digests, which artifacts are stale?  A record is
  invalid iff one of its leaf inputs changed, one of its artifact
  inputs is invalid, or an artifact input's recorded output digest no
  longer matches that artifact's latest record.  The resulting
  :class:`InvalidationReport` carries a deterministic ``cone_digest``
  that CI pins as a golden value.

``repro.core.resilience.resilient_map`` records a ``task/<key>`` node
for every keyed task result it returns whenever the run settings carry
a log (the CLI's ``--provenance``, or ``settings.using(provenance=log)``);
the sweep driver (``repro.catalog.sweep``) records the experiment-level
artifacts.  See ``docs/catalog.md``.
"""

from __future__ import annotations

import hashlib
import json
import pickle
from dataclasses import dataclass
from pathlib import Path
from typing import (
    Any,
    Dict,
    List,
    Mapping,
    Optional,
    Tuple,
)

from . import settings, telemetry

#: JSONL record schema; bump on breaking layout changes.
PROVENANCE_SCHEMA = "repro-provenance/1"


def result_digest(value: object) -> str:
    """A content digest of an arbitrary (picklable) task result.

    Used as the output digest of ``task/*`` provenance nodes.  Pickle
    protocol is pinned so the digest is stable across interpreter
    defaults; for JSON payloads prefer
    :func:`repro.catalog.results.payload_digest` (canonical-JSON based,
    byte-comparable with catalog entries).
    """
    return hashlib.sha256(pickle.dumps(value, protocol=4)).hexdigest()


@dataclass(frozen=True)
class ProvenanceRecord:
    """One artifact's dependency edges: named input digests → output digest.

    ``inputs`` is a sorted tuple of ``(name, digest)`` pairs so records
    hash and compare deterministically.
    """

    artifact_id: str
    kind: str
    inputs: Tuple[Tuple[str, str], ...]
    output_digest: str

    @classmethod
    def make(
        cls,
        artifact_id: str,
        kind: str,
        inputs: Mapping[str, str],
        output_digest: str,
    ) -> "ProvenanceRecord":
        """Build a record from a plain inputs mapping (sorted for stability)."""
        return cls(
            artifact_id=artifact_id,
            kind=kind,
            inputs=tuple(sorted((str(k), str(v)) for k, v in inputs.items())),
            output_digest=output_digest,
        )

    @property
    def inputs_map(self) -> Dict[str, str]:
        """The inputs as a plain dict."""
        return dict(self.inputs)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready form (one JSONL line of the log)."""
        return {
            "schema": PROVENANCE_SCHEMA,
            "artifact_id": self.artifact_id,
            "kind": self.kind,
            "inputs": {name: digest for name, digest in self.inputs},
            "output_digest": self.output_digest,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ProvenanceRecord":
        """Inverse of :meth:`to_dict`; raises on structural problems."""
        inputs = data["inputs"]
        if not isinstance(inputs, dict):
            raise ValueError("inputs must be an object")
        return cls.make(
            artifact_id=str(data["artifact_id"]),
            kind=str(data["kind"]),
            inputs=inputs,
            output_digest=str(data["output_digest"]),
        )


class ProvenanceLog:
    """Append-only JSONL store of :class:`ProvenanceRecord` lines.

    The log is an event history, not a table: re-recording an artifact
    appends a new line and the *latest* line per ``artifact_id`` wins on
    load.  :meth:`record` is idempotent — an append identical to the
    artifact's latest record writes nothing, so steady-state reruns
    leave the file untouched.  Corrupt lines (torn appends, bit rot)
    are skipped and counted, never raised.
    """

    def __init__(self, path: Optional[Path] = None) -> None:
        self.path = Path(
            path if path is not None else settings.current().provenance_path
        )
        self.appended = 0
        self.unchanged = 0
        self.skipped_corrupt = 0
        self._index: Optional[Dict[str, ProvenanceRecord]] = None

    def records(self) -> List[ProvenanceRecord]:
        """Every readable record, in file order (corrupt lines skipped)."""
        out: List[ProvenanceRecord] = []
        try:
            with open(self.path, "r", encoding="utf-8") as fh:
                lines = fh.readlines()
        except OSError:
            return out
        for line in lines:
            line = line.strip()
            if not line:
                continue
            try:
                data = json.loads(line)
                record = ProvenanceRecord.from_dict(data)
            except (ValueError, KeyError, TypeError):
                self.skipped_corrupt += 1
                telemetry.count("provenance.skipped_corrupt")
                continue
            out.append(record)
        return out

    def latest(self) -> Dict[str, ProvenanceRecord]:
        """The newest record per ``artifact_id`` (the graph's node set)."""
        index: Dict[str, ProvenanceRecord] = {}
        for record in self.records():
            index[record.artifact_id] = record
        return index

    def _load_index(self) -> Dict[str, ProvenanceRecord]:
        if self._index is None:
            self._index = self.latest()
        return self._index

    def record(
        self,
        artifact_id: str,
        kind: str,
        inputs: Mapping[str, str],
        output_digest: str,
    ) -> bool:
        """Append one record unless it matches the artifact's latest.

        Returns True when a line was actually written.  Appends are a
        single ``write`` of one JSON line, so concurrent writers
        interleave at line granularity and a torn tail line is skipped
        (and counted) by the next reader.
        """
        record = ProvenanceRecord.make(artifact_id, kind, inputs, output_digest)
        index = self._load_index()
        if index.get(artifact_id) == record:
            self.unchanged += 1
            return False
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with open(self.path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record.to_dict(), sort_keys=True) + "\n")
        index[artifact_id] = record
        self.appended += 1
        telemetry.count("provenance.records")
        return True


@dataclass(frozen=True)
class InvalidationReport:
    """The downstream cone of a set of changed inputs.

    Attributes:
        changed_inputs: Sorted leaf-input names whose current digest
            differs from what some latest record remembers.
        invalid: Sorted artifact ids that must recompute (the cone).
    """

    changed_inputs: Tuple[str, ...]
    invalid: Tuple[str, ...]

    def is_invalid(self, artifact_id: str) -> bool:
        """Whether one artifact is inside the invalidated cone."""
        return artifact_id in set(self.invalid)

    def cone_digest(self) -> str:
        """A deterministic digest of the cone (the CI golden value)."""
        digest = hashlib.sha256()
        for name in self.changed_inputs:
            digest.update(b"input\x00" + name.encode("utf-8") + b"\x00")
        for artifact_id in self.invalid:
            digest.update(b"node\x00" + artifact_id.encode("utf-8") + b"\x00")
        return digest.hexdigest()


def invalidated(
    latest: Mapping[str, ProvenanceRecord],
    current_inputs: Mapping[str, str],
) -> InvalidationReport:
    """Diff the graph against current leaf digests; return the stale cone.

    A record is invalid iff any of:

    - a *leaf* input (a name that is not a recorded artifact) appears in
      ``current_inputs`` with a different digest than recorded;
    - an *artifact* input is itself invalid (transitively);
    - an artifact input's recorded digest differs from that artifact's
      latest ``output_digest`` (a stale edge: the dependency was
      recomputed to a different output since this record was written).

    Leaf inputs absent from ``current_inputs`` are presumed unchanged —
    callers only assert about the inputs they can digest today.
    """
    invalid = set()
    changed_leaves = set()
    # Direct invalidation: changed leaves and stale artifact edges.
    for artifact_id, record in latest.items():
        for name, digest in record.inputs:
            upstream = latest.get(name)
            if upstream is None:
                current = current_inputs.get(name)
                if current is not None and current != digest:
                    changed_leaves.add(name)
                    invalid.add(artifact_id)
            elif upstream.output_digest != digest:
                invalid.add(artifact_id)
    # Propagate downstream: invalid artifacts poison their dependents.
    dependents: Dict[str, List[str]] = {}
    for artifact_id, record in latest.items():
        for name, _digest in record.inputs:
            if name in latest:
                dependents.setdefault(name, []).append(artifact_id)
    frontier = list(invalid)
    while frontier:
        node = frontier.pop()
        for dependent in dependents.get(node, ()):
            if dependent not in invalid:
                invalid.add(dependent)
                frontier.append(dependent)
    return InvalidationReport(
        changed_inputs=tuple(sorted(changed_leaves)),
        invalid=tuple(sorted(invalid)),
    )


def record_task(key: str, value: object) -> None:
    """Record one ``resilient_map`` task into the settings' log.

    The task's content key *is* its input digest (the same hash the
    journal and disk cache use), plus the code salt; the output digest
    is a content hash of the result.  No-op when the run settings carry
    no log.
    """
    run = settings.current()
    if run.provenance is None:
        return
    run.provenance.record(
        f"task/{key}",
        "task",
        {"item": key, "code": run.code_salt},
        result_digest(value),
    )


__all__ = [
    "PROVENANCE_SCHEMA",
    "InvalidationReport",
    "ProvenanceLog",
    "ProvenanceRecord",
    "invalidated",
    "record_task",
    "result_digest",
]
