"""Deterministic, zero-dependency instrumentation for the simulation stack.

Every hot path in the reproduction — the experiment runner, the indexed
placement engine, the sizing searches — can answer "where did the time
and work go?" through this module.  Three
primitives:

- **counters** — monotone integers (``alloc.placements``,
  ``engine.bucket_probes``, ``sizing.simulate_calls``, ...).
- **timers** — wall-clock accumulators keyed by name, each tracking
  call count, total, min, and max seconds.
- **spans** — a hierarchical trace of named phases (one per experiment,
  per replay batch), nested by ``with`` discipline.

Design rules, enforced by the test suite:

1. **Off by default, near-zero overhead.**  Instrumentation activates
   only inside :func:`capture` (or the CLI's ``--telemetry`` flag).  Hot
   loops either check ``telemetry.active() is None`` once per *batch* or
   accumulate plain local integers and flush once at the end of a replay
   — never per-event calls through this module.
2. **Provably no effect on results.**  The layer never touches an RNG
   stream, never mutates simulation state, and records wall time from an
   injectable clock; differential tests assert bit-identical outcomes
   and identical RNG draw sequences with telemetry on vs. off.
3. **Deterministic structure.**  For a fixed workload the *counters* and
   the span/timer *shape* (names, counts, nesting) are identical across
   runs; only the elapsed-seconds values vary.

A captured run serializes to a **manifest**: a plain-JSON document
(schema ``repro-telemetry/1``) that ``python -m repro stats`` validates
and pretty-prints, and that the benchmark harness reads instead of
ad-hoc print statements.  See ``docs/observability.md``.
"""

from __future__ import annotations

import json
import platform
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Mapping, Optional, Tuple

from .errors import ConfigError
from .ioutil import atomic_write_text

#: Manifest schema identifier; bump on breaking manifest changes.
SCHEMA = "repro-telemetry/1"


class TimerStat:
    """Accumulated wall-clock statistics for one named timer."""

    __slots__ = ("count", "total_s", "min_s", "max_s")

    def __init__(self) -> None:
        self.count = 0
        self.total_s = 0.0
        self.min_s = float("inf")
        self.max_s = 0.0

    def record(self, elapsed_s: float) -> None:
        if elapsed_s < 0.0:
            elapsed_s = 0.0  # clock went backwards; clamp, never raise
        self.count += 1
        self.total_s += elapsed_s
        if elapsed_s < self.min_s:
            self.min_s = elapsed_s
        if elapsed_s > self.max_s:
            self.max_s = elapsed_s

    def merge(self, count: int, total_s: float, min_s: float, max_s: float) -> None:
        if count <= 0:
            return
        self.count += count
        self.total_s += total_s
        if min_s < self.min_s:
            self.min_s = min_s
        if max_s > self.max_s:
            self.max_s = max_s

    def as_tuple(self) -> Tuple[int, float, float, float]:
        return (self.count, self.total_s, self.min_s, self.max_s)

    def to_dict(self) -> Dict[str, float]:
        return {
            "count": self.count,
            "total_s": self.total_s,
            "min_s": self.min_s if self.count else 0.0,
            "max_s": self.max_s,
        }


class SpanNode:
    """One node of the hierarchical phase trace."""

    __slots__ = ("name", "elapsed_s", "children")

    def __init__(self, name: str) -> None:
        self.name = name
        self.elapsed_s = 0.0
        self.children: List["SpanNode"] = []

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "elapsed_s": self.elapsed_s,
            "children": [child.to_dict() for child in self.children],
        }


class _NullContext:
    """Shared no-op context manager for the disabled fast path."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc: object) -> None:
        return None


_NULL = _NullContext()


class Telemetry:
    """One capture's counters, timers, and span tree.

    Instances are independent; the module-level :func:`capture` context
    installs one as the process-wide active sink.  ``clock`` is
    injectable so tests can assert exact timer values deterministically.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self._clock = clock
        self.counters: Dict[str, int] = {}
        self.timers: Dict[str, TimerStat] = {}
        self.failures: List[Dict[str, Any]] = []
        self._root = SpanNode("root")
        self._stack: List[SpanNode] = [self._root]
        self._started_at = clock()

    # -- counters -------------------------------------------------------------

    def count(self, name: str, n: int = 1) -> None:
        """Add ``n`` to counter ``name`` (creating it at zero)."""
        self.counters[name] = self.counters.get(name, 0) + n

    def count_many(self, deltas: Mapping[str, int]) -> None:
        """Fold a batch of counter deltas in one call (the hot-path flush)."""
        counters = self.counters
        for name, n in deltas.items():
            counters[name] = counters.get(name, 0) + n

    # -- timers ---------------------------------------------------------------

    def record_timer(self, name: str, elapsed_s: float) -> None:
        """Fold one externally measured duration into timer ``name``."""
        stat = self.timers.get(name)
        if stat is None:
            stat = self.timers[name] = TimerStat()
        stat.record(elapsed_s)

    @contextmanager
    def timer(self, name: str) -> Iterator[None]:
        start = self._clock()
        try:
            yield
        finally:
            self.record_timer(name, self._clock() - start)

    # -- spans ----------------------------------------------------------------

    @contextmanager
    def span(self, name: str) -> Iterator[SpanNode]:
        """Open a named phase nested under the current one."""
        node = SpanNode(name)
        self._stack[-1].children.append(node)
        self._stack.append(node)
        start = self._clock()
        try:
            yield node
        finally:
            elapsed = self._clock() - start
            node.elapsed_s = elapsed if elapsed > 0.0 else 0.0
            # Pop back to this node's parent even if an inner span
            # leaked (an unexited child cannot corrupt the stack).
            while self._stack and self._stack[-1] is not node:
                self._stack.pop()
            if self._stack:
                self._stack.pop()
            if not self._stack:
                self._stack.append(self._root)

    @property
    def span_depth(self) -> int:
        """Current nesting depth (0 at top level); test hook."""
        return len(self._stack) - 1

    # -- failures -------------------------------------------------------------

    def record_failure(self, failure: Mapping[str, Any]) -> None:
        """Append one structured degraded-result record (a plain dict).

        The resilience layer reports tasks that exhausted their retry
        budget here, so a manifest shows *what* degraded, not just that
        something did (see ``repro.core.resilience.TaskFailure``).
        """
        self.failures.append(dict(failure))

    # -- worker fold-in -------------------------------------------------------

    def drain(self) -> Tuple[Dict[str, int], Dict[str, Tuple[int, float, float, float]]]:
        """Counters + timer tuples in picklable form (for worker returns)."""
        return (
            dict(self.counters),
            {name: stat.as_tuple() for name, stat in self.timers.items()},
        )

    def absorb(
        self,
        counters: Mapping[str, int],
        timers: Mapping[str, Tuple[int, float, float, float]],
    ) -> None:
        """Fold another capture's drained state into this one.

        Used by :func:`repro.core.resilience.resilient_map` to merge
        worker-process instrumentation back into the parent's manifest.
        """
        self.count_many(counters)
        for name, (count, total_s, min_s, max_s) in timers.items():
            stat = self.timers.get(name)
            if stat is None:
                stat = self.timers[name] = TimerStat()
            stat.merge(count, total_s, min_s, max_s)

    # -- manifest -------------------------------------------------------------

    def manifest(
        self,
        command: Optional[str] = None,
        argv: Optional[List[str]] = None,
    ) -> Dict[str, Any]:
        """The run manifest: a JSON-serializable snapshot of this capture."""
        import numpy

        return {
            "schema": SCHEMA,
            "command": command,
            "argv": list(argv) if argv is not None else None,
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "elapsed_s": max(self._clock() - self._started_at, 0.0),
            "counters": dict(sorted(self.counters.items())),
            "timers": {
                name: stat.to_dict()
                for name, stat in sorted(self.timers.items())
            },
            "spans": [child.to_dict() for child in self._root.children],
            "failures": [dict(failure) for failure in self.failures],
        }


# -- module-level activation ---------------------------------------------------

_ACTIVE: Optional[Telemetry] = None


def active() -> Optional[Telemetry]:
    """The currently active sink, or None when telemetry is off.

    Hot call sites bind this once per batch: one global load and an
    ``is None`` check is the entire disabled-path cost.
    """
    return _ACTIVE


def enabled() -> bool:
    return _ACTIVE is not None


@contextmanager
def capture(
    clock: Callable[[], float] = time.perf_counter,
) -> Iterator[Telemetry]:
    """Activate a fresh :class:`Telemetry` for the duration of the block.

    Captures nest: an inner capture shadows the outer one and the outer
    resumes untouched when the inner block exits (inner activity is
    *not* folded outward — nesting is for isolation, e.g. the benchmark
    fixture inside an instrumented CLI run).
    """
    global _ACTIVE
    previous = _ACTIVE
    tel = Telemetry(clock=clock)
    _ACTIVE = tel
    try:
        yield tel
    finally:
        _ACTIVE = previous


def count(name: str, n: int = 1) -> None:
    """Count into the active sink; no-op when telemetry is off."""
    tel = _ACTIVE
    if tel is not None:
        tel.count(name, n)


def timer(name: str):
    """A timing context on the active sink; shared no-op when off."""
    tel = _ACTIVE
    if tel is None:
        return _NULL
    return tel.timer(name)


def span(name: str):
    """A span context on the active sink; shared no-op when off."""
    tel = _ACTIVE
    if tel is None:
        return _NULL
    return tel.span(name)


# -- manifest I/O, validation, rendering ---------------------------------------


def load_manifest(path) -> Dict[str, Any]:
    """Read and parse a manifest JSON file."""
    with open(path, "r", encoding="utf-8") as fh:
        manifest = json.load(fh)
    if not isinstance(manifest, dict):
        raise ConfigError(f"{path}: manifest must be a JSON object")
    return manifest


def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _validate_span(node: Any, path: str, errors: List[str]) -> None:
    if not isinstance(node, dict):
        errors.append(f"{path}: span must be an object")
        return
    if not isinstance(node.get("name"), str) or not node.get("name"):
        errors.append(f"{path}: span name must be a non-empty string")
    elapsed = node.get("elapsed_s")
    if not _is_number(elapsed) or elapsed < 0:
        errors.append(f"{path}: elapsed_s must be a number >= 0")
    children = node.get("children")
    if not isinstance(children, list):
        errors.append(f"{path}: children must be a list")
        return
    for i, child in enumerate(children):
        _validate_span(child, f"{path}.children[{i}]", errors)


def validate_manifest(manifest: Any) -> List[str]:
    """Validate a manifest against the ``repro-telemetry/1`` schema.

    Returns a list of human-readable problems; empty means valid.  The
    checks are structural (types, non-negativity, min <= max) — the
    hand-rolled equivalent of a JSON-Schema pass, kept dependency-free.
    """
    errors: List[str] = []
    if not isinstance(manifest, dict):
        return ["manifest must be a JSON object"]
    if manifest.get("schema") != SCHEMA:
        errors.append(
            f"schema must be {SCHEMA!r}, got {manifest.get('schema')!r}"
        )
    command = manifest.get("command")
    if command is not None and not isinstance(command, str):
        errors.append("command must be a string or null")
    argv = manifest.get("argv")
    if argv is not None and (
        not isinstance(argv, list)
        or any(not isinstance(a, str) for a in argv)
    ):
        errors.append("argv must be a list of strings or null")
    if "settings" in manifest and not isinstance(manifest["settings"], dict):
        errors.append("settings must be an object")
    elapsed = manifest.get("elapsed_s")
    if not _is_number(elapsed) or elapsed < 0:
        errors.append("elapsed_s must be a number >= 0")

    counters = manifest.get("counters")
    if not isinstance(counters, dict):
        errors.append("counters must be an object")
    else:
        for name, value in counters.items():
            if not isinstance(name, str) or not name:
                errors.append(f"counters: key {name!r} must be a non-empty string")
            if not isinstance(value, int) or isinstance(value, bool):
                errors.append(f"counters[{name!r}] must be an integer")

    timers = manifest.get("timers")
    if not isinstance(timers, dict):
        errors.append("timers must be an object")
    else:
        for name, stat in timers.items():
            where = f"timers[{name!r}]"
            if not isinstance(stat, dict):
                errors.append(f"{where} must be an object")
                continue
            count_value = stat.get("count")
            if not isinstance(count_value, int) or isinstance(count_value, bool):
                errors.append(f"{where}.count must be an integer")
                continue
            if count_value < 0:
                errors.append(f"{where}.count must be >= 0")
            for key in ("total_s", "min_s", "max_s"):
                if not _is_number(stat.get(key)) or stat.get(key) < 0:
                    errors.append(f"{where}.{key} must be a number >= 0")
            if (
                count_value > 0
                and _is_number(stat.get("min_s"))
                and _is_number(stat.get("max_s"))
                and stat["min_s"] > stat["max_s"]
            ):
                errors.append(f"{where}: min_s must be <= max_s")

    spans = manifest.get("spans")
    if not isinstance(spans, list):
        errors.append("spans must be a list")
    else:
        for i, node in enumerate(spans):
            _validate_span(node, f"spans[{i}]", errors)

    failures = manifest.get("failures")
    if failures is not None:  # optional: absent in pre-resilience manifests
        if not isinstance(failures, list):
            errors.append("failures must be a list")
        else:
            for i, failure in enumerate(failures):
                if not isinstance(failure, dict):
                    errors.append(f"failures[{i}] must be an object")
                    continue
                if not isinstance(failure.get("error_type"), str):
                    errors.append(
                        f"failures[{i}].error_type must be a string"
                    )
                attempts = failure.get("attempts")
                if attempts is not None and (
                    not isinstance(attempts, int)
                    or isinstance(attempts, bool)
                    or attempts < 1
                ):
                    errors.append(
                        f"failures[{i}].attempts must be an integer >= 1"
                    )
    return errors


#: The hit/miss counter families the cache-effectiveness section reports:
#: (label, hit counter, miss counter, extra counters shown when nonzero).
_CACHE_FAMILIES = (
    ("disk cache", "runner.cache_hits", "runner.cache_misses",
     ("runner.cache_quarantined",)),
    ("results catalog", "catalog.hits", "catalog.misses",
     ("catalog.writes", "catalog.invalidated", "catalog.evicted",
      "catalog.quarantined")),
    ("trace store", "trace.store_hits", "trace.store_misses",
     ("trace.store_quarantined",)),
)


def cache_effectiveness_lines(counters: Mapping[str, int]) -> List[str]:
    """The ``repro stats`` cache-effectiveness section, as rendered lines.

    Derives hit rates for each caching layer (disk cache, results
    catalog, trace store) from the manifest's counters, so catalog
    effectiveness is observable from a saved manifest without rerunning
    anything.  Layers with no activity are omitted; returns no lines at
    all when nothing cached-related ran.
    """
    lines: List[str] = []
    for label, hit_name, miss_name, extras in _CACHE_FAMILIES:
        hits = counters.get(hit_name, 0)
        misses = counters.get(miss_name, 0)
        total = hits + misses
        extra_counts = [
            (name.rsplit(".", 1)[-1], counters.get(name, 0))
            for name in extras
        ]
        if total == 0 and not any(n for _, n in extra_counts):
            continue
        rate = f"{hits / total:.1%}" if total else "n/a"
        detail = "".join(
            f", {short} {n:,}" for short, n in extra_counts if n
        )
        lines.append(
            f"  {label}: {hits:,} hits / {misses:,} misses "
            f"({rate} hit rate{detail})"
        )
    if lines:
        lines.insert(0, "cache effectiveness:")
    return lines


def _render_span(node: Dict[str, Any], indent: int, lines: List[str]) -> None:
    lines.append(
        f"{'  ' * indent}- {node['name']}: {node['elapsed_s']:.3f}s"
    )
    for child in node.get("children", ()):
        _render_span(child, indent + 1, lines)


def render_manifest(manifest: Dict[str, Any]) -> str:
    """Pretty-print a manifest (the ``repro stats`` view)."""
    lines: List[str] = []
    command = manifest.get("command") or "(unknown command)"
    lines.append(
        f"telemetry manifest: {command}  "
        f"[{manifest.get('elapsed_s', 0.0):.3f}s total]"
    )
    argv = manifest.get("argv")
    if argv:
        lines.append(f"  argv: {' '.join(argv)}")
    if "python" in manifest:
        versions = f"python {manifest['python']}, numpy {manifest['numpy']}"
        lines.append(f"  {versions}")
    run_settings = manifest.get("settings")
    if run_settings:
        lines.append("settings:")
        lines.extend(f"  {k}: {json.dumps(v)}" for k, v in run_settings.items())

    counters = manifest.get("counters") or {}
    if counters:
        lines.append("counters:")
        width = max(len(name) for name in counters)
        for name in sorted(counters):
            lines.append(f"  {name.ljust(width)}  {counters[name]:>12,}")
    lines.extend(cache_effectiveness_lines(counters))

    timers = manifest.get("timers") or {}
    if timers:
        lines.append("timers:")
        width = max(len(name) for name in timers)
        header = (
            f"  {'name'.ljust(width)}  {'count':>8}  {'total_s':>10}  "
            f"{'mean_ms':>9}  {'min_ms':>9}  {'max_ms':>9}"
        )
        lines.append(header)
        for name in sorted(timers):
            stat = timers[name]
            count_value = stat.get("count", 0)
            total = stat.get("total_s", 0.0)
            mean_ms = (total / count_value * 1000.0) if count_value else 0.0
            lines.append(
                f"  {name.ljust(width)}  {count_value:>8,}  {total:>10.3f}  "
                f"{mean_ms:>9.3f}  {stat.get('min_s', 0.0) * 1000.0:>9.3f}  "
                f"{stat.get('max_s', 0.0) * 1000.0:>9.3f}"
            )

    spans = manifest.get("spans") or []
    if spans:
        lines.append("spans:")
        for node in spans:
            _render_span(node, 1, lines)

    failures = manifest.get("failures") or []
    if failures:
        lines.append(f"failures ({len(failures)} degraded tasks):")
        for failure in failures:
            where = failure.get("key") or f"task {failure.get('index')}"
            lines.append(
                f"  - {where}: {failure.get('error_type', '?')} after "
                f"{failure.get('attempts', '?')} attempts: "
                f"{failure.get('message', '')}"
            )
    if not counters and not timers and not spans and not failures:
        lines.append("  (empty capture)")
    return "\n".join(lines)


def write_manifest(manifest: Dict[str, Any], path) -> None:
    """Write a manifest as stable, human-diffable JSON (atomically).

    The temp-file + rename discipline means a killed run can never
    leave a half-written manifest: readers see the previous complete
    manifest or the new one, nothing in between.
    """
    atomic_write_text(
        path, json.dumps(manifest, indent=2, sort_keys=False) + "\n"
    )


__all__ = [
    "SCHEMA",
    "SpanNode",
    "Telemetry",
    "TimerStat",
    "active",
    "cache_effectiveness_lines",
    "capture",
    "count",
    "enabled",
    "load_manifest",
    "render_manifest",
    "span",
    "timer",
    "validate_manifest",
    "write_manifest",
]
