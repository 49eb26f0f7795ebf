"""Real-trace ingestion: AzurePublicDataset VM tables as a trace backend.

The paper's packing and savings studies replay Azure production traces;
this module ingests the *public* stand-ins — the AzurePublicDataset
``vmtable`` schema (headerless CSV, optionally gzip-compressed):

    vmid, subscriptionid, deploymentid, vmcreated, vmdeleted,
    maxcpu, avgcpu, p95maxcpu, vmcategory, vmcorecountbucket,
    vmmemorybucket

Files are **streamed in row chunks** — the text of a multi-GB table is
never materialized; kept rows accumulate into numpy blocks that
concatenate into one :class:`~repro.allocation.columnar.ColumnarTrace`.
Parsed traces register in the content-hash-keyed
:class:`~repro.allocation.store.TraceStore` under a key derived from the
*source file's* content digest, so re-ingesting a file is a store hit
(eager or memory-mapped) that skips parsing entirely.

Normalization rules:

- timestamps (seconds) become hours; the window offset is **preserved**
  (real captures start mid-day — replay anchors at
  :attr:`VmTrace.start_hours`), unless ``rebase_time=True``;
- core/memory bucket strings map through the fixed
  :data:`CORE_BUCKETS` / :data:`MEMORY_BUCKETS` tables (the "catalog
  domain"); unknown buckets invalidate the row;
- a blank ``vmdeleted`` means the VM outlives the capture (infinite
  lifetime); lifetimes are floored at :data:`MIN_LIFETIME_HOURS`;
- the catalog attributes Azure does not publish — target generation,
  application, touched-memory fraction — are assigned *deterministically
  per VM id* (sha256-derived uniforms), with ``vmcategory`` restricting
  the application classes (Interactive -> latency-critical classes,
  Delay-insensitive -> batch classes), so the GSF adoption model can
  price every VM and re-ingestion is bit-reproducible;
- rows are stably sorted by arrival and ``vm_id`` renumbered 0..n-1.

Malformed input degrades row by row, never file by file: blank required
fields, unknown buckets, duplicate VM ids, and a truncated last line are
counted in the :class:`IngestReport` and skipped.  Unreadable *files*
(bad gzip, undecodable bytes, nothing usable) raise, and the CLI's
``repro trace ingest`` quarantines the source next to itself.

The ``--trace-backend {synthetic,azure}`` axis rides
:func:`trace_suite`: experiments ask it for their suite and it
dispatches to :func:`~repro.allocation.traces.production_trace_suite` or
:func:`azure_trace_suite` (directory of ingested tables, default the
bundled offline sample under ``tests/data/azure/``).
"""

from __future__ import annotations

import csv
import gzip
import hashlib
import io
import math
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core import settings, telemetry
from ..core.errors import ConfigError
from ..core.settings import TRACE_BACKENDS
from ..perf.apps import AppClass
from .columnar import ColumnarTrace
from .store import TraceStore
from .traces import TraceParams, VmTrace, _app_tables

#: Schema tag baked into every store key; bump when the parsing or
#: assignment rules change so stale entries miss instead of lying.
AZURE_SCHEMA = "azure-vmtable/1"

#: The vmtable column layout (headerless v1/v2 field order).
N_FIELDS = 11
(
    _F_VMID,
    _F_SUB,
    _F_DEPLOY,
    _F_CREATED,
    _F_DELETED,
    _F_MAXCPU,
    _F_AVGCPU,
    _F_P95CPU,
    _F_CATEGORY,
    _F_CORES,
    _F_MEMORY,
) = range(N_FIELDS)

#: vmcorecountbucket -> cores.  The open-ended buckets (">24"/">30")
#: map to the smallest shape above them; together these values are the
#: catalog domain every ingested ``cores`` column draws from.
CORE_BUCKETS: Dict[str, int] = {
    "1": 1, "2": 2, "4": 4, "8": 8, "12": 12, "16": 16,
    "20": 20, "24": 24, "30": 30, ">24": 32, ">30": 32,
}

#: vmmemorybucket (GB) -> memory_gb, with capped open-ended buckets.
MEMORY_BUCKETS: Dict[str, float] = {
    "1": 1.0, "2": 2.0, "3": 3.0, "4": 4.0, "6": 6.0, "8": 8.0,
    "12": 12.0, "14": 14.0, "16": 16.0, "24": 24.0, "28": 28.0,
    "32": 32.0, "48": 48.0, "56": 56.0, "64": 64.0, "70": 70.0,
    ">64": 96.0, ">70": 112.0,
}

#: Lifetime floor: the simulator needs strictly positive lifetimes, and
#: the table's second-granularity timestamps can make created==deleted.
MIN_LIFETIME_HOURS = 1.0 / 60.0

#: vmcategory -> application classes the deterministic assignment may
#: draw from (fleet shares renormalized within the subset).  Unknown or
#: blank categories draw from the whole catalog.
CATEGORY_CLASSES: Dict[str, Tuple[AppClass, ...]] = {
    "interactive": (
        AppClass.WEB_APP, AppClass.RTC, AppClass.ML_INFERENCE,
        AppClass.WEB_PROXY,
    ),
    "delay-insensitive": (AppClass.BIG_DATA, AppClass.DEVOPS),
}

#: Kept rows per accumulation chunk (bounds transient list memory).
DEFAULT_CHUNK_ROWS = 65536

#: The bundled offline sample (committed, deterministically generated).
SAMPLE_NAME = "vmtable_sample.csv.gz"

#: Store seed for ingested entries: content identity lives entirely in
#: the :class:`AzureIngestKey` params, so the seed slot is constant.
INGEST_SEED = 0

#: File-level errors that mean "this source is unusable" — the CLI
#: quarantines the file on any of these.
INGEST_CORRUPT_ERRORS = (
    OSError,
    EOFError,
    UnicodeDecodeError,
    gzip.BadGzipFile,
    ConfigError,
    csv.Error,
)


def resolve_trace_backend(backend: Optional[str] = None) -> str:
    """The trace backend: the argument, else the run settings'."""
    if backend is None:
        return settings.current().trace_backend
    if backend not in TRACE_BACKENDS:
        raise ConfigError(
            f"unknown trace backend {backend!r}; "
            f"choose from {TRACE_BACKENDS}"
        )
    return backend


@dataclass(frozen=True)
class AzureIngestKey:
    """Store-key params for one ingested source file.

    ``TraceStore`` keys entries by ``repr`` of their params, so this
    frozen record — source content digest + parsing-schema tag + the
    options that change the output — *is* the content identity of the
    ingested columns.
    """

    source_digest: str
    schema: str = AZURE_SCHEMA
    rebase_time: bool = False


@dataclass(frozen=True)
class IngestReport:
    """Row-accounting for one ingestion (what was kept, what was not).

    ``store`` records how the trace materialized: ``"miss"`` (parsed and
    registered), ``"hit"`` (loaded from the store — row skip counters
    are zero because nothing was re-parsed), or ``"off"`` (parsed, no
    store).
    """

    source: str
    source_digest: str
    schema: str
    rows_total: int
    rows_kept: int
    rows_blank: int
    rows_invalid: int
    rows_duplicate: int
    rows_truncated: int
    out_of_order: int
    rebased: bool
    start_hours: float
    span_hours: float
    store: str

    def to_dict(self) -> dict:
        """JSON-ready form of the report (plain field dict)."""
        return asdict(self)


class _CategoryTables:
    """Per-category (class cdf, members, offsets) assignment tables."""

    __slots__ = ("by_category", "default")

    def __init__(self) -> None:
        apps = _app_tables()
        classes = list(AppClass(c) for c in _fleet_classes())
        index_of = {cls: i for i, cls in enumerate(classes)}

        def build(subset: Sequence[AppClass]):
            idx = [index_of[cls] for cls in subset]
            shares = np.array([apps.shares[i] for i in idx], dtype=np.float64)
            cdf = shares.cumsum() / shares.sum()
            return cdf.tolist(), idx

        self.default = build(classes)
        self.by_category = {
            name: build(subset)
            for name, subset in CATEGORY_CLASSES.items()
        }

    def assign(self, category: str, u_class: float, u_member: float) -> int:
        """The flat app index for a category and two unit uniforms."""
        apps = _app_tables()
        cdf, idx = self.by_category.get(category, self.default)
        pos = 0
        while pos < len(cdf) - 1 and u_class > cdf[pos]:
            pos += 1
        cls = idx[pos]
        length = apps.member_lens[cls]
        member = min(int(u_member * length), length - 1)
        return apps.offsets[cls] + member


def _fleet_classes() -> Tuple[AppClass, ...]:
    from ..perf.apps import FLEET_CORE_HOUR_SHARE

    return tuple(FLEET_CORE_HOUR_SHARE.keys())


_CATEGORY_TABLES: Optional[_CategoryTables] = None


def _category_tables() -> _CategoryTables:
    global _CATEGORY_TABLES
    if _CATEGORY_TABLES is None:
        _CATEGORY_TABLES = _CategoryTables()
    return _CATEGORY_TABLES


def _vm_uniforms(vmid: str) -> Tuple[int, float, float, float]:
    """(dedup key, u_generation, u_class, u_member) for one VM id.

    All four derive from one sha256 of the id, so the assignment is a
    pure function of the source row — re-ingesting a file, in any row
    order, reproduces the identical trace.
    """
    digest = hashlib.sha256(vmid.encode("utf-8")).digest()
    dedup = int.from_bytes(digest[:8], "big")
    scale = 1.0 / 2**64
    u_gen = int.from_bytes(digest[8:16], "big") * scale
    u_class = int.from_bytes(digest[16:24], "big") * scale
    u_member = int.from_bytes(digest[24:32], "big") * scale
    return dedup, u_gen, u_class, u_member


def _generation_cdf() -> List[float]:
    mix = TraceParams().generation_mix
    cdf, total = [], 0.0
    for share in mix:
        total += share
        cdf.append(total)
    cdf[-1] = 1.0
    return cdf


def _open_text(path: Path):
    """A streaming text handle over a CSV or gzipped CSV."""
    if str(path).endswith(".gz"):
        return io.TextIOWrapper(
            gzip.open(path, "rb"), encoding="utf-8", newline=""
        )
    return open(path, "r", encoding="utf-8", newline="")


def file_digest(path) -> str:
    """Streaming sha256 over a file's raw bytes (the source identity)."""
    h = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


class _ColumnAccumulator:
    """Chunked kept-row accumulator: lists flush to numpy blocks."""

    _FLOAT_COLS = ("arrival", "lifetime", "memory", "mmf")
    _INT_COLS = ("cores", "generation", "app_index")

    def __init__(self, chunk_rows: int) -> None:
        self.chunk_rows = max(1, int(chunk_rows))
        self.blocks: Dict[str, List[np.ndarray]] = {
            name: [] for name in self._FLOAT_COLS + self._INT_COLS
        }
        self.lists: Dict[str, list] = {
            name: [] for name in self._FLOAT_COLS + self._INT_COLS
        }
        self.n = 0
        self.chunks = 0

    def append(self, arrival, lifetime, memory, mmf, cores, gen, app) -> None:
        lists = self.lists
        lists["arrival"].append(arrival)
        lists["lifetime"].append(lifetime)
        lists["memory"].append(memory)
        lists["mmf"].append(mmf)
        lists["cores"].append(cores)
        lists["generation"].append(gen)
        lists["app_index"].append(app)
        self.n += 1
        if len(lists["arrival"]) >= self.chunk_rows:
            self.flush()

    def flush(self) -> None:
        if not self.lists["arrival"]:
            return
        for name in self._FLOAT_COLS:
            self.blocks[name].append(
                np.asarray(self.lists[name], dtype=np.float64)
            )
            self.lists[name] = []
        for name in self._INT_COLS:
            self.blocks[name].append(
                np.asarray(self.lists[name], dtype=np.int64)
            )
            self.lists[name] = []
        self.chunks += 1

    def column(self, name: str, dtype) -> np.ndarray:
        blocks = self.blocks[name]
        if not blocks:
            return np.empty(0, dtype=dtype)
        return np.concatenate(blocks)


@dataclass
class _RowCounters:
    total: int = 0
    kept: int = 0
    blank: int = 0
    invalid: int = 0
    duplicate: int = 0
    truncated: int = 0


def _parse_stream(
    handle, chunk_rows: int
) -> Tuple[_ColumnAccumulator, _RowCounters]:
    """Stream one vmtable CSV into columnar blocks, row by row.

    Degrades per row: short/long rows, blank required fields, unknown
    buckets, unparsable numbers, and duplicate VM ids are counted and
    skipped.  A *final* row with fewer fields than the schema is counted
    as a truncated tail (a partial download's signature) rather than a
    malformed row.
    """
    acc = _ColumnAccumulator(chunk_rows)
    counters = _RowCounters()
    tables = _category_tables()
    gen_cdf = _generation_cdf()
    seen: set = set()
    pending_short = False
    reader = csv.reader(handle)
    first = True
    for row in reader:
        if pending_short:
            counters.invalid += 1
            pending_short = False
        if first:
            first = False
            if row and row[0].strip().lower() == "vmid":
                continue  # optional header line
        if not row:
            continue
        counters.total += 1
        if len(row) < N_FIELDS:
            pending_short = True
            continue
        vmid = row[_F_VMID].strip()
        created_s = row[_F_CREATED].strip()
        deleted_s = row[_F_DELETED].strip()
        core_bucket = row[_F_CORES].strip()
        mem_bucket = row[_F_MEMORY].strip()
        if not vmid or not created_s or not core_bucket or not mem_bucket:
            counters.blank += 1
            continue
        cores = CORE_BUCKETS.get(core_bucket)
        memory_gb = MEMORY_BUCKETS.get(mem_bucket)
        if cores is None or memory_gb is None:
            counters.invalid += 1
            continue
        try:
            created = float(created_s)
            deleted = float(deleted_s) if deleted_s else math.inf
        except ValueError:
            counters.invalid += 1
            continue
        if (
            not math.isfinite(created)
            or created < 0
            or deleted < created
        ):
            counters.invalid += 1
            continue
        dedup, u_gen, u_class, u_member = _vm_uniforms(vmid)
        if dedup in seen:
            counters.duplicate += 1
            continue
        seen.add(dedup)

        arrival = created / 3600.0
        lifetime = (
            math.inf
            if math.isinf(deleted)
            else max((deleted - created) / 3600.0, MIN_LIFETIME_HOURS)
        )
        mmf = _memory_fraction(row[_F_P95CPU], row[_F_MAXCPU])
        pos = 0
        while pos < len(gen_cdf) - 1 and u_gen > gen_cdf[pos]:
            pos += 1
        generation = pos + 1
        category = row[_F_CATEGORY].strip().lower()
        app_index = tables.assign(category, u_class, u_member)
        acc.append(
            arrival, lifetime, memory_gb, mmf, cores, generation, app_index
        )
        counters.kept += 1
    if pending_short:
        counters.truncated += 1
    counters.total += 0
    acc.flush()
    return acc, counters


def _memory_fraction(p95_s: str, max_s: str) -> float:
    """Touched-memory fraction proxy: p95 CPU% (fallback max CPU%, 0.5).

    The vmtable publishes CPU readings, not memory; the p95 utilization
    is the closest published proxy for how much of its allocation a VM
    actually exercises, clipped into ``VmRequest``'s [0, 1] domain.
    """
    for field in (p95_s, max_s):
        field = field.strip()
        if not field:
            continue
        try:
            value = float(field)
        except ValueError:
            continue
        if math.isfinite(value):
            return min(max(value / 100.0, 0.01), 1.0)
    return 0.5


def _columns_from_accumulator(
    acc: _ColumnAccumulator, rebase_time: bool
) -> Tuple[ColumnarTrace, int]:
    """Sort, renumber, and freeze the accumulated rows into columns.

    Returns ``(columns, out_of_order)`` where the count is how many
    adjacent source-order inversions the stable sort repaired.
    """
    arrival = acc.column("arrival", np.float64)
    out_of_order = (
        int(np.sum(np.diff(arrival) < 0)) if arrival.size > 1 else 0
    )
    order = np.argsort(arrival, kind="stable")
    arrival = arrival[order]
    if rebase_time and arrival.size:
        arrival = arrival - arrival[0]
    n = arrival.size
    columns = ColumnarTrace(
        vm_id=np.arange(n, dtype=np.int64),
        arrival_hours=arrival,
        lifetime_hours=acc.column("lifetime", np.float64)[order],
        cores=acc.column("cores", np.int64)[order],
        memory_gb=acc.column("memory", np.float64)[order],
        generation=acc.column("generation", np.int64)[order],
        app_index=acc.column("app_index", np.int64)[order],
        max_memory_fraction=acc.column("mmf", np.float64)[order],
        full_node=np.zeros(n, dtype=np.bool_),
        app_names=_app_tables().flat_names,
    )
    columns.validate()
    return columns, out_of_order


def window_params(columns: ColumnarTrace) -> TraceParams:
    """Window-derived :class:`TraceParams` for ingested columns.

    Only the window fields are fitted here (duration from the activity
    span, time-averaged concurrency via Little's law); the full
    marginals fit lives in :func:`repro.analysis.marginals`.
    """
    if columns.n == 0:
        raise ConfigError("cannot derive a window from an empty trace")
    start = columns.start_hours()
    departures = columns.arrival_hours + columns.lifetime_hours
    finite = departures[np.isfinite(departures)]
    end = max(
        columns.last_arrival_hours(),
        float(finite.max()) if finite.size else start,
    )
    span = max(end - start, 1.0)
    clipped_end = start + span
    overlap = np.clip(
        np.minimum(departures, clipped_end) - columns.arrival_hours,
        0.0,
        None,
    )
    mean_vms = max(1, int(round(float(overlap.sum()) / span)))
    return TraceParams(
        duration_days=span / 24.0, mean_concurrent_vms=mean_vms
    )


def ingest_azure_vm_trace(
    path,
    name: Optional[str] = None,
    store: Optional[TraceStore] = None,
    mmap: bool = False,
    rebase_time: bool = False,
    chunk_rows: int = DEFAULT_CHUNK_ROWS,
) -> Tuple[VmTrace, IngestReport]:
    """Ingest one AzurePublicDataset vmtable CSV/CSV.gz.

    With a ``store``, the parsed columns register under an
    :class:`AzureIngestKey` built from the file's content digest; a
    later call over the same bytes loads straight from the ``.npz``
    entry (``mmap=True`` memory-maps it) without re-parsing.  Corrupt
    store entries quarantine as usual and fall back to a fresh parse.

    Raises :class:`ConfigError` (or the underlying I/O error) when the
    *file* is unusable — unreadable bytes or zero usable rows; per-row
    damage only skips rows (see :class:`IngestReport`).
    """
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"trace file not found: {path}")
    source_digest = file_digest(path)
    key = AzureIngestKey(
        source_digest=source_digest, rebase_time=rebase_time
    )
    trace_name = name or f"azure-{source_digest[:12]}"
    if store is not None:
        columns = store.get_columns(INGEST_SEED, key, mmap=mmap)
        if columns is not None:
            trace = VmTrace(
                name=trace_name,
                params=window_params(columns),
                columns=columns,
            )
            report = IngestReport(
                source=str(path),
                source_digest=source_digest,
                schema=AZURE_SCHEMA,
                rows_total=columns.n,
                rows_kept=columns.n,
                rows_blank=0,
                rows_invalid=0,
                rows_duplicate=0,
                rows_truncated=0,
                out_of_order=0,
                rebased=rebase_time,
                start_hours=columns.start_hours(),
                span_hours=trace.duration_hours,
                store="hit",
            )
            return trace, report
    with telemetry.timer("trace.ingest"):
        with _open_text(path) as handle:
            acc, counters = _parse_stream(handle, chunk_rows)
        if counters.kept == 0:
            raise ConfigError(
                f"no usable rows in {path} "
                f"({counters.total} rows scanned)"
            )
        columns, out_of_order = _columns_from_accumulator(acc, rebase_time)
    tel = telemetry.active()
    if tel is not None:
        tel.count_many(
            {
                "trace.ingested": 1,
                "trace.ingest_rows": counters.total,
                "trace.ingest_kept": counters.kept,
                "trace.ingest_skipped": counters.total - counters.kept,
                "trace.ingest_chunks": acc.chunks,
            }
        )
    store_state = "off"
    if store is not None:
        store.put(INGEST_SEED, key, columns)
        store_state = "miss"
    trace = VmTrace(
        name=trace_name, params=window_params(columns), columns=columns
    )
    report = IngestReport(
        source=str(path),
        source_digest=source_digest,
        schema=AZURE_SCHEMA,
        rows_total=counters.total,
        rows_kept=counters.kept,
        rows_blank=counters.blank,
        rows_invalid=counters.invalid,
        rows_duplicate=counters.duplicate,
        rows_truncated=counters.truncated,
        out_of_order=out_of_order,
        rebased=rebase_time,
        start_hours=columns.start_hours(),
        span_hours=trace.duration_hours,
        store=store_state,
    )
    return trace, report


def bundled_sample_dir() -> Path:
    """The directory holding the committed offline sample trace."""
    for parent in Path(__file__).resolve().parents:
        candidate = parent / "tests" / "data" / "azure"
        if (candidate / SAMPLE_NAME).exists():
            return candidate
    raise ConfigError(
        f"bundled Azure sample ({SAMPLE_NAME}) not found; set "
        f"REPRO_AZURE_TRACE_DIR to a directory of ingested vmtable CSVs"
    )


def bundled_sample_path() -> Path:
    """The committed, deterministically subsampled vmtable sample."""
    return bundled_sample_dir() / SAMPLE_NAME


def azure_tables(directory: Optional[Path] = None) -> List[Path]:
    """The sorted ``.csv``/``.csv.gz`` tables under ``directory``.

    ``directory`` defaults to the run settings' ``azure_trace_dir``, then
    the bundled sample's (so the azure backend always works offline).
    """
    if directory is None:
        directory = settings.current().azure_trace_dir or bundled_sample_dir()
    directory = Path(directory)
    if not directory.is_dir():
        raise ConfigError(f"azure trace directory not found: {directory}")
    paths = sorted(
        p
        for p in directory.iterdir()
        if p.name.endswith((".csv", ".csv.gz"))
    )
    if not paths:
        raise ConfigError(f"no .csv/.csv.gz traces under {directory}")
    return paths


def azure_trace_suite(
    directory: Optional[Path] = None,
    count: Optional[int] = None,
    store: Optional[TraceStore] = None,
    mmap: bool = False,
    rebase_time: bool = False,
) -> List[VmTrace]:
    """Every ingestable table under ``directory``, as a trace suite.

    The tables are :func:`azure_tables`'s, ingested in sorted-name
    order; ``count`` truncates — fewer real tables than requested is not
    an error, the suite is simply smaller.
    """
    paths = azure_tables(directory)
    if count is not None:
        paths = paths[: max(1, count)]
    traces = []
    for path in paths:
        trace, _report = ingest_azure_vm_trace(
            path,
            name=path.name.split(".csv")[0],
            store=store,
            mmap=mmap,
            rebase_time=rebase_time,
        )
        traces.append(trace)
    return traces


def trace_suite(
    backend: Optional[str] = None,
    count: int = 35,
    base_seed: int = 100,
    params: Optional[TraceParams] = None,
    jobs: Optional[int] = None,
    store: Optional[TraceStore] = None,
) -> List[VmTrace]:
    """The experiment-facing suite dispatcher for the backend axis.

    ``synthetic`` forwards everything to
    :func:`~repro.allocation.traces.production_trace_suite`; ``azure``
    ingests the configured trace directory (``params``/``base_seed``/
    ``jobs`` do not apply — real traces are what they are).
    """
    backend = resolve_trace_backend(backend)
    if backend == "synthetic":
        from .traces import production_trace_suite

        return production_trace_suite(
            count=count,
            base_seed=base_seed,
            params=params,
            jobs=jobs,
            store=store,
        )
    return azure_trace_suite(count=count, store=store)
