"""Structure-of-arrays trace representation.

``ColumnarTrace`` holds one numpy array per VM attribute and is the
canonical in-memory and on-disk form of a trace.  Row objects
(``VmRequest``) are materialized lazily by ``VmTrace`` for code that
still walks VMs one at a time; sweeps and reductions (peak cores,
memory-utilization CDFs, sub-trace filters) operate directly on the
columns.

Application names are interned: the ``app_index`` column indexes into a
per-trace ``app_names`` tuple.  Generated traces share the fleet-wide
table (see ``traces._app_tables``); traces built from arbitrary rows
(e.g. CSV imports) extend it with first-occurrence ordering, so the
mapping — and therefore :meth:`ColumnarTrace.digest` — is a pure
function of the row sequence.
"""

from __future__ import annotations

import hashlib
import struct
import zipfile
from typing import Dict, Iterable, Optional, Sequence, Tuple

import numpy as np

from ..core.errors import ConfigError
from .vm import VmRequest

#: Column name -> numpy dtype, in serialization/digest order.
COLUMN_DTYPES = (
    ("vm_id", np.int64),
    ("arrival_hours", np.float64),
    ("lifetime_hours", np.float64),
    ("cores", np.int64),
    ("memory_gb", np.float64),
    ("generation", np.int64),
    ("app_index", np.int64),
    ("max_memory_fraction", np.float64),
    ("full_node", np.bool_),
)

COLUMN_NAMES = tuple(name for name, _dtype in COLUMN_DTYPES)

#: ``.npz`` schema tag; bump on any layout change.
NPZ_SCHEMA = "repro-trace/1"


class ColumnarTrace:
    """A VM trace as structure of arrays: one read-only array per attribute.

    Arrays are row-aligned (index ``i`` across all columns is one VM)
    and frozen (``writeable=False``) so views can be shared without
    defensive copies.
    """

    __slots__ = COLUMN_NAMES + ("app_names", "n")

    def __init__(
        self,
        *,
        vm_id: np.ndarray,
        arrival_hours: np.ndarray,
        lifetime_hours: np.ndarray,
        cores: np.ndarray,
        memory_gb: np.ndarray,
        generation: np.ndarray,
        app_index: np.ndarray,
        max_memory_fraction: np.ndarray,
        full_node: np.ndarray,
        app_names: Sequence[str],
    ) -> None:
        values = locals()
        n: Optional[int] = None
        for name, dtype in COLUMN_DTYPES:
            array = np.ascontiguousarray(values[name], dtype=dtype)
            if array.ndim != 1:
                raise ConfigError(f"column {name!r} must be 1-D")
            if n is None:
                n = array.shape[0]
            elif array.shape[0] != n:
                raise ConfigError(
                    f"column {name!r} has {array.shape[0]} rows, "
                    f"expected {n}"
                )
            array.flags.writeable = False
            object.__setattr__(self, name, array)
        object.__setattr__(self, "n", int(n or 0))
        object.__setattr__(self, "app_names", tuple(app_names))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("ColumnarTrace is immutable")

    def __len__(self) -> int:
        return self.n

    def __repr__(self) -> str:
        return f"ColumnarTrace(n={self.n}, apps={len(self.app_names)})"

    # -- construction ---------------------------------------------------------

    @classmethod
    def from_vms(
        cls,
        vms: Iterable[VmRequest],
        base_app_names: Sequence[str] = (),
    ) -> "ColumnarTrace":
        """Build columns from row objects.

        ``base_app_names`` pre-seeds the interning table (generated
        traces pass the fleet table so row- and block-built columns
        agree index for index); unseen names append in first-occurrence
        order.
        """
        app_names = list(base_app_names)
        index_of = {name: i for i, name in enumerate(app_names)}
        rows = list(vms)
        app_index = np.empty(len(rows), dtype=np.int64)
        for i, vm in enumerate(rows):
            idx = index_of.get(vm.app_name)
            if idx is None:
                idx = index_of[vm.app_name] = len(app_names)
                app_names.append(vm.app_name)
            app_index[i] = idx
        return cls(
            vm_id=np.array([vm.vm_id for vm in rows], dtype=np.int64),
            arrival_hours=np.array(
                [vm.arrival_hours for vm in rows], dtype=np.float64
            ),
            lifetime_hours=np.array(
                [vm.lifetime_hours for vm in rows], dtype=np.float64
            ),
            cores=np.array([vm.cores for vm in rows], dtype=np.int64),
            memory_gb=np.array(
                [vm.memory_gb for vm in rows], dtype=np.float64
            ),
            generation=np.array(
                [vm.generation for vm in rows], dtype=np.int64
            ),
            app_index=app_index,
            max_memory_fraction=np.array(
                [vm.max_memory_fraction for vm in rows], dtype=np.float64
            ),
            full_node=np.array(
                [vm.full_node for vm in rows], dtype=np.bool_
            ),
            app_names=app_names,
        )

    def to_vms(self) -> Tuple[VmRequest, ...]:
        """Materialize the row view (exact scalar round-trip)."""
        names = self.app_names
        ids = self.vm_id.tolist()
        arrivals = self.arrival_hours.tolist()
        lifetimes = self.lifetime_hours.tolist()
        cores = self.cores.tolist()
        memory = self.memory_gb.tolist()
        generations = self.generation.tolist()
        app_idx = self.app_index.tolist()
        fractions = self.max_memory_fraction.tolist()
        full = self.full_node.tolist()
        return tuple(
            VmRequest(
                vm_id=ids[i],
                arrival_hours=arrivals[i],
                lifetime_hours=lifetimes[i],
                cores=cores[i],
                memory_gb=memory[i],
                generation=generations[i],
                app_name=names[app_idx[i]],
                max_memory_fraction=fractions[i],
                full_node=full[i],
            )
            for i in range(self.n)
        )

    # -- views ----------------------------------------------------------------

    def take(self, selector: np.ndarray) -> "ColumnarTrace":
        """A sub-trace from a boolean mask or index array.

        Row order (and ``vm_id``) is preserved; the app table is shared
        unchanged so indices stay valid.
        """
        return ColumnarTrace(
            app_names=self.app_names,
            **{name: getattr(self, name)[selector] for name in COLUMN_NAMES},
        )

    # -- reductions ------------------------------------------------------------

    def peak_concurrent_cores(self) -> int:
        """Exact event-sweep peak of simultaneously requested cores."""
        return self._peak_concurrent(self.cores)

    def peak_concurrent_vms(self) -> int:
        """Exact event-sweep peak of simultaneously live VMs."""
        return self._peak_concurrent(np.ones(self.n, dtype=np.int64))

    def _peak_concurrent(self, weights: np.ndarray) -> int:
        """Peak running sum of ``weights`` over live VMs.

        Equivalent to sorting ``(time, is_arrival, weight)`` event tuples
        and taking the running-sum maximum: ``lexsort`` orders
        departures (flag 0) before arrivals (flag 1) at equal times
        (half-open ``[arrival, departure)`` occupancy), and within any
        tied block the running sum is monotone, so block-end cumulative
        sums contain the true peak.
        """
        if self.n == 0:
            return 0
        departures = self.arrival_hours + self.lifetime_hours
        finite = np.isfinite(departures)
        times = np.concatenate([self.arrival_hours, departures[finite]])
        flags = np.concatenate(
            [
                np.ones(self.n, dtype=np.int8),
                np.zeros(int(finite.sum()), dtype=np.int8),
            ]
        )
        deltas = np.concatenate([weights, -weights[finite]])
        order = np.lexsort((flags, times))
        return int(np.cumsum(deltas[order]).max())

    def last_arrival_hours(self) -> float:
        return float(self.arrival_hours.max()) if self.n else 0.0

    def start_hours(self) -> float:
        """The earliest VM arrival (0.0 for an empty trace).

        Real ingested traces rarely start at t=0 — the trace window is
        ``[start_hours, start_hours + duration]``, not ``[0, duration]``.
        """
        return float(self.arrival_hours.min()) if self.n else 0.0

    # -- identity --------------------------------------------------------------

    def digest(self) -> str:
        """sha256 over the column bytes (the trace's content identity)."""
        h = hashlib.sha256()
        h.update(repr((NPZ_SCHEMA, self.n, self.app_names)).encode())
        for name in COLUMN_NAMES:
            array = getattr(self, name)
            h.update(name.encode())
            h.update(array.dtype.str.encode())
            h.update(array.tobytes())
        return h.hexdigest()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ColumnarTrace):
            return NotImplemented
        return (
            self.n == other.n
            and self.app_names == other.app_names
            and all(
                np.array_equal(getattr(self, name), getattr(other, name))
                for name in COLUMN_NAMES
            )
        )

    def __hash__(self) -> int:
        return hash(self.digest())

    # -- validation ------------------------------------------------------------

    def validate(self) -> None:
        """Reject columns that could not have come from valid rows.

        Mirrors ``VmRequest.__post_init__`` so store loads fail fast on
        corrupt or hand-edited entries instead of producing nonsense
        downstream.
        """
        if self.n == 0:
            return
        if not (self.cores > 0).all():
            raise ConfigError("trace columns: cores must be > 0")
        if not (self.memory_gb > 0).all():
            raise ConfigError("trace columns: memory must be > 0")
        if not (self.arrival_hours >= 0).all():
            raise ConfigError("trace columns: arrivals must be >= 0")
        lifetimes = self.lifetime_hours
        if not ((lifetimes > 0) | np.isinf(lifetimes)).all() or (
            np.isnan(lifetimes).any()
        ):
            raise ConfigError("trace columns: lifetimes must be > 0")
        if not np.isin(self.generation, (1, 2, 3)).all():
            raise ConfigError("trace columns: generation must be 1, 2 or 3")
        fractions = self.max_memory_fraction
        if not ((fractions >= 0) & (fractions <= 1)).all():
            raise ConfigError(
                "trace columns: max memory fraction must be in [0, 1]"
            )
        app_index = self.app_index
        if self.n and (
            app_index.min() < 0 or app_index.max() >= len(self.app_names)
        ):
            raise ConfigError("trace columns: app index out of range")

    # -- pickling --------------------------------------------------------------

    def __reduce__(self):
        state = {name: getattr(self, name) for name in COLUMN_NAMES}
        state["app_names"] = self.app_names
        return (_rebuild_columnar, (state,))


def _rebuild_columnar(state: dict) -> ColumnarTrace:
    return ColumnarTrace(**state)


# -- .npz serialization --------------------------------------------------------


def save_columns_npz(columns: ColumnarTrace, path) -> None:
    """Write columns to ``path`` as an (uncompressed) ``.npz``.

    The entry embeds the trace's own content digest so a later load can
    detect *silent* corruption — zip-valid files whose column bytes were
    flipped — not just truncation and schema drift.
    """
    arrays = {name: getattr(columns, name) for name in COLUMN_NAMES}
    arrays["app_names"] = np.array(columns.app_names, dtype=np.str_)
    arrays["schema"] = np.array(NPZ_SCHEMA)
    arrays["content_digest"] = np.array(columns.digest())
    with open(path, "wb") as handle:
        np.savez(handle, **arrays)


def _check_column_dtypes(arrays: Dict[str, np.ndarray]) -> None:
    """Reject entries whose stored array dtypes drifted from the schema.

    ``ColumnarTrace.__init__`` casts to the schema dtypes, so a drifted
    entry (say ``float32`` cores from a foreign writer) would otherwise
    be silently re-cast, and an un-castable dtype (structured, object)
    would fail with a bare ``TypeError``.  An explicit ``ConfigError``
    here names the drift, and the store quarantines the entry as
    corrupt instead of loading a re-cast value.
    """
    for name, dtype in COLUMN_DTYPES:
        stored = arrays[name].dtype
        if stored != np.dtype(dtype):
            raise ConfigError(
                f"trace npz column {name!r} dtype drifted: stored "
                f"{stored.str!r}, schema wants {np.dtype(dtype).str!r}"
            )


def _npz_member_arrays(path) -> Dict[str, np.ndarray]:
    """Memory-map every ``.npy`` member of an uncompressed ``.npz``.

    ``np.load(..., mmap_mode=...)`` silently ignores ``mmap_mode`` for
    zip archives, so this maps members by hand: locate each member's
    local file header, skip it, read the ``.npy`` header, and map the
    raw array bytes at their absolute file offset.  Requires
    ``ZIP_STORED`` members (what ``np.savez`` writes).
    """
    arrays: Dict[str, np.ndarray] = {}
    with zipfile.ZipFile(path) as archive, open(path, "rb") as handle:
        for info in archive.infolist():
            if info.compress_type != zipfile.ZIP_STORED:
                raise ConfigError(
                    f"trace npz member {info.filename!r} is compressed; "
                    "memory-mapped loads need ZIP_STORED entries"
                )
            handle.seek(info.header_offset)
            local = handle.read(30)
            if len(local) != 30 or local[:4] != b"PK\x03\x04":
                raise ConfigError(
                    f"trace npz member {info.filename!r}: bad local header"
                )
            name_len, extra_len = struct.unpack("<HH", local[26:30])
            handle.seek(info.header_offset + 30 + name_len + extra_len)
            version = np.lib.format.read_magic(handle)
            if version == (1, 0):
                shape, fortran, dtype = np.lib.format.read_array_header_1_0(
                    handle
                )
            elif version == (2, 0):
                shape, fortran, dtype = np.lib.format.read_array_header_2_0(
                    handle
                )
            else:
                raise ConfigError(
                    f"trace npz member {info.filename!r}: unsupported "
                    f"npy format version {version}"
                )
            if dtype.hasobject:
                raise ConfigError(
                    f"trace npz member {info.filename!r}: object arrays "
                    "cannot be memory-mapped"
                )
            member = info.filename
            if member.endswith(".npy"):
                member = member[: -len(".npy")]
            if shape == ():
                # 0-d metadata members (schema tag, digest) are tiny;
                # read them eagerly rather than mapping a scalar.
                arrays[member] = np.fromfile(
                    handle, dtype=dtype, count=1
                ).reshape(())
            else:
                arrays[member] = np.memmap(
                    path,
                    dtype=dtype,
                    mode="r",
                    offset=handle.tell(),
                    shape=shape,
                    order="F" if fortran else "C",
                )
    return arrays


def load_columns_npz(path, mmap: bool = False) -> ColumnarTrace:
    """Read columns back; raises ``ConfigError`` on schema/content issues.

    I/O and zip-level corruption surface as the usual ``OSError`` /
    ``ValueError`` / ``zipfile.BadZipFile`` from ``np.load``.  When the
    entry carries a ``content_digest`` (every entry written since the
    resilience layer does; older entries lack it and skip the check),
    the columns' recomputed digest must match, so bit rot inside a
    structurally valid ``.npz`` is rejected rather than replayed.

    With ``mmap=True`` the column arrays are memory-mapped straight out
    of the archive (multi-GB suites stream from disk on demand instead
    of loading eagerly).  The streaming path keeps the structural checks
    — schema tag, required members, exact dtypes, row alignment — but
    skips the content-digest recompute and the full value validation,
    since both would fault every page in and defeat the point; callers
    that need bit-rot detection load eagerly.
    """
    if mmap:
        arrays = _npz_member_arrays(path)
        missing = ({"schema", "app_names"} | set(COLUMN_NAMES)) - set(arrays)
        if missing:
            raise ConfigError(
                f"trace npz missing entries: {sorted(missing)}"
            )
        schema = str(arrays["schema"])
        if schema != NPZ_SCHEMA:
            raise ConfigError(
                f"trace npz schema {schema!r} != {NPZ_SCHEMA!r}"
            )
        _check_column_dtypes(arrays)
        return ColumnarTrace(
            app_names=tuple(str(name) for name in arrays["app_names"]),
            **{name: arrays[name] for name in COLUMN_NAMES},
        )
    with np.load(path, allow_pickle=False) as data:
        files = set(data.files)
        missing = ({"schema", "app_names"} | set(COLUMN_NAMES)) - files
        if missing:
            raise ConfigError(
                f"trace npz missing entries: {sorted(missing)}"
            )
        schema = str(data["schema"])
        if schema != NPZ_SCHEMA:
            raise ConfigError(
                f"trace npz schema {schema!r} != {NPZ_SCHEMA!r}"
            )
        expected_digest = (
            str(data["content_digest"]) if "content_digest" in files else None
        )
        loaded = {name: data[name] for name in COLUMN_NAMES}
        _check_column_dtypes(loaded)
        columns = ColumnarTrace(
            app_names=tuple(str(name) for name in data["app_names"]),
            **loaded,
        )
    columns.validate()
    if expected_digest is not None and columns.digest() != expected_digest:
        raise ConfigError(
            f"trace npz content digest mismatch: stored "
            f"{expected_digest[:12]}..., recomputed "
            f"{columns.digest()[:12]}..."
        )
    return columns
