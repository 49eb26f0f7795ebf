"""Trace-conformance suite for the Azure vmtable ingestion pipeline.

Locks down the tentpole contracts: every ingested trace satisfies the
replay preconditions (sorted non-negative arrivals, strictly positive
lifetimes, catalog-domain shapes), store round-trips are bit-identical
through both load paths, malformed input degrades row by row with exact
accounting, and ingestion is a pure function of the file bytes.
"""

import gzip
import io

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.allocation.columnar import COLUMN_NAMES
from repro.allocation.ingest import (
    AZURE_SCHEMA,
    CORE_BUCKETS,
    MEMORY_BUCKETS,
    MIN_LIFETIME_HOURS,
    AzureIngestKey,
    azure_trace_suite,
    bundled_sample_path,
    ingest_azure_vm_trace,
    resolve_trace_backend,
    trace_suite,
)
from repro.allocation.store import TraceStore
from repro.allocation.traces import _app_tables
from repro.core import telemetry
from repro.core.errors import ConfigError


def _write(tmp_path, text, name="table.csv", compress=False):
    path = tmp_path / (name + (".gz" if compress else ""))
    if compress:
        with open(path, "wb") as raw:
            with gzip.GzipFile(fileobj=raw, mode="wb", mtime=0) as gz:
                gz.write(text.encode("utf-8"))
    else:
        path.write_text(text)
    return path


def _row(
    vmid="vm-a",
    created="3600",
    deleted="7200",
    category="Interactive",
    cores="2",
    memory="4",
    p95="40.0",
):
    return (
        f"{vmid},sub,dep,{created},{deleted},55.0,12.0,{p95},"
        f"{category},{cores},{memory}"
    )


class TestIngestInvariants:
    """The replay preconditions, checked on the bundled sample."""

    @pytest.fixture(scope="class")
    def sample(self):
        trace, report = ingest_azure_vm_trace(
            bundled_sample_path(), name="azure-sample"
        )
        return trace, report

    def test_arrivals_sorted_and_non_negative(self, sample):
        trace, _ = sample
        arrivals = trace.columns.arrival_hours
        assert np.all(np.diff(arrivals) >= 0)
        assert np.all(arrivals >= 0)

    def test_lifetimes_strictly_positive(self, sample):
        trace, _ = sample
        assert np.all(trace.columns.lifetime_hours >= MIN_LIFETIME_HOURS)

    def test_shapes_in_catalog_domain(self, sample):
        trace, _ = sample
        assert set(np.unique(trace.columns.cores)) <= set(
            CORE_BUCKETS.values()
        )
        assert set(np.unique(trace.columns.memory_gb)) <= set(
            MEMORY_BUCKETS.values()
        )

    def test_generations_and_apps_in_domain(self, sample):
        trace, _ = sample
        assert set(np.unique(trace.columns.generation)) <= {1, 2, 3}
        apps = _app_tables()
        assert trace.columns.app_names == apps.flat_names
        assert trace.columns.app_index.min() >= 0
        assert trace.columns.app_index.max() < len(apps.flat_names)

    def test_vm_ids_renumbered(self, sample):
        trace, _ = sample
        n = trace.columns.n
        assert np.array_equal(
            trace.columns.vm_id, np.arange(n, dtype=np.int64)
        )

    def test_memory_fraction_in_unit_interval(self, sample):
        trace, _ = sample
        mmf = trace.columns.max_memory_fraction
        assert np.all((mmf > 0) & (mmf <= 1.0))

    def test_window_preserves_offset(self, sample):
        trace, report = sample
        # The bundled sample deliberately starts mid-day.
        assert trace.start_hours == pytest.approx(5.5)
        assert report.start_hours == pytest.approx(5.5)
        assert trace.end_hours > trace.start_hours

    def test_report_accounting_consistent(self, sample):
        _, report = sample
        assert report.schema == AZURE_SCHEMA
        skipped = (
            report.rows_blank
            + report.rows_invalid
            + report.rows_duplicate
            + report.rows_truncated
        )
        assert report.rows_kept + skipped == report.rows_total
        assert report.rows_duplicate >= 2  # baked into the sample
        assert report.rows_blank >= 1
        assert report.rows_invalid >= 1
        assert report.out_of_order > 0

    def test_full_column_validation(self, sample):
        trace, _ = sample
        trace.columns.validate()  # must not raise

    def test_telemetry_counters(self, tmp_path):
        text = "\n".join([_row(vmid=f"vm-{i}") for i in range(5)]) + "\n"
        path = _write(tmp_path, text)
        with telemetry.capture() as tel:
            ingest_azure_vm_trace(path)
        assert tel.counters["trace.ingested"] == 1
        assert tel.counters["trace.ingest_kept"] == 5
        assert tel.counters["trace.ingest_chunks"] >= 1


class TestStoreRoundTrip:
    def test_eager_and_mmap_bit_identical(self, tmp_path):
        store = TraceStore(tmp_path / "store")
        path = bundled_sample_path()
        fresh, r_miss = ingest_azure_vm_trace(path, store=store)
        eager, r_eager = ingest_azure_vm_trace(path, store=store)
        mapped, r_mmap = ingest_azure_vm_trace(path, store=store, mmap=True)
        assert (r_miss.store, r_eager.store, r_mmap.store) == (
            "miss", "hit", "hit",
        )
        assert fresh.digest() == eager.digest() == mapped.digest()
        for name in COLUMN_NAMES:
            assert np.array_equal(
                getattr(fresh.columns, name),
                getattr(mapped.columns, name),
            ), name

    def test_rebase_keys_separately(self, tmp_path):
        store = TraceStore(tmp_path / "store")
        path = bundled_sample_path()
        plain, _ = ingest_azure_vm_trace(path, store=store)
        rebased, report = ingest_azure_vm_trace(
            path, store=store, rebase_time=True
        )
        assert report.store == "miss"  # different key, not a false hit
        assert rebased.start_hours == 0.0
        assert plain.digest() != rebased.digest()

    def test_corrupt_entry_quarantined_and_reparsed(self, tmp_path):
        store = TraceStore(tmp_path / "store")
        path = bundled_sample_path()
        first, _ = ingest_azure_vm_trace(path, store=store)
        entries = list((tmp_path / "store").glob("*.npz"))
        assert len(entries) == 1
        entries[0].write_bytes(b"not a zip archive")
        again, report = ingest_azure_vm_trace(path, store=store)
        assert report.store == "miss"
        assert again.digest() == first.digest()
        assert list((tmp_path / "store" / "quarantine").iterdir())

    def test_key_is_content_addressed(self):
        key = AzureIngestKey(source_digest="ab" * 32)
        assert key.schema == AZURE_SCHEMA
        assert "ab" * 32 in repr(key)


class TestAdversarialInput:
    def test_blank_fields_skipped(self, tmp_path):
        text = "\n".join(
            [
                _row(vmid="vm-1"),
                _row(vmid="", created="3600"),
                _row(vmid="vm-2", created=""),
                _row(vmid="vm-3", cores=""),
                _row(vmid="vm-4", memory=""),
            ]
        ) + "\n"
        trace, report = ingest_azure_vm_trace(_write(tmp_path, text))
        assert report.rows_kept == 1
        assert report.rows_blank == 4
        assert trace.columns.n == 1

    def test_unknown_buckets_invalid(self, tmp_path):
        text = "\n".join(
            [
                _row(vmid="vm-1"),
                _row(vmid="vm-2", cores="7"),
                _row(vmid="vm-3", memory="9999"),
                _row(vmid="vm-4", created="-50"),
                _row(vmid="vm-5", created="bogus"),
                _row(vmid="vm-6", created="7200", deleted="3600"),
            ]
        ) + "\n"
        _, report = ingest_azure_vm_trace(_write(tmp_path, text))
        assert report.rows_kept == 1
        assert report.rows_invalid == 5

    def test_duplicate_vm_ids_first_wins(self, tmp_path):
        text = "\n".join(
            [
                _row(vmid="vm-dup", created="3600", cores="2"),
                _row(
                    vmid="vm-dup", created="9000", deleted="20000",
                    cores="8",
                ),
                _row(vmid="vm-2"),
            ]
        ) + "\n"
        trace, report = ingest_azure_vm_trace(_write(tmp_path, text))
        assert report.rows_duplicate == 1
        assert trace.columns.n == 2
        assert 8 not in trace.columns.cores

    def test_truncated_last_line(self, tmp_path):
        text = (
            _row(vmid="vm-1")
            + "\n"
            + _row(vmid="vm-2")
            + "\n"
            + "vm-3,sub,dep,360"  # cut mid-field, no trailing newline
        )
        trace, report = ingest_azure_vm_trace(_write(tmp_path, text))
        assert report.rows_truncated == 1
        assert report.rows_kept == 2
        assert trace.columns.n == 2

    def test_short_row_mid_file_is_invalid_not_truncated(self, tmp_path):
        text = (
            _row(vmid="vm-1") + "\n" + "vm-2,sub,dep\n" + _row(vmid="vm-3")
            + "\n"
        )
        _, report = ingest_azure_vm_trace(_write(tmp_path, text))
        assert report.rows_invalid == 1
        assert report.rows_truncated == 0
        assert report.rows_kept == 2

    def test_out_of_order_rows_sorted(self, tmp_path):
        text = "\n".join(
            [
                _row(vmid="vm-1", created="9000", deleted="20000"),
                _row(vmid="vm-2", created="3600", deleted="20000"),
                _row(vmid="vm-3", created="7200", deleted="20000"),
            ]
        ) + "\n"
        trace, report = ingest_azure_vm_trace(_write(tmp_path, text))
        assert report.out_of_order > 0
        assert np.all(np.diff(trace.columns.arrival_hours) >= 0)

    def test_optional_header_tolerated(self, tmp_path):
        text = (
            "vmid,subscriptionid,deploymentid,vmcreated,vmdeleted,"
            "maxcpu,avgcpu,p95maxcpu,vmcategory,vmcorecountbucket,"
            "vmmemorybucket\n" + _row() + "\n"
        )
        trace, report = ingest_azure_vm_trace(_write(tmp_path, text))
        assert report.rows_kept == 1
        assert trace.columns.n == 1

    def test_zero_usable_rows_raises(self, tmp_path):
        text = _row(vmid="", created="") + "\n"
        with pytest.raises(ConfigError, match="no usable rows"):
            ingest_azure_vm_trace(_write(tmp_path, text))

    def test_bad_gzip_raises(self, tmp_path):
        path = tmp_path / "broken.csv.gz"
        path.write_bytes(b"\x1f\x8b" + b"\x00" * 16)
        with pytest.raises((OSError, EOFError, gzip.BadGzipFile)):
            ingest_azure_vm_trace(path)

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            ingest_azure_vm_trace(tmp_path / "nope.csv")


def _render_rows(rows):
    buffer = io.StringIO()
    for row in rows:
        buffer.write(",".join(str(field) for field in row) + "\n")
    return buffer.getvalue()


_vm_rows = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=10**6),  # vmid suffix
        st.integers(min_value=0, max_value=10**6),  # created seconds
        st.one_of(
            st.none(),  # blank vmdeleted: alive at capture end
            st.integers(min_value=0, max_value=2 * 10**6),
        ),
        st.sampled_from(sorted(CORE_BUCKETS)),
        st.sampled_from(sorted(MEMORY_BUCKETS)),
        st.sampled_from(
            ["Interactive", "Delay-insensitive", "Unknown", ""]
        ),
    ),
    min_size=1,
    max_size=60,
)


class TestIngestProperties:
    @given(rows=_vm_rows)
    @settings(
        deadline=None,
        max_examples=40,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_invariants_hold_for_any_table(self, tmp_path, rows):
        text = _render_rows(
            [
                (
                    f"vm-{suffix}", "sub", "dep", created,
                    "" if deleted is None else max(deleted, created),
                    "50.0", "10.0", "45.0", category, cores, memory,
                )
                for suffix, created, deleted, cores, memory, category
                in rows
            ]
        )
        path = tmp_path / "fuzz.csv"
        path.write_text(text)
        try:
            trace, report = ingest_azure_vm_trace(path)
        except ConfigError:
            # Only legal when literally nothing was usable.
            return
        columns = trace.columns
        assert np.all(np.diff(columns.arrival_hours) >= 0)
        assert np.all(columns.arrival_hours >= 0)
        assert np.all(columns.lifetime_hours >= MIN_LIFETIME_HOURS)
        assert set(np.unique(columns.cores)) <= set(CORE_BUCKETS.values())
        assert set(np.unique(columns.memory_gb)) <= set(
            MEMORY_BUCKETS.values()
        )
        assert set(np.unique(columns.generation)) <= {1, 2, 3}
        assert columns.app_index.max() < len(columns.app_names)
        skipped = (
            report.rows_blank + report.rows_invalid
            + report.rows_duplicate + report.rows_truncated
        )
        assert report.rows_kept + skipped == report.rows_total
        assert report.rows_kept == columns.n
        columns.validate()

    @given(rows=_vm_rows, data=st.data())
    @settings(
        deadline=None,
        max_examples=25,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_row_order_does_not_matter(self, tmp_path, rows, data):
        # Unique ids and arrivals: with ties broken by file order the
        # property would not hold, so the strategy removes the ties
        # (``i < len(rows)``, so each arrival is distinct).
        full = [
            (
                f"vm-{i}-{suffix}", "sub", "dep", created * len(rows) + i,
                created * len(rows) + i + 3600, "50.0", "10.0", "45.0",
                category, cores, memory,
            )
            for i, (suffix, created, _d, cores, memory, category)
            in enumerate(rows)
        ]
        permutation = data.draw(st.permutations(full))
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        a.write_text(_render_rows(full))
        b.write_text(_render_rows(permutation))
        trace_a, _ = ingest_azure_vm_trace(a)
        trace_b, _ = ingest_azure_vm_trace(b)
        assert trace_a.digest() == trace_b.digest()

    def test_gzip_and_plain_identical(self, tmp_path):
        text = "\n".join([_row(vmid=f"vm-{i}") for i in range(20)]) + "\n"
        plain = _write(tmp_path, text, name="t.csv")
        packed = _write(tmp_path, text, name="t.csv", compress=True)
        a, _ = ingest_azure_vm_trace(plain)
        b, _ = ingest_azure_vm_trace(packed)
        assert a.digest() == b.digest()


class TestSuiteDispatch:
    def test_backend_resolution(self, monkeypatch):
        assert resolve_trace_backend() == "synthetic"
        assert resolve_trace_backend("azure") == "azure"
        monkeypatch.setenv("REPRO_TRACE_BACKEND", "azure")
        assert resolve_trace_backend() == "azure"
        with pytest.raises(ConfigError, match="unknown trace backend"):
            resolve_trace_backend("gcp")

    def test_synthetic_suite_unchanged(self):
        from repro.allocation.traces import production_trace_suite

        suite = trace_suite(backend="synthetic", count=2)
        reference = production_trace_suite(count=2)
        assert [t.digest() for t in suite] == [
            t.digest() for t in reference
        ]

    def test_azure_suite_uses_bundled_sample(self):
        suite = trace_suite(backend="azure", count=5)
        assert len(suite) == 1  # one bundled file, fewer than asked
        assert suite[0].name == "vmtable_sample"

    def test_azure_suite_custom_directory(self, tmp_path, monkeypatch):
        text = "\n".join([_row(vmid=f"vm-{i}") for i in range(6)]) + "\n"
        _write(tmp_path, text, name="one.csv")
        _write(tmp_path, text, name="two.csv", compress=True)
        monkeypatch.setenv("REPRO_AZURE_TRACE_DIR", str(tmp_path))
        suite = azure_trace_suite()
        assert [t.name for t in suite] == ["one", "two"]

    def test_empty_directory_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="no .csv"):
            azure_trace_suite(directory=tmp_path)
