"""Benchmark: Azure vmtable ingestion — the CI ingestion smoke.

Always-on gates for the real-trace backend: the bundled sample must
parse, register in the trace store, replay bit-identically to the
reference oracle, and produce a schema-valid marginals report — all
pinned against ``benchmarks/golden_ingest_digests.json`` (refresh with
``REPRO_UPDATE_GOLDEN=1`` after an intentional sample/schema change).
Timings are artifacts, not gates: ingestion throughput varies with the
runner, digests must not.
"""

import json
import os
import pathlib
import time

from repro.allocation.cluster import (
    ClusterSpec,
    adopt_everything,
    outcome_digest,
    simulate,
)
from repro.allocation.ingest import (
    bundled_sample_path,
    file_digest,
    ingest_azure_vm_trace,
)
from repro.allocation.store import TraceStore
from repro.analysis.marginals import (
    marginals_report,
    validate_marginals_report,
)
from repro.hardware.sku import baseline_gen2, baseline_gen3, greensku_full

from conftest import oracle

GOLDEN_INGEST_PATH = (
    pathlib.Path(__file__).parent / "golden_ingest_digests.json"
)


def _cluster():
    return ClusterSpec.of(
        (baseline_gen3(), 10), (baseline_gen2(), 6), (greensku_full(), 6)
    )


def _golden_entry(replay=simulate):
    sample = bundled_sample_path()
    trace, report = ingest_azure_vm_trace(sample, name="azure-sample")
    outcome = replay(trace, _cluster(), adopt_everything, snapshot_hours=6.0)
    return trace, report, {
        "source_sha256": file_digest(sample),
        "trace_digest": trace.digest(),
        "outcome_digest": outcome_digest(outcome),
    }


def test_ingest_golden_digest(save):
    """Sample bytes -> trace -> replay all match the pinned goldens."""
    trace, report, entry = _golden_entry()
    if os.environ.get("REPRO_UPDATE_GOLDEN", "0") not in ("", "0"):
        _trace, _report, reference = _golden_entry(
            oracle("allocation").simulate
        )
        GOLDEN_INGEST_PATH.write_text(
            json.dumps({"azure-sample": reference}, indent=2) + "\n"
        )
    golden = json.loads(GOLDEN_INGEST_PATH.read_text())["azure-sample"]
    assert entry == golden, (
        "ingested-sample digests diverged from the pinned goldens"
    )
    # The replayed outcome must also be chunking-independent.
    chunked = outcome_digest(
        simulate(
            trace, _cluster(), adopt_everything, snapshot_hours=6.0,
            chunk_events=64,
        )
    )
    assert chunked == golden["outcome_digest"]
    save(
        "ingest_digests.txt",
        "\n".join(
            [
                f"source: {entry['source_sha256']}",
                f"trace:  {entry['trace_digest']}",
                f"replay: {entry['outcome_digest']}",
                f"rows:   {report.rows_kept}/{report.rows_total} kept",
            ]
        ),
    )


def test_ingest_store_round_trip(save, tmp_path):
    """Store hits skip parsing and stay digest-equal on both load paths."""
    store = TraceStore(directory=tmp_path / "traces")
    sample = bundled_sample_path()

    t0 = time.perf_counter()
    fresh, r0 = ingest_azure_vm_trace(sample, store=store)
    parse_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    eager, r1 = ingest_azure_vm_trace(sample, store=store)
    eager_s = time.perf_counter() - t0
    mapped, r2 = ingest_azure_vm_trace(sample, store=store, mmap=True)

    assert (r0.store, r1.store, r2.store) == ("miss", "hit", "hit")
    assert fresh.digest() == eager.digest() == mapped.digest()
    save(
        "ingest_store.txt",
        f"azure sample ({fresh.columns.n} VMs)\n"
        f"  parse + register: {parse_s * 1000:.1f}ms\n"
        f"  store hit (eager): {eager_s * 1000:.1f}ms\n"
        f"  eager/mmap digest-equal: True",
        smoke=True,
    )


def test_ingest_marginals_report(save):
    """The marginals report validates and is run-to-run deterministic."""
    trace, _report = ingest_azure_vm_trace(
        bundled_sample_path(), name="azure-sample"
    )
    report = marginals_report(trace)
    problems = validate_marginals_report(report)
    assert not problems, problems
    again = json.dumps(marginals_report(trace), sort_keys=True)
    assert json.dumps(report, sort_keys=True) == again
    lines = [
        f"{metric}: KS={entry['ks_distance']:.4f}"
        for metric, entry in sorted(report["metrics"].items())
    ]
    save(
        "ingest_marginals.txt",
        "marginals report (azure sample vs synthetic reference)\n  "
        + "\n  ".join(lines),
    )
