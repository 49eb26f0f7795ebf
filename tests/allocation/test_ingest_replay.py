"""Replay of the bundled ingested trace against the reference oracle.

The real-trace sample must replay **bit-identically** on the reference
oracle, at every chunk size of the production replay, and from both
store load paths — and both the trace digest and the replay outcome
digest are pinned as goldens (mirrored in
``benchmarks/golden_ingest_digests.json``, which CI enforces).
"""

import json
from pathlib import Path

import pytest

from repro.allocation.cluster import (
    ClusterSpec,
    adopt_everything,
    adopt_nothing,
    outcome_digest,
    simulate,
)
from repro.allocation.ingest import bundled_sample_path, ingest_azure_vm_trace
from repro.allocation.store import TraceStore
from repro.hardware.sku import baseline_gen2, baseline_gen3, greensku_full
from tests.oracles import allocation as oracle

#: Content digest of the ingested bundled sample (regenerate with
#: ``python tests/data/azure/make_sample.py`` + ``repro trace ingest
#: --digest``; update benchmarks/golden_ingest_digests.json in lockstep).
GOLDEN_TRACE_DIGEST = (
    "7d66f1bacfa845b0ccd7efbce8f2ed282e7d9bb97b541a3d38f2bdf05c785763"
)

#: Outcome digest of the replay below (oracle and production alike).
GOLDEN_OUTCOME_DIGEST = (
    "ce00b36d9c3439620ce3f38afafbf7d4d28fd727b7ad6f6882efba4786029d7c"
)

CHUNKS = (1, 64, 10**9)


def _cluster():
    return ClusterSpec.of(
        (baseline_gen3(), 10), (baseline_gen2(), 6), (greensku_full(), 6)
    )


@pytest.fixture(scope="module")
def sample_trace():
    trace, _report = ingest_azure_vm_trace(
        bundled_sample_path(), name="azure-sample"
    )
    return trace


class TestGoldenDigests:
    def test_trace_digest_pinned(self, sample_trace):
        assert sample_trace.digest() == GOLDEN_TRACE_DIGEST

    def test_outcome_digest_pinned(self, sample_trace):
        for replay in (oracle.simulate, simulate):
            outcome = replay(
                sample_trace, _cluster(), adopt_everything, snapshot_hours=6.0
            )
            assert not outcome.rejected_vms
            assert outcome_digest(outcome) == GOLDEN_OUTCOME_DIGEST

    def test_goldens_file_in_sync(self, sample_trace):
        """The bench/CI goldens file pins the same values as this test."""
        path = (
            Path(__file__).resolve().parents[2]
            / "benchmarks"
            / "golden_ingest_digests.json"
        )
        golden = json.loads(path.read_text())["azure-sample"]
        assert golden["trace_digest"] == GOLDEN_TRACE_DIGEST
        assert golden["outcome_digest"] == GOLDEN_OUTCOME_DIGEST


class TestCrossEngineReplay:
    @pytest.mark.parametrize("chunk", CHUNKS)
    def test_chunks_bit_identical(self, sample_trace, chunk):
        outcome = simulate(
            sample_trace,
            _cluster(),
            adopt_everything,
            snapshot_hours=6.0,
            chunk_events=chunk,
        )
        assert outcome_digest(outcome) == GOLDEN_OUTCOME_DIGEST

    def test_rejections_identical_across_engines(self, sample_trace):
        tiny = ClusterSpec.of((baseline_gen3(), 3), (greensku_full(), 1))
        golden = oracle.simulate(
            sample_trace, tiny, adopt_nothing, snapshot_hours=6.0
        )
        assert golden.rejected_vms, "tiny cluster must reject VMs"
        for chunk in CHUNKS:
            outcome = simulate(
                sample_trace, tiny, adopt_nothing, snapshot_hours=6.0,
                chunk_events=chunk,
            )
            assert outcome_digest(outcome) == outcome_digest(golden), chunk


class TestStorePathsReplayIdentically:
    def test_eager_vs_mmap_outcomes(self, sample_trace, tmp_path):
        store = TraceStore(tmp_path / "store")
        path = bundled_sample_path()
        ingest_azure_vm_trace(path, store=store)  # populate
        eager, _ = ingest_azure_vm_trace(path, store=store)
        mapped, _ = ingest_azure_vm_trace(path, store=store, mmap=True)
        digests = set()
        for trace in (sample_trace, eager, mapped):
            outcome = simulate(
                trace, _cluster(), adopt_everything, snapshot_hours=6.0
            )
            digests.add(outcome_digest(outcome))
        assert digests == {GOLDEN_OUTCOME_DIGEST}
