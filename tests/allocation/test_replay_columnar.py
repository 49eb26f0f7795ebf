"""Streaming replay: chunk sizes vs the row-loop oracle, API checks."""

import pytest

from repro.allocation.cluster import (
    ClusterSpec,
    adopt_everything,
    adopt_nothing,
    outcome_digest,
    replay_on_engine,
    simulate,
)
from repro.allocation.columnar import ColumnarTrace
from repro.allocation.index import PlacementEngine
from repro.allocation.traces import TraceParams, VmTrace, generate_trace
from repro.core import telemetry
from repro.core.errors import ConfigError
from repro.hardware.sku import baseline_gen2, baseline_gen3, greensku_full
from tests.oracles import allocation as oracle

PARAMS = TraceParams(duration_days=2.0, mean_concurrent_vms=120)

SEEDS = (1, 2, 3, 4, 5)

#: Chunk sizes the equivalence contract is stated over: degenerate
#: (every event its own chunk), interior, and whole-trace.
CHUNKS = (1, 64, 10**9)


def _cluster():
    return ClusterSpec.of(
        (baseline_gen3(), 10), (baseline_gen2(), 6), (greensku_full(), 6)
    )


def _tiny_cluster():
    # Small enough that rejections happen, exercising the skip-departure
    # path for VMs that never placed.
    return ClusterSpec.of((baseline_gen3(), 2), (greensku_full(), 1))


class TestChunkedVsRowEquivalence:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_golden_digest_across_engines_and_chunks(self, seed):
        """Oracle scan + row-loop digest == production at every chunk size."""
        trace = generate_trace(seed, PARAMS)
        cluster = _cluster()
        golden = outcome_digest(
            oracle.simulate(
                trace, cluster, adopt_everything, snapshot_hours=5.0
            )
        )
        for chunk in CHUNKS:
            digest = outcome_digest(
                simulate(
                    trace,
                    cluster,
                    adopt_everything,
                    snapshot_hours=5.0,
                    chunk_events=chunk,
                )
            )
            assert digest == golden, (seed, chunk)

    def test_rejections_equivalent(self):
        trace = generate_trace(9, PARAMS)
        cluster = _tiny_cluster()
        golden = oracle.simulate(
            trace, cluster, adopt_nothing, snapshot_hours=5.0
        )
        assert golden.rejected_vms, "fixture must actually reject VMs"
        for chunk in CHUNKS:
            outcome = simulate(
                trace, cluster, adopt_nothing, snapshot_hours=5.0,
                chunk_events=chunk,
            )
            assert outcome_digest(outcome) == outcome_digest(golden)

    def test_rows_never_materialized(self):
        trace = generate_trace(1, PARAMS)
        assert trace._rows is None
        simulate(trace, _cluster(), adopt_everything)
        assert trace._rows is None


class TestReplayColumnarApi:
    def test_unsorted_trace_rejected(self):
        trace = generate_trace(1, PARAMS)
        columns = trace.columns
        shuffled = ColumnarTrace(
            app_names=columns.app_names,
            vm_id=columns.vm_id,
            arrival_hours=columns.arrival_hours[::-1].copy(),
            lifetime_hours=columns.lifetime_hours,
            cores=columns.cores,
            memory_gb=columns.memory_gb,
            generation=columns.generation,
            app_index=columns.app_index,
            max_memory_fraction=columns.max_memory_fraction,
            full_node=columns.full_node,
        )
        bad = VmTrace(name="shuffled", params=PARAMS, columns=shuffled)
        with pytest.raises(ConfigError, match="sorted by arrival"):
            simulate(bad, _cluster())

    def test_bad_snapshot_interval_rejected(self):
        trace = generate_trace(1, PARAMS)
        with pytest.raises(ConfigError, match="snapshot interval"):
            simulate(trace, _cluster(), snapshot_hours=0)

    @pytest.mark.parametrize("hours", [float("nan"), float("inf")])
    def test_non_finite_snapshot_interval_rejected(self, hours):
        # NaN passes a `<= 0` check and replayed with no snapshots.
        trace = generate_trace(1, PARAMS)
        with pytest.raises(ConfigError, match="snapshot interval"):
            simulate(trace, _cluster(), snapshot_hours=hours)

    @pytest.mark.parametrize("hours", [float("nan"), float("inf")])
    def test_non_finite_snapshot_interval_rejected_on_engine(self, hours):
        trace = generate_trace(1, PARAMS)
        spec = _cluster()
        engine = PlacementEngine(spec.build_servers())
        with pytest.raises(ConfigError, match="snapshot interval"):
            replay_on_engine(trace, spec, engine, snapshot_hours=hours)

    def test_bad_chunk_size_rejected(self):
        trace = generate_trace(1, PARAMS)
        with pytest.raises(ConfigError, match="chunk_events"):
            simulate(trace, _cluster(), chunk_events=0)

    def test_telemetry_counters(self):
        trace = generate_trace(1, PARAMS)
        with telemetry.capture() as tel:
            simulate(trace, _cluster(), adopt_everything, chunk_events=64)
        assert tel.counters["alloc.replays"] == 1
        assert tel.counters["alloc.event_chunks"] >= 2
