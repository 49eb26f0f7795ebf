"""Window semantics for traces whose first arrival is not at t=0.

Real ingested captures open mid-day; the trace window is
``[start_hours, start_hours + duration]``, not ``[0, duration]``.  The
strongest statement of the fix is **time-shift invariance**: adding a
constant to every arrival must not change a replay's outcome digest,
``peak_concurrent_cores``, or the lifetime-fragmentation metrics.
"""

import numpy as np
import pytest

from repro.allocation.cluster import (
    ClusterSpec,
    adopt_everything,
    outcome_digest,
    simulate,
)
from repro.allocation.columnar import ColumnarTrace
from repro.allocation.lifetimes import stranded_capacity_fraction
from repro.allocation.traces import TraceParams, VmTrace, generate_trace
from repro.hardware.sku import baseline_gen2, baseline_gen3, greensku_full
from tests.oracles import allocation as oracle

PARAMS = TraceParams(duration_days=2.0, mean_concurrent_vms=120)
SHIFTS = (5.5, 100.0, 24.0 * 365)
CHUNKS = (1, 64, 10**9)


def _cluster():
    return ClusterSpec.of(
        (baseline_gen3(), 10), (baseline_gen2(), 6), (greensku_full(), 6)
    )


def _shifted(trace: VmTrace, offset: float) -> VmTrace:
    columns = trace.columns
    shifted = ColumnarTrace(
        app_names=columns.app_names,
        vm_id=columns.vm_id,
        arrival_hours=columns.arrival_hours + offset,
        lifetime_hours=columns.lifetime_hours,
        cores=columns.cores,
        memory_gb=columns.memory_gb,
        generation=columns.generation,
        app_index=columns.app_index,
        max_memory_fraction=columns.max_memory_fraction,
        full_node=columns.full_node,
    )
    return VmTrace(
        name=f"{trace.name}+{offset:g}h",
        params=trace.params,
        columns=shifted,
    )


@pytest.fixture(scope="module")
def base_trace():
    return generate_trace(seed=4, params=PARAMS)


class TestWindowProperties:
    def test_start_end_hours(self, base_trace):
        assert base_trace.start_hours == float(
            base_trace.columns.arrival_hours.min()
        )
        assert base_trace.end_hours == (
            base_trace.start_hours + base_trace.duration_hours
        )

    @pytest.mark.parametrize("offset", SHIFTS)
    def test_shift_moves_window(self, base_trace, offset):
        shifted = _shifted(base_trace, offset)
        assert shifted.start_hours == pytest.approx(
            base_trace.start_hours + offset
        )
        assert shifted.duration_hours == base_trace.duration_hours

    def test_empty_trace_window(self):
        empty = ColumnarTrace.from_vms(())
        assert empty.start_hours() == 0.0


class TestTimeShiftInvariance:
    @pytest.mark.parametrize("offset", SHIFTS)
    def test_simulate_row_path(self, base_trace, offset):
        """The oracle's row loop anchors its window at the first arrival."""
        golden = outcome_digest(
            oracle.simulate(
                base_trace, _cluster(), adopt_everything, snapshot_hours=5.0
            )
        )
        shifted = outcome_digest(
            oracle.simulate(
                _shifted(base_trace, offset), _cluster(), adopt_everything,
                snapshot_hours=5.0,
            )
        )
        assert shifted == golden

    @pytest.mark.parametrize("offset", SHIFTS)
    def test_simulate_every_chunking(self, base_trace, offset):
        """A shifted production replay equals the unshifted oracle."""
        golden = outcome_digest(
            oracle.simulate(
                base_trace, _cluster(), adopt_everything, snapshot_hours=5.0
            )
        )
        for chunk in CHUNKS:
            shifted = outcome_digest(
                simulate(
                    _shifted(base_trace, offset), _cluster(),
                    adopt_everything, snapshot_hours=5.0, chunk_events=chunk,
                )
            )
            assert shifted == golden, chunk

    @pytest.mark.parametrize("offset", SHIFTS)
    def test_peak_concurrent_cores_invariant(self, base_trace, offset):
        assert (
            _shifted(base_trace, offset).peak_concurrent_cores()
            == base_trace.peak_concurrent_cores()
        )

    def test_peak_matches_brute_force_on_offset_trace(self, base_trace):
        trace = _shifted(base_trace, 100.0)
        columns = trace.columns
        # Brute force: sweep concurrency at every arrival instant.
        peak = 0
        for t in columns.arrival_hours:
            alive = (columns.arrival_hours <= t) & (
                columns.arrival_hours + columns.lifetime_hours > t
            )
            peak = max(peak, int(columns.cores[alive].sum()))
        assert trace.peak_concurrent_cores() == peak

    @pytest.mark.parametrize("offset", (5.5, 100.0))
    def test_stranded_capacity_invariant(self, base_trace, offset):
        small = base_trace.filter(
            np.arange(base_trace.columns.n) < 150
        )
        shifted = _shifted(small, offset)
        base_value = stranded_capacity_fraction(
            small, snapshot_hours=12.0, min_servers=6
        )
        shifted_value = stranded_capacity_fraction(
            shifted, snapshot_hours=12.0, min_servers=6
        )
        assert shifted_value == pytest.approx(base_value)
