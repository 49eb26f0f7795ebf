"""Vectorized trace pipeline: generator equivalence and columnar views.

The contract under test: the block-drawing generator emits the
bit-identical VM stream as the scalar loop of ``tests/oracles/traces.py``,
for every seed and parameter variant, and the columnar/row
representations of a trace convert both ways without loss.
"""

import math
import pickle

import numpy as np
import pytest

from repro.allocation.columnar import ColumnarTrace
from repro.allocation.traces import TraceParams, VmTrace, generate_trace
from repro.allocation.vm import VmRequest
from repro.core.errors import ConfigError
from repro.gsf.sizing import _split_trace
from tests.oracles import traces as oracle

SEEDS = (1, 3, 5, 7, 11)

PARAM_VARIANTS = (
    TraceParams(duration_days=2, mean_concurrent_vms=150),
    # Golden-digest scenario shape (bench_runtime.py pins digests on it).
    TraceParams(duration_days=3, mean_concurrent_vms=120),
    # Heavy full-node share exercises the override + lifetime branch.
    TraceParams(
        duration_days=2, mean_concurrent_vms=400, full_node_fraction=0.02
    ),
    # No diurnal swing + long-lived-heavy mix.
    TraceParams(
        duration_days=4,
        mean_concurrent_vms=100,
        diurnal_amplitude=0.0,
        long_lived_fraction=0.3,
    ),
)


class TestGeneratorEquivalence:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize(
        "params", PARAM_VARIANTS, ids=lambda p: f"d{p.duration_days:g}"
                                               f"v{p.mean_concurrent_vms}"
    )
    def test_bit_identical_vm_stream(self, seed, params):
        reference = oracle.generate_trace(seed, params)
        vectorized = generate_trace(seed, params)
        assert vectorized.digest() == reference.digest()
        assert vectorized.vms == reference.vms

    def test_full_node_vms_present_in_heavy_variant(self):
        """The equivalence must actually cover the full-node branch."""
        trace = generate_trace(3, PARAM_VARIANTS[2])
        assert bool(trace.columns.full_node.any())


class TestGenerationMixTable:
    def test_identical_rng_draws(self):
        """The hoisted generation-mix array changes no RNG draw.

        Replays the pre-hoist per-VM pattern (``list(params.generation_mix)``
        rebuilt on every call) against the prebuilt array the scalar
        oracle hands ``choice``, on identical generators: same values,
        same post-draw state.
        """
        params = TraceParams()
        gen_mix = np.asarray(params.generation_mix, dtype=np.float64)
        rng_new = np.random.default_rng(1234)
        rng_old = np.random.default_rng(1234)
        new = [
            int(1 + rng_new.choice(3, p=gen_mix)) for _ in range(500)
        ]
        old = [
            int(1 + rng_old.choice(3, p=list(params.generation_mix)))
            for _ in range(500)
        ]
        assert new == old
        assert rng_new.integers(1 << 30) == rng_old.integers(1 << 30)


@pytest.fixture(scope="module")
def trace():
    return generate_trace(
        seed=11, params=TraceParams(duration_days=3, mean_concurrent_vms=150)
    )


def _scalar_peak(vms):
    """The pre-columnar event sweep (tuple sort + running sum)."""
    events = []
    for vm in vms:
        events.append((vm.arrival_hours, 1, vm.cores))
        departure = vm.departure_hours
        if math.isfinite(departure):
            events.append((departure, 0, vm.cores))
    events.sort()
    peak = live = 0
    for _time, is_arrival, cores in events:
        if is_arrival:
            live += cores
            if live > peak:
                peak = live
        else:
            live -= cores
    return peak


class TestColumnarViews:
    def test_row_column_round_trip(self, trace):
        rebuilt = ColumnarTrace.from_vms(
            trace.vms, base_app_names=trace.columns.app_names
        )
        assert rebuilt == trace.columns
        assert rebuilt.digest() == trace.digest()
        assert rebuilt.to_vms() == trace.vms

    def test_row_built_trace_matches_column_built(self, trace):
        by_rows = VmTrace(name=trace.name, params=trace.params, vms=trace.vms)
        assert by_rows == trace
        assert by_rows.digest() == trace.digest()

    def test_requires_exactly_one_representation(self, trace):
        with pytest.raises(ConfigError):
            VmTrace(name="x", params=trace.params)
        with pytest.raises(ConfigError):
            VmTrace(
                name="x",
                params=trace.params,
                vms=trace.vms,
                columns=trace.columns,
            )

    def test_vm_count_without_rows(self, trace):
        assert trace.vm_count == len(trace.vms) == trace.columns.n

    def test_last_arrival(self, trace):
        assert trace.last_arrival_hours == max(
            vm.arrival_hours for vm in trace.vms
        )

    def test_filter_matches_row_comprehension(self, trace):
        for gen in (1, 2, 3):
            sub = trace.filter(
                trace.columns.generation == gen, name=f"g{gen}"
            )
            assert sub.vms == tuple(
                vm for vm in trace.vms if vm.generation == gen
            )
            assert sub.params == trace.params

    def test_peak_cores_matches_scalar_sweep(self, trace):
        assert trace.peak_concurrent_cores() == _scalar_peak(trace.vms)

    def test_peak_cores_infinite_lifetimes(self):
        vms = (
            VmRequest(
                vm_id=0, arrival_hours=0.0, lifetime_hours=math.inf,
                cores=4, memory_gb=16.0, generation=3, app_name="Redis",
            ),
            VmRequest(
                vm_id=1, arrival_hours=1.0, lifetime_hours=2.0,
                cores=8, memory_gb=32.0, generation=3, app_name="Redis",
            ),
        )
        t = VmTrace(name="inf", params=TraceParams(duration_days=1), vms=vms)
        assert t.peak_concurrent_cores() == _scalar_peak(vms) == 12

    def test_pickle_round_trip(self, trace):
        clone = pickle.loads(pickle.dumps(trace))
        assert clone == trace
        assert clone.digest() == trace.digest()
        assert clone.vms == trace.vms

    def test_columns_immutable(self, trace):
        with pytest.raises((ValueError, AttributeError)):
            trace.columns.cores[0] = 99
        with pytest.raises(AttributeError):
            trace.columns.n = 0

    def test_unknown_app_names_intern_deterministically(self):
        vms = tuple(
            VmRequest(
                vm_id=i, arrival_hours=float(i), lifetime_hours=1.0,
                cores=1, memory_gb=4.0, generation=3,
                app_name=f"custom-{i % 2}",
            )
            for i in range(4)
        )
        columns = ColumnarTrace.from_vms(vms)
        assert columns.app_names == ("custom-0", "custom-1")
        assert columns.to_vms() == vms


class TestSplitTrace:
    def test_matches_scalar_partition(self, trace):
        def adoption(app_name, generation):
            # Adopt an arbitrary but deterministic subset of pairs.
            return 1.1 if (len(app_name) + generation) % 3 == 0 else None

        green, base = _split_trace(trace, adoption)
        want_green = tuple(
            vm for vm in trace.vms
            if not vm.full_node
            and adoption(vm.app_name, vm.generation) is not None
        )
        want_base = tuple(
            vm for vm in trace.vms if vm not in set(want_green)
        )
        assert green.vms == want_green
        assert base.vms == want_base
        assert green.name.endswith("-adopters")
        assert base.name.endswith("-rest")

    def test_full_node_vms_never_adopt(self):
        params = TraceParams(
            duration_days=2, mean_concurrent_vms=400, full_node_fraction=0.02
        )
        trace = generate_trace(seed=3, params=params)
        assert bool(trace.columns.full_node.any())
        green, base = _split_trace(trace, lambda app, gen: 1.0)
        assert not any(vm.full_node for vm in green.vms)
        assert sum(vm.full_node for vm in base.vms) == int(
            trace.columns.full_node.sum()
        )

    def test_empty_trace(self):
        empty = VmTrace(
            name="empty", params=TraceParams(duration_days=1), vms=()
        )
        green, base = _split_trace(empty, lambda app, gen: 1.0)
        assert green.vm_count == 0 and base.vm_count == 0
