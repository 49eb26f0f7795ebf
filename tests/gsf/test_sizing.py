"""Cluster-sizing search tests."""

import collections
import functools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.allocation.cluster import ClusterSpec, adopt_nothing, simulate
from repro.allocation.traces import TraceParams, VmTrace, generate_trace
from repro.allocation.vm import VmRequest
from repro.analysis.ablations import ADOPTION_RULES, adoption_policy
from repro.core import telemetry
from repro.core.errors import ConfigError, SizingError
from repro.gsf import sizing as sizing_module
from repro.gsf.framework import Gsf
from repro.gsf.sizing import (
    ClusterSizing,
    right_size,
    size_mixed_cluster,
)
from repro.hardware.sku import all_greenskus, baseline_gen3, greensku_full
from tests.oracles import allocation as allocation_oracle
from tests.oracles import sizing as oracle

#: Small enough for the oracle searches on the reference scan.
ORACLE_PARAMS = TraceParams(duration_days=2, mean_concurrent_vms=40)


def make_vm(vm_id, cores=8, lifetime=24.0, app="Redis", gen=3):
    return VmRequest(
        vm_id=vm_id,
        arrival_hours=0.0,
        lifetime_hours=lifetime,
        cores=cores,
        memory_gb=cores * 4.0,
        generation=gen,
        app_name=app,
    )


def trace_of(vms):
    return VmTrace(
        name="t", params=TraceParams(duration_days=1), vms=tuple(vms)
    )


class TestRightSize:
    def test_empty_trace_needs_no_servers(self):
        assert right_size(trace_of([]), baseline_gen3()) == 0

    def test_exact_fit(self):
        # 10 concurrent 8-core VMs = 80 cores = exactly one server.
        trace = trace_of([make_vm(i) for i in range(10)])
        assert right_size(trace, baseline_gen3()) == 1

    def test_one_more_vm_needs_second_server(self):
        trace = trace_of([make_vm(i) for i in range(11)])
        assert right_size(trace, baseline_gen3()) == 2

    def test_result_is_feasible(self, small_trace):
        n = right_size(small_trace, baseline_gen3())
        out = simulate(
            small_trace, ClusterSpec.of((baseline_gen3(), n)),
            adoption=adopt_nothing,
        )
        assert out.feasible

    def test_result_is_minimal(self, small_trace):
        n = right_size(small_trace, baseline_gen3())
        assert n > 0
        out = simulate(
            small_trace, ClusterSpec.of((baseline_gen3(), n - 1)),
            adoption=adopt_nothing,
        )
        assert not out.feasible

    def test_greensku_needs_fewer_servers(self, small_trace):
        # 128 cores per server vs 80 (unscaled workload).  Full-node VMs
        # require baseline servers, so compare on the shared remainder.
        shared = trace_of(
            [vm for vm in small_trace.vms if not vm.full_node]
        )
        n_base = right_size(shared, baseline_gen3())
        # A green-only cluster needs a policy that routes VMs to greens.
        n_green = right_size(
            shared, greensku_full(), adoption=lambda app, gen: 1.0
        )
        assert n_green <= n_base


class TestSearchEfficiency:
    """Each right-size search is one replay; none is ever repeated."""

    @pytest.fixture()
    def simulate_counter(self, monkeypatch):
        """Counts replay invocations per (trace, cluster) config."""
        calls = collections.Counter()
        real_replay = sizing_module.replay_on_engine

        def counting_replay(trace, cluster, engine, **kwargs):
            key = (
                trace.name,
                tuple((sku.name, count) for sku, count in cluster.skus),
            )
            calls[key] += 1
            return real_replay(trace, cluster, engine, **kwargs)

        monkeypatch.setattr(sizing_module, "replay_on_engine", counting_replay)
        return calls

    def test_right_size_never_resimulates(
        self, small_trace, simulate_counter
    ):
        right_size(small_trace, baseline_gen3())
        assert sum(simulate_counter.values()) == 1

    def test_mixed_sizing_never_resimulates(
        self, small_trace, gsf, full_sku, simulate_counter
    ):
        policy = gsf.adoption_model(full_sku).policy()
        with telemetry.capture() as tel:
            size_mixed_cluster(small_trace, baseline_gen3(), full_sku, policy)
        counters = tel.counters
        assert max(simulate_counter.values()) == 1
        assert counters["sizing.simulate_calls"] == sum(
            simulate_counter.values()
        )
        # One replay for each of the three right-size searches, then one
        # per GreenSKU count the grow and trim loops visit.
        visited = 2 + counters["sizing.grow_steps"] + counters[
            "sizing.trim_steps"
        ]
        assert counters["sizing.searches"] == 3
        assert counters["sizing.simulate_calls"] <= 3 + visited

    def test_stats_accumulate_across_searches(self, small_trace):
        with telemetry.capture() as tel:
            right_size(small_trace, baseline_gen3())
            first = tel.counters["sizing.simulate_calls"]
            assert first > 0
            right_size(
                small_trace, greensku_full(), adoption=lambda app, gen: 1.0
            )
        assert tel.counters["sizing.simulate_calls"] > first
        assert tel.counters["sizing.searches"] == 2


class TestCapacityLimits:
    def test_need_just_below_max_servers(self, monkeypatch):
        # 81 concurrent 8-core VMs need 9 servers of 80 cores; a search
        # whose bracket doubles past the cap (16 > 10) would give up.
        monkeypatch.setattr(sizing_module, "MAX_SERVERS", 10)
        trace = trace_of([make_vm(i) for i in range(81)])
        assert right_size(trace, baseline_gen3()) == 9

    def test_oversized_vm_fails_after_one_replay(self):
        trace = trace_of([make_vm(0, cores=200)])
        with telemetry.capture() as tel:
            with pytest.raises(SizingError, match="VM 0 rejected"):
                right_size(trace, baseline_gen3())
        assert tel.counters["alloc.replays"] == 1


def _cached(policy):
    """The policy with its decisions cached (they are pure)."""
    return functools.lru_cache(maxsize=None)(policy)


class TestMatchesOracle:
    """The high-water searches give the probing searches' answers."""

    @pytest.mark.parametrize("seed", [1, 2, 3, 4])
    def test_right_size(self, seed):
        trace = generate_trace(seed=seed, params=ORACLE_PARAMS)
        shared = trace.filter(~trace.columns.full_node)
        assert right_size(trace, baseline_gen3()) == oracle.right_size(
            trace, baseline_gen3()
        )
        always = _cached(adoption_policy("always", Gsf(), greensku_full()))
        assert right_size(
            shared, greensku_full(), always
        ) == oracle.right_size(shared, greensku_full(), always)

    @pytest.mark.parametrize("rule", ADOPTION_RULES)
    @pytest.mark.parametrize(
        "sku", all_greenskus(), ids=lambda sku: sku.name
    )
    @pytest.mark.parametrize("seed", [1, 2, 3, 4])
    def test_size_mixed_cluster(self, seed, sku, rule):
        trace = generate_trace(seed=seed, params=ORACLE_PARAMS)
        gsf = Gsf()
        policy = _cached(adoption_policy(rule, gsf, sku))
        assert size_mixed_cluster(
            trace, gsf.baseline, sku, policy
        ) == oracle.size_mixed_cluster(trace, gsf.baseline, sku, policy)


#: Random small traces: arrival gaps, lifetimes (``None`` never departs),
#: VM shapes that fit one baseline server, and full-node flags.
random_vms = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=4.0),
        st.one_of(st.none(), st.floats(min_value=0.25, max_value=48.0)),
        st.integers(min_value=1, max_value=80),
        st.floats(min_value=1.0, max_value=768.0),
        st.booleans(),
    ),
    min_size=1,
    max_size=30,
)


class TestHighWaterProperty:
    @given(vms=random_vms)
    @settings(deadline=None, max_examples=60)
    def test_feasible_exactly_from_right_size(self, vms):
        rows, now = [], 0.0
        for i, (gap, lifetime, cores, memory, full) in enumerate(vms):
            now += gap
            rows.append(
                VmRequest(
                    vm_id=i,
                    arrival_hours=now,
                    lifetime_hours=math.inf if lifetime is None else lifetime,
                    cores=cores,
                    memory_gb=memory,
                    generation=3,
                    app_name="Redis",
                    full_node=full,
                )
            )
        trace = trace_of(rows)
        need = right_size(trace, baseline_gen3())
        for n in range(1, need + 3):
            outcome = allocation_oracle.simulate(
                trace, ClusterSpec.of((baseline_gen3(), n))
            )
            assert outcome.feasible == (n >= need), n


class TestUnsortedTraceRejected:
    """Every replay needs arrival order; an unsorted trace fails loudly."""

    def unsorted(self):
        rows = [
            VmRequest(
                vm_id=i,
                arrival_hours=float(5 - i),
                lifetime_hours=24.0,
                cores=8,
                memory_gb=32.0,
                generation=3,
                app_name="Redis",
            )
            for i in range(5)
        ]
        return trace_of(rows)

    def test_simulate(self):
        with pytest.raises(ConfigError, match="sorted by arrival"):
            simulate(self.unsorted(), ClusterSpec.of((baseline_gen3(), 2)))

    def test_right_size(self):
        with pytest.raises(ConfigError, match="sorted by arrival"):
            right_size(self.unsorted(), baseline_gen3())

    def test_size_mixed_cluster(self):
        with pytest.raises(ConfigError, match="sorted by arrival"):
            size_mixed_cluster(
                self.unsorted(),
                baseline_gen3(),
                greensku_full(),
                lambda app, gen: 1.0,
            )


class TestMixedSizing:
    def adoption_all(self, app, gen):
        return 1.0

    def adoption_none(self, app, gen):
        return None

    def test_all_adopt_empties_baseline(self, small_trace):
        sizing = size_mixed_cluster(
            small_trace, baseline_gen3(), greensku_full(), self.adoption_all
        )
        # Full-node VMs may pin a few baseline servers; everything else
        # moves to GreenSKUs.
        assert sizing.mixed_green_servers > 0
        assert sizing.mixed_baseline_servers <= sizing.baseline_only_servers

    def test_none_adopt_keeps_baseline_only(self, small_trace):
        sizing = size_mixed_cluster(
            small_trace, baseline_gen3(), greensku_full(), self.adoption_none
        )
        assert sizing.mixed_green_servers == 0
        assert (
            sizing.mixed_baseline_servers == sizing.baseline_only_servers
        )

    def test_spare_baseline_absorbs_the_only_adopter(self):
        # Nine 8-core non-adopters leave 8 cores free on one baseline, so
        # the trim drops the adopter's GreenSKU and it falls back there.
        vms = [make_vm(i) for i in range(9)] + [
            make_vm(9, cores=4, app="Xapian")
        ]
        trace = trace_of(vms)

        def policy(app, gen):
            return 1.0 if app == "Xapian" else None

        sizing = size_mixed_cluster(
            trace, baseline_gen3(), greensku_full(), policy
        )
        assert sizing == ClusterSizing(
            baseline_only_servers=1,
            mixed_baseline_servers=1,
            mixed_green_servers=0,
        )
        assert sizing == oracle.size_mixed_cluster(
            trace, baseline_gen3(), greensku_full(), policy
        )

    def test_fallback_can_lower_the_baseline_need(self):
        # A best-fit anomaly: the non-adopters alone need 3 baselines, but
        # with every adopter falling back onto them the whole trace needs
        # 2, so the trim drops the GreenSKU and then a baseline.
        shapes = [
            (0.0, math.inf, 32, 64.0, "Redis"),
            (1.0, 1.0, 48, 96.0, "Xapian"),
            (1.5, math.inf, 16, 16.0, "Redis"),
            (1.5, 0.6, 12, 12.0, "Redis"),
            (2.5, math.inf, 56, 56.0, "Redis"),
            (2.75, 0.6, 2, 2.0, "Redis"),
            (2.75, 0.3, 48, 192.0, "Redis"),
            (3.0, 1.0, 2, 2.0, "Xapian"),
            (3.5, 0.6, 2, 4.0, "Xapian"),
            (4.5, 1.0, 4, 8.0, "Xapian"),
        ]
        trace = trace_of(
            VmRequest(
                vm_id=i,
                arrival_hours=arrival,
                lifetime_hours=lifetime,
                cores=cores,
                memory_gb=memory,
                generation=3,
                app_name=app,
            )
            for i, (arrival, lifetime, cores, memory, app) in enumerate(
                shapes
            )
        )

        def policy(app, gen):
            return 1.25 if app == "Xapian" else None

        partitions = size_mixed_cluster(
            trace, baseline_gen3(), greensku_full(), policy, verify=False
        )
        assert partitions.mixed_total == 4
        sizing = size_mixed_cluster(
            trace, baseline_gen3(), greensku_full(), policy
        )
        assert sizing == ClusterSizing(
            baseline_only_servers=2,
            mixed_baseline_servers=2,
            mixed_green_servers=0,
        )
        assert sizing == oracle.size_mixed_cluster(
            trace, baseline_gen3(), greensku_full(), policy
        )

    def test_mixed_cluster_is_feasible(self, small_trace, gsf, full_sku):
        policy = gsf.adoption_model(full_sku).policy()
        sizing = size_mixed_cluster(
            small_trace, baseline_gen3(), full_sku, policy
        )
        spec = ClusterSpec.of(
            (baseline_gen3(), sizing.mixed_baseline_servers),
            (full_sku, sizing.mixed_green_servers),
        )
        out = simulate(small_trace, spec, adoption=policy)
        assert out.feasible

    def test_oos_overheads_carried(self, small_trace):
        sizing = size_mixed_cluster(
            small_trace,
            baseline_gen3(),
            greensku_full(),
            self.adoption_none,
            oos_overhead_baseline=0.01,
            oos_overhead_green=0.02,
        )
        base, green = sizing.deployed_mixed
        assert base == pytest.approx(sizing.mixed_baseline_servers * 1.01)
        assert sizing.deployed_baseline_only == pytest.approx(
            sizing.baseline_only_servers * 1.01
        )


class TestClusterSizingRecord:
    def test_totals(self):
        sizing = ClusterSizing(
            baseline_only_servers=10,
            mixed_baseline_servers=4,
            mixed_green_servers=5,
        )
        assert sizing.mixed_total == 9
        assert sizing.deployed_baseline_only == 10
