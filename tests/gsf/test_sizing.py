"""Cluster-sizing search tests."""

import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.allocation import cluster as cluster_module
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
    size_generation_aware,
    size_mixed_cluster,
)
from repro.hardware.sku import (
    all_greenskus,
    baseline_gen1,
    baseline_gen2,
    baseline_gen3,
    greensku_full,
)
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

    def test_right_size_never_resimulates(
        self, small_trace, simulate_counter
    ):
        right_size(small_trace, baseline_gen3())
        assert sum(simulate_counter.values()) == 1

    def test_mixed_sizing_never_resimulates(
        self, small_trace, gsf, full_sku, simulate_counter
    ):
        policy = gsf.adoption_model(full_sku).policy()
        base = baseline_gen3()
        adopters, rest = sizing_module._split_trace(small_trace, policy)
        n_base = right_size(rest, base)
        n_green = right_size(adopters, full_sku, policy)
        simulate_counter.clear()
        with telemetry.capture() as tel:
            sizing = size_mixed_cluster(small_trace, base, full_sku, policy)
        counters = tel.counters
        assert max(simulate_counter.values()) == 1
        assert counters["sizing.simulate_calls"] == sum(
            simulate_counter.values()
        )
        assert counters["sizing.searches"] == 3
        # The partitions' own configuration is known to fit, so no replay
        # runs it.  Every trim probe holds the n_base baselines the trim
        # starts from, one per GreenSKU count from n_green - 1 down to
        # one below the count kept (none below 0).
        assert (
            small_trace.name,
            ((base.name, n_base), (full_sku.name, n_green)),
        ) not in simulate_counter
        probes = [
            skus
            for name, skus in simulate_counter
            if name == small_trace.name and len(skus) == 2
        ]
        assert probes
        assert {nb for (_b, nb), _g in probes} == {n_base}
        kept = sizing.mixed_green_servers
        assert sorted(ng for _b, (_g, ng) in probes) == list(
            range(max(kept - 1, 0), n_green)
        )
        assert counters["sizing.simulate_calls"] == 3 + len(probes)
        assert counters["sizing.trim_steps"] == (
            n_base + n_green - sizing.mixed_total
        )

    def test_mixed_sizing_merges_each_trace_once(
        self, gsf, full_sku, monkeypatch
    ):
        # The full trace replays for the reference right-size and for
        # every trim probe, but its event stream is merged once; the
        # rest and the adopters merge theirs once each.
        merged = []
        real_merge = cluster_module._merged_events

        def counting_merge(columns, end):
            merged.append(columns)
            return real_merge(columns, end)

        monkeypatch.setattr(cluster_module, "_merged_events", counting_merge)
        trace = generate_trace(
            3, TraceParams(duration_days=2, mean_concurrent_vms=60)
        )
        policy = gsf.adoption_model(full_sku).policy()
        with telemetry.capture() as tel:
            size_mixed_cluster(trace, baseline_gen3(), full_sku, policy)
        trim_probes = tel.counters["sizing.simulate_calls"] - 3
        assert trim_probes >= 2
        adopters, rest = sizing_module._split_trace(trace, policy)
        assert len(merged) == 3
        assert merged[0] is trace.columns
        assert merged[1:] == [rest.columns, adopters.columns]

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


#: Apps and baseline generations the random traces label VMs with.
APPS = ("Redis", "Xapian", "Nginx")
GENERATIONS = (1, 2, 3)

#: One (app, generation) label per row of ``random_vms``.
random_labels = st.lists(
    st.tuples(st.sampled_from(APPS), st.sampled_from(GENERATIONS)),
    min_size=30,
    max_size=30,
)

#: Adoption tables: each (app, generation) pair adopts at a factor that
#: keeps any VM within one GreenSKU once scaled, or does not adopt.
random_tables = st.fixed_dictionaries(
    {
        (app, gen): st.one_of(st.none(), st.floats(1.0, 1.3))
        for app in APPS
        for gen in GENERATIONS
    }
)

#: A random mixed-sizing question: trace rows and labels, adoption
#: table, baseline SKU and GreenSKU.
mixed_cases = dict(
    vms=random_vms,
    labels=random_labels,
    table=random_tables,
    base=st.sampled_from([baseline_gen1(), baseline_gen2(), baseline_gen3()]),
    green=st.sampled_from(all_greenskus()),
)


def random_trace(vms, labels=None, base=None):
    """A trace of ``random_vms`` rows, shapes clipped to fit ``base``."""
    base = base or baseline_gen3()
    labels = labels or [("Redis", 3)] * len(vms)
    rows, now = [], 0.0
    for i, (row, (app, gen)) in enumerate(zip(vms, labels)):
        gap, lifetime, cores, memory, full = row
        now += gap
        rows.append(
            VmRequest(
                vm_id=i,
                arrival_hours=now,
                lifetime_hours=math.inf if lifetime is None else lifetime,
                cores=min(cores, base.cores),
                memory_gb=min(memory, base.memory_gb),
                generation=gen,
                app_name=app,
                full_node=full,
            )
        )
    return trace_of(rows)


class TestHighWaterProperty:
    @given(vms=random_vms)
    @settings(deadline=None, max_examples=60)
    def test_feasible_exactly_from_right_size(self, vms):
        trace = random_trace(vms)
        need = right_size(trace, baseline_gen3())
        for n in range(1, need + 3):
            outcome = allocation_oracle.simulate(
                trace, ClusterSpec.of((baseline_gen3(), n))
            )
            assert outcome.feasible == (n >= need), n


class TestMixedSizingProperty:
    """The trim-only mixed sizing is exact on random workloads."""

    @given(**mixed_cases)
    @settings(deadline=None, max_examples=60)
    def test_matches_oracle(self, vms, labels, table, base, green):
        trace = random_trace(vms, labels, base)
        policy = _cached(lambda app, gen: table[(app, gen)])
        assert size_mixed_cluster(
            trace, base, green, policy
        ) == oracle.size_mixed_cluster(trace, base, green, policy)

    @given(**mixed_cases)
    @settings(deadline=None, max_examples=60)
    def test_partitions_answer_the_mixed_need(
        self, vms, labels, table, base, green
    ):
        # Beside the adopters' right-size of GreenSKUs, an upper-bound
        # baseline pool uses exactly the rest partition's right-size.
        trace = random_trace(vms, labels, base)
        policy = _cached(lambda app, gen: table[(app, gen)])
        adopters, rest = sizing_module._split_trace(trace, policy)
        n_green = right_size(adopters, green, policy)
        bound = trace.columns.peak_concurrent_vms()
        pool = sizing_module._HighWater(
            trace, [(base, bound)], policy, companion=green
        )
        assert pool(n_green) == (right_size(rest, base),)


class TestGenerationAwareSizingProperty:
    """The generation-aware trim equals the probing search with the rule."""

    @given(
        vms=random_vms,
        labels=random_labels,
        table=random_tables,
        green=st.sampled_from(all_greenskus()),
    )
    @settings(deadline=None, max_examples=100)
    def test_matches_oracle(self, vms, labels, table, green):
        # Shapes fit the smallest baseline, so each generation's VMs fit
        # its own SKU and a fallback fits any baseline.
        trace = random_trace(vms, labels, baseline_gen1())
        baselines = {
            1: baseline_gen1(),
            2: baseline_gen2(),
            3: baseline_gen3(),
        }
        policy = _cached(lambda app, gen: table[(app, gen)])
        assert size_generation_aware(
            trace, baselines, green, policy
        ) == oracle.size_generation_aware(trace, baselines, green, policy)


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

        adopters, rest = sizing_module._split_trace(trace, policy)
        assert right_size(rest, baseline_gen3()) == 3
        assert right_size(adopters, greensku_full(), policy) == 1
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

    @pytest.mark.parametrize(
        "counts",
        [
            (float("nan"), 4, 5),
            (10, 4.5, 5),
            (10, 4, float("inf")),
            (10, -1, 5),
            (True, 4, 5),
        ],
    )
    def test_bad_count_rejected_at_construction(self, counts):
        # A NaN count used to reach the buffer plan and raise a bare
        # ValueError there; a fractional one evaluated a fractional
        # deployment.
        with pytest.raises(ConfigError, match="servers must be an integer"):
            ClusterSizing(*counts)

    @pytest.mark.parametrize(
        "field", ["oos_overhead_baseline", "oos_overhead_green"]
    )
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -0.01])
    def test_bad_oos_fraction_rejected_at_construction(self, field, value):
        with pytest.raises(ConfigError, match="out-of-service fraction"):
            ClusterSizing(10, 4, 5, **{field: value})

    def test_numpy_counts_accepted(self):
        sizing = ClusterSizing(np.int64(10), np.int64(4), np.int64(5))
        assert sizing.mixed_total == 9
