"""What the replay loop skips, and why no caller can tell.

The streaming replay does per-placement work only where a caller can
observe it:

- Pond tiering runs only in replays whose backend keeps snapshot
  aggregates (its ``cxl_gb`` is read by the ``cxl`` aggregate alone);
- the adoption policy is consulted once per (app, generation) pair per
  replay, never for a full-node VM;
- each SKU's shape is derived once for a pool of servers, without
  touching the SKU.
"""

import math
import pickle

import pytest

from repro.allocation import cluster as cluster_module
from repro.allocation.cluster import (
    ClusterSpec,
    adopt_everything,
    outcome_digest,
    simulate,
)
from repro.allocation.columnar import COLUMN_NAMES, ColumnarTrace
from repro.allocation.scheduler import Server
from repro.allocation.traces import TraceParams, VmTrace, generate_trace
from repro.core import telemetry
from repro.core.errors import ConfigError
from repro.gsf.sizing import right_size, size_mixed_cluster
from repro.hardware.sku import (
    baseline_gen1,
    baseline_gen2,
    baseline_gen3,
    greensku_cxl,
    greensku_efficient,
    greensku_full,
    paper_skus,
)
from repro.perf.apps import APP_BY_NAME
from tests.oracles import allocation as oracle

#: Small two-day traces with enough full-node VMs to matter.
PARAMS = TraceParams(
    duration_days=2.0, mean_concurrent_vms=120, full_node_fraction=0.05
)

FULL_NODE_ONLY_APP = "full-node-only"


def _trace(seed=3):
    trace = generate_trace(seed, PARAMS)
    assert trace.columns.full_node.any(), "fixture needs full-node VMs"
    return trace


def _with_columns(trace, **changes):
    columns = trace.columns
    fields = {name: getattr(columns, name) for name in COLUMN_NAMES}
    fields["app_names"] = columns.app_names
    fields.update(changes)
    return VmTrace(
        name=f"{trace.name}-edited",
        params=trace.params,
        columns=ColumnarTrace(**fields),
    )


def _full_node_app_trace(seed=3):
    """A trace whose full-node VMs run an app no other VM runs."""
    trace = _trace(seed)
    columns = trace.columns
    app_index = columns.app_index.copy()
    app_index[columns.full_node] = len(columns.app_names)
    return _with_columns(
        trace,
        app_index=app_index,
        app_names=columns.app_names + (FULL_NODE_ONLY_APP,),
    )


def _pairs(trace):
    """Distinct (app name, generation) pairs of non-full-node VMs."""
    columns = trace.columns
    keep = ~columns.full_node
    return {
        (columns.app_names[app], generation)
        for app, generation in zip(
            columns.app_index[keep].tolist(),
            columns.generation[keep].tolist(),
        )
    }


def _tight_cluster():
    # Small enough that VMs are rejected and adopters fall back.
    return ClusterSpec.of((baseline_gen3(), 5), (greensku_full(), 3))


def _mixed_policy(app_name, generation):
    """Deterministic: some apps stay baseline, some adopt, some scale."""
    return (None, 1.0, 1.25)[(len(app_name) + generation) % 3]


class CountingPolicy:
    """An adoption policy that records every question it is asked."""

    def __init__(self, inner=_mixed_policy):
        self.inner = inner
        self.calls = []

    def __call__(self, app_name, generation):
        self.calls.append((app_name, generation))
        return self.inner(app_name, generation)


@pytest.fixture()
def tiering_calls(monkeypatch):
    """Record the server CXL fraction of every Pond share the replay takes."""
    calls = []
    real = cluster_module.cxl_share

    def counting(app, max_memory_fraction, server_cxl_fraction, *args):
        calls.append(server_cxl_fraction)
        return real(app, max_memory_fraction, server_cxl_fraction, *args)

    monkeypatch.setattr(cluster_module, "cxl_share", counting)
    return calls


class TestTieringOnlyWhereObserved:
    def test_sizing_never_tiers(self, tiering_calls):
        sizing = size_mixed_cluster(
            _trace(), baseline_gen3(), greensku_full(), adopt_everything
        )
        assert sizing.mixed_green_servers > 0, "fixture must place green"
        assert tiering_calls == []

    def test_snapshotting_replay_tiers_each_cxl_green_placement(
        self, tiering_calls
    ):
        trace = _trace()
        assert all(app in APP_BY_NAME for app in trace.columns.app_names)
        sku = greensku_full()
        outcome = simulate(
            trace,
            ClusterSpec.of((baseline_gen3(), 10), (sku, 10)),
            adopt_everything,
            snapshot_hours=6.0,
        )
        # Full-node VMs never land on a GreenSKU.
        assert outcome.green_placements > 0
        assert len(tiering_calls) == outcome.green_placements
        assert set(tiering_calls) == {sku.cxl_fraction}
        assert outcome.green_stats.mean_cxl_utilization > 0

    def test_cxl_less_greens_never_tier(self, tiering_calls):
        outcome = simulate(
            _trace(),
            ClusterSpec.of((baseline_gen3(), 10), (greensku_efficient(), 10)),
            adopt_everything,
            snapshot_hours=6.0,
        )
        assert outcome.green_placements > 0
        assert tiering_calls == []

    def test_counts_do_not_depend_on_snapshots(self, tiering_calls):
        trace = _trace()
        unobserved = simulate(
            trace, _tight_cluster(), adopt_everything, snapshot_hours=1e9
        )
        assert tiering_calls == []
        observed = simulate(
            trace, _tight_cluster(), adopt_everything, snapshot_hours=6.0
        )
        assert tiering_calls
        assert unobserved.rejected_vms and unobserved.fallback_placements
        for field in (
            "placed_vms",
            "rejected_vms",
            "green_placements",
            "fallback_placements",
        ):
            assert getattr(unobserved, field) == getattr(observed, field)


class TestAdoptionResolvedOncePerPair:
    def test_each_pair_once_per_replay_never_for_full_node(self):
        trace = _full_node_app_trace()
        pairs = _pairs(trace)
        policy = CountingPolicy()
        for replay in range(2):
            policy.calls.clear()
            simulate(trace, _tight_cluster(), policy, snapshot_hours=6.0)
            assert len(policy.calls) == len(set(policy.calls)), replay
            assert set(policy.calls) == pairs, replay
            called_apps = {app for app, _gen in policy.calls}
            assert FULL_NODE_ONLY_APP not in called_apps, replay

    def test_sizing_calls_bounded_by_pairs_times_replays(self):
        trace = _trace()
        policy = CountingPolicy()
        with telemetry.capture() as tel:
            size_mixed_cluster(trace, baseline_gen3(), greensku_full(), policy)
        # The partition step asks once per pair; each replay at most once.
        replays = tel.counters["alloc.replays"]
        assert 0 < len(policy.calls) <= len(_pairs(trace)) * (replays + 1)

    @pytest.mark.parametrize("snapshot_hours", [5.0, 1e9])
    def test_digest_matches_per_vm_oracle(self, snapshot_hours):
        trace = _full_node_app_trace()
        cluster = ClusterSpec.of(
            (baseline_gen3(), 4), (baseline_gen2(), 3), (greensku_full(), 3)
        )
        production = simulate(
            trace, cluster, CountingPolicy(), snapshot_hours=snapshot_hours
        )
        assert production.fallback_placements > 0
        reference = oracle.simulate(
            trace, cluster, _mixed_policy, snapshot_hours=snapshot_hours
        )
        assert outcome_digest(production) == outcome_digest(reference)

    @pytest.mark.parametrize("factor", [0.5, math.inf, math.nan])
    def test_bad_factor_still_rejected(self, factor):
        with pytest.raises(ConfigError, match="scaling factor"):
            simulate(_trace(), _tight_cluster(), lambda app, gen: factor)


class TestColumnsValidatedAtReplay:
    """Bad columns fail at the replay boundary, whether or not it tiers."""

    def _bad_trace(self):
        trace = _trace()
        return _with_columns(
            trace,
            max_memory_fraction=[1.5] * trace.columns.n,
        )

    def test_right_size_rejects_bad_columns(self):
        with pytest.raises(ConfigError, match="max memory fraction"):
            right_size(self._bad_trace(), baseline_gen3())

    def test_simulate_rejects_bad_columns(self):
        with pytest.raises(ConfigError, match="max memory fraction"):
            simulate(self._bad_trace(), ClusterSpec.of((baseline_gen3(), 3)))


def _shape_skus():
    return list(paper_skus().values()) + [
        baseline_gen1(),
        baseline_gen2(),
        greensku_cxl(appendix_data=True),
    ]


class TestServerShape:
    @pytest.mark.parametrize("sku", _shape_skus(), ids=lambda sku: sku.name)
    def test_server_totals_equal_sku_properties(self, sku):
        servers = [Server(7, sku)] + Server.pool(sku, range(3))
        assert [server.server_id for server in servers] == [7, 0, 1, 2]
        for server in servers:
            assert type(server.total_cores) is int
            assert server.total_cores == sku.cores
            assert server.total_memory_gb == float(sku.memory_gb)
            assert server.total_cxl_gb == float(sku.cxl_memory_gb)
            assert server.cxl_fraction == sku.cxl_fraction
            assert server.free_cores == sku.cores
            assert server.free_memory_gb == float(sku.memory_gb)

    @pytest.mark.parametrize("sku", _shape_skus(), ids=lambda sku: sku.name)
    def test_building_a_pool_leaves_the_sku_untouched(self, sku):
        before = (repr(sku), pickle.dumps(sku, protocol=4))
        Server.pool(sku, range(4))
        ClusterSpec.of((sku, 2), (baseline_gen3(), 1)).build_servers()
        assert (repr(sku), pickle.dumps(sku, protocol=4)) == before
