"""Production replay vs the reference oracle, and the engine itself.

The contract under test is *bit-identical behavior*: for any trace,
cluster, placement heuristic, and adoption mix, the production replay
(the indexed engine driven by the streaming loop) must pick the same
server as the reference scan of ``tests/oracles/allocation.py`` for
every single VM and produce an equal ``SimOutcome`` — including the
exact snapshot statistics.  Two layers:

- whole-replay equivalence over generated traces: seeds x heuristics x
  baseline-only / mixed / multi-generation clusters, each at every
  chunk size, plus rejections,
- adversarial churn on the engine itself: randomized place/remove
  sequences (full-node dedication, servers emptying and refilling,
  memory-tight requests, memory sizes that leave float dust) where every
  ``choose`` is cross-checked against the oracle's linear scan over the
  same servers, and every view's index is rebuilt from the servers'
  own state after every step; a snapshotting variant checks every
  snapshot against the reference walk over the non-empty servers.
"""

import random

import pytest

from repro.allocation.cluster import (
    ClusterSpec,
    SimOutcome,
    adopt_everything,
    adopt_nothing,
    outcome_digest,
    replay_on_engine,
    simulate,
)
from repro.allocation.index import PlacementEngine
from repro.allocation.scheduler import MEM_EPS, PLACEMENT_POLICIES, Server
from repro.allocation.traces import TraceParams, VmTrace, generate_trace
from repro.allocation.vm import VmRequest
from repro.core import telemetry
from repro.core.errors import ConfigError, SimulationError
from repro.core.rng import RngFactory
from repro.hardware.sku import (
    baseline_gen1,
    baseline_gen2,
    baseline_gen3,
    greensku_cxl,
    greensku_efficient,
    greensku_full,
)
from tests.oracles import allocation as oracle

SEEDS = (1, 2, 3, 4, 5)

#: Trace knobs chosen to exercise the tricky paths: full-node VMs far
#: above their natural share (dedication/parking), short window with
#: frequent snapshots (stats churn), multiple generations.
CHURN_PARAMS = TraceParams(
    duration_days=3,
    mean_concurrent_vms=90,
    full_node_fraction=0.01,
)

#: Chunk sizes of the streaming loop the contract is stated over:
#: degenerate (every event its own chunk), interior, and whole-trace.
CHUNKS = (1, 64, 10**9)


def assert_matches_oracle(
    trace, spec, adoption, policy, snapshot_hours=3.0
) -> SimOutcome:
    """Production equals the oracle at every chunk size.

    Returns the oracle outcome.
    """
    kwargs = dict(
        adoption=adoption, snapshot_hours=snapshot_hours, policy=policy
    )
    expected = oracle.simulate(trace, spec, **kwargs)
    for chunk in CHUNKS:
        got = simulate(trace, spec, chunk_events=chunk, **kwargs)
        assert got == expected, chunk
        assert outcome_digest(got) == outcome_digest(expected)
    return expected


class TestReplayEquivalence:
    """Bit-identical SimOutcome across seeds, heuristics, and clusters."""

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("policy", PLACEMENT_POLICIES)
    def test_baseline_only(self, seed, policy):
        trace = generate_trace(seed=seed, params=CHURN_PARAMS)
        spec = ClusterSpec.of((baseline_gen3(), 26))
        assert_matches_oracle(trace, spec, adopt_nothing, policy)

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("policy", PLACEMENT_POLICIES)
    def test_mixed_cluster(self, seed, policy):
        trace = generate_trace(seed=seed, params=CHURN_PARAMS)
        spec = ClusterSpec.of((baseline_gen3(), 16), (greensku_full(), 10))
        assert_matches_oracle(trace, spec, adopt_everything, policy)

    @pytest.mark.parametrize("seed", SEEDS[:3])
    @pytest.mark.parametrize("policy", PLACEMENT_POLICIES)
    def test_multi_generation_cluster(self, seed, policy):
        # Generation routing active: three baseline pools plus greens,
        # partial adoption so fungible fallback happens too.
        trace = generate_trace(seed=seed, params=CHURN_PARAMS)

        def adoption(app_name, generation):
            return 1.25 if generation == 3 else None

        spec = ClusterSpec.of(
            (baseline_gen1(), 8),
            (baseline_gen2(), 9),
            (baseline_gen3(), 10),
            (greensku_cxl(), 8),
        )
        assert_matches_oracle(trace, spec, adoption, policy)

    def test_tight_capacity_rejections_match(self):
        # Undersized cluster: the rejected-VM lists must agree exactly.
        trace = generate_trace(seed=9, params=CHURN_PARAMS)
        spec = ClusterSpec.of((baseline_gen3(), 6))
        outcome = assert_matches_oracle(trace, spec, adopt_nothing, "best-fit")
        assert not outcome.feasible

    def test_scaled_adoption_equivalence(self):
        trace = generate_trace(seed=6, params=CHURN_PARAMS)

        def adoption(app_name, generation):
            return 1.4 if len(app_name) % 2 else None

        spec = ClusterSpec.of((baseline_gen3(), 18), (greensku_efficient(), 8))
        assert_matches_oracle(trace, spec, adoption, "best-fit")

    def test_snapshot_stats_exact_fields(self):
        # Equality must hold on the exact internal sums, not just means.
        trace = generate_trace(seed=2, params=CHURN_PARAMS)
        spec = ClusterSpec.of((baseline_gen3(), 16), (greensku_full(), 10))
        kwargs = dict(adoption=adopt_everything, snapshot_hours=1.5)
        reference = oracle.simulate(trace, spec, **kwargs)
        production = simulate(trace, spec, **kwargs)
        for attr in ("baseline_stats", "green_stats"):
            ref_stats = getattr(reference, attr)
            prod_stats = getattr(production, attr)
            assert ref_stats.samples == prod_stats.samples
            assert ref_stats._cum == prod_stats._cum
            assert ref_stats.canonical() == prod_stats.canonical()
        assert production.green_stats.samples > 0


class TestTelemetryDifferential:
    """Telemetry enabled vs disabled must not change anything observable.

    The instrumentation layer's core guarantee: bit-identical
    ``SimOutcome`` (including the exact snapshot sums behind the
    digest), identical sizing results, and untouched RNG streams.
    """

    @pytest.mark.parametrize("seed", SEEDS[:3])
    def test_outcome_bit_identical(self, seed):
        trace = generate_trace(seed=seed, params=CHURN_PARAMS)
        spec = ClusterSpec.of((baseline_gen3(), 16), (greensku_full(), 10))
        kwargs = dict(
            adoption=adopt_everything,
            snapshot_hours=3.0,
            policy="best-fit",
        )
        plain = simulate(trace, spec, **kwargs)
        with telemetry.capture() as tel:
            instrumented = simulate(trace, spec, **kwargs)
        assert plain == instrumented
        assert outcome_digest(plain) == outcome_digest(instrumented)
        # The capture really saw the replay (guards against silently
        # passing because instrumentation never ran).
        assert tel.counters["alloc.replays"] == 1
        assert tel.counters["alloc.placements"] == plain.placed_vms
        assert tel.timers["alloc.replay"].count == 1

    def test_right_size_identical(self):
        from repro.gsf.sizing import right_size

        trace = generate_trace(
            seed=7,
            params=TraceParams(duration_days=2, mean_concurrent_vms=60),
        )
        plain = right_size(trace, baseline_gen3())
        with telemetry.capture() as tel:
            instrumented = right_size(trace, baseline_gen3())
        assert plain == instrumented
        assert tel.counters["sizing.searches"] == 1
        assert tel.counters["sizing.simulate_calls"] == 1
        assert tel.counters["engine.places"] > 0
        assert "engine.servers_scanned" not in tel.counters

    def test_trace_generation_rng_unperturbed(self):
        plain = generate_trace(seed=11, params=CHURN_PARAMS)
        with telemetry.capture():
            instrumented = generate_trace(seed=11, params=CHURN_PARAMS)
        assert plain == instrumented

    def test_rng_streams_draw_identically_inside_capture(self):
        # Draw from named streams with instrumented simulations running
        # in between: the sequences must match an uninstrumented run.
        def draws():
            rngs = RngFactory(123)
            first = rngs.stream("a").random(32).tolist()
            simulate(
                generate_trace(seed=3, params=CHURN_PARAMS),
                ClusterSpec.of((baseline_gen3(), 20)),
            )
            second = rngs.stream("b").random(32).tolist()
            return first, second

        plain = draws()
        with telemetry.capture():
            instrumented = draws()
        assert plain == instrumented

    def test_counters_deterministic_across_repeats(self):
        # Design rule 3: identical workload -> identical counters.
        trace = generate_trace(seed=2, params=CHURN_PARAMS)
        spec = ClusterSpec.of((baseline_gen3(), 16), (greensku_full(), 10))

        def run():
            with telemetry.capture() as tel:
                simulate(trace, spec, adoption=adopt_everything)
            return tel.counters

        assert run() == run()


def make_vm(vm_id, cores, memory_gb, generation=3, full_node=False):
    return VmRequest(
        vm_id=vm_id,
        arrival_hours=0.0,
        lifetime_hours=10.0,
        cores=cores,
        memory_gb=memory_gb,
        generation=generation,
        app_name="Redis",
        full_node=full_node,
    )


def assert_view_matches(view, servers):
    """One ``_PoolIndex`` holds exactly what ``servers``' own state says.

    Busy servers sit in ``buckets[free_cores]`` sorted by
    ``(free_memory_gb, id)``, empty ones in their shape group, parked
    (dedicated) ones nowhere.  The mask marks the non-empty buckets,
    ``max_cores`` covers every bucket and shape, and every cached
    suffix-min array is exact for its bucket.
    """
    buckets, empty = {}, {}
    for server in servers:
        if server.dedicated:
            continue
        if server.is_empty:
            shape = (server.total_cores, server.total_memory_gb)
            empty.setdefault(shape, []).append(server.server_id)
        else:
            buckets.setdefault(server.free_cores, []).append(
                (server.free_memory_gb, server.server_id)
            )
    assert {k: b for k, b in enumerate(view.buckets) if b} == {
        k: sorted(entries) for k, entries in buckets.items()
    }
    assert view.mask == sum(1 << k for k in buckets)
    assert {shape: ids for shape, ids in view.empty_ids.items() if ids} == {
        shape: sorted(ids) for shape, ids in empty.items()
    }
    assert view.shapes == sorted(view.empty_ids)
    assert view.max_cores >= max(
        [*buckets, *(shape[0] for shape in view.shapes)], default=0
    )
    for k, cached in view._suffmin.items():
        ids = [sid for _free_memory_gb, sid in view.buckets[k]]
        assert cached == [min(ids[i:]) for i in range(len(ids))]


def assert_index_matches(engine, servers):
    """Every view of ``engine``, per-generation ones too, matches."""
    base = [s for s in servers if not s.is_green]
    by_gen = {}
    for server in base:
        by_gen.setdefault(server.sku.generation, []).append(server)
    assert_view_matches(engine.green, [s for s in servers if s.is_green])
    assert_view_matches(engine.base_all, base)
    if len(by_gen) > 1:
        assert sorted(engine.base_by_gen) == sorted(by_gen)
        for generation, pool in by_gen.items():
            assert_view_matches(engine.base_by_gen[generation], pool)
    else:
        assert not engine.base_by_gen


def engine_state(engine):
    """Every view's index, the settled snapshot aggregates and servers.

    The aggregates are read through ``aggregates()``, which settles the
    servers changed since the last read, so a rejected mutation that
    corrupted a server's state shows up in the sums too.  Deep-copied,
    so a later mutation cannot alias the snapshot.
    """
    views = [engine.green, engine.base_all] + [
        engine.base_by_gen[g] for g in sorted(engine.base_by_gen)
    ]
    return (
        [
            (
                [list(bucket) for bucket in view.buckets],
                view.mask,
                view.max_cores,
                {shape: list(ids) for shape, ids in view.empty_ids.items()},
                list(view.shapes),
                {k: list(v) for k, v in view.shapes_by_cores.items()},
                {k: list(v) for k, v in view._suffmin.items()},
            )
            for view in views
        ],
        [
            (agg.count, {m: dict(sums) for m, sums in agg.sums.items()})
            for agg in engine.aggregates()
        ],
        dict(engine._contrib),
        set(engine._dirty),
        [
            (
                s.free_cores,
                s.free_memory_gb,
                dict(s._vms),
                s.dedicated,
                s.cxl_used_gb,
            )
            for s in engine.servers.values()
        ],
    )


#: Memory per core of the churn requests.  Powers of two never leave
#: float dust; the non-dyadic mix leaves dust on servers that empty.
DYADIC_GB_PER_CORE = (1.0, 2.0, 4.0, 8.0)
DUST_GB_PER_CORE = (1.3, 2.7, 4.1, 7.3)


class TestAdversarialChurn:
    """Randomized place/remove churn: every choice equals the reference.

    The engine and a plain server list evolve in lockstep; after every
    mutation a batch of probe requests (including boundary-exact memory
    sizes and full-node requests) must pick the same server under all
    three policies.
    """

    SKUS = (
        baseline_gen3,
        baseline_gen3,
        baseline_gen2,
        baseline_gen1,
        greensku_full,
    )

    def _build(self, rng, n_servers):
        servers = []
        for sid in range(n_servers):
            sku = rng.choice(self.SKUS)()
            servers.append(Server(sid, sku))
        return servers

    @pytest.mark.parametrize("policy", PLACEMENT_POLICIES)
    @pytest.mark.parametrize(
        "seed, gb_per_core",
        [
            pytest.param(seed, DYADIC_GB_PER_CORE, id=str(seed))
            for seed in (0, 1, 2)
        ]
        + [
            pytest.param(seed, DUST_GB_PER_CORE, id=f"{seed}-dust")
            for seed in (0, 1, 2)
        ],
    )
    def test_churn_choices_match_reference(self, policy, seed, gb_per_core):
        rng = random.Random(seed)
        servers = self._build(rng, 20)
        base_pool = [s for s in servers if not s.is_green]
        green_pool = [s for s in servers if s.is_green]
        base_by_gen = {}
        for server in base_pool:
            base_by_gen.setdefault(server.sku.generation, []).append(server)
        engine = PlacementEngine(servers, policy=policy)

        def reference_baseline_pool(generation):
            if len(base_by_gen) > 1 and generation in base_by_gen:
                return base_by_gen[generation]
            return base_pool

        live = []  # (server, vm_id) placed pairs
        next_id = 0
        for step in range(400):
            # Churn mix: mostly placements, some removals, rare
            # full-node dedications.
            action = rng.random()
            if action < 0.12 and live:
                server, vm_id = live.pop(rng.randrange(len(live)))
                engine.remove(server, vm_id)
                assert_index_matches(engine, servers)
                continue
            full_node = action > 0.95
            generation = rng.choice((1, 2, 3))
            if full_node:
                cores = {1: 64, 2: 64, 3: 80}[generation]
                memory_gb = float({1: 384, 2: 512, 3: 768}[generation])
            else:
                cores = rng.choice((1, 2, 4, 8, 16, 32))
                memory_gb = cores * rng.choice(gb_per_core)
            vm = make_vm(
                next_id, cores, memory_gb,
                generation=generation, full_node=full_node,
            )
            next_id += 1

            green_choice = engine.choose_green(vm, cores, memory_gb)
            ref_green = (
                None
                if vm.full_node
                else oracle.choose(policy, vm, green_pool, cores, memory_gb)
            )
            assert green_choice is ref_green

            base_choice = engine.choose_baseline(vm, cores, memory_gb)
            ref_base = oracle.choose(
                policy,
                vm,
                reference_baseline_pool(vm.generation),
                cores,
                memory_gb,
            )
            assert base_choice is ref_base

            # Place on the baseline choice (or green when only greens
            # fit) to keep the state evolving.
            target = base_choice or green_choice
            if target is not None:
                engine.place(target, vm, cores, memory_gb)
                live.append((target, vm.vm_id))
            assert_index_matches(engine, servers)

        # Drain everything: the engine must agree on an empty cluster too.
        while live:
            server, vm_id = live.pop()
            engine.remove(server, vm_id)
            assert_index_matches(engine, servers)
        for generation in (1, 2, 3):
            probe = make_vm(next_id, 4, 16.0, generation=generation)
            assert engine.choose_baseline(probe, 4, 16.0) is oracle.choose(
                policy, probe, reference_baseline_pool(generation), 4, 16.0
            )
        assert engine.choose_green(probe, 4, 16.0) is oracle.choose(
            policy, probe, green_pool, 4, 16.0
        )
        # Only the non-dyadic mix leaves emptied servers with float dust.
        dusty = [s for s in servers if s.free_memory_gb != s.total_memory_gb]
        assert bool(dusty) == (gb_per_core is DUST_GB_PER_CORE)

    @pytest.mark.parametrize(
        "seed, gb_per_core",
        [
            pytest.param(seed, DYADIC_GB_PER_CORE, id=str(seed))
            for seed in (0, 1, 2)
        ]
        + [
            pytest.param(seed, DUST_GB_PER_CORE, id=f"{seed}-dust")
            for seed in (0, 1, 2)
        ],
    )
    def test_snapshots_match_oracle_walk(self, seed, gb_per_core):
        """Snapshots under churn equal the reference walk, exactly.

        A snapshotting engine over Gen2, Gen3 and GreenSKU-Full servers
        churns through placements (green ones with a CXL share, rare
        full-node ones), departures, and draining a server seen busy at
        the last snapshot, dropping it with ``remove_server`` and adding
        it back later.  At random steps it snapshots into a fresh
        ``SimOutcome``, which must equal ``oracle.observe`` over the
        servers that are non-empty at that moment.
        """
        rng = random.Random(seed)
        spec = ClusterSpec.of(
            (baseline_gen2(), 3), (baseline_gen3(), 4), (greensku_full(), 5)
        )
        engine = PlacementEngine(spec.build_servers(), track_stats=True)
        live = {}  # vm_id -> server
        dropped = []  # servers taken out by remove_server
        busy_at_snapshot = set()
        next_id = 0
        tally = dict(snapshots=0, dropped=0, readded=0, cxl_placements=0)

        def check_snapshot():
            got = SimOutcome(cluster=spec)
            engine.snapshot(got)
            want = SimOutcome(cluster=spec)
            for server in engine.servers.values():
                if not server.is_empty:
                    oracle.observe(
                        want.green_stats
                        if server.is_green
                        else want.baseline_stats,
                        server,
                    )
            assert got.green_stats.canonical() == want.green_stats.canonical()
            assert (
                got.baseline_stats.canonical()
                == want.baseline_stats.canonical()
            )
            tally["snapshots"] += 1
            return {
                sid for sid, s in engine.servers.items() if not s.is_empty
            }

        for _step in range(400):
            action = rng.random()
            drainable = sorted(busy_at_snapshot & engine.servers.keys())
            if action < 0.05 and drainable:
                server = engine.servers[rng.choice(drainable)]
                for vm_id in [v for v, s in live.items() if s is server]:
                    engine.remove(live.pop(vm_id), vm_id)
                engine.remove_server(server.server_id)
                dropped.append(server)
                tally["dropped"] += 1
            elif action < 0.10 and dropped:
                engine.add_server(dropped.pop(rng.randrange(len(dropped))))
                tally["readded"] += 1
            elif action < 0.45 and live:
                vm_id = rng.choice(sorted(live))
                engine.remove(live.pop(vm_id), vm_id)
            else:
                full_node = action > 0.97
                if full_node:
                    cores, memory_gb = 80, 768.0
                else:
                    cores = rng.choice((1, 2, 4, 8, 16, 32))
                    memory_gb = cores * rng.choice(gb_per_core)
                vm = make_vm(next_id, cores, memory_gb, full_node=full_node)
                next_id += 1
                target = None
                if rng.random() < 0.5:
                    target = engine.choose_green(vm, cores, memory_gb)
                if target is None:
                    target = engine.choose_baseline(vm, cores, memory_gb)
                if target is not None:
                    cxl_gb = 0.0
                    if target.total_cxl_gb:
                        share = rng.choice((0.1, 0.25, 1.0))
                        cxl_gb = min(memory_gb * share, target.free_cxl_gb)
                        tally["cxl_placements"] += cxl_gb > 0
                    engine.place(target, vm, cores, memory_gb, cxl_gb=cxl_gb)
                    live[vm.vm_id] = target
            if rng.random() < 0.1:
                busy_at_snapshot = check_snapshot()
        check_snapshot()
        assert tally["snapshots"] > 20 and tally["cxl_placements"] > 20, tally
        assert tally["dropped"] > 3 and tally["readded"] > 3, tally

    def test_memory_boundary_exact(self):
        # A request matching the free memory exactly (and one epsilon
        # beyond) must resolve identically in both implementations.
        server = Server(0, baseline_gen3())
        filler = make_vm(1, 4, 700.0)
        engine = PlacementEngine([server], policy="best-fit")
        engine.place(server, filler, 4, 700.0)
        free = server.free_memory_gb
        for memory_gb in (free, free + 1e-10, free + 1.0, free - 1e-10):
            vm = make_vm(2, 2, memory_gb)
            assert engine.choose_baseline(vm, 2, memory_gb) is (
                oracle.choose("best-fit", vm, [server], 2, memory_gb)
            )

    def test_emptied_server_rejoins_empty_view(self):
        # A server that empties out must become eligible for full-node
        # VMs again (and count as empty for the prefer-non-empty rule).
        server = Server(0, baseline_gen3())
        engine = PlacementEngine([server], policy="best-fit")
        vm = make_vm(1, 4, 16.0)
        engine.place(server, vm, 4, 16.0)
        full = make_vm(2, 80, 768.0, full_node=True)
        assert engine.choose_baseline(full, 80, 768.0) is None
        engine.remove(server, 1)
        assert engine.choose_baseline(full, 80, 768.0) is server

    def test_dedicated_server_is_parked(self):
        server = Server(0, baseline_gen3())
        spare = Server(1, baseline_gen3())
        engine = PlacementEngine([server, spare], policy="best-fit")
        full = make_vm(1, 80, 768.0, full_node=True)
        assert engine.choose_baseline(full, 80, 768.0) is server
        engine.place(server, full, 80, 768.0)
        # The dedicated server is invisible to every query...
        small = make_vm(2, 1, 1.0)
        assert engine.choose_baseline(small, 1, 1.0) is spare
        # ...until its full-node VM departs.
        engine.remove(server, 1)
        engine.place(spare, small, 1, 1.0)
        assert engine.choose_baseline(make_vm(3, 1, 1.0), 1, 1.0) is spare

    def test_full_node_vm_on_busy_server_parks_it(self):
        # The engine never picks a busy server for a full-node VM, but
        # Server.place accepts one that fits: the server must leave the
        # busy buckets for the parked slot and stay parked until empty.
        servers = [Server(0, baseline_gen3()), Server(1, baseline_gen3())]
        engine = PlacementEngine(servers, policy="best-fit")
        small = make_vm(3, 1, 1.0)
        engine.place(servers[0], make_vm(1, 4, 16.0), 4, 16.0)
        engine.place(servers[0], make_vm(2, 8, 64.0, full_node=True), 8, 64.0)
        for vm_id in (None, 2, 1):
            if vm_id is not None:
                engine.remove(servers[0], vm_id)
            assert servers[0].dedicated == (not servers[0].is_empty)
            assert_index_matches(engine, servers)
            expected = servers[0] if servers[0].is_empty else servers[1]
            assert engine.choose_baseline(small, 1, 1.0) is expected

    def test_duplicate_server_rejected(self):
        server = Server(0, baseline_gen3())
        engine = PlacementEngine([server])
        with pytest.raises(SimulationError):
            engine.add_server(Server(0, baseline_gen3()))

    def test_remove_occupied_server_rejected(self):
        server = Server(0, baseline_gen3())
        engine = PlacementEngine([server])
        engine.place(server, make_vm(1, 4, 16.0), 4, 16.0)
        with pytest.raises(SimulationError):
            engine.remove_server(0)


def first_entry_miss(view, cores, memory_gb):
    """How a best-fit busy query is answered past a bucket's first entry.

    ``None`` when the first non-empty candidate bucket's first entry
    meets the memory threshold (or no candidate bucket exists);
    otherwise ``"same_bucket"`` when a later entry of that bucket fits,
    ``"later_bucket"`` when only a later bucket holds one, and
    ``"no_busy"`` when no busy server fits at all.
    """
    thresh = memory_gb - MEM_EPS
    candidates = [
        bucket for bucket in view.buckets[cores:] if bucket
    ]
    if not candidates or candidates[0][0][0] >= thresh:
        return None
    if any(free >= thresh for free, _sid in candidates[0]):
        return "same_bucket"
    if any(free >= thresh for b in candidates[1:] for free, _sid in b):
        return "later_bucket"
    return "no_busy"


class TestFastPaths:
    """The shortcuts a replay event takes, each cross-checked.

    A best-fit busy query takes the first entry of the first candidate
    bucket when it meets the memory threshold and bisects otherwise; a
    busy-to-busy move deletes an entry at the front of its bucket
    without a bisect and appends to an empty target bucket.
    """

    @pytest.mark.parametrize("policy", PLACEMENT_POLICIES)
    def test_first_entry_short_of_memory(self, policy):
        """Memory-heavy churn: first entries that miss the threshold.

        Requests take 8 cores, so busy servers share free-core buckets,
        and 1 to 64 GB per core, so the server with the least free
        memory in a bucket often cannot host the VM while a later one in
        the same bucket, or only one in a later bucket, can.  Every
        choice equals the oracle's scan.
        """
        rng = random.Random(2)
        servers = [Server(sid, baseline_gen3()) for sid in range(16)]
        engine = PlacementEngine(servers, policy=policy)
        live = []
        tally = dict(same_bucket=0, later_bucket=0, no_busy=0)
        for vm_id in range(1000):
            if live and rng.random() < 0.35:
                server, gone = live.pop(rng.randrange(len(live)))
                engine.remove(server, gone)
                assert_index_matches(engine, servers)
                continue
            cores = 8
            memory_gb = cores * rng.choice((1.0, 4.0, 24.0, 64.0))
            vm = make_vm(vm_id, cores, memory_gb)
            miss = first_entry_miss(engine.base_all, cores, memory_gb)
            choice = engine.choose_baseline(vm, cores, memory_gb)
            assert choice is oracle.choose(
                policy, vm, servers, cores, memory_gb
            )
            if miss is not None:
                tally[miss] += 1
            if choice is not None:
                engine.place(choice, vm, cores, memory_gb)
                live.append((choice, vm_id))
            assert_index_matches(engine, servers)
        assert min(tally["same_bucket"], tally["later_bucket"]) >= 20, tally

    @pytest.mark.parametrize("policy", PLACEMENT_POLICIES)
    def test_distinct_free_cores_move_one_entry_buckets(self, policy):
        """Every move empties a one-entry bucket and fills an empty one.

        The busy servers always hold distinct free-core counts, so each
        bucket holds at most one server.  After every move the views
        match the servers, and probes of several sizes (which fill the
        first-fit and worst-fit suffix-min caches) pick the oracle's
        server.
        """
        rng = random.Random(3)
        servers = [Server(sid, baseline_gen3()) for sid in range(8)]
        engine = PlacementEngine(servers, policy=policy)
        hosted = {}  # server id -> {vm_id: cores}
        next_id = 0
        for server in servers:
            cores = server.server_id + 1
            engine.place(server, make_vm(next_id, cores, 4.0), cores, 4.0)
            hosted[server.server_id] = {next_id: cores}
            next_id += 1
        moves = 0
        for _step in range(400):
            taken = {s.free_cores for s in servers}
            server = rng.choice(servers)
            vms = hosted[server.server_id]
            if len(vms) > 1 and rng.random() < 0.4:
                vm_id = rng.choice(sorted(vms)[1:])
                if server.free_cores + vms[vm_id] in taken:
                    continue
                engine.remove(server, vm_id)
                del vms[vm_id]
            else:
                cores = rng.randint(1, 6)
                if cores > server.free_cores or (
                    server.free_cores - cores in taken
                ):
                    continue
                engine.place(
                    server, make_vm(next_id, cores, 2.0 * cores),
                    cores, 2.0 * cores,
                )
                vms[next_id] = cores
                next_id += 1
            moves += 1
            assert max(map(len, engine.base_all.buckets)) == 1
            assert_index_matches(engine, servers)
            for cores in (1, 9, 40):
                probe = make_vm(next_id, cores, 8.0)
                assert engine.choose_baseline(probe, cores, 8.0) is (
                    oracle.choose(policy, probe, servers, cores, 8.0)
                )
        assert moves > 150
        assert all(not s.is_empty for s in servers)

class TestPlacementRules:
    """The engine rejects what ``Server`` rejects and never misroutes."""

    def _engine(self):
        return PlacementEngine(
            ClusterSpec.of(
                (baseline_gen3(), 3), (greensku_full(), 2)
            ).build_servers()
        )

    def _busy_engine(self):
        """A snapshotting two-generation engine in every slot state.

        Servers 0-1 are Gen2, 2-3 Gen3 and 4-5 GreenSKU-Full.  Server 0
        hosts two VMs and server 4 one VM with a CXL share (busy), server
        2 is parked by a full-node VM, and servers 1, 3 and 5 are empty.
        First-fit queries fill the suffix-min caches.
        """
        engine = PlacementEngine(
            ClusterSpec.of(
                (baseline_gen2(), 2),
                (baseline_gen3(), 2),
                (greensku_full(), 2),
            ).build_servers(),
            policy="first-fit",
            track_stats=True,
        )
        servers = engine.servers
        engine.place(servers[0], make_vm(1, 4, 16.0, generation=2), 4, 16.0)
        engine.place(servers[0], make_vm(2, 2, 8.0, generation=2), 2, 8.0)
        engine.place(
            servers[2], make_vm(3, 80, 768.0, full_node=True), 80, 768.0
        )
        engine.place(servers[4], make_vm(4, 8, 64.0), 8, 64.0, cxl_gb=16.0)
        # Gen2 routes to its own view, a generation the cluster lacks to
        # the all-baselines view.
        for generation in (2, 1):
            probe = make_vm(5, 1, 1.0, generation=generation)
            engine.choose_baseline(probe, 1, 1.0)
        assert engine.base_by_gen[2]._suffmin and engine.base_all._suffmin
        return engine

    def _assert_rejected(self, engine, match, mutate, *args, **kwargs):
        """``mutate`` raises and leaves every view and aggregate as it was."""
        before = engine_state(engine)
        with pytest.raises(SimulationError, match=match):
            mutate(*args, **kwargs)
        assert engine_state(engine) == before
        assert_index_matches(engine, list(engine.servers.values()))

    def test_duplicate_vm_rejected(self):
        engine = self._engine()
        vm = make_vm(1, 2, 8.0)
        server = engine.choose_baseline(vm, vm.cores, vm.memory_gb)
        engine.place(server, vm, vm.cores, vm.memory_gb)
        with pytest.raises(SimulationError, match="already on server"):
            engine.place(server, vm, vm.cores, vm.memory_gb)
        engine = self._busy_engine()
        for sid, vm in (
            (0, make_vm(1, 2, 8.0, generation=2)),
            (4, make_vm(4, 1, 1.0)),
        ):
            self._assert_rejected(
                engine, "already on server", engine.place,
                engine.servers[sid], vm, 1, 1.0,
            )

    def test_overfull_placement_rejected(self):
        engine = self._engine()
        vm = make_vm(1, 10_000, 8.0)
        with pytest.raises(SimulationError, match="does not fit"):
            engine.place(engine.servers[0], vm, vm.cores, vm.memory_gb)
        engine = self._busy_engine()
        # Busy, empty, parked and green servers; too many cores or too
        # much memory; a full-node request on a busy server.
        for sid, cores, memory_gb, full_node in (
            (0, 60, 8.0, False),
            (0, 2, 500.0, False),
            (0, 64, 512.0, True),
            (1, 65, 8.0, False),
            (2, 1, 1.0, False),
            (4, 2, 2000.0, False),
            (5, 129, 8.0, False),
        ):
            vm = make_vm(99, cores, memory_gb, full_node=full_node)
            self._assert_rejected(
                engine, "does not fit", engine.place,
                engine.servers[sid], vm, cores, memory_gb,
            )

    def test_cxl_overflow_rejected(self):
        engine = self._busy_engine()
        for sid in (4, 5):
            server = engine.servers[sid]
            cxl_gb = server.free_cxl_gb + 1.0
            self._assert_rejected(
                engine, "CXL pool exhausted", engine.place,
                server, make_vm(99, 8, 300.0), 8, 300.0, cxl_gb=cxl_gb,
            )

    def test_nan_memory_and_negative_cxl_rejected(self):
        # Server.place writes its fit and CXL checks out in threshold
        # form, so a NaN memory request still fails the fit, and a
        # negative CXL share still fails the share check: on busy and
        # empty, baseline and green servers, with the index untouched.
        engine = self._busy_engine()
        vm = make_vm(99, 1, 1.0)
        for sid in (0, 1, 4, 5):
            server = engine.servers[sid]
            self._assert_rejected(
                engine, "does not fit", engine.place,
                server, vm, 1, float("nan"),
            )
            self._assert_rejected(
                engine, "CXL share", engine.place,
                server, vm, 1, 1.0, cxl_gb=-0.5,
            )
        server = Server(0, greensku_full())
        with pytest.raises(SimulationError, match="does not fit"):
            server.place(vm, 1, float("nan"))
        with pytest.raises(SimulationError, match="CXL share"):
            server.place(vm, 1, 1.0, cxl_gb=-1e-6)
        assert server.is_empty and server.cxl_used_gb == 0.0

    def test_remove_unknown_vm_rejected(self):
        engine = self._engine()
        with pytest.raises(SimulationError, match="not on server"):
            engine.remove(engine.servers[0], 42)
        engine = self._busy_engine()
        # Two VMs, one VM, parked, and empty.
        for sid in (0, 4, 2, 1):
            self._assert_rejected(
                engine, "not on server", engine.remove, engine.servers[sid], 42
            )

    def test_nonpositive_request_rejected(self):
        engine = self._engine()
        with pytest.raises(ConfigError, match="positive"):
            engine.choose_baseline(make_vm(1, 2, 8.0), 0, 8.0)
        with pytest.raises(ConfigError, match="positive"):
            engine.choose_green(make_vm(1, 2, 8.0), 2, 0.0)

    def test_unknown_policy_rejected(self):
        with pytest.raises(ConfigError, match="unknown placement policy"):
            PlacementEngine(policy="random")

    def test_full_node_never_green(self):
        engine = self._engine()
        vm = make_vm(1, 80, 768.0, full_node=True)
        assert engine.choose_green(vm, vm.cores, vm.memory_gb) is None

    def test_telemetry_counters(self):
        engine = self._engine()
        vm = make_vm(1, 2, 8.0)
        server = engine.choose_baseline(vm, vm.cores, vm.memory_gb)
        engine.place(server, vm, vm.cores, vm.memory_gb)
        engine.remove(server, vm.vm_id)
        counters = engine.telemetry_counters()
        assert counters["engine.queries"] == 1
        assert counters["engine.places"] == 1
        assert counters["engine.removes"] == 1


class TestProbeReuse:
    """replay_on_engine + add/remove deltas equals fresh simulate calls."""

    def test_resize_and_reset_between_probes(self):
        trace = generate_trace(
            seed=4,
            params=TraceParams(duration_days=2, mean_concurrent_vms=60),
        )
        sku = baseline_gen3()
        engine = PlacementEngine(policy="best-fit")
        counts = 0

        def probe(n):
            nonlocal counts
            engine.reset()
            while counts < n:
                engine.add_server(Server(counts, sku))
                counts += 1
            while counts > n:
                counts -= 1
                engine.remove_server(counts)
            spec = ClusterSpec.of((sku, n))
            return replay_on_engine(trace, spec, engine).feasible

        # Scrambled probe order exercises grow, shrink, and re-grow.
        for n in (12, 4, 9, 2, 30, 7, 9):
            expected = simulate(
                trace, ClusterSpec.of((sku, n)), snapshot_hours=1e9
            ).feasible
            assert probe(n) == expected

    def test_reset_restores_pristine_floats(self):
        server = Server(0, baseline_gen3())
        engine = PlacementEngine([server])
        # Place/remove cycles that would leave float dust behind.
        for i, memory in enumerate((0.1, 0.3, 0.7, 123.456)):
            engine.place(server, make_vm(10 + i, 1, memory), 1, memory)
        engine.remove(server, 10)
        engine.reset()
        assert server.free_memory_gb == server.total_memory_gb
        assert server.free_cores == server.total_cores
        assert server.is_empty and not server.dedicated

    def test_reset_reproduces_exactly(self):
        trace = generate_trace(
            4, TraceParams(duration_days=2, mean_concurrent_vms=120)
        )
        spec = ClusterSpec.of((baseline_gen3(), 10), (greensku_full(), 6))
        engine = PlacementEngine(spec.build_servers(), track_stats=True)
        first = replay_on_engine(
            trace, spec, engine, adopt_everything, snapshot_hours=5.0
        )
        engine.reset()
        again = replay_on_engine(
            trace, spec, engine, adopt_everything, snapshot_hours=5.0
        )
        assert first.green_stats.samples > 0
        assert outcome_digest(first) == outcome_digest(again)
        assert outcome_digest(first) == outcome_digest(
            simulate(trace, spec, adopt_everything, snapshot_hours=5.0)
        )

    def test_empty_server_dust_excluded_from_snapshots(self):
        """Place/remove cycles must not leak float dust into snapshots.

        Repeated add/subtract of unlike floats leaves tiny nonzero
        residue on a now-empty server; the reference snapshot walk skips
        empty servers, so the engine's aggregates must drop them too.
        Each round settles the aggregates while its servers are busy, so
        the final read has real contributions of emptied servers to drop.
        """
        engine = PlacementEngine(
            ClusterSpec.of((baseline_gen3(), 4)).build_servers(),
            track_stats=True,
        )
        vm_id = 0
        for round_ in range(8):
            placed = []
            for k in range(3):
                vm = make_vm(vm_id, 1, 0.1 + 0.7 * k + round_)
                server = engine.choose_baseline(vm, vm.cores, vm.memory_gb)
                engine.place(server, vm, vm.cores, vm.memory_gb)
                placed.append((server, vm.vm_id))
                vm_id += 1
            _green, base = engine.aggregates()
            assert base.count > 0
            for server, placed_id in placed:
                engine.remove(server, placed_id)
        _green, base = engine.aggregates()
        assert base.count == 0
        assert all(not bucket for bucket in base.sums.values())
