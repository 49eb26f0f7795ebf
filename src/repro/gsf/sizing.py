"""GSF's cluster sizing component (Section IV-D / V).

Determines how many baseline SKUs and GreenSKUs a cluster needs to host a
VM workload with no rejections:

1. Right-size a baseline-only cluster: the minimum server count that
   hosts every VM in the trace (the reference the savings are measured
   against).
2. Replace baseline SKUs with GreenSKUs: the paper incrementally swaps
   baseline servers for enough GreenSKUs until no more can be replaced —
   the fixed point is a cluster where baseline SKUs host exactly the VMs
   that cannot adopt (plus full-node VMs) and GreenSKUs host the rest.
   We reach the same fixed point directly by right-sizing each side of
   that partition, then trimming GreenSKUs while fungible fallback onto
   spare baseline capacity still hosts the full trace.

Both steps rest on one property of the production best-fit scheduler: it
opens an empty server only when no busy server fits the VM, and then the
lowest-id one (the servers of one SKU share a shape).  A replay against
n servers of a SKU therefore matches a replay against any larger pool of
that SKU until the larger replay opens server n, so n servers suffice
exactly when n exceeds the highest server index the larger replay used.
One replay against an upper-bound pool answers every count at once.

The same property makes the partition sizes exact for the mixed
cluster.  Beside the adopters' right-size of GreenSKUs, the GreenSKU pool
sees the same adopters in the same order as that right-size did, which
never opened a further server, so no adopter falls back and the
baselines host exactly the rest partition: the full trace needs exactly
the rest's right-size of baselines, and no replay has to check it.

Out-of-service maintenance overhead inflates each side's server count
(failed servers await repair, so extra capacity is deployed).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Hashable, List, Optional, Sequence, Tuple

import numpy as np

from ..allocation.cluster import (
    AdoptionPolicy,
    ClusterSpec,
    adopt_nothing,
    replay_on_engine,
)
from ..allocation.index import PlacementEngine
from ..allocation.scheduler import Server
from ..allocation.traces import VmTrace
from ..core import telemetry
from ..core.errors import CapacityError, ConfigError, SizingError
from ..hardware.sku import ServerSKU

#: Hard cap on sizing searches; a trace needing more servers than this is
#: misconfigured for the simulator's scale.
MAX_SERVERS = 20_000


class _ReplayMemo:
    """Memoizes one search's replays by configuration key.

    Scoped to a single sizing search, where the trace and adoption policy
    are fixed, so the key fully determines the replay's answer.
    Guarantees no configuration is replayed twice within the search.
    ``simulate_calls`` counts replays and ``memo_hits`` the questions
    answered from the memo instead, for the search's telemetry.
    """

    def __init__(self, replay: Callable[..., object]):
        self._replay = replay
        self._seen: Dict[Hashable, object] = {}
        self.simulate_calls = 0
        self.memo_hits = 0

    def __call__(self, *key: Hashable):
        if key in self._seen:
            self.memo_hits += 1
            return self._seen[key]
        self.simulate_calls += 1
        result = self._seen[key] = self._replay(*key)
        return result


@dataclass(frozen=True)
class ClusterSizing:
    """Output of the sizing search.

    Attributes:
        baseline_only_servers: Right-sized all-baseline cluster.
        mixed_baseline_servers: Baseline SKUs in the mixed cluster.
        mixed_green_servers: GreenSKUs in the mixed cluster.
        oos_overhead_baseline / oos_overhead_green: Out-of-service server
            fractions applied on top of the counts when computing carbon.
    """

    baseline_only_servers: int
    mixed_baseline_servers: int
    mixed_green_servers: int
    oos_overhead_baseline: float = 0.0
    oos_overhead_green: float = 0.0

    @property
    def mixed_total(self) -> int:
        return self.mixed_baseline_servers + self.mixed_green_servers

    @property
    def deployed_baseline_only(self) -> float:
        """Baseline-only servers including out-of-service overhead."""
        return self.baseline_only_servers * (1 + self.oos_overhead_baseline)

    @property
    def deployed_mixed(self) -> Tuple[float, float]:
        """(baseline, green) deployed counts including OOS overhead."""
        return (
            self.mixed_baseline_servers * (1 + self.oos_overhead_baseline),
            self.mixed_green_servers * (1 + self.oos_overhead_green),
        )


class _HighWater:
    """High-water replays of one trace against an upper-bound pool.

    The pool holds ``bound`` servers of ``sku`` with ids ``0..bound-1``,
    by default ``min(peak, MAX_SERVERS)``, where ``peak`` is the most
    VMs the trace keeps placed at once: opening server k needs k busy
    servers, each hosting a VM, so no replay opens an index at or beyond
    ``peak``.  A caller that only asks whether ``bound`` servers suffice
    passes a smaller ``bound``.

    Calling the object with a count of ``companion`` servers (ids from
    ``bound`` up, the order ``ClusterSpec.build_servers`` gives them)
    replays the trace once under the production best-fit scheduler and
    returns how many pool servers it used — the highest index touched,
    plus one — which is the fewest ``sku`` servers that host the trace
    beside those companions.  A replay that rejects a VM raises
    :class:`CapacityError` at that VM: no count of ``sku`` up to
    ``bound`` hosts the trace beside them.  Pool and companions share
    one :class:`PlacementEngine`, reset before every replay.
    """

    def __init__(
        self,
        trace: VmTrace,
        sku: ServerSKU,
        adoption: AdoptionPolicy,
        companion: Optional[ServerSKU] = None,
        bound: Optional[int] = None,
    ):
        self._trace = trace
        self._sku = sku
        self._adoption = adoption
        self._companion = companion
        self._companions = 0
        if bound is None:
            # A replay releases the departures due by each arrival before
            # placing it: the half-open occupancy the event sweep counts.
            bound = min(trace.columns.peak_concurrent_vms(), MAX_SERVERS)
        self.bound = bound
        self._engine = PlacementEngine(Server.pool(sku, range(self.bound)))

    def __call__(self, companions: int = 0) -> int:
        engine = self._engine
        engine.reset()
        bound = self.bound
        if self._companions < companions:
            for server in Server.pool(
                self._companion,
                range(bound + self._companions, bound + companions),
            ):
                engine.add_server(server)
            self._companions = companions
        while self._companions > companions:
            self._companions -= 1
            engine.remove_server(bound + self._companions)
        pools = [(self._sku, bound)]
        if self._companion is not None:
            pools.append((self._companion, companions))
        replay_on_engine(
            self._trace,
            ClusterSpec.of(*pools),
            engine,
            adoption=self._adoption,
            snapshot_hours=1e9,
            raise_on_reject=True,
        )
        used = [sid for sid in engine.touched_ids() if sid < bound]
        return max(used) + 1 if used else 0


class _EngineProber:
    """One reusable indexed engine for a whole sizing search.

    Every feasibility probe of a search replays the same trace against
    the same SKU slots with different counts.  Instead of rebuilding the
    cluster per probe, this keeps a single :class:`PlacementEngine` and
    applies server add/remove deltas between probes; each SKU slot owns a
    disjoint ascending id range so the relative server order always
    matches what ``ClusterSpec.build_servers`` would produce (ties in the
    placement rank keys resolve by pool order, which both schemes keep
    identical — and no id leaks into a :class:`SimOutcome`).  Probes
    replay with ``raise_on_reject``, which decides the verdict at the
    first rejection; :meth:`PlacementEngine.reset` restores pristine
    server state before every probe either way.
    """

    #: Id stride per SKU slot; must exceed any probed count (MAX_SERVERS).
    _STRIDE = 1 << 21

    def __init__(
        self,
        trace: VmTrace,
        skus: Sequence[ServerSKU],
        adoption: AdoptionPolicy,
    ):
        self._trace = trace
        self._skus = list(skus)
        self._adoption = adoption
        self._engine = PlacementEngine(policy="best-fit", track_stats=False)
        self._counts: List[int] = [0] * len(self._skus)

    def __call__(self, *counts: int) -> bool:
        if len(counts) != len(self._skus):
            raise ConfigError(
                f"prober takes {len(self._skus)} counts, got {len(counts)}"
            )
        engine = self._engine
        engine.reset()
        for slot, want in enumerate(counts):
            have = self._counts[slot]
            if want == have:
                continue
            if want > MAX_SERVERS:
                raise SizingError(f"probe count {want} exceeds {MAX_SERVERS}")
            base = slot * self._STRIDE
            sku = self._skus[slot]
            if want > have:
                ids = range(base + have, base + want)
                for server in Server.pool(sku, ids):
                    engine.add_server(server)
            else:
                for j in range(want, have):
                    engine.remove_server(base + j)
            self._counts[slot] = want
        spec = ClusterSpec(
            skus=tuple(zip(self._skus, counts))
        )
        try:
            replay_on_engine(
                self._trace,
                spec,
                engine,
                adoption=self._adoption,
                snapshot_hours=1e9,
                raise_on_reject=True,
            )
        except CapacityError:
            return False
        return True


def right_size(
    trace: VmTrace,
    sku: ServerSKU,
    adoption: AdoptionPolicy = adopt_nothing,
) -> int:
    """Minimum count of ``sku`` servers hosting ``trace`` with no rejection.

    One replay against an upper-bound pool of ``sku`` servers: best-fit
    fills the lowest-id empty server first, so the highest index that
    replay uses, plus one, is the minimum (see the module docstring).

    Raises:
        SizingError: No count up to :data:`MAX_SERVERS` hosts the trace;
            the message names the first VM rejected.
        ConfigError: The trace is not sorted by arrival time.
    """
    if not trace.vm_count:
        return 0
    pool = _HighWater(trace, sku, adoption)
    tel = telemetry.active()
    if tel is not None:
        tel.count_many({"sizing.searches": 1, "sizing.simulate_calls": 1})
    try:
        return pool()
    except CapacityError as exc:
        limit = (
            f"{MAX_SERVERS} {sku.name} servers"
            if pool.bound == MAX_SERVERS
            else f"any number of {sku.name} servers"
        )
        raise SizingError(
            f"trace {trace.name} does not fit {limit}: {exc}"
        ) from exc


def _split_trace(
    trace: VmTrace, adoption: AdoptionPolicy
) -> Tuple[VmTrace, VmTrace]:
    """Partition a trace into (adopters scaled implicitly later, rest).

    The adoption policy is a pure function of ``(app_name, generation)``,
    so it is evaluated once per distinct pair appearing in the trace
    (full-node VMs never consult it — they are always "rest") and the
    partition masks come from a vectorized lookup over the columns.
    """
    columns = trace.columns
    pair_keys = columns.app_index * 8 + columns.generation
    candidate = ~columns.full_node
    adopts = np.zeros(columns.n, dtype=np.bool_)
    if candidate.any():
        unique_keys, inverse = np.unique(
            pair_keys[candidate], return_inverse=True
        )
        decisions = np.array(
            [
                adoption(columns.app_names[int(key) >> 3], int(key) & 7)
                is not None
                for key in unique_keys
            ],
            dtype=np.bool_,
        )
        adopts[candidate] = decisions[inverse]
    green_trace = trace.filter(adopts, name=f"{trace.name}-adopters")
    base_trace = trace.filter(~adopts, name=f"{trace.name}-rest")
    return green_trace, base_trace


def size_mixed_cluster(
    trace: VmTrace,
    baseline: ServerSKU,
    greensku: ServerSKU,
    adoption: AdoptionPolicy,
    oos_overhead_baseline: float = 0.0,
    oos_overhead_green: float = 0.0,
) -> ClusterSizing:
    """Size both the all-baseline reference and the mixed cluster.

    The mixed sizing starts from the per-partition right-sizes (adopters
    on GreenSKUs, the rest on baselines) and then greedily trims servers
    while the full trace still fits — mirroring the paper's incremental
    baseline-replacement search, which keeps the statistical
    multiplexing that fungible fallback placement (adopters overflowing
    onto idle baseline capacity) buys.

    Write ``need(g)`` for the fewest baselines that host the full trace
    beside g GreenSKUs.  Adopters try the GreenSKUs first and only what
    they reject reaches the baselines, so the GreenSKU pool evolves the
    same way whatever the baseline count until a rejection, and (b, g)
    fits exactly when ``b >= need(g)``.  The partitions already answer
    ``need(n_green) == n_base`` (see the module docstring), so the trim
    starts with no baseline to drop.  It drops GreenSKUs while
    ``need(g - 1) <= n_base``, one replay per count against a pool of
    ``n_base`` baselines, which stops at the first VM it cannot place,
    and lowers the baselines to the need of the count it keeps.  The
    next count down needs more than ``n_base``, so no further trim of
    either SKU fits: this is the fixed point of the baselines-first,
    GreenSKUs-second greedy trim, and no count is replayed twice.

    Args:
        trace: The VM workload.
        baseline: Baseline SKU (reference and non-adopter host).
        greensku: The GreenSKU under evaluation.
        adoption: The adoption component's policy.
        oos_overhead_baseline / oos_overhead_green: Out-of-service server
            fractions (maintenance component output).
    """
    n_reference = right_size(trace, baseline, adopt_nothing)
    green_trace, base_trace = _split_trace(trace, adoption)
    n_base = right_size(base_trace, baseline)
    n_green = right_size(green_trace, greensku, adoption)
    if n_green:
        # The pool keeps the n_base baselines the trim starts from.
        pool = _HighWater(
            trace, baseline, adoption, companion=greensku, bound=n_base
        )
        servers = n_base + n_green
        replays = 0
        while n_green:
            replays += 1
            try:
                need = pool(n_green - 1)
            except CapacityError:
                break  # one GreenSKU fewer needs more than n_base baselines
            n_green, n_base = n_green - 1, need
        tel = telemetry.active()
        if tel is not None:
            tel.count_many(
                {
                    "sizing.mixed_verifications": 1,
                    "sizing.trim_steps": servers - n_base - n_green,
                    "sizing.simulate_calls": replays,
                }
            )
    return ClusterSizing(
        baseline_only_servers=n_reference,
        mixed_baseline_servers=n_base,
        mixed_green_servers=n_green,
        oos_overhead_baseline=oos_overhead_baseline,
        oos_overhead_green=oos_overhead_green,
    )


@dataclass(frozen=True)
class GenerationAwareSizing:
    """Sizing output when the reference fleet is generation-aware.

    The paper's traces pre-assign each VM to a baseline generation; a
    generation-aware reference hosts Gen-g VMs on Gen-g SKUs (old VM
    images keep running on their own hardware generation), and the mixed
    cluster keeps per-generation baseline pools for the non-adopters.

    Attributes:
        reference_by_gen: Generation -> servers in the all-baseline fleet.
        mixed_baselines_by_gen: Generation -> baseline servers kept in the
            mixed deployment.
        mixed_green_servers: GreenSKUs in the mixed deployment.
    """

    reference_by_gen: "dict[int, int]"
    mixed_baselines_by_gen: "dict[int, int]"
    mixed_green_servers: int

    @property
    def reference_total(self) -> int:
        return sum(self.reference_by_gen.values())

    @property
    def mixed_baseline_total(self) -> int:
        return sum(self.mixed_baselines_by_gen.values())


def size_generation_aware(
    trace: VmTrace,
    baselines: "dict[int, ServerSKU]",
    greensku: ServerSKU,
    adoption: AdoptionPolicy,
) -> GenerationAwareSizing:
    """Size reference and mixed clusters with per-generation pools.

    The reference hosts each generation's VMs on that generation's SKU;
    the mixed cluster adds GreenSKUs for adopters and trims greedily on
    the full trace with generation routing active.  The verify/trim loops
    memoize every probed configuration.

    Raises:
        ConfigError: A generation holds VMs in ``trace`` but has no SKU
            in ``baselines``, so the reference could not host them.
    """
    generations = sorted(baselines)
    unsized = sorted(
        set(np.unique(trace.columns.generation).tolist()) - set(generations)
    )
    if unsized:
        raise ConfigError(
            f"{trace.name} holds VMs of generation(s) {unsized} that have "
            f"no baseline SKU (baselines cover {generations})"
        )
    # Reference: per-generation right-size on that generation's sub-trace.
    reference: "dict[int, int]" = {}
    for gen in generations:
        sub = trace.filter(
            trace.columns.generation == gen, name=f"{trace.name}-g{gen}"
        )
        reference[gen] = right_size(sub, baselines[gen])

    # Mixed: non-adopters per generation + greens for adopters.
    green_trace, base_trace = _split_trace(trace, adoption)
    mixed: "dict[int, int]" = {}
    for gen in generations:
        sub = base_trace.filter(
            base_trace.columns.generation == gen,
            name=f"{trace.name}-rest-g{gen}",
        )
        mixed[gen] = right_size(sub, baselines[gen])
    n_green = right_size(green_trace, greensku, adoption)

    # Baseline pools route by which generations are present, so the
    # high-water argument does not apply here: probe count tuples.
    slot_skus = [baselines[gen] for gen in generations] + [greensku]
    prober = _EngineProber(trace, slot_skus, adoption)
    memo = _ReplayMemo(prober)

    def feasible(mixed_counts: "dict[int, int]", ng: int) -> bool:
        return memo(*(mixed_counts[gen] for gen in generations), ng)

    while not feasible(mixed, n_green):
        n_green += 1
        if sum(mixed.values()) + n_green > MAX_SERVERS:
            raise SizingError(
                f"generation-aware sizing for {trace.name} exceeded "
                f"{MAX_SERVERS}"
            )
    trim_steps = 0
    trimmed = True
    while trimmed:
        trimmed = False
        for gen in generations:
            while mixed[gen] > 0:
                candidate = dict(mixed)
                candidate[gen] -= 1
                if feasible(candidate, n_green):
                    mixed = candidate
                    trim_steps += 1
                    trimmed = True
                else:
                    break
        while n_green > 0 and feasible(mixed, n_green - 1):
            n_green -= 1
            trim_steps += 1
            trimmed = True
    tel = telemetry.active()
    if tel is not None:
        tel.count_many(
            {
                "sizing.mixed_verifications": 1,
                "sizing.trim_steps": trim_steps,
                "sizing.simulate_calls": memo.simulate_calls,
                "sizing.memo_hits": memo.memo_hits,
            }
        )
    return GenerationAwareSizing(
        reference_by_gen=reference,
        mixed_baselines_by_gen=mixed,
        mixed_green_servers=n_green,
    )
