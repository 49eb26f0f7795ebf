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

A generation-aware mixed cluster keeps one baseline pool per generation,
and a VM's baseline placements go to its own generation's pool while the
cluster holds more than one.  The reference's rule keeps the pools the
same in every replay: a generation with baseline-bound VMs (non-adopters
or full-node VMs) keeps a pool of its own, and one whose VMs all adopt
has none.  A fallback of a generation with no pool picks among pools of
different shapes, so a pool's highest used index bounds its fewest
servers without always meeting it, and the trim finishes with probes.

Out-of-service maintenance overhead inflates each side's server count
(failed servers await repair, so extra capacity is deployed).
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

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
from ..core.checks import check_count, check_finite
from ..core.errors import CapacityError, ConfigError, SizingError
from ..hardware.sku import ServerSKU

#: Hard cap on sizing searches; a trace needing more servers than this is
#: misconfigured for the simulator's scale.
MAX_SERVERS = 20_000


@dataclass(frozen=True)
class ClusterSizing:
    """Output of the sizing search.

    Attributes:
        baseline_only_servers: Right-sized all-baseline cluster.
        mixed_baseline_servers: Baseline SKUs in the mixed cluster.
        mixed_green_servers: GreenSKUs in the mixed cluster.
        oos_overhead_baseline / oos_overhead_green: Out-of-service server
            fractions applied on top of the counts when computing carbon.

    Raises:
        ConfigError: A count is not an integer >= 0, or a fraction is
            not finite and >= 0.
    """

    baseline_only_servers: int
    mixed_baseline_servers: int
    mixed_green_servers: int
    oos_overhead_baseline: float = 0.0
    oos_overhead_green: float = 0.0

    def __post_init__(self) -> None:
        check_count(self.baseline_only_servers, "baseline-only servers")
        check_count(self.mixed_baseline_servers, "mixed baseline servers")
        check_count(self.mixed_green_servers, "mixed GreenSKU servers")
        check_finite(
            self.oos_overhead_baseline,
            "baseline out-of-service fraction",
            at_least=0,
        )
        check_finite(
            self.oos_overhead_green,
            "GreenSKU out-of-service fraction",
            at_least=0,
        )

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
    """High-water replays of one trace against upper-bound baseline pools.

    ``pools`` lists baseline SKUs with one bound each.  Pool i holds
    ``bound_i`` servers of its SKU, with ids following the pools before
    it, and the ``companion`` servers take the ids after the last pool:
    the order ``ClusterSpec.build_servers`` gives the same counts.

    Calling the object with a count of companions replays the trace once
    under the production best-fit scheduler and returns, for each pool,
    how many of its servers the replay used: the highest index touched,
    plus one.  By the high-water argument (see the module docstring)
    that many servers of each pool host the trace beside those
    companions.  A replay that rejects a VM raises
    :class:`CapacityError` at that VM: the pools at their bounds do not
    host the trace beside them.  Pools and companions share one
    :class:`PlacementEngine`, reset before every replay.
    """

    def __init__(
        self,
        trace: VmTrace,
        pools: Sequence[Tuple[ServerSKU, int]],
        adoption: AdoptionPolicy,
        companion: Optional[ServerSKU] = None,
    ):
        self._trace = trace
        self._pools = list(pools)
        self._adoption = adoption
        self._companion = companion
        self._companions = 0
        self._firsts = []
        servers = []
        for sku, bound in self._pools:
            first = len(servers)
            self._firsts.append(first)
            servers.extend(Server.pool(sku, range(first, first + bound)))
        self._end = len(servers)
        self._engine = PlacementEngine(servers)

    def __call__(self, companions: int = 0) -> Tuple[int, ...]:
        engine = self._engine
        engine.reset()
        end = self._end
        if self._companions < companions:
            for server in Server.pool(
                self._companion,
                range(end + self._companions, end + companions),
            ):
                engine.add_server(server)
            self._companions = companions
        while self._companions > companions:
            self._companions -= 1
            engine.remove_server(end + self._companions)
        pools = list(self._pools)
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
        needs = [0] * len(self._pools)
        firsts = self._firsts
        for sid in engine.touched_ids():
            if sid < end:
                pool = bisect_right(firsts, sid) - 1
                needs[pool] = max(needs[pool], sid - firsts[pool] + 1)
        return tuple(needs)


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
    # Opening server k needs k busy servers, each hosting a VM, so no
    # replay opens an index at or beyond the trace's peak of concurrent
    # VMs.  A replay releases the departures due by each arrival before
    # placing it: the half-open occupancy the event sweep counts.
    bound = min(trace.columns.peak_concurrent_vms(), MAX_SERVERS)
    high_water = _HighWater(trace, [(sku, bound)], adoption)
    tel = telemetry.active()
    if tel is not None:
        tel.count_many({"sizing.searches": 1, "sizing.simulate_calls": 1})
    try:
        (need,) = high_water()
        return need
    except CapacityError as exc:
        limit = (
            f"{MAX_SERVERS} {sku.name} servers"
            if bound == MAX_SERVERS
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


def _trim(
    trace: VmTrace,
    pools: Sequence[Tuple[ServerSKU, int]],
    greensku: ServerSKU,
    n_green: int,
    adoption: AdoptionPolicy,
) -> Tuple[Tuple[int, ...], int]:
    """Trim GreenSKUs from a mixed cluster at its partitions' right-sizes.

    ``pools`` holds each baseline pool at its rest partition's right-size
    and ``n_green`` is the adopters' right-size, so the trace fits them
    (see the module docstring).  Drops GreenSKUs while one fewer still
    fits beside the pools at those sizes, one high-water replay per
    count that stops at the first VM it cannot place.  Returns each
    pool's need beside the GreenSKU count it keeps, and that count.
    """
    needs = tuple(count for _sku, count in pools)
    if not n_green:
        return needs, n_green
    high_water = _HighWater(trace, pools, adoption, companion=greensku)
    servers = sum(needs) + n_green
    replays = 0
    while n_green:
        replays += 1
        try:
            needs = high_water(n_green - 1)
        except CapacityError:
            break  # one GreenSKU fewer overflows a pool
        n_green -= 1
    tel = telemetry.active()
    if tel is not None:
        tel.count_many(
            {
                "sizing.mixed_verifications": 1,
                "sizing.trim_steps": servers - sum(needs) - n_green,
                "sizing.simulate_calls": replays,
            }
        )
    return needs, n_green


def _probe_trim(
    trace: VmTrace,
    pools: Sequence[Tuple[ServerSKU, int]],
    greensku: ServerSKU,
    n_green: int,
    adoption: AdoptionPolicy,
    needs: Tuple[int, ...],
) -> Tuple[Tuple[int, ...], int]:
    """Finish a trim over several pools by probing each one server fewer.

    Runs the probing search's greedy trim from the pools at their
    partition sizes, ``needs`` being what they used beside ``n_green``
    GreenSKUs (:func:`_trim`'s answer): each pool in turn while one
    fewer fits, never below one server, then GreenSKUs, until nothing
    trims.  A pool drops to the last fitting replay's need, which
    replays the same, before a probe asks one fewer, and a failed probe
    is kept so that it never replays again.  Returns the pool counts and
    the GreenSKU count.
    """
    skus = [sku for sku, _count in pools]
    counts = [count for _sku, count in pools]
    failed = {(tuple(counts), n_green - 1)}  # stopped the GreenSKU trim
    servers = sum(needs) + n_green
    replays = 0

    def fits(candidate: List[int], greens: int) -> Optional[Tuple[int, ...]]:
        nonlocal replays
        key = (tuple(candidate), greens)
        if key in failed:
            return None
        replays += 1
        high_water = _HighWater(
            trace, list(zip(skus, candidate)), adoption, companion=greensku
        )
        try:
            return high_water(greens)
        except CapacityError:
            failed.add(key)
            return None

    trimmed = True
    while trimmed:
        trimmed = False
        for i in range(len(counts)):
            found = needs
            while found is not None:
                trimmed |= needs[i] < counts[i]
                counts[i] = needs[i]
                candidate = counts[:i] + [counts[i] - 1] + counts[i + 1:]
                found = fits(candidate, n_green) if counts[i] > 1 else None
                if found is not None:
                    counts, needs, trimmed = candidate, found, True
        while n_green:
            found = fits(counts, n_green - 1)
            if found is None:
                break
            n_green, needs, trimmed = n_green - 1, found, True
    tel = telemetry.active()
    if tel is not None:
        tel.count_many(
            {
                "sizing.trim_steps": servers - sum(counts) - n_green,
                "sizing.simulate_calls": replays,
            }
        )
    return tuple(counts), n_green


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
    (n_base,), n_green = _trim(
        trace, [(baseline, n_base)], greensku, n_green, adoption
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

    The reference right-sizes each generation's VMs on that generation's
    SKU.  The mixed cluster starts from the partitions: each generation's
    rest (non-adopters and full-node VMs) right-sized on its own SKU, and
    the adopters on GreenSKUs.  It then trims GreenSKUs as
    :func:`size_mixed_cluster` does, with one baseline pool per
    generation, and finishes by probing each pool one server fewer
    (:func:`_probe_trim`).  A generation with baseline-bound VMs keeps a
    pool of its own, as in the reference, so the trim never empties it;
    a generation whose VMs all adopt has none, and its fallbacks go to
    any baseline.

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

    def of_gen(sub: VmTrace, gen: int) -> VmTrace:
        return sub.filter(
            sub.columns.generation == gen, name=f"{sub.name}-g{gen}"
        )

    reference = {
        gen: right_size(of_gen(trace, gen), baselines[gen])
        for gen in generations
    }
    green_trace, base_trace = _split_trace(trace, adoption)
    pools = [
        (baselines[gen], right_size(of_gen(base_trace, gen), baselines[gen]))
        for gen in generations
    ]
    n_green = right_size(green_trace, greensku, adoption)
    needs, n_green = _trim(trace, pools, greensku, n_green, adoption)
    counts, n_green = _probe_trim(
        trace, pools, greensku, n_green, adoption, needs
    )
    return GenerationAwareSizing(
        reference_by_gen=reference,
        mixed_baselines_by_gen=dict(zip(generations, counts)),
        mixed_green_servers=n_green,
    )
