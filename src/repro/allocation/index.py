"""Indexed placement engine: sublinear scheduling, exact snapshot sums.

A reference allocation path scans every server per placement decision
and walks every server per density snapshot — O(n_servers) in the two
hot operations that dominate Figs. 9–11 and every sizing replay.
This module keeps the same decisions reachable in sublinear time:

- :class:`_PoolIndex` groups the placeable servers of one pool view by
  ``free_cores`` (one bucket per value, each bucket ordered by
  ``(free_memory_gb, server_id)``) and keeps empty servers aside,
  grouped by shape.  A best-fit query walks the non-empty buckets in
  ascending free-core order via an integer bitmask and takes a bucket's
  first entry when it meets the memory threshold, bisecting for the
  threshold only when it does not; empty servers are consulted only
  when no busy server fits (the production prefer-non-empty rule).
- :class:`PlacementEngine` owns one index per pool view (GreenSKUs, all
  baselines, per-generation baselines) plus exact snapshot aggregates,
  and applies the same ranking rules as the oracle's linear-scan
  ``choose`` (``tests/oracles/allocation.py``) for all three placement
  policies.  A placement or departure only marks its server
  pending; a snapshot settles each pending server's contribution once
  and merges the per-kind sums, so the aggregate work is per snapshot
  and per changed server, not per event.
- A placement or departure that leaves a busy server busy, almost every
  event of a replay, moves the server's ``(free_memory_gb, server_id)``
  entry within each of its views inline (:meth:`PlacementEngine.place`):
  an entry at the front of its bucket is deleted there and an empty
  target bucket takes the new one by an append, so only the other cases
  bisect.  The rare transitions (a server opening, emptying, parked by a
  full-node VM, or released) take the slot path, which leaves every
  view under the old slot and enters it under the new one.

Equivalence with the reference scan is exact, not approximate: the
feasibility predicate is evaluated in the same threshold form
(``free_memory_gb >= memory_gb - MEM_EPS``, see ``scheduler.MEM_EPS``),
rank ties resolve to the lowest server id just as the scan's
first-strictly-smaller-key rule does over id-ordered pools, and the
snapshot sums are kept as *exact scaled integers* (every float
contribution is converted losslessly via ``float.as_integer_ratio``), so
accumulation order cannot change the result.  ``tests/allocation/
test_index.py`` enforces bit-identical outcomes against the reference
scan kept in ``tests/oracles/allocation.py``.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

from ..core.errors import ConfigError, SimulationError
from .scheduler import MEM_EPS, PLACEMENT_POLICIES, Server
from .vm import VmRequest

#: Fixed-point shift for exact snapshot sums.  A float's
#: ``as_integer_ratio`` denominator is a power of two no larger than
#: 2**1074 (subnormals), so shifting every contribution to a common
#: 2**1080 denominator is lossless for all finite doubles.
SCALE_SHIFT = 1080

#: Metric keys of the snapshot aggregates, in observation order.
METRICS = ("core", "mem", "touched", "cxl")


def scaled_int(value) -> int:
    """Losslessly convert a finite float (or int) to a 2**-1080 fixed point."""
    if not value:
        return 0
    numerator, denominator = value.as_integer_ratio()
    return numerator << (SCALE_SHIFT - (denominator.bit_length() - 1))


class KindAggregate:
    """Current-state snapshot sums for one server kind (green/baseline).

    ``count`` is the number of non-empty servers; ``sums`` maps each
    metric to ``{denominator: scaled numerator sum}`` where the
    denominator is the per-server capacity the reference path divides by
    (total cores / total memory / CXL capacity).  Entries that reach
    exactly zero are deleted so the mapping stays canonical.
    """

    __slots__ = ("count", "sums")

    def __init__(self) -> None:
        self.count = 0
        self.sums: Dict[str, Dict[float, int]] = {m: {} for m in METRICS}


class _PoolIndex:
    """Order-maintaining index over one pool view's placeable servers.

    Busy (non-empty, non-dedicated) servers live in ``buckets[free_cores]``
    as sorted ``(free_memory_gb, server_id)`` tuples; ``mask`` has bit k
    set iff bucket k is non-empty.  ``buckets`` holds a list, empty or
    not, for every free-core count up to the largest total core count a
    member has had, and ``max_cores`` is at least that count (see
    :meth:`reserve`).  Empty servers are grouped by shape
    ``(total_cores, total_memory_gb)`` with ascending id lists.  Suffix
    minima of server ids per bucket are built lazily (only the first-fit
    and worst-fit policies need them) and dropped when their bucket
    changes.
    """

    __slots__ = (
        "buckets",
        "mask",
        "max_cores",
        "empty_ids",
        "shapes",
        "shapes_by_cores",
        "probes",
        "_suffmin",
    )

    def __init__(self) -> None:
        self.buckets: List[List[Tuple[float, int]]] = []
        self.mask = 0
        self.max_cores = 0
        self.empty_ids: Dict[Tuple[int, float], List[int]] = {}
        self.shapes: List[Tuple[int, float]] = []
        self.shapes_by_cores: Dict[int, List[Tuple[int, float]]] = {}
        #: Buckets/shape groups examined across all queries (telemetry).
        self.probes = 0
        self._suffmin: Dict[int, List[int]] = {}

    # -- maintenance ----------------------------------------------------------

    def reserve(self, total_cores: int) -> None:
        """Hold a bucket for every free-core count up to ``total_cores``.

        A server's free cores never exceed its total, and every server
        enters a view through here first, so a busy-to-busy move indexes
        ``buckets`` directly and never raises ``max_cores``.
        """
        buckets = self.buckets
        while len(buckets) <= total_cores:
            buckets.append([])
        if total_cores > self.max_cores:
            self.max_cores = total_cores

    def add_busy(self, free_cores: int, free_memory_gb: float, sid: int) -> None:
        insort(self.buckets[free_cores], (free_memory_gb, sid))
        self.mask |= 1 << free_cores
        self._suffmin.pop(free_cores, None)

    def remove_busy(self, free_cores: int, free_memory_gb: float, sid: int) -> None:
        bucket = self.buckets[free_cores]
        i = bisect_left(bucket, (free_memory_gb, sid))
        del bucket[i]
        if not bucket:
            self.mask &= ~(1 << free_cores)
        self._suffmin.pop(free_cores, None)

    def add_empty(self, shape: Tuple[int, float], sid: int) -> None:
        ids = self.empty_ids.get(shape)
        if ids is None:
            self.empty_ids[shape] = ids = []
            insort(self.shapes, shape)
            self.shapes_by_cores.setdefault(shape[0], []).append(shape)
        insort(ids, sid)

    def remove_empty(self, shape: Tuple[int, float], sid: int) -> None:
        ids = self.empty_ids[shape]
        i = bisect_left(ids, sid)
        del ids[i]

    def _suffix_min(self, free_cores: int) -> List[int]:
        """Suffix minima of server ids in bucket ``free_cores`` (lazy)."""
        out = self._suffmin.get(free_cores)
        if out is None:
            bucket = self.buckets[free_cores]
            out = [0] * len(bucket)
            best = None
            for i in range(len(bucket) - 1, -1, -1):
                sid = bucket[i][1]
                best = sid if best is None or sid < best else best
                out[i] = best
            self._suffmin[free_cores] = out
        return out

    # -- queries --------------------------------------------------------------
    #
    # ``thresh`` is ``memory_gb - MEM_EPS``; feasibility is
    # ``free_memory_gb >= thresh``, the same comparison ``Server.fits``
    # makes.  ``bisect_left(bucket, (thresh,))`` lands on the first entry
    # with ``free_memory_gb >= thresh`` because a 1-tuple sorts before
    # every ``(equal_value, sid)`` 2-tuple.

    def best_busy(self, cores: int, thresh: float) -> Optional[int]:
        """Best-fit among busy servers: min (free_cores, free_mem, id)."""
        m = self.mask >> cores
        probes = 0
        while m:
            probes += 1
            k = cores + ((m & -m).bit_length() - 1)
            bucket = self.buckets[k]
            first = bucket[0]
            if first[0] >= thresh:
                # bisect_left would land on the first entry too.
                self.probes += probes
                return first[1]
            i = bisect_left(bucket, (thresh,))
            if i < len(bucket):
                self.probes += probes
                return bucket[i][1]
            m &= m - 1
        self.probes += probes
        return None

    def best_empty(self, cores: int, thresh: float) -> Optional[int]:
        """Best-fit among empty servers: min (total_cores, total_mem, id)."""
        probes = 0
        for shape in self.shapes:
            probes += 1
            if shape[0] >= cores and shape[1] >= thresh:
                ids = self.empty_ids[shape]
                if ids:
                    self.probes += probes
                    return ids[0]
        self.probes += probes
        return None

    def min_id_busy(self, cores: int, thresh: float) -> Optional[int]:
        """First-fit among busy servers: minimum feasible server id."""
        best = None
        m = self.mask >> cores
        probes = 0
        while m:
            probes += 1
            k = cores + ((m & -m).bit_length() - 1)
            bucket = self.buckets[k]
            i = bisect_left(bucket, (thresh,))
            if i < len(bucket):
                sid = self._suffix_min(k)[i]
                if best is None or sid < best:
                    best = sid
            m &= m - 1
        self.probes += probes
        return best

    def min_id_empty(self, cores: int, thresh: float) -> Optional[int]:
        """First-fit among empty servers: minimum feasible server id."""
        best = None
        probes = 0
        for shape, ids in self.empty_ids.items():
            probes += 1
            if ids and shape[0] >= cores and shape[1] >= thresh:
                sid = ids[0]
                if best is None or sid < best:
                    best = sid
        self.probes += probes
        return best

    def worst(
        self, cores: int, thresh: float, include_busy: bool = True
    ) -> Optional[int]:
        """Worst-fit: max free cores, then min id (busy and empty alike)."""
        probes = 0
        for k in range(self.max_cores, cores - 1, -1):
            best = None
            if include_busy and (self.mask >> k) & 1:
                probes += 1
                bucket = self.buckets[k]
                i = bisect_left(bucket, (thresh,))
                if i < len(bucket):
                    best = self._suffix_min(k)[i]
            for shape in self.shapes_by_cores.get(k, ()):
                probes += 1
                if shape[1] >= thresh:
                    ids = self.empty_ids[shape]
                    if ids and (best is None or ids[0] < best):
                        best = ids[0]
            if best is not None:
                self.probes += probes
                return best
        self.probes += probes
        return None


#: Slot markers: ``_PARKED`` servers (dedicated to a full-node VM) are
#: invisible to every query; ``_EMPTY`` servers live in the shape groups.
_PARKED = None
_EMPTY = True


class PlacementEngine:
    """The placement engine every allocation replay runs on.

    Maintains one :class:`_PoolIndex` per pool view — GreenSKUs, all
    baselines combined, and (once the cluster has ever held more than one
    baseline generation) one per baseline generation — plus exact
    snapshot aggregates per server kind when ``track_stats`` is on.
    The aggregates are settled lazily: ``place``/``remove`` record the
    server as pending, and :meth:`aggregates` (which :meth:`snapshot`
    reads) re-derives each pending server's contribution once.  The sums
    are scaled integers, and a server's state does not change between
    its last event and the settle, so the result is the same as
    refreshing after every event.

    Servers can be added and removed while empty, which lets sizing
    searches reuse one engine across their replays by applying count
    deltas instead of rebuilding the cluster per replay; :meth:`reset`
    restores every touched server to its pristine state between replays.
    """

    def __init__(
        self,
        servers: Iterable[Server] = (),
        policy: str = "best-fit",
        track_stats: bool = False,
    ):
        if policy not in PLACEMENT_POLICIES:
            raise ConfigError(
                f"unknown placement policy {policy!r}; "
                f"known: {PLACEMENT_POLICIES}"
            )
        self.policy = policy
        self.track_stats = track_stats
        # Work counters, always on (plain int bumps): placement queries
        # answered, place/remove reindexes, snapshot merges (each settles
        # the servers changed since the last one).  Bucket probes live on
        # each _PoolIndex; telemetry_counters() sums them.
        self.stat_queries = 0
        self.stat_places = 0
        self.stat_removes = 0
        self.stat_snapshot_merges = 0
        self.servers: Dict[int, Server] = {}
        self.green = _PoolIndex()
        self.base_all = _PoolIndex()
        self.base_by_gen: Dict[int, _PoolIndex] = {}
        self.green_count = 0
        self._green_agg = KindAggregate()
        self._base_agg = KindAggregate()
        self._views: Dict[int, Tuple[_PoolIndex, ...]] = {}
        self._gen_counts: Dict[int, int] = {}
        self._gen_views_active = False
        # Settled contribution per non-empty server, and the ids whose
        # state changed since their contribution was last settled.
        self._contrib: Dict[int, Tuple[int, int, int, int]] = {}
        self._pending: set = set()
        self._dirty: set = set()
        for server in servers:
            self.add_server(server)

    # -- membership -----------------------------------------------------------

    def add_server(self, server: Server) -> None:
        """Add a server to the engine's pools (green/baseline by SKU)."""
        sid = server.server_id
        if sid in self.servers:
            raise SimulationError(f"server {sid} already in engine")
        self.servers[sid] = server
        if server.is_green:
            self.green_count += 1
            views: Tuple[_PoolIndex, ...] = (self.green,)
        else:
            gen = server.sku.generation
            self._gen_counts[gen] = self._gen_counts.get(gen, 0) + 1
            if not self._gen_views_active and len(self._gen_counts) > 1:
                self._activate_gen_views()
            if self._gen_views_active:
                gen_view = self.base_by_gen.get(gen)
                if gen_view is None:
                    gen_view = self.base_by_gen[gen] = _PoolIndex()
                views = (self.base_all, gen_view)
            else:
                views = (self.base_all,)
        self._views[sid] = views
        self._enter(server, views, self._slot_of(server))
        if not server.is_empty:
            self._dirty.add(sid)
            if self.track_stats:
                self._pending.add(sid)

    def remove_server(self, server_id: int) -> Server:
        """Remove an (empty) server, e.g. when a sizing probe shrinks."""
        server = self.servers.get(server_id)
        if server is None:
            raise SimulationError(f"server {server_id} not in engine")
        if not server.is_empty:
            raise SimulationError(
                f"server {server_id} still hosts VMs; cannot remove"
            )
        if server_id in self._pending:
            # Drop the contribution it held at the last settle.
            self._pending.discard(server_id)
            self._refresh_contrib(server)
        views = self._views.pop(server_id)
        self._leave(server, views, self._slot_of(server))
        del self.servers[server_id]
        self._dirty.discard(server_id)
        if server.is_green:
            self.green_count -= 1
        else:
            self._gen_counts[server.sku.generation] -= 1
        return server

    def _activate_gen_views(self) -> None:
        """Backfill per-generation views once a second generation appears.

        Single-generation clusters (every sizing probe, Figs. 9/10) never
        pay for the second view; multi-generation clusters get exact
        generation routing from the moment it can matter.
        """
        self._gen_views_active = True
        for sid, server in self.servers.items():
            if server.is_green or sid not in self._views:
                continue
            gen = server.sku.generation
            gen_view = self.base_by_gen.get(gen)
            if gen_view is None:
                gen_view = self.base_by_gen[gen] = _PoolIndex()
            self._views[sid] = (self.base_all, gen_view)
            self._enter(server, (gen_view,), self._slot_of(server))

    # -- slotting -------------------------------------------------------------
    #
    # The slot path: membership changes, reset, and the rare place/remove
    # transitions that change a server's slot kind (busy, empty, parked).

    @staticmethod
    def _slot_of(server: Server):
        if server.dedicated:
            return _PARKED
        if server.is_empty:
            return _EMPTY
        return (server.free_cores, server.free_memory_gb)

    @staticmethod
    def _enter(server: Server, views: Tuple[_PoolIndex, ...], slot) -> None:
        if slot is _PARKED:
            return
        total_cores = server.total_cores
        for view in views:
            view.reserve(total_cores)
        if slot is _EMPTY:
            shape = (total_cores, server.total_memory_gb)
            for view in views:
                view.add_empty(shape, server.server_id)
        else:
            free_cores, free_memory_gb = slot
            for view in views:
                view.add_busy(free_cores, free_memory_gb, server.server_id)

    @staticmethod
    def _leave(server: Server, views: Tuple[_PoolIndex, ...], slot) -> None:
        if slot is _PARKED:
            return
        if slot is _EMPTY:
            shape = (server.total_cores, server.total_memory_gb)
            for view in views:
                view.remove_empty(shape, server.server_id)
        else:
            free_cores, free_memory_gb = slot
            for view in views:
                view.remove_busy(free_cores, free_memory_gb, server.server_id)

    # -- placement ------------------------------------------------------------

    def choose_green(
        self, vm: VmRequest, cores: int, memory_gb: float
    ) -> Optional[Server]:
        """Pick a GreenSKU server (full-node VMs never qualify)."""
        if vm.full_node or not self.green_count:
            if cores <= 0 or memory_gb <= 0:
                raise ConfigError("placement request must be positive")
            return None
        return self._choose(self.green, cores, memory_gb, False)

    def choose_baseline(
        self, vm: VmRequest, cores: int, memory_gb: float
    ) -> Optional[Server]:
        """Pick a baseline server, generation-routed like the reference."""
        view = (
            self._baseline_view(vm.generation)
            if self._gen_views_active
            else self.base_all
        )
        return self._choose(view, cores, memory_gb, vm.full_node)

    def _baseline_view(self, generation: int) -> _PoolIndex:
        # Mirror of the reference rule: per-generation routing only when
        # the cluster currently holds servers of more than one baseline
        # generation and the VM's generation is among them.  Asked only
        # once the per-generation views exist; before, every baseline
        # query goes to ``base_all``.
        counts = self._gen_counts
        active = sum(1 for c in counts.values() if c > 0)
        if active > 1 and counts.get(generation, 0) > 0:
            return self.base_by_gen[generation]
        return self.base_all

    def _choose(
        self, view: _PoolIndex, cores: int, memory_gb: float, full_node: bool
    ) -> Optional[Server]:
        if cores <= 0 or memory_gb <= 0:
            raise ConfigError("placement request must be positive")
        self.stat_queries += 1
        thresh = memory_gb - MEM_EPS
        policy = self.policy
        if policy == "best-fit":
            sid = None if full_node else view.best_busy(cores, thresh)
            if sid is None:
                sid = view.best_empty(cores, thresh)
        elif policy == "first-fit":
            busy = None if full_node else view.min_id_busy(cores, thresh)
            empty = view.min_id_empty(cores, thresh)
            if busy is None:
                sid = empty
            elif empty is None:
                sid = busy
            else:
                sid = busy if busy < empty else empty
        else:  # worst-fit
            sid = view.worst(cores, thresh, include_busy=not full_node)
        return None if sid is None else self.servers[sid]

    def place(
        self,
        server: Server,
        vm: VmRequest,
        cores: int,
        memory_gb: float,
        cxl_gb: float = 0.0,
    ) -> None:
        """Place a VM and re-key the server under its new free capacity.

        A busy server that stays busy, the common case, moves its
        ``(free_memory_gb, id)`` entry within each of its views inline;
        it is already among the touched servers, since it turned busy
        through the slot path.  Opening an empty server or parking one
        for a full-node VM takes the slot path.  Either way the old key
        is read before ``Server.place`` runs its checks, so a rejected
        placement raises with the index untouched.

        The move skips each bisect whose answer is known: the entry at
        the front of its bucket (the only one, or the one a best-fit
        query just chose) is deleted there, and an empty target bucket
        takes the new entry by an append.  A bucket mask bit changes
        only when its bucket empties or fills, and every bucket a member
        can reach exists (:meth:`_PoolIndex.reserve`).  :meth:`remove`
        repeats the move rather than calling a shared method, which
        would add a call per view to every event.
        """
        self.stat_places += 1
        sid = server.server_id
        if not server._vms or server.dedicated or vm.full_node:
            views = self._views[sid]
            before = self._slot_of(server)
            server.place(vm, cores, memory_gb, cxl_gb)
            self._leave(server, views, before)
            self._enter(server, views, self._slot_of(server))
            self._dirty.add(sid)
        else:
            free_cores = server.free_cores
            free_memory_gb = server.free_memory_gb
            server.place(vm, cores, memory_gb, cxl_gb)
            new_cores = server.free_cores
            entry = (server.free_memory_gb, sid)
            for view in self._views[sid]:
                buckets = view.buckets
                bucket = buckets[free_cores]
                if bucket[0][1] == sid:
                    del bucket[0]
                else:
                    del bucket[bisect_left(bucket, (free_memory_gb, sid))]
                if not bucket:
                    view.mask &= ~(1 << free_cores)
                bucket = buckets[new_cores]
                if bucket:
                    insort(bucket, entry)
                else:
                    bucket.append(entry)
                    view.mask |= 1 << new_cores
                suffmin = view._suffmin
                if suffmin:
                    suffmin.pop(free_cores, None)
                    suffmin.pop(new_cores, None)
        if self.track_stats:
            self._pending.add(sid)

    def remove(self, server: Server, vm_id: int) -> None:
        """Remove a departed VM and re-key the server.

        A busy server that keeps another VM moves inline, as in
        :meth:`place`; emptying a server or releasing a parked one takes
        the slot path.  An unknown ``vm_id`` raises with the index
        untouched.
        """
        self.stat_removes += 1
        sid = server.server_id
        if len(server._vms) < 2 or server.dedicated:
            views = self._views[sid]
            before = self._slot_of(server)
            server.remove(vm_id)
            self._leave(server, views, before)
            self._enter(server, views, self._slot_of(server))
        else:
            free_cores = server.free_cores
            free_memory_gb = server.free_memory_gb
            server.remove(vm_id)
            new_cores = server.free_cores
            entry = (server.free_memory_gb, sid)
            for view in self._views[sid]:
                buckets = view.buckets
                bucket = buckets[free_cores]
                if bucket[0][1] == sid:
                    del bucket[0]
                else:
                    del bucket[bisect_left(bucket, (free_memory_gb, sid))]
                if not bucket:
                    view.mask &= ~(1 << free_cores)
                bucket = buckets[new_cores]
                if bucket:
                    insort(bucket, entry)
                else:
                    bucket.append(entry)
                    view.mask |= 1 << new_cores
                suffmin = view._suffmin
                if suffmin:
                    suffmin.pop(free_cores, None)
                    suffmin.pop(new_cores, None)
        if self.track_stats:
            self._pending.add(sid)

    def reset(self) -> None:
        """Restore every touched server to pristine-empty, clear aggregates.

        After a reset the engine is indistinguishable from one freshly
        built over ``ClusterSpec.build_servers()`` output — including the
        float-exact ``free_memory_gb`` values place/remove cycles would
        otherwise leave dust in.
        """
        for sid in self._dirty:
            server = self.servers.get(sid)
            if server is None:
                continue
            slot = self._slot_of(server)
            if slot is not _EMPTY:
                views = self._views[sid]
                self._leave(server, views, slot)
                server.reset()
                self._enter(server, views, _EMPTY)
            else:
                server.reset()
        self._dirty.clear()
        self._contrib.clear()
        self._pending.clear()
        self._green_agg = KindAggregate()
        self._base_agg = KindAggregate()

    def touched_ids(self) -> FrozenSet[int]:
        """Ids of the servers that have hosted a VM since the last reset."""
        return frozenset(self._dirty)

    # -- snapshot aggregates --------------------------------------------------

    def _refresh_contrib(self, server: Server) -> None:
        """Settle one server: re-derive its exact contribution, apply it."""
        sid = server.server_id
        agg = self._green_agg if server.is_green else self._base_agg
        old = self._contrib.pop(sid, None)
        if server.is_empty:
            new = None
        else:
            new = (
                scaled_int(server.allocated_cores),
                scaled_int(server.allocated_memory_gb),
                scaled_int(server._touched_memory_gb),
                scaled_int(server._cxl_used_gb) if server.total_cxl_gb else 0,
            )
            self._contrib[sid] = new
        if old is None:
            if new is None:
                return
            agg.count += 1
        elif new is None:
            agg.count -= 1
        sums = agg.sums
        for idx, (metric, den) in enumerate(
            (
                ("core", server.total_cores),
                ("mem", server.total_memory_gb),
                ("touched", server.total_memory_gb),
                ("cxl", server.total_cxl_gb),
            )
        ):
            delta = (new[idx] if new else 0) - (old[idx] if old else 0)
            if not delta:
                continue
            bucket = sums[metric]
            cum = bucket.get(den, 0) + delta
            if cum:
                bucket[den] = cum
            else:
                del bucket[den]

    def has_green(self) -> bool:
        """Whether the engine holds any GreenSKU server."""
        return self.green_count > 0

    def aggregates(self) -> Tuple[KindAggregate, KindAggregate]:
        """The exact ``(green, baseline)`` aggregates of the current state.

        Settles first: every server changed since the last settle has
        its contribution re-derived once, however many events it saw.
        Every read of the aggregates goes through here.
        """
        pending = self._pending
        if pending:
            servers = self.servers
            for sid in pending:
                self._refresh_contrib(servers[sid])
            pending.clear()
        return self._green_agg, self._base_agg

    def snapshot(self, outcome) -> None:
        """Fold the current aggregates into an outcome's snapshot stats."""
        self.stat_snapshot_merges += 1
        green, base = self.aggregates()
        outcome.green_stats.merge_aggregate(green)
        outcome.baseline_stats.merge_aggregate(base)

    def telemetry_counters(self) -> Dict[str, int]:
        """Cumulative work counters (the replay loop folds deltas)."""
        return {
            "engine.queries": self.stat_queries,
            "engine.bucket_probes": (
                self.green.probes
                + self.base_all.probes
                + sum(view.probes for view in self.base_by_gen.values())
            ),
            "engine.places": self.stat_places,
            "engine.removes": self.stat_removes,
            "engine.snapshot_merges": self.stat_snapshot_merges,
        }
