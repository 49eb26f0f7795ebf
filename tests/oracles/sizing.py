"""Reference sizing searches, the oracle for ``repro.gsf.sizing``.

``repro.gsf.sizing`` answers each sizing question with one high-water
replay, which is exact only because best-fit opens the lowest-id empty
server.  These searches assume nothing about the scheduler: they ask the
reference replay of ``tests/oracles/allocation.py`` whether each
candidate configuration hosts the trace — an exponential bracket, a
bisection and a downward verification for one SKU; grow-then-trim over
(baseline, GreenSKU) count pairs for a mixed cluster, and over count
tuples with one baseline pool per generation for a generation-aware
one.  They are slow, so tests run them on small traces.
"""

from __future__ import annotations

from typing import Callable, Dict, Hashable, Mapping

import numpy as np

from repro.allocation.cluster import AdoptionPolicy, ClusterSpec, adopt_nothing
from repro.allocation.traces import VmTrace
from repro.core.errors import SizingError
from repro.gsf.sizing import (
    MAX_SERVERS,
    ClusterSizing,
    GenerationAwareSizing,
)
from repro.hardware.sku import ServerSKU
from tests.oracles.allocation import simulate


def feasible(
    trace: VmTrace, cluster: ClusterSpec, adoption: AdoptionPolicy
) -> bool:
    """Whether the reference replay hosts ``trace`` on ``cluster``."""
    if cluster.total_servers == 0:
        return trace.vm_count == 0
    outcome = simulate(trace, cluster, adoption=adoption, snapshot_hours=1e9)
    return outcome.feasible


def _memoized(probe: Callable[..., bool]) -> Callable[..., bool]:
    seen: Dict[Hashable, bool] = {}

    def call(*key: Hashable) -> bool:
        if key not in seen:
            seen[key] = probe(*key)
        return seen[key]

    return call


def right_size(
    trace: VmTrace, sku: ServerSKU, adoption: AdoptionPolicy = adopt_nothing
) -> int:
    """Minimum count of ``sku`` servers hosting ``trace``, by search."""
    if not trace.vm_count:
        return 0
    fits = _memoized(
        lambda n: feasible(trace, ClusterSpec.of((sku, n)), adoption)
    )
    # Exponential bracket: ``lo`` infeasible (0 when none was probed),
    # ``hi`` feasible.
    lo, hi = 0, 1
    while not fits(hi):
        if hi >= MAX_SERVERS:
            raise SizingError(
                f"trace {trace.name} does not fit {MAX_SERVERS} "
                f"{sku.name} servers"
            )
        lo, hi = hi, min(2 * hi, MAX_SERVERS)
    while lo + 1 < hi:
        mid = (lo + hi) // 2
        if fits(mid):
            hi = mid
        else:
            lo = mid
    # Downward verification: no smaller count may fit either.
    while hi > 1 and fits(hi - 1):
        hi -= 1
    return hi


def size_mixed_cluster(
    trace: VmTrace,
    baseline: ServerSKU,
    greensku: ServerSKU,
    adoption: AdoptionPolicy,
) -> ClusterSizing:
    """Reference sizing for ``repro.gsf.sizing.size_mixed_cluster``.

    Right-sizes the adopter/rest partition, grows GreenSKUs until the
    full trace fits, then trims baselines first and GreenSKUs second,
    probing every (baseline, GreenSKU) pair by simulation.
    """
    adopts = np.array(
        [
            not vm.full_node
            and adoption(vm.app_name, vm.generation) is not None
            for vm in trace.vms
        ],
        dtype=np.bool_,
    )
    n_reference = right_size(trace, baseline)
    n_base = right_size(trace.filter(~adopts), baseline)
    n_green = right_size(trace.filter(adopts), greensku, adoption)
    if n_base or n_green:
        fits = _memoized(
            lambda nb, ng: feasible(
                trace,
                ClusterSpec.of((baseline, nb), (greensku, ng)),
                adoption,
            )
        )
        while not fits(n_base, n_green):
            n_green += 1
            if n_base + n_green > MAX_SERVERS:
                raise SizingError(
                    f"mixed sizing for {trace.name} exceeded {MAX_SERVERS}"
                )
        trimmed = True
        while trimmed:
            trimmed = False
            while n_base > 0 and fits(n_base - 1, n_green):
                n_base -= 1
                trimmed = True
            while n_green > 0 and fits(n_base, n_green - 1):
                n_green -= 1
                trimmed = True
    return ClusterSizing(
        baseline_only_servers=n_reference,
        mixed_baseline_servers=n_base,
        mixed_green_servers=n_green,
    )


def size_generation_aware(
    trace: VmTrace,
    baselines: Mapping[int, ServerSKU],
    greensku: ServerSKU,
    adoption: AdoptionPolicy,
) -> GenerationAwareSizing:
    """Reference sizing for ``repro.gsf.sizing.size_generation_aware``.

    Right-sizes each generation's sub-trace for the reference, and each
    generation's rest partition and the adopters for the mixed cluster.
    Grows GreenSKUs until the full trace fits, then trims each
    generation's baselines in turn and GreenSKUs second, probing every
    count tuple by simulation.  The rule: a generation with
    baseline-bound VMs (non-adopters or full-node VMs) is never trimmed
    below one server, so its VMs run on its own servers, as in the
    reference.
    """
    generations = sorted(baselines)
    skus = [baselines[gen] for gen in generations] + [greensku]
    adopts = np.array(
        [
            not vm.full_node
            and adoption(vm.app_name, vm.generation) is not None
            for vm in trace.vms
        ],
        dtype=np.bool_,
    )
    gens = np.array([vm.generation for vm in trace.vms], dtype=np.int64)
    reference = {
        gen: right_size(trace.filter(gens == gen), baselines[gen])
        for gen in generations
    }
    rest = {gen: ~adopts & (gens == gen) for gen in generations}
    mixed = {
        gen: right_size(trace.filter(rest[gen]), baselines[gen])
        for gen in generations
    }
    floor = {gen: int(rest[gen].any()) for gen in generations}
    n_green = right_size(trace.filter(adopts), greensku, adoption)
    fits = _memoized(
        lambda *counts: feasible(
            trace, ClusterSpec.of(*zip(skus, counts)), adoption
        )
    )

    def feasible_at(counts: Mapping[int, int], ng: int) -> bool:
        return fits(*(counts[gen] for gen in generations), ng)

    while not feasible_at(mixed, n_green):
        n_green += 1
        if sum(mixed.values()) + n_green > MAX_SERVERS:
            raise SizingError(
                f"generation-aware sizing for {trace.name} exceeded "
                f"{MAX_SERVERS}"
            )
    trimmed = True
    while trimmed:
        trimmed = False
        for gen in generations:
            while mixed[gen] > floor[gen]:
                candidate = dict(mixed)
                candidate[gen] -= 1
                if not feasible_at(candidate, n_green):
                    break
                mixed = candidate
                trimmed = True
        while n_green > 0 and feasible_at(mixed, n_green - 1):
            n_green -= 1
            trimmed = True
    return GenerationAwareSizing(
        reference_by_gen=reference,
        mixed_baselines_by_gen=mixed,
        mixed_green_servers=n_green,
    )
