"""Scalar trace generation, the oracle for ``repro.allocation.traces``.

The production generator draws in blocks and assembles columns; this
one-VM-at-a-time loop is the original implementation.  Its draw schedule
defines the trace content, so it must not change: the block generator is
held to the bit-identical VM stream it produces.
"""

from __future__ import annotations

import math
from typing import List, Optional, Tuple

import numpy as np

from repro.allocation.traces import (
    TraceParams,
    VmTrace,
    _app_tables,
    suite_specs,
)
from repro.allocation.vm import VmRequest
from repro.core.rng import RngFactory

#: Full-node VM shape per generation: (cores, GB per core).
_FULL_NODE_SHAPES = {1: (64, 6.0), 2: (64, 8.0), 3: (80, 9.6)}


def _assign_app(rng: np.random.Generator) -> str:
    """Sample an application the paper's way: class share, then uniform."""
    apps = _app_tables()
    members = apps.members[rng.choice(apps.n_classes, p=apps.shares)]
    return members[rng.integers(len(members))]


def generate_vms(seed: int, params: TraceParams) -> Tuple[VmRequest, ...]:
    """The scalar reference generator: one VM, one draw at a time."""
    rngs = RngFactory(seed).child("vm-trace")
    arr_rng = rngs.stream("arrivals")
    size_rng = rngs.stream("sizes")
    life_rng = rngs.stream("lifetimes")
    meta_rng = rngs.stream("metadata")
    gen_mix = np.asarray(params.generation_mix, dtype=np.float64)

    duration_hours = params.duration_days * 24.0
    base_rate = params.arrival_rate_per_hour
    vms: List[VmRequest] = []
    vm_id = 0

    # Seed the steady-state population present at t=0.  At steady state a
    # running VM is long-lived with probability proportional to lifetime
    # (length-biasing), and exponential residual lifetimes are memoryless,
    # so residuals draw from the same distributions.
    initial_count = int(life_rng.poisson(params.mean_concurrent_vms))
    p_long_present = (
        params.long_lived_fraction
        * params.long_lifetime_hours
        / params.mean_lifetime_hours
    )
    for _ in range(initial_count):
        cores = int(
            params.core_sizes[
                size_rng.choice(
                    len(params.core_sizes), p=params.core_size_weights
                )
            ]
        )
        gb_per_core = params.memory_per_core_gb[
            size_rng.choice(
                len(params.memory_per_core_gb),
                p=params.memory_per_core_weights,
            )
        ]
        if life_rng.random() < p_long_present:
            lifetime = life_rng.exponential(params.long_lifetime_hours)
        else:
            lifetime = life_rng.exponential(params.short_lifetime_hours)
        vms.append(
            VmRequest(
                vm_id=vm_id,
                arrival_hours=0.0,
                lifetime_hours=max(lifetime, 0.05),
                cores=cores,
                memory_gb=cores * gb_per_core,
                generation=int(1 + meta_rng.choice(3, p=gen_mix)),
                app_name=_assign_app(meta_rng),
                max_memory_fraction=float(
                    meta_rng.beta(
                        params.mem_touch_alpha, params.mem_touch_beta
                    )
                ),
                full_node=False,
            )
        )
        vm_id += 1

    t = 0.0
    while True:
        # Thinning for the diurnal profile: propose at the peak rate,
        # accept with the instantaneous relative intensity.
        peak_rate = base_rate * (1.0 + params.diurnal_amplitude)
        t += arr_rng.exponential(1.0 / peak_rate)
        if t >= duration_hours:
            break
        intensity = 1.0 + params.diurnal_amplitude * math.sin(
            2.0 * math.pi * t / 24.0
        )
        if arr_rng.random() > intensity / (1.0 + params.diurnal_amplitude):
            continue

        cores = int(
            params.core_sizes[
                size_rng.choice(
                    len(params.core_sizes), p=params.core_size_weights
                )
            ]
        )
        gb_per_core = params.memory_per_core_gb[
            size_rng.choice(
                len(params.memory_per_core_gb),
                p=params.memory_per_core_weights,
            )
        ]
        generation = int(1 + meta_rng.choice(3, p=gen_mix))
        full_node = bool(meta_rng.random() < params.full_node_fraction)
        if full_node:
            # Long-living full-node VMs request their generation's whole
            # server shape and hold it for weeks.
            cores, gb_per_core = _FULL_NODE_SHAPES[generation]
            lifetime = life_rng.exponential(params.full_node_lifetime_hours)
        elif life_rng.random() < params.long_lived_fraction:
            lifetime = life_rng.exponential(params.long_lifetime_hours)
        else:
            lifetime = life_rng.exponential(params.short_lifetime_hours)
        lifetime = max(lifetime, 0.05)

        vms.append(
            VmRequest(
                vm_id=vm_id,
                arrival_hours=t,
                lifetime_hours=lifetime,
                cores=cores,
                memory_gb=cores * gb_per_core,
                generation=generation,
                app_name=_assign_app(meta_rng),
                max_memory_fraction=float(
                    meta_rng.beta(params.mem_touch_alpha, params.mem_touch_beta)
                ),
                full_node=full_node,
            )
        )
        vm_id += 1
    return tuple(vms)


def generate_trace(
    seed: int,
    params: Optional[TraceParams] = None,
    name: Optional[str] = None,
) -> VmTrace:
    """Reference twin of :func:`repro.allocation.traces.generate_trace`."""
    params = params or TraceParams()
    return VmTrace(
        name=name or f"trace-{seed}",
        params=params,
        vms=generate_vms(seed, params),
    )


def production_trace_suite(
    count: int = 35,
    base_seed: int = 100,
    params: Optional[TraceParams] = None,
) -> List[VmTrace]:
    """Reference twin of ``production_trace_suite`` (no store, serial)."""
    return [
        generate_trace(seed, trace_params, name)
        for seed, trace_params, name in suite_specs(
            count=count, base_seed=base_seed, params=params
        )
    ]
