"""Pond-style CXL memory tiering (paper Section III).

The paper mitigates CXL-induced slowdowns with Pond's approach (Li et al.,
ASPLOS 2023):

- hardware counters identify applications that can run *entirely* on CXL
  memory without a slowdown (compute/network-bound);
- for every other VM, a prediction model finds *untouched* memory — on
  average almost half of a VM's allocation — and places only that on
  CXL-attached DDR4, exposed as a zero-core virtual NUMA node the guest
  never touches;
- the result: 98% of applications incur <5% slowdown with CXL.

This module implements that tiering policy: per-VM local/CXL splits
(:func:`cxl_share`, the rule both the planner and the allocation replay
read), the eligibility decision, and the resulting effective slowdown —
the bridge between the application profiles' measured ``cxl_slowdown``
(the *unmitigated* penalty when hot memory rides on CXL, as in Fig. 8)
and the near-zero penalty the deployed system achieves.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..core.errors import ConfigError
from .apps import ApplicationProfile

#: Safety margin the predictor keeps below the VM's maximum touched
#: fraction: predicted-untouched memory is only declared untouched if the
#: VM's observed maximum footprint stays this far below it.
DEFAULT_PREDICTION_MARGIN = 0.10

#: Slowdown bound the paper reports for mitigated VMs ("98% of
#: applications incur <5% slowdown with CXL").
MITIGATED_SLOWDOWN_BOUND = 1.05


@dataclass(frozen=True)
class TieringPlan:
    """How one VM's memory is split between local DDR5 and CXL DDR4.

    Attributes:
        vm_memory_gb: The VM's allocated memory.
        local_gb: Memory served from directly-attached DDR5.
        cxl_gb: Memory served from CXL-attached DDR4 (the zero-core
            virtual NUMA node for mitigated VMs, or everything for
            fully-CXL-backed tolerant VMs).
        fully_cxl_backed: True when the whole VM runs from CXL memory
            (only chosen for CXL-tolerant applications).
        effective_slowdown: Multiplicative service-time inflation the VM
            experiences under this plan (1.0 = none).
    """

    vm_memory_gb: float
    local_gb: float
    cxl_gb: float
    fully_cxl_backed: bool
    effective_slowdown: float

    def __post_init__(self) -> None:
        if self.local_gb < 0 or self.cxl_gb < 0:
            raise ConfigError("tier sizes must be >= 0")
        total = self.local_gb + self.cxl_gb
        if abs(total - self.vm_memory_gb) > 1e-6:
            raise ConfigError(
                f"tier sizes ({total}) must sum to the VM's memory "
                f"({self.vm_memory_gb})"
            )
        if self.effective_slowdown < 1.0:
            raise ConfigError("slowdown must be >= 1.0")

    @property
    def cxl_fraction(self) -> float:
        """Share of the VM's memory behind CXL."""
        return self.cxl_gb / self.vm_memory_gb if self.vm_memory_gb else 0.0


def predicted_untouched_fraction(
    max_memory_fraction: float,
    margin: float = DEFAULT_PREDICTION_MARGIN,
) -> float:
    """Fraction of a VM's memory the predictor declares untouched.

    ``max_memory_fraction`` is the largest share of its allocation the VM
    ever touches (available in the traces; estimated online from hardware
    counters in production).  The predictor keeps a safety margin so that
    a prediction miss — the guest touching more than foreseen — stays
    rare.

    >>> predicted_untouched_fraction(0.5, margin=0.1)
    0.4
    >>> predicted_untouched_fraction(1.0)
    0.0
    """
    if not 0 <= max_memory_fraction <= 1:
        raise ConfigError("max memory fraction must be in [0, 1]")
    if not 0 <= margin < 1:
        raise ConfigError("margin must be in [0, 1)")
    return max(0.0, 1.0 - max_memory_fraction - margin)


def cxl_share(
    app: ApplicationProfile,
    max_memory_fraction: float,
    server_cxl_fraction: float,
    margin: float = DEFAULT_PREDICTION_MARGIN,
) -> float:
    """Share of a VM's memory Pond places on CXL.

    1.0 for a CXL-tolerant application (it runs entirely CXL-backed);
    otherwise the predicted-untouched fraction, capped by the server's
    CXL fraction.  ``vm_memory_gb * cxl_share(...)`` is
    :func:`plan_tiering`'s ``cxl_gb`` bit for bit: the planner takes its
    split from here.  Unlike the planner it builds no plan and checks
    only what :func:`predicted_untouched_fraction` checks, so the
    allocation replay can call it on every placement.

    >>> from repro.perf.apps import get_app
    >>> cxl_share(get_app("Redis"), 0.5, 0.25)
    1.0
    >>> cxl_share(get_app("Moses"), 0.5, 0.25)
    0.25
    """
    if app.cxl_tolerant:
        return 1.0
    return min(
        predicted_untouched_fraction(max_memory_fraction, margin),
        server_cxl_fraction,
    )


def plan_tiering(
    app: ApplicationProfile,
    vm_memory_gb: float,
    max_memory_fraction: float,
    server_cxl_fraction: float = 0.25,
    margin: float = DEFAULT_PREDICTION_MARGIN,
) -> TieringPlan:
    """Pond's placement decision for one VM.

    Args:
        app: The VM's application profile (supplies CXL tolerance and the
            unmitigated slowdown).
        vm_memory_gb: The VM's memory allocation.
        max_memory_fraction: Largest share of its allocation the VM ever
            touches (trace-supplied).
        server_cxl_fraction: Share of the *server's* memory behind CXL —
            caps how much of the VM can ride on CXL (GreenSKU-CXL: 25%).
        margin: Untouched-memory prediction safety margin.

    Policy, per the paper:

    1. CXL-tolerant applications run entirely CXL-backed (no slowdown) —
       these are how the reused DIMMs earn their keep.
    2. Everyone else gets only *predicted-untouched* memory on CXL, which
       the guest never references, so the effective slowdown is ~1.0
       (bounded by :data:`MITIGATED_SLOWDOWN_BOUND` for prediction
       misses).
    """
    if vm_memory_gb <= 0:
        raise ConfigError("VM memory must be > 0")
    if not 0 <= server_cxl_fraction <= 1:
        raise ConfigError("server CXL fraction must be in [0, 1]")

    share = cxl_share(app, max_memory_fraction, server_cxl_fraction, margin)
    cxl_gb = vm_memory_gb * share
    if app.cxl_tolerant:
        return TieringPlan(
            vm_memory_gb=vm_memory_gb,
            local_gb=0.0,
            cxl_gb=cxl_gb,
            fully_cxl_backed=True,
            effective_slowdown=1.0,
        )

    untouched = predicted_untouched_fraction(max_memory_fraction, margin)
    # Untouched memory is never referenced; the residual slowdown models
    # occasional prediction misses, scaled by how aggressively the
    # predictor tiered relative to the truly untouched headroom.
    if untouched > 0:
        miss_exposure = share / (untouched + margin)
    else:
        miss_exposure = 0.0
    residual = 1.0 + miss_exposure * (
        min(app.cxl_slowdown, MITIGATED_SLOWDOWN_BOUND) - 1.0
    ) * 0.5
    return TieringPlan(
        vm_memory_gb=vm_memory_gb,
        local_gb=vm_memory_gb - cxl_gb,
        cxl_gb=cxl_gb,
        fully_cxl_backed=False,
        effective_slowdown=residual,
    )


def mitigated_share(
    apps,
    slowdown_bound: float = MITIGATED_SLOWDOWN_BOUND,
    server_cxl_fraction: float = 0.25,
    typical_max_memory_fraction: float = 0.55,
) -> float:
    """Share of applications whose mitigated slowdown stays in bound.

    The paper: "This approach ensures that 98% of applications incur <5%
    slowdown with CXL."
    """
    total = 0
    within = 0
    for app in apps:
        total += 1
        plan = plan_tiering(
            app,
            vm_memory_gb=32.0,
            max_memory_fraction=typical_max_memory_fraction,
            server_cxl_fraction=server_cxl_fraction,
        )
        if plan.effective_slowdown <= slowdown_bound + 1e-9:
            within += 1
    return within / total if total else 0.0
