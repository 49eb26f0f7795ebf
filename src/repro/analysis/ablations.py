"""Ablation studies for the design choices DESIGN.md calls out.

Each function isolates one GSF design decision and quantifies what it
buys, using the same substrates as the main evaluation:

- placement heuristic (production best-fit vs first-fit vs worst-fit),
- Fail-In-Place effectiveness (the paper assumes a conservative 75%),
- the adoption rule (carbon-aware vs performance-only vs always-adopt),
- the growth-buffer policy (the paper's baseline-only single buffer vs a
  per-SKU proportional dual buffer),
- the share of memory behind CXL (GreenSKU-CXL fixes it at 25%).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

from ..allocation.cluster import ClusterSpec, adopt_nothing, simulate
from ..allocation.scheduler import PLACEMENT_POLICIES
from ..allocation.traces import VmTrace
from ..carbon.model import CarbonModel
from ..core.errors import ConfigError
from ..core.resilience import drop_failures, resilient_map
from ..gsf.buffer import baseline_only_buffer, proportional_dual_buffer
from ..gsf.framework import Gsf
from ..gsf.sizing import right_size, size_mixed_cluster
from ..hardware import catalog
from ..hardware.sku import ServerSKU, baseline_gen3, greensku_full
from ..hardware.sku import _platform_parts
from ..reliability.afr import server_afr


# -- placement policy ---------------------------------------------------------


@dataclass(frozen=True)
class PlacementAblation:
    """Right-size and packing density under one placement heuristic."""

    policy: str
    servers_needed: int
    mean_core_density: float
    mean_memory_density: float


def _placement_one(
    policy: str, trace: VmTrace, sku: ServerSKU, bestfit_n: int
) -> PlacementAblation:
    """One placement heuristic's sizing + density (worker entry)."""

    def feasible(n: int) -> bool:
        out = simulate(
            trace,
            ClusterSpec.of((sku, n)),
            adoption=adopt_nothing,
            snapshot_hours=1e9,
            policy=policy,
        )
        return out.feasible

    # The best-fit right-size is a lower bound for bracketing.
    n = bestfit_n
    while not feasible(n):
        n += 1
    outcome = simulate(
        trace,
        ClusterSpec.of((sku, n)),
        adoption=adopt_nothing,
        snapshot_hours=6.0,
        policy=policy,
    )
    return PlacementAblation(
        policy=policy,
        servers_needed=n,
        mean_core_density=outcome.baseline_stats.mean_core_density,
        mean_memory_density=outcome.baseline_stats.mean_memory_density,
    )


def placement_policy_ablation(
    trace: VmTrace,
    sku: Optional[ServerSKU] = None,
    policies: Sequence[str] = PLACEMENT_POLICIES,
    jobs: Optional[int] = None,
) -> List[PlacementAblation]:
    """How much the production best-fit rules buy over naive placement.

    For each heuristic: the minimum cluster size hosting the trace and
    the achieved packing density at that size.  Policies evaluate
    independently, so they fan out over ``jobs`` worker processes under
    the run settings' resilience policy; under the CLI's ``--keep-going`` a
    policy whose task failed is dropped from the result.
    """
    sku = sku or baseline_gen3()
    bestfit_n = right_size(trace, sku)
    return drop_failures(resilient_map(
        functools.partial(
            _placement_one, trace=trace, sku=sku, bestfit_n=bestfit_n
        ),
        list(policies),
        jobs=jobs,
    ))


# -- Fail-In-Place ------------------------------------------------------------


@dataclass(frozen=True)
class FipAblation:
    """Repair rates at one FIP effectiveness level."""

    effectiveness: float
    baseline_repair_rate: float
    greensku_repair_rate: float

    @property
    def greensku_overhead(self) -> float:
        """GreenSKU-Full's repair-rate premium over the baseline."""
        return self.greensku_repair_rate - self.baseline_repair_rate


def fip_sweep(
    effectiveness_levels: Sequence[float] = (0.0, 0.25, 0.5, 0.75, 1.0),
) -> List[FipAblation]:
    """How Fail-In-Place effectiveness shrinks GreenSKU-Full's repair
    premium (the paper assumes a conservative 75%)."""
    base_afr = server_afr(baseline_gen3())
    green_afr = server_afr(greensku_full())
    return [
        FipAblation(
            effectiveness=e,
            baseline_repair_rate=base_afr.repair_rate(e),
            greensku_repair_rate=green_afr.repair_rate(e),
        )
        for e in effectiveness_levels
    ]


# -- adoption rule -------------------------------------------------------------


@dataclass(frozen=True)
class AdoptionAblation:
    """Cluster savings under one adoption rule."""

    rule: str
    cluster_savings: float
    green_servers: int
    baseline_servers: int


#: The adoption rules the ablation compares (worker processes rebuild the
#: policy callables from these names — closures do not pickle).
ADOPTION_RULES = ("carbon-aware", "performance-only", "always")


def adoption_policy(rule: str, gsf: Gsf, greensku: ServerSKU) -> Callable:
    """Build the adoption-policy callable for one named rule.

    The returned policy has the `(app_name, generation) -> Optional[float]`
    shape `size_mixed_cluster` expects.  Workers rebuild policies from
    the rule name (closures do not pickle); the sweep driver
    (`repro.catalog.sweep`) reuses this as the adoption axis.
    """
    model = gsf.adoption_model(greensku)
    if rule == "carbon-aware":
        return model.policy()
    if rule == "performance-only":

        def performance_only(app_name: str, generation: int):
            factor = model.decide(app_name, generation).scaling_factor
            return factor if math.isfinite(factor) else None

        return performance_only
    if rule == "always":
        return lambda app_name, generation: 1.0
    raise ConfigError(f"unknown adoption rule {rule!r}")


def _adoption_rule_one(
    rule: str, trace: VmTrace, gsf: Gsf, greensku: ServerSKU
) -> AdoptionAblation:
    """One adoption rule's mixed sizing + savings (worker entry)."""
    policy = adoption_policy(rule, gsf, greensku)
    sizing = size_mixed_cluster(trace, gsf.baseline, greensku, policy)
    e_base = gsf.carbon_model.assess(gsf.baseline).per_server_total_kg
    e_green = gsf.carbon_model.assess(greensku).per_server_total_kg
    reference = sizing.baseline_only_servers * e_base
    mixed = (
        sizing.mixed_baseline_servers * e_base
        + sizing.mixed_green_servers * e_green
    )
    return AdoptionAblation(
        rule=rule,
        cluster_savings=1 - mixed / reference if reference else 0.0,
        green_servers=sizing.mixed_green_servers,
        baseline_servers=sizing.mixed_baseline_servers,
    )


def adoption_rule_ablation(
    trace: VmTrace,
    gsf: Optional[Gsf] = None,
    greensku: Optional[ServerSKU] = None,
    jobs: Optional[int] = None,
) -> List[AdoptionAblation]:
    """Carbon-aware adoption vs two naive rules.

    - ``carbon-aware``: the paper's rule (adopt iff the GreenSKU meets the
      SLO *and* saves carbon after scaling).
    - ``performance-only``: adopt whenever the SLO can be met (ignores
      the carbon cost of scaling).
    - ``always``: adopt everything unscaled (ignores SLOs entirely) — an
      upper bound on GreenSKU utilization that breaks performance goals.

    Each rule's full sizing search is independent; they fan out over
    ``jobs`` worker processes in rule order, under the run settings'
    resilience policy (a rule whose task failed under ``--keep-going``
    is dropped).
    """
    gsf = gsf or Gsf()
    greensku = greensku or greensku_full()
    return drop_failures(resilient_map(
        functools.partial(
            _adoption_rule_one, trace=trace, gsf=gsf, greensku=greensku
        ),
        list(ADOPTION_RULES),
        jobs=jobs,
    ))


# -- growth buffer --------------------------------------------------------------


@dataclass(frozen=True)
class BufferAblation:
    """Buffer carbon under one buffer policy."""

    policy: str
    baseline_buffer_servers: int
    green_buffer_servers: int
    buffer_carbon_kg: float


def buffer_policy_ablation(
    baseline_serving: int,
    green_serving: int,
    model: Optional[CarbonModel] = None,
    buffer_fraction: float = 0.15,
) -> List[BufferAblation]:
    """The paper's single baseline-only buffer vs a dual buffer.

    The single buffer is deployable without GreenSKU demand history but
    pays for being all-baseline; the dual buffer is cheaper in carbon but
    needs per-SKU forecasts.
    """
    model = model or CarbonModel()
    baseline, greensku = baseline_gen3(), greensku_full()
    e_base = model.assess(baseline).per_server_total_kg
    e_green = model.assess(greensku).per_server_total_kg
    serving_cores = (
        baseline_serving * baseline.cores + green_serving * greensku.cores
    )
    single = baseline_only_buffer(
        serving_cores, baseline.cores, buffer_fraction
    )
    dual = proportional_dual_buffer(
        baseline_serving * baseline.cores,
        green_serving * greensku.cores,
        baseline.cores,
        greensku.cores,
        buffer_fraction,
    )
    return [
        BufferAblation(
            policy="baseline-only (paper)",
            baseline_buffer_servers=single.baseline_buffer_servers,
            green_buffer_servers=0,
            buffer_carbon_kg=single.baseline_buffer_servers * e_base,
        ),
        BufferAblation(
            policy="proportional dual",
            baseline_buffer_servers=dual.baseline_buffer_servers,
            green_buffer_servers=dual.green_buffer_servers,
            buffer_carbon_kg=(
                dual.baseline_buffer_servers * e_base
                + dual.green_buffer_servers * e_green
            ),
        ),
    ]


# -- CXL fraction ---------------------------------------------------------------


@dataclass(frozen=True)
class CxlFractionAblation:
    """Per-core carbon at one reused-DDR4 share."""

    cxl_dimms: int
    cxl_fraction: float
    total_per_core: float
    savings_vs_baseline: float


def cxl_fraction_sweep(
    dimm_counts: Sequence[int] = (0, 4, 8, 12, 16),
    model: Optional[CarbonModel] = None,
) -> List[CxlFractionAblation]:
    """Sweep how much memory rides behind CXL on reused DDR4.

    Each reused DIMM removes embodied carbon but adds controller power;
    GreenSKU-CXL's 8 DIMMs (25%) sit near the knee under the default
    carbon intensity.  Total capacity is held at 1024 GB where possible
    by trading 64 GB DDR5 DIMMs for pairs of 32 GB DDR4 DIMMs.
    """
    model = model or CarbonModel()
    baseline_per_core = model.assess(baseline_gen3()).total_per_core
    results = []
    for cxl_dimms in dimm_counts:
        if cxl_dimms % 2:
            raise ConfigError("cxl_dimms must be even (pairs replace DDR5)")
        ddr5 = 16 - cxl_dimms // 2
        controllers = (cxl_dimms + 3) // 4
        parts = [
            (catalog.BERGAMO, 1),
            (catalog.DDR5_64GB, ddr5),
            (catalog.SSD_4TB_NEW, 5),
        ]
        if cxl_dimms:
            parts += [
                (catalog.DDR4_32GB_REUSED, cxl_dimms),
                (catalog.CXL_CONTROLLER, controllers),
            ]
        sku = ServerSKU.build(
            f"CXL-sweep-{cxl_dimms}", parts + _platform_parts()
        )
        per_core = model.assess(sku).total_per_core
        results.append(
            CxlFractionAblation(
                cxl_dimms=cxl_dimms,
                cxl_fraction=sku.cxl_fraction,
                total_per_core=per_core,
                savings_vs_baseline=1 - per_core / baseline_per_core,
            )
        )
    return results
