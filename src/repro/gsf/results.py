"""Typed result records for GSF evaluations."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from ..carbon.model import SkuAssessment
from .buffer import BufferPlan
from .sizing import ClusterSizing


@dataclass(frozen=True)
class DeploymentEmissions:
    """Lifetime emissions of one deployed cluster configuration.

    Attributes:
        baseline_servers: Deployed baseline servers (serving + OOS
            overhead + buffer).
        green_servers: Deployed GreenSKUs (serving + OOS overhead).
        baseline_kg: Lifetime kgCO2e attributed to the baseline servers.
        green_kg: Lifetime kgCO2e attributed to the GreenSKUs.
    """

    baseline_servers: float
    green_servers: float
    baseline_kg: float
    green_kg: float

    @property
    def total_kg(self) -> float:
        return self.baseline_kg + self.green_kg

    @property
    def total_servers(self) -> float:
        return self.baseline_servers + self.green_servers


@dataclass(frozen=True)
class GsfEvaluation:
    """End-to-end GSF output for one GreenSKU on one workload trace.

    Attributes:
        greensku_name: The evaluated GreenSKU.
        trace_name: The workload.
        carbon_intensity: Grid carbon intensity used (kgCO2e/kWh).
        sizing: Cluster sizing component output.
        buffer: Growth buffer plan (baseline-only policy).
        reference: Emissions of the all-baseline deployment.
        mixed: Emissions of the GreenSKU deployment.
        cluster_savings: Fractional cluster-level carbon savings.
        dc_savings: Fractional net data-center savings (cluster savings
            scaled by compute's share of DC emissions).
        adopted_core_hour_share: Fleet core-hour share that adopts.
        baseline_assessment / green_assessment: Per-core carbon detail.
    """

    greensku_name: str
    trace_name: str
    carbon_intensity: float
    sizing: ClusterSizing
    buffer: BufferPlan
    reference: DeploymentEmissions
    mixed: DeploymentEmissions
    adopted_core_hour_share: float
    baseline_assessment: SkuAssessment
    green_assessment: SkuAssessment

    @property
    def cluster_savings(self) -> float:
        """Fractional savings of the mixed cluster vs the reference."""
        if self.reference.total_kg == 0:
            return 0.0
        return 1.0 - self.mixed.total_kg / self.reference.total_kg

    def dc_savings(self, compute_share: float) -> float:
        """Net data-center savings given compute's share of DC emissions."""
        return self.cluster_savings * compute_share

    def to_payload(self) -> Dict[str, object]:
        """A JSON-ready dict of this evaluation (the catalog's storage form).

        Everything numeric that the sweep service publishes: the scalar
        identity fields, the sizing counts, the buffer, both deployments'
        server counts and emissions, and the derived savings.  Floats are
        stored as-is (canonical-JSON ``repr`` round-trips them exactly),
        so re-encoding an unchanged evaluation is byte-identical.
        """
        def emissions(dep: DeploymentEmissions) -> Dict[str, float]:
            return {
                "baseline_servers": dep.baseline_servers,
                "green_servers": dep.green_servers,
                "baseline_kg": dep.baseline_kg,
                "green_kg": dep.green_kg,
                "total_kg": dep.total_kg,
            }

        return {
            "greensku": self.greensku_name,
            "trace": self.trace_name,
            "carbon_intensity": self.carbon_intensity,
            "sizing": {
                "baseline_only_servers": self.sizing.baseline_only_servers,
                "mixed_baseline_servers": self.sizing.mixed_baseline_servers,
                "mixed_green_servers": self.sizing.mixed_green_servers,
                "oos_overhead_baseline": self.sizing.oos_overhead_baseline,
                "oos_overhead_green": self.sizing.oos_overhead_green,
            },
            "buffer": {
                "baseline_buffer_servers": self.buffer.baseline_buffer_servers,
                "green_buffer_servers": self.buffer.green_buffer_servers,
            },
            "reference": emissions(self.reference),
            "mixed": emissions(self.mixed),
            "adopted_core_hour_share": self.adopted_core_hour_share,
            "cluster_savings": self.cluster_savings,
        }


@dataclass(frozen=True)
class IntensitySweepPoint:
    """One point of a Fig.-11-style carbon-intensity sweep."""

    carbon_intensity: float
    savings_by_sku: Dict[str, float]

    def best_sku(self) -> Tuple[str, float]:
        """The GreenSKU with the highest savings at this intensity."""
        name = max(self.savings_by_sku, key=self.savings_by_sku.get)
        return name, self.savings_by_sku[name]
