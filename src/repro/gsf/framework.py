"""The GreenSKU Framework (GSF): end-to-end orchestration (Section IV).

``Gsf`` wires the seven components together the way Fig. 6 draws them:

- the **carbon model** prices every SKU to CO2e-per-core,
- the **performance** component supplies per-app scaling factors,
- the **maintenance** component supplies out-of-service overheads,
- the **adoption** component decides which apps run on the GreenSKU,
- the **VM allocation** simulator checks whether a cluster hosts a trace,
- the **cluster sizing** search right-sizes baseline and mixed clusters,
- the **growth buffer** adds baseline-SKU headroom.

The final output compares the lifetime emissions of the GreenSKU
deployment against an all-baseline deployment serving the same VM trace:
cluster-level savings, and net data-center savings after weighting by
compute's share of DC emissions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..allocation.traces import VmTrace
from ..carbon.model import CarbonModel
from ..core import telemetry
from ..core.checks import check_finite
from ..hardware.datacenter import DataCenterConfig
from ..hardware.rack import RackConfig
from ..hardware.sku import ServerSKU, all_greenskus, baseline_gen3
from ..reliability.afr import DEFAULT_FIP_EFFECTIVENESS, server_afr
from ..reliability.maintenance import (
    DEFAULT_REPAIR_TIME_DAYS,
    out_of_service_fraction,
)
from .adoption import AdoptionModel, default_baseline_skus
from .buffer import DEFAULT_BUFFER_FRACTION, baseline_only_buffer
from .results import DeploymentEmissions, GsfEvaluation, IntensitySweepPoint
from .sizing import (
    ClusterSizing,
    GenerationAwareSizing,
    size_generation_aware,
    size_mixed_cluster,
)


@dataclass(frozen=True)
class GsfConfig:
    """GSF inputs (the yellow boxes of Fig. 6).

    Attributes:
        datacenter: Facility parameters (lifetime, CI, PUE, ...).
        rack: Rack constraints.
        fip_effectiveness: Fail-In-Place effectiveness for DIMM/SSD.
        repair_time_days: Average repair turnaround.
        buffer_fraction: Growth-buffer headroom over serving capacity.
        cxl_scaling: Derive scaling factors with the CXL latency penalty
            applied (False: the paper's Pond-style mitigation keeps CXL
            off the critical path for non-tolerant apps).
    """

    datacenter: DataCenterConfig = field(default_factory=DataCenterConfig)
    rack: RackConfig = field(default_factory=RackConfig)
    fip_effectiveness: float = DEFAULT_FIP_EFFECTIVENESS
    repair_time_days: float = DEFAULT_REPAIR_TIME_DAYS
    buffer_fraction: float = DEFAULT_BUFFER_FRACTION
    cxl_scaling: bool = False

    def __post_init__(self) -> None:
        check_finite(
            self.fip_effectiveness, "FIP effectiveness", at_least=0, at_most=1
        )
        check_finite(self.repair_time_days, "repair time (days)", at_least=0)
        check_finite(
            self.buffer_fraction, "buffer fraction", at_least=0, below=1
        )


class Gsf:
    """Evaluates GreenSKUs' carbon savings at data-center scale.

    Example::

        gsf = Gsf()
        trace = generate_trace(seed=1)
        result = gsf.evaluate(greensku_full(), trace)
        print(f"cluster savings: {result.cluster_savings:.1%}")
    """

    def __init__(
        self,
        config: Optional[GsfConfig] = None,
        baseline: Optional[ServerSKU] = None,
        baselines: Optional[Dict[int, ServerSKU]] = None,
    ):
        self.config = config or GsfConfig()
        self.baseline = baseline or baseline_gen3()
        self.baselines = baselines or default_baseline_skus()
        self.carbon_model = CarbonModel(self.config.datacenter, self.config.rack)

    # -- component plumbing -------------------------------------------------

    def adoption_model(self, greensku: ServerSKU) -> AdoptionModel:
        """The adoption component for one GreenSKU under this config."""
        return AdoptionModel(
            self.carbon_model,
            greensku,
            baselines=self.baselines,
            cxl=self.config.cxl_scaling,
        )

    def oos_fraction(self, sku: ServerSKU) -> float:
        """Maintenance component: out-of-service fraction for one SKU."""
        repair_rate = server_afr(sku).repair_rate(self.config.fip_effectiveness)
        return out_of_service_fraction(
            repair_rate, self.config.repair_time_days
        )

    # -- end-to-end evaluation ------------------------------------------------

    def evaluate(
        self,
        greensku: ServerSKU,
        trace: VmTrace,
        sizing: Optional[ClusterSizing] = None,
    ) -> GsfEvaluation:
        """Estimate the GreenSKU deployment's savings on one trace.

        Args:
            greensku: The GreenSKU to evaluate.
            trace: VM workload.
            sizing: Reuse a precomputed sizing (e.g. across a carbon-
                intensity sweep where adoption decisions did not change).
        """
        with telemetry.span("gsf.adoption"):
            adoption = self.adoption_model(greensku)
            adopted_share = adoption.adopted_core_hour_share()

        with telemetry.span("gsf.sizing"):
            if sizing is None:
                sizing = size_mixed_cluster(
                    trace, self.baseline, greensku, adoption.policy()
                )

        with telemetry.span("gsf.maintenance"):
            sizing_with_oos = ClusterSizing(
                baseline_only_servers=sizing.baseline_only_servers,
                mixed_baseline_servers=sizing.mixed_baseline_servers,
                mixed_green_servers=sizing.mixed_green_servers,
                oos_overhead_baseline=self.oos_fraction(self.baseline),
                oos_overhead_green=self.oos_fraction(greensku),
            )

        with telemetry.span("gsf.buffer"):
            # Both deployments get a baseline-only buffer (the paper's
            # single-buffer workaround).
            ref_buffer = baseline_only_buffer(
                sizing_with_oos.baseline_only_servers * self.baseline.cores,
                self.baseline.cores,
                self.config.buffer_fraction,
            )
            serving_cores = (
                sizing_with_oos.mixed_baseline_servers * self.baseline.cores
                + sizing_with_oos.mixed_green_servers * greensku.cores
            )
            mixed_buffer = baseline_only_buffer(
                serving_cores, self.baseline.cores, self.config.buffer_fraction
            )

        with telemetry.span("gsf.carbon"):
            base_assessment = self.carbon_model.assess(self.baseline)
            green_assessment = self.carbon_model.assess(greensku)
            e_base = base_assessment.per_server_total_kg
            e_green = green_assessment.per_server_total_kg

            # Reference deployment: all-baseline serving + OOS + buffer.
            ref_serving = sizing_with_oos.deployed_baseline_only
            ref_servers = ref_serving + ref_buffer.baseline_buffer_servers
            reference = DeploymentEmissions(
                baseline_servers=ref_servers,
                green_servers=0.0,
                baseline_kg=ref_servers * e_base,
                green_kg=0.0,
            )

            # Mixed deployment: baseline + GreenSKU serving, baseline-only
            # buffer.
            mixed_base, mixed_green = sizing_with_oos.deployed_mixed
            mixed_base_total = (
                mixed_base + mixed_buffer.baseline_buffer_servers
            )
            mixed = DeploymentEmissions(
                baseline_servers=mixed_base_total,
                green_servers=mixed_green,
                baseline_kg=mixed_base_total * e_base,
                green_kg=mixed_green * e_green,
            )

        return GsfEvaluation(
            greensku_name=greensku.name,
            trace_name=trace.name,
            carbon_intensity=(
                self.config.datacenter.carbon_intensity_kg_per_kwh
            ),
            sizing=sizing_with_oos,
            buffer=mixed_buffer,
            reference=reference,
            mixed=mixed,
            adopted_core_hour_share=adopted_share,
            baseline_assessment=base_assessment,
            green_assessment=green_assessment,
        )

    def dc_savings(self, evaluation: GsfEvaluation) -> float:
        """Net data-center savings for an evaluation under this config."""
        return evaluation.dc_savings(
            self.config.datacenter.compute_share_of_dc
        )

    def evaluate_generation_aware(
        self, greensku: ServerSKU, trace: VmTrace
    ) -> "GenerationAwareEvaluation":
        """Savings against a generation-aware reference fleet.

        The default :meth:`evaluate` prices the reference as all-Gen3
        hardware.  The fleet reality the paper describes — old VM images
        keep deploying onto their own hardware generations — is modelled
        here: the reference hosts Gen-g VMs on Gen-g SKUs, and the mixed
        deployment keeps per-generation baseline pools for non-adopters.
        Both fleets follow the same routing rule: a generation with
        baseline-bound VMs (non-adopters or full-node VMs) keeps a pool
        of its own, so those VMs run on their own generation's servers;
        only a generation whose VMs all adopt may end with no pool.
        """
        adoption = self.adoption_model(greensku)
        sizing = size_generation_aware(
            trace, self.baselines, greensku, adoption.policy()
        )
        per_server = {
            gen: self.carbon_model.assess(sku).per_server_total_kg
            * (1 + self.oos_fraction(sku))
            for gen, sku in self.baselines.items()
        }
        e_green = self.carbon_model.assess(greensku).per_server_total_kg * (
            1 + self.oos_fraction(greensku)
        )
        reference_kg = sum(
            sizing.reference_by_gen[gen] * per_server[gen]
            for gen in sizing.reference_by_gen
        )
        mixed_kg = (
            sum(
                sizing.mixed_baselines_by_gen[gen] * per_server[gen]
                for gen in sizing.mixed_baselines_by_gen
            )
            + sizing.mixed_green_servers * e_green
        )
        savings = 1 - mixed_kg / reference_kg if reference_kg else 0.0
        return GenerationAwareEvaluation(
            greensku_name=greensku.name,
            trace_name=trace.name,
            sizing=sizing,
            reference_kg=reference_kg,
            mixed_kg=mixed_kg,
            cluster_savings=savings,
        )

    # -- sweeps ----------------------------------------------------------------

    def at_intensity(self, ci: float) -> "Gsf":
        """A copy of this framework at another grid carbon intensity."""
        new_dc = self.config.datacenter.with_carbon_intensity(ci)
        new_config = GsfConfig(
            datacenter=new_dc,
            rack=self.config.rack,
            fip_effectiveness=self.config.fip_effectiveness,
            repair_time_days=self.config.repair_time_days,
            buffer_fraction=self.config.buffer_fraction,
            cxl_scaling=self.config.cxl_scaling,
        )
        return Gsf(new_config, self.baseline, self.baselines)

    def intensity_sweep(
        self,
        trace: VmTrace,
        intensities: Sequence[float],
        greenskus: Optional[Sequence[ServerSKU]] = None,
    ) -> List[IntensitySweepPoint]:
        """Fig. 11: cluster savings across grid carbon intensities.

        Cluster sizing is reused across intensities whenever the adoption
        decisions are unchanged (sizing depends on the CI only through
        adoption).
        """
        greenskus = list(greenskus) if greenskus is not None else all_greenskus()
        points: List[IntensitySweepPoint] = []
        sizing_cache: Dict[Tuple[str, Tuple], ClusterSizing] = {}
        for ci in intensities:
            gsf_ci = self.at_intensity(ci)
            savings: Dict[str, float] = {}
            for sku in greenskus:
                adoption = gsf_ci.adoption_model(sku)
                decisions = tuple(
                    sorted(
                        (d.app_name, d.generation, d.adopt, d.scaling_factor)
                        for d in adoption.decisions()
                    )
                )
                key = (sku.name, decisions)
                sizing = sizing_cache.get(key)
                evaluation = gsf_ci.evaluate(sku, trace, sizing=sizing)
                sizing_cache[key] = ClusterSizing(
                    baseline_only_servers=(
                        evaluation.sizing.baseline_only_servers
                    ),
                    mixed_baseline_servers=(
                        evaluation.sizing.mixed_baseline_servers
                    ),
                    mixed_green_servers=evaluation.sizing.mixed_green_servers,
                )
                savings[sku.name] = evaluation.cluster_savings
            points.append(
                IntensitySweepPoint(carbon_intensity=ci, savings_by_sku=savings)
            )
        return points


@dataclass(frozen=True)
class GenerationAwareEvaluation:
    """Result of :meth:`Gsf.evaluate_generation_aware`.

    Emissions include out-of-service overheads; the growth buffer is
    omitted (it is identical policy on both sides and cancels to first
    order in the ratio).
    """

    greensku_name: str
    trace_name: str
    sizing: GenerationAwareSizing
    reference_kg: float
    mixed_kg: float
    cluster_savings: float
