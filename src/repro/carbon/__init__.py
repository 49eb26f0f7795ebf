"""GSF carbon model: server/rack/DC emissions, savings tables, breakdowns."""

from .breakdown import (
    AuxServerProfile,
    DataCenterBreakdown,
    FleetComposition,
    breakdown,
    fleet_compute_sku,
)
from .attribution import (
    AttributionReport,
    VmCarbonRecord,
    attribute_vm,
    attribute_workload,
    per_core_hour_kg,
)
from .intensity import (
    FOSSIL_GRID_CI,
    RENEWABLE_LIFECYCLE_CI,
    EnergyMix,
    azure_average_mix,
    intensity_sweep,
    mix_for_intensity,
)
from .model import CarbonModel, ServerEmissions, SkuAssessment
from .power import PowerCurve, fleet_derate, synthesize_utilization_trace
from .temporal import (
    BatchJob,
    TemporalShiftResult,
    diurnal_intensity_profile,
    schedule_batch,
    stacked_savings,
    synthetic_batch_workload,
)
from .savings import (
    SavingsRow,
    paper_savings_table,
    render_savings_table,
    savings_table,
)

__all__ = [
    "AttributionReport",
    "VmCarbonRecord",
    "attribute_vm",
    "attribute_workload",
    "per_core_hour_kg",
    "fleet_compute_sku",
    "AuxServerProfile",
    "DataCenterBreakdown",
    "FleetComposition",
    "breakdown",
    "FOSSIL_GRID_CI",
    "RENEWABLE_LIFECYCLE_CI",
    "EnergyMix",
    "azure_average_mix",
    "intensity_sweep",
    "mix_for_intensity",
    "CarbonModel",
    "ServerEmissions",
    "SkuAssessment",
    "PowerCurve",
    "fleet_derate",
    "synthesize_utilization_trace",
    "BatchJob",
    "TemporalShiftResult",
    "diurnal_intensity_profile",
    "schedule_batch",
    "stacked_savings",
    "synthetic_batch_workload",
    "SavingsRow",
    "paper_savings_table",
    "render_savings_table",
    "savings_table",
]
