"""GreenSKU / GSF: evaluating low-carbon cloud server designs at scale.

Reproduction of "Designing Cloud Servers for Lower Carbon" (Wang et al.,
ISCA 2024).  The package implements the paper's GreenSKU Framework (GSF)
end to end, plus every substrate its evaluation depends on.

Quickstart::

    from repro import CarbonModel, Gsf, generate_trace, greensku_full

    model = CarbonModel()
    print(model.assess(greensku_full()).total_per_core)

    gsf = Gsf()
    result = gsf.evaluate(greensku_full(), generate_trace(seed=1))
    print(f"cluster savings: {result.cluster_savings:.1%}")

Subpackages:

- :mod:`repro.hardware` — component catalog, SKU composition, rack/DC
  parameters.
- :mod:`repro.carbon` — the carbon model (Eq. 1-3, CO2e-per-core),
  savings tables, and Fig.-1-style breakdowns.
- :mod:`repro.perf` — the M/M/c latency model, application profiles,
  SLOs, and scaling factors (Table III).
- :mod:`repro.reliability` — AFRs, Fail-In-Place, maintenance overheads.
- :mod:`repro.allocation` — synthetic Azure-like VM traces and the
  best-fit allocation simulator.
- :mod:`repro.gsf` — the framework: adoption, cluster sizing, growth
  buffers, end-to-end savings.
- :mod:`repro.analysis` — Section VII analyses (alternatives, TCO).
- :mod:`repro.experiments` — one harness per paper table/figure.
"""

from .allocation import (
    ClusterSpec,
    TraceParams,
    VmRequest,
    VmTrace,
    generate_trace,
    production_trace_suite,
    simulate,
)
from .carbon import (
    CarbonModel,
    EnergyMix,
    SkuAssessment,
    breakdown,
    paper_savings_table,
    savings_table,
)
from .gsf import AdoptionModel, Gsf, GsfConfig, GsfEvaluation
from .hardware import (
    DataCenterConfig,
    RackConfig,
    ServerSKU,
    all_greenskus,
    baseline_gen3,
    baseline_resized,
    greensku_cxl,
    greensku_efficient,
    greensku_full,
    paper_skus,
)
from .perf import (
    APPLICATIONS,
    ApplicationProfile,
    derive_slo,
    latency_curve,
    scaling_factor,
    scaling_table,
)
from .reliability import assess_maintenance, server_afr

__version__ = "1.0.0"

__all__ = [
    "ClusterSpec",
    "TraceParams",
    "VmRequest",
    "VmTrace",
    "generate_trace",
    "production_trace_suite",
    "simulate",
    "CarbonModel",
    "EnergyMix",
    "SkuAssessment",
    "breakdown",
    "paper_savings_table",
    "savings_table",
    "AdoptionModel",
    "Gsf",
    "GsfConfig",
    "GsfEvaluation",
    "DataCenterConfig",
    "RackConfig",
    "ServerSKU",
    "all_greenskus",
    "baseline_gen3",
    "baseline_resized",
    "greensku_cxl",
    "greensku_efficient",
    "greensku_full",
    "paper_skus",
    "APPLICATIONS",
    "ApplicationProfile",
    "derive_slo",
    "latency_curve",
    "scaling_factor",
    "scaling_table",
    "assess_maintenance",
    "server_afr",
    "__version__",
]
