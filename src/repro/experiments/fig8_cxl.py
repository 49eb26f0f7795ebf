"""Experiment Fig. 8: CXL's tail-latency impact on Moses vs HAProxy.

Compares p95-vs-load on GreenSKU-Efficient and GreenSKU-CXL at the same
core count (the count each app needs to meet its Gen3 SLO).  Moses — a
memory-bound speech translator — saturates early under CXL's higher memory
latency and misses the SLO well before the baseline load; HAProxy —
compute/network-bound — keeps the SLO over most of the load range and only
loses ~11% of peak throughput.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from ..core.tables import render_csv
from ..perf.apps import get_app
from ..perf.latency import (
    CurveSpec,
    LatencyCurve,
    Slo,
    derive_slo,
    latency_curves,
    peak_qps,
)
from ..perf.scaling import scaling_factor
from .fig7_latency import LOAD_FRACTIONS

#: The two applications the paper contrasts.
FIG8_APPS: Tuple[str, ...] = ("Moses", "HAProxy")


@dataclass(frozen=True)
class Fig8Panel:
    """One application's Efficient-vs-CXL comparison."""

    app_name: str
    cores: int
    slo: Slo
    efficient_curve: LatencyCurve
    cxl_curve: LatencyCurve
    efficient_peak_qps: float
    cxl_peak_qps: float

    @property
    def peak_reduction(self) -> float:
        """Fraction of peak throughput lost to CXL (HAProxy: ~0.11)."""
        return 1.0 - self.cxl_peak_qps / self.efficient_peak_qps

    @property
    def cxl_slo_load_qps(self) -> float:
        """Highest swept load where the CXL config still meets the SLO."""
        return self.cxl_curve.max_load_meeting(self.slo.latency_ms)


def run_panel(app_name: str, generation: int = 3) -> Fig8Panel:
    """Build one Fig. 8 panel (both curves in one batched grid call)."""
    app = get_app(app_name)
    slo = derive_slo(app, generation)
    result = scaling_factor(app, generation)
    cores = result.cores if result.cores is not None else 12
    efficient, cxl = latency_curves(
        app,
        [
            CurveSpec(
                platform="bergamo",
                cores=cores,
                reference_peak_qps=slo.baseline_peak_qps,
                label=f"GreenSKU-Efficient ({cores} cores)",
            ),
            CurveSpec(
                platform="bergamo",
                cores=cores,
                cxl=True,
                reference_peak_qps=slo.baseline_peak_qps,
                label=f"GreenSKU-CXL ({cores} cores)",
            ),
        ],
        load_fractions=LOAD_FRACTIONS,
    )
    return Fig8Panel(
        app_name=app.name,
        cores=cores,
        slo=slo,
        efficient_curve=efficient,
        cxl_curve=cxl,
        efficient_peak_qps=peak_qps(app, "bergamo", cores),
        cxl_peak_qps=peak_qps(app, "bergamo", cores, cxl=True),
    )


def run(app_names: Sequence[str] = FIG8_APPS,
        generation: int = 3) -> List[Fig8Panel]:
    """All Fig. 8 panels."""
    return [run_panel(name, generation) for name in app_names]


def render(panels: Sequence[Fig8Panel]) -> str:
    lines = ["Fig. 8: CXL impact on p95 tail latency vs load"]
    for p in panels:
        lines.append(
            f"  {p.app_name:8s} ({p.cores} cores): peak "
            f"{p.efficient_peak_qps:8.0f} -> {p.cxl_peak_qps:8.0f} QPS "
            f"({p.peak_reduction:.0%} reduction); CXL meets SLO up to "
            f"{p.cxl_slo_load_qps:8.0f} QPS (SLO load "
            f"{p.slo.load_qps:8.0f})"
        )
    return "\n".join(lines)


def to_csv(panels: Sequence[Fig8Panel]) -> str:
    rows = []
    for panel in panels:
        for curve in (panel.efficient_curve, panel.cxl_curve):
            for qps, p95 in zip(curve.qps, curve.p95_ms):
                rows.append([panel.app_name, curve.label, qps, p95])
    return render_csv(["app", "curve", "qps", "p95_ms"], rows)


def main() -> List[Fig8Panel]:
    panels = run()
    print(render(panels))
    return panels


if __name__ == "__main__":
    main()
