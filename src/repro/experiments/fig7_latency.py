"""Experiment Fig. 7: tail latency vs load across application classes.

For one representative application per class (the paper shows five of its
six classes), sweep offered load and record p95 tail latency for:

- an 8-core VM on the Gen3 baseline (the orange curve), whose latency at
  90% of peak defines the SLO (the dotted line), and
- GreenSKU-Efficient VMs scaled up to the core count that approaches the
  baseline's peak throughput (8, 10, or 12 cores).

Applications like Xapian and Nginx reach the SLO with scaling; Masstree
cannot even at 12 cores — the hockey-stick lands before the SLO load.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..core.tables import render_csv
from ..perf.apps import ApplicationProfile, get_app
from ..perf.latency import (
    CurveSpec,
    LatencyCurve,
    Slo,
    derive_slo,
    latency_curves,
)
from ..perf.scaling import CANDIDATE_CORES, scaling_factor

#: The representative application per class shown in Fig. 7.
FIG7_APPS: Tuple[str, ...] = ("Masstree", "Xapian", "Moses", "Img-DNN", "Nginx")

#: Load fractions of the baseline's peak swept for each curve.
LOAD_FRACTIONS: Tuple[float, ...] = tuple(
    round(0.1 + 0.05 * i, 2) for i in range(18)
)


@dataclass(frozen=True)
class Fig7Panel:
    """One application's panel: baseline curve, GreenSKU curves, SLO."""

    app_name: str
    slo: Slo
    baseline_curve: LatencyCurve
    green_curves: List[LatencyCurve]
    green_cores_needed: Optional[int]  # None = cannot meet SLO (">1.5")

    @property
    def meets_slo(self) -> bool:
        return self.green_cores_needed is not None


def run_panel(
    app: ApplicationProfile,
    generation: int = 3,
) -> Fig7Panel:
    """Build one Fig. 7 panel: the whole panel is one batched grid call."""
    slo = derive_slo(app, generation)
    result = scaling_factor(app, generation)
    # Show curves up to the minimum core count approaching the baseline's
    # peak (all candidates when the SLO is never met).
    if result.cores is not None:
        counts = [c for c in CANDIDATE_CORES if c <= result.cores]
    else:
        counts = list(CANDIDATE_CORES)
    specs = [
        CurveSpec(
            platform={3: "gen3", 2: "gen2", 1: "gen1"}[generation],
            cores=8,
            label=f"Gen{generation} (8 cores)",
        )
    ] + [
        CurveSpec(
            platform="bergamo",
            cores=cores,
            reference_peak_qps=slo.baseline_peak_qps,
            label=f"GreenSKU-Efficient ({cores} cores)",
        )
        for cores in counts
    ]
    curves = latency_curves(app, specs, load_fractions=LOAD_FRACTIONS)
    return Fig7Panel(
        app_name=app.name,
        slo=slo,
        baseline_curve=curves[0],
        green_curves=list(curves[1:]),
        green_cores_needed=result.cores,
    )


def run(
    app_names: Sequence[str] = FIG7_APPS,
    generation: int = 3,
) -> List[Fig7Panel]:
    """All Fig. 7 panels."""
    return [run_panel(get_app(name), generation) for name in app_names]


def render(panels: Sequence[Fig7Panel]) -> str:
    """Text rendering: per-app SLO outcome and saturation summary."""
    lines = ["Fig. 7: p95 tail latency vs load (Gen3 SLO at 90% of peak)"]
    for panel in panels:
        outcome = (
            f"meets SLO with {panel.green_cores_needed} cores"
            if panel.meets_slo
            else "cannot meet SLO even with 12 cores (>1.5 scaling)"
        )
        lines.append(
            f"  {panel.app_name:10s} SLO={panel.slo.latency_ms:8.2f} ms @ "
            f"{panel.slo.load_qps:9.0f} QPS | baseline peak "
            f"{panel.slo.baseline_peak_qps:9.0f} QPS | GreenSKU {outcome}"
        )
    return "\n".join(lines)


def to_csv(panels: Sequence[Fig7Panel]) -> str:
    """CSV of every curve point (app, curve, qps, p95_ms)."""
    rows = []
    for panel in panels:
        for curve in [panel.baseline_curve] + panel.green_curves:
            for qps, p95 in zip(curve.qps, curve.p95_ms):
                rows.append([panel.app_name, curve.label, qps, p95])
    return render_csv(["app", "curve", "qps", "p95_ms"], rows)


def main() -> List[Fig7Panel]:
    panels = run()
    print(render(panels))
    return panels


if __name__ == "__main__":
    main()
