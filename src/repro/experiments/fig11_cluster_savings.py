"""Experiment Fig. 11 / Fig. 12: cluster savings across carbon intensities.

Sweeps the grid carbon intensity and, for each of the three GreenSKUs,
runs the full GSF pipeline (adoption -> packing -> sizing -> buffer) to
estimate cluster-level savings versus an all-baseline cluster.  The
paper's findings to reproduce in shape:

- reuse-heavy designs (GreenSKU-Full) win where the grid is clean
  (embodied-dominated, e.g. Azure-us-south),
- GreenSKU-Efficient catches up and wins where the grid is dirty
  (operational-dominated, e.g. Azure-europe-north),
- savings stay positive across the spectrum.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..allocation.traces import TraceParams, VmTrace, generate_trace
from ..core.resilience import drop_failures, resilient_map
from ..core.runner import resolve_jobs
from ..core.tables import render_csv, render_table
from ..gsf.framework import Gsf
from ..gsf.results import IntensitySweepPoint
from ..hardware.datacenter import AZURE_REGION_CI

#: Default CI axis (kgCO2e/kWh), covering the paper's plotted range.
DEFAULT_INTENSITIES = tuple(np.linspace(0.0, 0.4, 9))


@dataclass(frozen=True)
class Fig11Result:
    """The sweep plus the annotated Azure-region readings."""

    points: List[IntensitySweepPoint]
    regions: Dict[str, float]

    def savings_series(self, sku_name: str) -> List[float]:
        return [p.savings_by_sku[sku_name] for p in self.points]

    def average_savings(self, sku_name: str) -> float:
        """Mean savings across the sweep (artifact: ~14% for the best)."""
        return float(np.mean(self.savings_series(sku_name)))

    def best_at(self, ci: float) -> str:
        """Which GreenSKU wins nearest to a given carbon intensity."""
        idx = int(
            np.argmin(
                [abs(p.carbon_intensity - ci) for p in self.points]
            )
        )
        return self.points[idx].best_sku()[0]


def _sweep_one(ci: float, gsf: Gsf, trace: VmTrace) -> IntensitySweepPoint:
    """One carbon intensity's sweep point (worker-process entry)."""
    return gsf.intensity_sweep(trace, [ci])[0]


def run(
    trace: Optional[VmTrace] = None,
    intensities: Sequence[float] = DEFAULT_INTENSITIES,
    gsf: Optional[Gsf] = None,
    mean_concurrent_vms: int = 1000,
    seed: int = 1,
    jobs: Optional[int] = None,
    trace_backend: Optional[str] = None,
) -> Fig11Result:
    """Run the sweep for the three GreenSKUs.

    Each intensity's evaluation is independent (the serial path's sizing
    cache only short-circuits recomputing results that are identical by
    construction), so the sweep fans out per intensity over ``jobs``
    workers; the serial path keeps the shared cache across intensities.
    The fan-out inherits the run settings' resilience policy, and under the
    CLI's ``--keep-going`` an intensity whose task exhausted its retry
    budget is dropped (``resilience.degraded_dropped``).
    ``trace_backend`` selects synthetic vs ingested Azure traces; the
    azure backend sweeps the first ingested trace.
    """
    gsf = gsf or Gsf()
    if trace is None:
        from ..allocation.ingest import resolve_trace_backend

        if resolve_trace_backend(trace_backend) == "azure":
            from ..allocation.ingest import azure_trace_suite

            trace = azure_trace_suite(count=1)[0]
        else:
            trace = generate_trace(
                seed=seed,
                params=TraceParams(mean_concurrent_vms=mean_concurrent_vms),
            )
    intensities = list(intensities)
    if resolve_jobs(jobs) <= 1:
        points = gsf.intensity_sweep(trace, intensities)
    else:
        points = drop_failures(resilient_map(
            functools.partial(_sweep_one, gsf=gsf, trace=trace),
            intensities,
            jobs=jobs,
        ))
    return Fig11Result(points=points, regions=dict(AZURE_REGION_CI))


def render(result: Fig11Result) -> str:
    sku_names = sorted(result.points[0].savings_by_sku)
    rows = []
    for p in result.points:
        # The CI axis steps by 0.05, so it needs two decimals of its own;
        # the savings cells keep the table's one.
        rows.append(
            [f"{p.carbon_intensity:.2f}"]
            + [100 * p.savings_by_sku[name] for name in sku_names]
            + [p.best_sku()[0]]
        )
    table = render_table(
        ["CI (kg/kWh)"] + [f"{n} %" for n in sku_names] + ["best"],
        rows,
        title="Fig. 11/12: cluster-level savings vs carbon intensity",
        float_fmt="{:.1f}",
    )
    region_lines = [
        f"  {name}: CI={ci:.2f}, best SKU = {result.best_at(ci)}"
        for name, ci in sorted(result.regions.items(), key=lambda kv: kv[1])
    ]
    avg_lines = [
        f"  average savings {name}: {result.average_savings(name):.1%}"
        for name in sku_names
    ]
    return "\n".join([table, "Azure regions:"] + region_lines + avg_lines)


def to_csv(result: Fig11Result) -> str:
    sku_names = sorted(result.points[0].savings_by_sku)
    rows = [
        [p.carbon_intensity] + [p.savings_by_sku[n] for n in sku_names]
        for p in result.points
    ]
    return render_csv(["carbon_intensity"] + sku_names, rows)


def main() -> Fig11Result:
    result = run(mean_concurrent_vms=500, intensities=np.linspace(0, 0.4, 5))
    print(render(result))
    return result


if __name__ == "__main__":
    main()
