"""Experiment Fig. 9: VM packing density CDFs across production traces.

For each trace: right-size an all-baseline cluster and a mixed
baseline+GreenSKU-Full cluster, replay both, and record the mean core and
memory packing densities on non-empty servers.  The paper's finding: the
baseline's higher memory:core ratio (9.6 vs 8) buys higher core-packing
density at the cost of memory wastage, while GreenSKU-Full packs memory
better and cores worse.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from ..allocation.cluster import ClusterSpec, adopt_nothing, simulate
from ..allocation.packing import PackingPoint, packing_point
from ..allocation.ingest import trace_suite
from ..allocation.traces import TraceParams, VmTrace
from ..core.resilience import drop_failures, resilient_map
from ..core.runner import DiskCache, content_key
from ..core.tables import render_csv
from ..gsf.framework import Gsf
from ..gsf.sizing import size_mixed_cluster
from ..hardware.sku import ServerSKU, baseline_gen3, greensku_full

#: Bumped when the per-trace computation changes, invalidating disk-cache
#: entries from older code.
_CACHE_VERSION = "fig9-v3"


@dataclass(frozen=True)
class Fig9Result:
    """Per-trace packing points for baseline and GreenSKU servers."""

    baseline_points: List[PackingPoint]
    green_points: List[PackingPoint]

    def summary(self) -> dict:
        """Median packing densities, the way the figure is usually read."""
        base_core = np.median(
            [p.mean_core_density for p in self.baseline_points]
        )
        base_mem = np.median(
            [p.mean_memory_density for p in self.baseline_points]
        )
        green_core = np.median(
            [p.mean_core_density for p in self.green_points]
        )
        green_mem = np.median(
            [p.mean_memory_density for p in self.green_points]
        )
        return {
            "baseline_core_median": float(base_core),
            "baseline_memory_median": float(base_mem),
            "green_core_median": float(green_core),
            "green_memory_median": float(green_mem),
        }


def run_trace(
    trace: VmTrace,
    gsf: Gsf,
    baseline: ServerSKU,
    greensku: ServerSKU,
) -> "tuple[PackingPoint, PackingPoint]":
    """One trace's baseline and GreenSKU packing points."""
    adoption = gsf.adoption_model(greensku).policy()
    sizing = size_mixed_cluster(trace, baseline, greensku, adoption)
    base_cluster = ClusterSpec.of((baseline, sizing.baseline_only_servers))
    base_outcome = simulate(trace, base_cluster, adoption=adopt_nothing)
    mixed_cluster = ClusterSpec.of(
        (baseline, sizing.mixed_baseline_servers),
        (greensku, sizing.mixed_green_servers),
    )
    mixed_outcome = simulate(trace, mixed_cluster, adoption=adoption)
    return (
        packing_point(base_outcome, trace.name, kind="baseline"),
        packing_point(mixed_outcome, trace.name, kind="green"),
    )


def _trace_key(
    trace: VmTrace, gsf: Gsf, baseline: ServerSKU, greensku: ServerSKU
) -> str:
    """Disk-cache key: content hash of the trace, SKUs, and policy."""
    adoption = gsf.adoption_model(greensku)
    decisions = tuple(
        sorted(
            (d.app_name, d.generation, d.adopt, d.scaling_factor)
            for d in adoption.decisions()
        )
    )
    return content_key(
        _CACHE_VERSION, trace.name, trace.params, trace.digest(),
        baseline, greensku, decisions,
    )


def run(
    traces: Optional[Sequence[VmTrace]] = None,
    trace_count: int = 35,
    mean_concurrent_vms: int = 250,
    gsf: Optional[Gsf] = None,
    jobs: Optional[int] = None,
    cache: Optional[DiskCache] = None,
    trace_backend: Optional[str] = None,
) -> Fig9Result:
    """Run the packing study over the trace suite.

    Per-trace evaluations are independent, so they fan out over
    ``jobs`` worker processes (resolved by the runner's precedence
    rules) with results collected in trace order — byte-identical to the
    serial path.  ``cache`` (or the opt-in global switch) skips traces
    whose content hash already has a stored result.  Under a degrading
    resilience policy (the CLI's ``--keep-going``) a trace whose task
    exhausted its retry budget is explicitly dropped from the study —
    medians are computed over the surviving traces, and the drop is
    visible in the telemetry manifest (``resilience.degraded_dropped``).

    ``trace_backend`` selects the workload source (the CLI's
    ``--trace-backend``): the synthetic generator (default) or ingested
    Azure vmtable traces; cache keys include each trace's content
    digest, so the two backends never collide in the disk cache.
    """
    if traces is None:
        traces = trace_suite(
            backend=trace_backend,
            count=trace_count,
            params=TraceParams(mean_concurrent_vms=mean_concurrent_vms),
        )
    gsf = gsf or Gsf()
    baseline, greensku = baseline_gen3(), greensku_full()
    pairs = drop_failures(resilient_map(
        functools.partial(
            run_trace, gsf=gsf, baseline=baseline, greensku=greensku
        ),
        traces,
        key_fn=functools.partial(
            _trace_key, gsf=gsf, baseline=baseline, greensku=greensku
        ),
        jobs=jobs,
        cache=cache,
    ))
    return Fig9Result(
        baseline_points=[bp for bp, _gp in pairs],
        green_points=[gp for _bp, gp in pairs],
    )


def render(result: Fig9Result) -> str:
    s = result.summary()
    return "\n".join(
        [
            "Fig. 9: mean packing density across traces "
            f"({len(result.baseline_points)} traces)",
            f"  baseline cluster: core median {s['baseline_core_median']:.2f}, "
            f"memory median {s['baseline_memory_median']:.2f}",
            f"  GreenSKU-Full:    core median {s['green_core_median']:.2f}, "
            f"memory median {s['green_memory_median']:.2f}",
            "  paper: GreenSKU-Full trades better memory packing for worse "
            "core packing",
        ]
    )


def to_csv(result: Fig9Result) -> str:
    rows = []
    for kind, points in (
        ("baseline", result.baseline_points),
        ("greensku-full", result.green_points),
    ):
        for p in points:
            rows.append(
                [kind, p.trace_name, p.mean_core_density, p.mean_memory_density]
            )
    return render_csv(["kind", "trace", "core_density", "memory_density"], rows)


def main() -> Fig9Result:
    result = run(trace_count=12, mean_concurrent_vms=200)
    print(render(result))
    return result


if __name__ == "__main__":
    main()
