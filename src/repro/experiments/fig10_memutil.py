"""Experiment Fig. 10: per-server maximum memory utilization CDF.

Replays each trace on a baseline-only cluster and on a GreenSKU-CXL
cluster, aggregating every VM's maximum touched memory per server and
averaging across servers and snapshots.  The paper's finding: most traces
stay below 60% utilization, comfortably inside GreenSKU-CXL's local-DDR5
fraction (75%), so the CXL-backed 25% of memory can hold untouched pages —
only ~3% of traces would dip into CXL at all.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from ..allocation.cluster import ClusterSpec, adopt_nothing, simulate
from ..allocation.packing import cdf, fraction_below
from ..allocation.ingest import trace_suite
from ..allocation.traces import TraceParams, VmTrace
from ..core.resilience import drop_failures, resilient_map
from ..core.runner import DiskCache, content_key
from ..core.tables import render_csv
from ..gsf.adoption import AdoptionModel
from ..gsf.framework import Gsf
from ..gsf.sizing import right_size
from ..hardware.sku import ServerSKU, baseline_gen3, greensku_cxl

#: Bumped when the per-trace computation changes, invalidating disk-cache
#: entries from older code.
_CACHE_VERSION = "fig10-v3"


@dataclass(frozen=True)
class Fig10Result:
    """Per-trace mean maximum memory utilization for both clusters.

    ``cxl_boundary`` is the local-memory fraction of GreenSKU-CXL (0.75):
    utilization above it would spill into CXL-backed DRAM.
    ``cxl_pool_utilization`` reports how full the CXL pool actually runs
    under the Pond tiering policy (untouched memory + tolerant apps).
    """

    baseline_utilization: List[float]
    green_utilization: List[float]
    cxl_boundary: float
    cxl_pool_utilization: List[float]

    @property
    def share_below_60pct(self) -> float:
        """Fraction of traces with GreenSKU utilization at or below 0.6."""
        return fraction_below(self.green_utilization, 0.6)

    @property
    def share_needing_cxl(self) -> float:
        """Fraction of traces whose utilization is strictly above the CXL
        boundary.  A trace sitting exactly on the boundary (utilization
        == 0.75) still fits in local DDR5, so it does not need CXL —
        :func:`fraction_below` is inclusive at the threshold.
        """
        return 1.0 - fraction_below(self.green_utilization, self.cxl_boundary)


class PermissiveAdoption:
    """Fig. 10's hosting policy: adopters scale, everyone else is hosted
    unscaled (the figure studies the SKU's memory headroom, not
    adoption).  A module-level class so worker processes can unpickle it.
    """

    def __init__(self, model: AdoptionModel):
        self.model = model

    def __call__(self, app_name: str, generation: int) -> float:
        decision = self.model.decide(app_name, generation)
        if decision.adopt:
            return decision.scaling_factor
        return 1.0  # hosted unscaled for the memory study

    def decision_key(self) -> tuple:
        """Stable content summary of the policy, for cache keys."""
        return tuple(
            sorted(
                (d.app_name, d.generation, d.adopt, d.scaling_factor)
                for d in self.model.decisions()
            )
        )


def run_trace(
    trace: VmTrace,
    baseline: ServerSKU,
    greensku: ServerSKU,
    adoption,
) -> "tuple[float, float, float]":
    """(baseline util, green util, green CXL-pool util) for one trace.

    Full-node VMs are excluded: the paper strictly assigns them to
    baseline SKUs, so they never contribute to a GreenSKU's memory
    pressure, and keeping them out of both replays keeps the comparison
    apples to apples.
    """
    shared = trace.filter(~trace.columns.full_node)
    n_base = right_size(shared, baseline)
    base_out = simulate(
        shared, ClusterSpec.of((baseline, n_base)), adoption=adopt_nothing
    )
    n_green = right_size(shared, greensku, adoption)
    green_out = simulate(
        shared, ClusterSpec.of((greensku, n_green)), adoption=adoption
    )
    return (
        base_out.baseline_stats.mean_touched_memory,
        green_out.green_stats.mean_touched_memory,
        green_out.green_stats.mean_cxl_utilization,
    )


def _trace_key(
    trace: VmTrace,
    baseline: ServerSKU,
    greensku: ServerSKU,
    adoption: PermissiveAdoption,
) -> str:
    """Disk-cache key: content hash of the trace, SKUs, and policy."""
    return content_key(
        _CACHE_VERSION, trace.name, trace.params, trace.digest(),
        baseline, greensku, adoption.decision_key(),
    )


def run(
    traces: Optional[Sequence[VmTrace]] = None,
    trace_count: int = 35,
    mean_concurrent_vms: int = 250,
    gsf: Optional[Gsf] = None,
    jobs: Optional[int] = None,
    cache: Optional[DiskCache] = None,
    trace_backend: Optional[str] = None,
) -> Fig10Result:
    """Run the memory-utilization study over the trace suite.

    GreenSKU-CXL clusters host every VM here (the paper's point is about
    the SKU's memory headroom, not adoption), scaling adopters as usual;
    non-adopters keep their size.  Traces fan out over ``jobs`` worker
    processes with results in trace order (byte-identical to serial);
    ``cache`` skips traces whose content hash already has a result.
    Under a degrading resilience policy (the CLI's ``--keep-going``)
    traces whose tasks exhausted their retry budget are explicitly
    dropped from the study (``resilience.degraded_dropped``).
    ``trace_backend`` selects synthetic vs ingested Azure traces (the
    CLI's ``--trace-backend``).
    """
    if traces is None:
        traces = trace_suite(
            backend=trace_backend,
            count=trace_count,
            params=TraceParams(mean_concurrent_vms=mean_concurrent_vms),
        )
    gsf = gsf or Gsf()
    baseline, greensku = baseline_gen3(), greensku_cxl()
    permissive = PermissiveAdoption(gsf.adoption_model(greensku))

    triples = drop_failures(resilient_map(
        functools.partial(
            run_trace,
            baseline=baseline,
            greensku=greensku,
            adoption=permissive,
        ),
        traces,
        key_fn=functools.partial(
            _trace_key,
            baseline=baseline,
            greensku=greensku,
            adoption=permissive,
        ),
        jobs=jobs,
        cache=cache,
    ))
    base_utils = [b for b, _g, _c in triples]
    green_utils = [g for _b, g, _c in triples]
    cxl_utils = [c for _b, _g, c in triples]
    return Fig10Result(
        baseline_utilization=base_utils,
        green_utilization=green_utils,
        cxl_boundary=1.0 - greensku.cxl_fraction,
        cxl_pool_utilization=cxl_utils,
    )


def render(result: Fig10Result) -> str:
    return "\n".join(
        [
            "Fig. 10: mean per-server maximum memory utilization "
            f"({len(result.green_utilization)} traces)",
            f"  baseline median: "
            f"{np.median(result.baseline_utilization):.2f}",
            f"  GreenSKU-CXL median: "
            f"{np.median(result.green_utilization):.2f}",
            f"  traces below 60% utilization: "
            f"{result.share_below_60pct:.0%} (paper: most)",
            f"  traces crossing into the CXL region "
            f"(> {result.cxl_boundary:.0%}): "
            f"{result.share_needing_cxl:.0%} (paper: ~3%)",
            f"  CXL pool utilization under Pond tiering (median): "
            f"{np.median(result.cxl_pool_utilization):.0%} — the reused "
            "DDR4 holds untouched pages and tolerant apps",
        ]
    )


def to_csv(result: Fig10Result) -> str:
    xs_b, ps_b = cdf(result.baseline_utilization)
    xs_g, ps_g = cdf(result.green_utilization)
    rows = [["baseline", float(x), float(p)] for x, p in zip(xs_b, ps_b)]
    rows += [["greensku-cxl", float(x), float(p)] for x, p in zip(xs_g, ps_g)]
    return render_csv(["cluster", "utilization", "cdf"], rows)


def main() -> Fig10Result:
    result = run(trace_count=12, mean_concurrent_vms=200)
    print(render(result))
    return result


if __name__ == "__main__":
    main()
