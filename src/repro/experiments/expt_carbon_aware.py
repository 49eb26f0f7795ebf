"""Experiment: carbon-aware vs blind placement under time-varying grids.

ROADMAP item 5 — outside the paper's reproduced figures.  For each trace
and each grid signal: size a mixed baseline+GreenSKU cluster the Fig.
9/10 way, widen the baseline side to two generations (gen2 + gen3, whose
marginal watts-per-core differ), then replay the same trace twice — once
under the blind policy (today's generation-routed behavior, bit-for-bit)
and once under ``carbon_aware`` placement with the signal attached.  An
exact :class:`~repro.carbon.grid.CarbonAccountant` integrates each
replay's operational gCO2, and the pair is reported as a
:class:`~repro.gsf.results.CarbonAwareDelta` riding on the trace's
:class:`~repro.gsf.results.GsfEvaluation`.

The two baseline generations are what give the policy room to act: the
blind scheduler routes each VM to its own generation's pool, while the
carbon-aware tiers prefer the lower-watts-per-core generation regardless
of VM generation, so the two replays pack differently and the
operational delta is nonzero (golden-pinned by ``bench_carbon_aware``).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..allocation.cluster import ClusterSpec, simulate
from ..allocation.ingest import trace_suite
from ..allocation.traces import TraceParams, VmTrace
from ..carbon.grid import CarbonAccountant, carbon_aware_policy, grid_signal
from ..core.resilience import drop_failures, resilient_map
from ..core.runner import DiskCache, content_key
from ..core.tables import render_csv
from ..gsf.framework import Gsf
from ..gsf.results import CarbonAwareDelta
from ..gsf.sizing import size_mixed_cluster
from ..hardware.sku import ServerSKU, baseline_gen2, baseline_gen3, greensku_full

#: Bumped when the per-trace computation changes, invalidating disk-cache
#: entries from older code.
_CACHE_VERSION = "carbon-aware-v1"

#: Default signals the experiment sweeps (see ``repro.carbon.grid``).
DEFAULT_SIGNALS = ("diurnal", "seasonal")


@dataclass(frozen=True)
class CarbonAwareResult:
    """Per-(trace, signal) operational-carbon deltas."""

    deltas: List[CarbonAwareDelta]

    def by_signal(self) -> Dict[str, List[CarbonAwareDelta]]:
        """Deltas grouped by grid-signal name, insertion-ordered."""
        groups: Dict[str, List[CarbonAwareDelta]] = {}
        for delta in self.deltas:
            groups.setdefault(delta.signal_name, []).append(delta)
        return groups

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per-signal mean operational delta (kg and fraction of blind)."""
        out: Dict[str, Dict[str, float]] = {}
        for name, deltas in self.by_signal().items():
            count = len(deltas)
            out[name] = {
                "mean_delta_kg": sum(d.delta_kg for d in deltas) / count,
                "mean_delta_fraction": (
                    sum(d.delta_fraction for d in deltas) / count
                ),
                "traces": float(count),
            }
        return out


def run_trace(
    trace: VmTrace,
    gsf: Gsf,
    greensku: ServerSKU,
    signal_name: str,
) -> CarbonAwareDelta:
    """One trace's blind-vs-carbon-aware pair under one grid signal.

    Sizes the mixed cluster against the gen3 baseline, then deploys the
    baseline side as *two* generations (the sized gen3 count plus an
    equal gen2 count — extra headroom, never fewer servers, so both
    replays stay rejection-free) and replays the trace under both
    policies with exact accountants attached.
    """
    from ..allocation.cluster import outcome_digest

    gen2, gen3 = baseline_gen2(), baseline_gen3()
    adoption = gsf.adoption_model(greensku).policy()
    sizing = size_mixed_cluster(trace, gen3, greensku, adoption)
    cluster = ClusterSpec.of(
        (gen2, sizing.mixed_baseline_servers),
        (gen3, sizing.mixed_baseline_servers),
        (greensku, sizing.mixed_green_servers),
    )
    signal = grid_signal(signal_name)

    blind_acct = CarbonAccountant(signal)
    blind = simulate(trace, cluster, adoption=adoption, accountant=blind_acct)
    aware_acct = CarbonAccountant(signal)
    aware = simulate(
        trace,
        cluster,
        adoption=adoption,
        placement=carbon_aware_policy(signal),
        accountant=aware_acct,
    )
    evaluation = gsf.evaluate(greensku, trace, sizing=sizing)
    return CarbonAwareDelta(
        evaluation=evaluation,
        signal_name=signal_name,
        blind_kg=blind.operational.total_kg,
        aware_kg=aware.operational.total_kg,
        blind_digest=outcome_digest(blind),
        aware_digest=outcome_digest(aware),
    )


def _run_pair(
    pair: Tuple[VmTrace, str], gsf: Gsf, greensku: ServerSKU
) -> CarbonAwareDelta:
    """Worker wrapper: one (trace, signal-name) unit of work."""
    trace, signal_name = pair
    return run_trace(trace, gsf, greensku, signal_name)


def _pair_key(
    pair: Tuple[VmTrace, str], gsf: Gsf, greensku: ServerSKU
) -> str:
    """Disk-cache key: trace content, SKUs, policy decisions, signal."""
    trace, signal_name = pair
    adoption = gsf.adoption_model(greensku)
    decisions = tuple(
        sorted(
            (d.app_name, d.generation, d.adopt, d.scaling_factor)
            for d in adoption.decisions()
        )
    )
    return content_key(
        _CACHE_VERSION, trace.name, trace.params, trace.digest(),
        greensku, decisions, signal_name,
    )


def run(
    traces: Optional[Sequence[VmTrace]] = None,
    trace_count: int = 4,
    mean_concurrent_vms: int = 150,
    duration_days: float = 2.0,
    signals: Sequence[str] = DEFAULT_SIGNALS,
    gsf: Optional[Gsf] = None,
    jobs: Optional[int] = None,
    cache: Optional[DiskCache] = None,
    trace_backend: Optional[str] = None,
) -> CarbonAwareResult:
    """Run the carbon-aware study over the trace suite × signal grid.

    Per-(trace, signal) pairs are independent, so they fan out through
    :func:`~repro.core.resilience.resilient_map` (inheriting any
    resilience policy); under a degrading ``--keep-going`` run, failed
    pairs are dropped from the study and surface in the telemetry
    manifest.
    """
    if traces is None:
        traces = trace_suite(
            backend=trace_backend,
            count=trace_count,
            params=TraceParams(
                mean_concurrent_vms=mean_concurrent_vms,
                duration_days=duration_days,
            ),
        )
    gsf = gsf or Gsf()
    greensku = greensku_full()
    pairs = [
        (trace, signal_name)
        for trace in traces
        for signal_name in signals
    ]
    deltas = drop_failures(resilient_map(
        functools.partial(_run_pair, gsf=gsf, greensku=greensku),
        pairs,
        key_fn=functools.partial(_pair_key, gsf=gsf, greensku=greensku),
        jobs=jobs,
        cache=cache,
    ))
    return CarbonAwareResult(deltas=list(deltas))


def render(result: CarbonAwareResult) -> str:
    """Human-readable per-signal rollup."""
    lines = [
        "Carbon-aware vs blind placement "
        f"({len(result.deltas)} trace-signal pairs; not a paper figure)",
    ]
    for name, row in result.summary().items():
        lines.append(
            f"  {name:<10s} mean operational delta "
            f"{row['mean_delta_kg']:+.4f} kg "
            f"({row['mean_delta_fraction']:+.3%} of blind, "
            f"{int(row['traces'])} traces)"
        )
    lines.append(
        "  blind replays are bit-identical to the pre-policy engines; "
        "deltas come from carbon-aware tiering alone"
    )
    return "\n".join(lines)


def to_csv(result: CarbonAwareResult) -> str:
    """One row per (trace, signal) pair."""
    rows = [
        [
            d.evaluation.trace_name,
            d.signal_name,
            d.blind_kg,
            d.aware_kg,
            d.delta_kg,
            d.delta_fraction,
        ]
        for d in result.deltas
    ]
    return render_csv(
        ["trace", "signal", "blind_kg", "aware_kg", "delta_kg",
         "delta_fraction"],
        rows,
    )


def main() -> CarbonAwareResult:
    """Standalone entry: a small diurnal+seasonal study."""
    result = run(trace_count=2, mean_concurrent_vms=120)
    print(render(result))
    return result


if __name__ == "__main__":
    main()
