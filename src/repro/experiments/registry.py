"""Experiment index: paper artifact id -> harness module.

Every table and figure in the paper's evaluation maps to one module with a
``run()`` returning a structured result and a ``render()`` producing the
rows/series the paper reports.  ``python -m repro.experiments.<module>``
runs any of them standalone.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import ModuleType
from typing import Dict, List

from ..core import telemetry
from ..core.errors import ConfigError
from . import (
    end_to_end,
    expt_carbon_aware,
    fig1_breakdown,
    fig2_failures,
    fig7_latency,
    fig8_cxl,
    fig9_packing,
    fig10_memutil,
    fig11_cluster_savings,
    section5_maintenance,
    section7_alternatives,
    section7_tco,
    table1_cpus,
    table2_devops,
    table3_scaling,
    table4_savings,
    validation,
)


@dataclass(frozen=True)
class Experiment:
    """One reproducible paper artifact."""

    experiment_id: str
    title: str
    module: ModuleType


_EXPERIMENTS: List[Experiment] = [
    Experiment("fig1", "Carbon breakdown of Azure data centers",
               fig1_breakdown),
    Experiment("fig2", "DDR4 DIMM failure rates over 7 years",
               fig2_failures),
    Experiment("table1", "Baseline CPUs vs efficient Bergamo", table1_cpus),
    Experiment("fig7", "Tail latency vs load per app class", fig7_latency),
    Experiment("table2", "DevOps build slowdowns", table2_devops),
    Experiment("table3", "GreenSKU-Efficient scaling factors",
               table3_scaling),
    Experiment("fig8", "CXL latency impact (Moses vs HAProxy)", fig8_cxl),
    Experiment("fig9", "VM packing density CDFs", fig9_packing),
    Experiment("fig10", "Per-server max memory utilization CDF",
               fig10_memutil),
    Experiment("table4", "Per-core carbon savings (Table IV/VIII)",
               table4_savings),
    Experiment("fig11", "Cluster savings vs carbon intensity (Fig 11/12)",
               fig11_cluster_savings),
    Experiment("sec5-maintenance", "AFR / FIP / C_OOS accounting",
               section5_maintenance),
    Experiment("sec7-alternatives", "Equivalent alternative strategies",
               section7_alternatives),
    Experiment("sec7-tco", "Cost vs carbon efficiency", section7_tco),
    Experiment("end-to-end", "28% -> 15% -> 8% savings chain", end_to_end),
    Experiment("carbon-aware",
               "Carbon-aware vs blind placement under diurnal grids",
               expt_carbon_aware),
    Experiment("validation", "All fast calibration anchors, PASS/FAIL",
               validation),
]

EXPERIMENTS: Dict[str, Experiment] = {
    e.experiment_id: e for e in _EXPERIMENTS
}


def get_experiment(experiment_id: str) -> Experiment:
    """Look up an experiment, with a helpful error."""
    try:
        return EXPERIMENTS[experiment_id]
    except KeyError:
        raise ConfigError(
            f"unknown experiment {experiment_id!r}; "
            f"known: {sorted(EXPERIMENTS)}"
        ) from None


def _record_provenance(exp: Experiment, result: object) -> None:
    """Record one experiment artifact into the settings' provenance log.

    No-op unless the run settings carry a log (the CLI's
    ``--provenance`` flag).
    Inputs are the code salt — figure-level experiments have no external
    data inputs beyond the code and their internal seeds, which the code
    pins — and the output digest is a content hash of the result, so a
    changed outcome shows up as a new record.
    """
    from ..core import provenance, settings

    run = settings.current()
    if run.provenance is None:
        return
    run.provenance.record(
        f"experiment/{exp.experiment_id}",
        "experiment",
        {"code": run.code_salt},
        provenance.result_digest(result),
    )


def run_all(
    verbose: bool = True, on_failure: str = "raise"
) -> Dict[str, object]:
    """Run every experiment's ``main()``; returns id -> result.

    ``on_failure="record"`` (the CLI's ``--keep-going``) degrades
    gracefully: a failing experiment becomes a structured
    :class:`repro.core.resilience.TaskFailure` in the returned mapping —
    and in the telemetry manifest — instead of aborting the runs that
    follow it.  The default (``"raise"``) aborts on the first failing
    experiment.
    """
    from ..core import resilience

    if on_failure not in ("raise", "record"):
        raise ConfigError(
            f"on_failure must be 'raise' or 'record', got {on_failure!r}"
        )
    results: Dict[str, object] = {}
    for index, exp in enumerate(_EXPERIMENTS):
        if verbose:
            print(f"=== {exp.experiment_id}: {exp.title} ===")
        try:
            with telemetry.span(f"experiment.{exp.experiment_id}"):
                results[exp.experiment_id] = exp.module.main()
            _record_provenance(exp, results[exp.experiment_id])
        except Exception as exc:
            if on_failure == "raise":
                raise
            failure = resilience.TaskFailure(
                index=index,
                key=exp.experiment_id,
                attempts=1,
                error_type=type(exc).__name__,
                message=str(exc) or type(exc).__name__,
            )
            results[exp.experiment_id] = failure
            telemetry.count("resilience.failures")
            tel = telemetry.active()
            if tel is not None:
                tel.record_failure(failure.to_dict())
            if verbose:
                print(
                    f"FAILED (recorded, continuing): "
                    f"{failure.error_type}: {failure.message}"
                )
        if verbose:
            print()
    return results
