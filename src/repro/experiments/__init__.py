"""Experiment harnesses: one module per paper table/figure.

See :mod:`repro.experiments.registry` for the full index.  Each module
exposes ``run()`` (structured result), ``render()`` (the rows/series the
paper reports, as text), and ``main()`` (run + print).
"""

from . import (
    end_to_end,
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
from .registry import EXPERIMENTS, Experiment, get_experiment, run_all

__all__ = [
    "EXPERIMENTS",
    "Experiment",
    "get_experiment",
    "run_all",
    "end_to_end",
    "fig1_breakdown",
    "fig2_failures",
    "fig7_latency",
    "fig8_cxl",
    "fig9_packing",
    "fig10_memutil",
    "fig11_cluster_savings",
    "section5_maintenance",
    "section7_alternatives",
    "section7_tco",
    "table1_cpus",
    "table2_devops",
    "table3_scaling",
    "table4_savings",
    "validation",
]
