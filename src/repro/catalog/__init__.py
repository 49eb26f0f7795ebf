"""Published results catalog + incremental sweep recomputation.

The cloudperf model applied to the reproduction: experiment outputs are
published as compressed canonical JSON keyed by the content-digest
closure of everything that produced them, so consumers read instead of
recompute.  ``repro.catalog.results`` is the store;
``repro.catalog.sweep`` is the provenance-driven incremental sweep
driver feeding it.  See ``docs/catalog.md``.
"""

from .results import (
    CATALOG_SCHEMA,
    ResultsCatalog,
    canonical_json,
    closure_key,
    payload_digest,
)
from .sweep import (
    SweepOutcome,
    SweepPoint,
    SweepSpec,
    current_leaf_inputs,
    point_inputs,
    run_sweep,
    sweep_points,
    with_cxl_dimms,
)

__all__ = [
    "CATALOG_SCHEMA",
    "ResultsCatalog",
    "SweepOutcome",
    "SweepPoint",
    "SweepSpec",
    "canonical_json",
    "closure_key",
    "current_leaf_inputs",
    "payload_digest",
    "point_inputs",
    "run_sweep",
    "sweep_points",
    "with_cxl_dimms",
]
