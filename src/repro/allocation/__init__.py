"""GSF VM allocation component: traces, scheduler, cluster simulation."""

from .columnar import ColumnarTrace
from .cluster import (
    AdoptionPolicy,
    ClusterSpec,
    SimOutcome,
    SnapshotStats,
    adopt_everything,
    adopt_nothing,
    outcome_digest,
    replay_on_engine,
    simulate,
)
from .fleet import ClusterTask, FleetOutcome, FleetSpec, simulate_fleet
from .index import PlacementEngine
from .ingest import (
    AzureIngestKey,
    IngestReport,
    azure_trace_suite,
    bundled_sample_path,
    ingest_azure_vm_trace,
    resolve_trace_backend,
    trace_suite,
)
from .io import load_trace, save_trace, trace_from_csv, trace_to_csv
from .lifetimes import (
    LifetimePredictor,
    SegregationOutcome,
    segregation_study,
    stranded_capacity_fraction,
)
from .packing import PackingPoint, cdf, fraction_below, packing_point
from .scheduler import Server
from .store import TraceStore
from .traces import TraceParams, VmTrace, generate_trace, production_trace_suite
from .vm import VmRequest

__all__ = [
    "ColumnarTrace",
    "TraceStore",
    "AdoptionPolicy",
    "ClusterSpec",
    "SimOutcome",
    "SnapshotStats",
    "adopt_everything",
    "adopt_nothing",
    "outcome_digest",
    "replay_on_engine",
    "simulate",
    "ClusterTask",
    "FleetOutcome",
    "FleetSpec",
    "simulate_fleet",
    "PlacementEngine",
    "LifetimePredictor",
    "SegregationOutcome",
    "segregation_study",
    "stranded_capacity_fraction",
    "load_trace",
    "save_trace",
    "trace_from_csv",
    "trace_to_csv",
    "PackingPoint",
    "cdf",
    "fraction_below",
    "packing_point",
    "Server",
    "TraceParams",
    "VmTrace",
    "generate_trace",
    "production_trace_suite",
    "AzureIngestKey",
    "IngestReport",
    "azure_trace_suite",
    "bundled_sample_path",
    "ingest_azure_vm_trace",
    "resolve_trace_backend",
    "trace_suite",
    "VmRequest",
]
