"""Core utilities: units, errors, deterministic RNG streams, table output."""

from .errors import (
    CapacityError,
    CarbonModelError,
    ConfigError,
    ReproError,
    SimulationError,
    SizingError,
    UnitError,
)
from .faults import FaultPlan, InjectedFault, corrupt_file, parse_fault_spec
from .ioutil import atomic_write_bytes, atomic_write_text, atomic_writer
from .resilience import (
    CheckpointJournal,
    ResiliencePolicy,
    RetryPolicy,
    TaskFailure,
    resilient_map,
)
from .rng import DEFAULT_SEED, RngFactory, derive_seed, stream
from .runner import DiskCache, content_key, resolve_jobs
from .tables import render_csv, render_table
from .telemetry import (
    Telemetry,
    capture,
    load_manifest,
    render_manifest,
    validate_manifest,
)
from .units import (
    HOURS_PER_YEAR,
    energy_kwh,
    hours_to_years,
    operational_carbon_kg,
    percent,
    savings_fraction,
    watts_to_kw,
    years_to_hours,
)

__all__ = [
    "CapacityError",
    "CarbonModelError",
    "ConfigError",
    "ReproError",
    "SimulationError",
    "SizingError",
    "UnitError",
    "FaultPlan",
    "InjectedFault",
    "corrupt_file",
    "parse_fault_spec",
    "atomic_write_bytes",
    "atomic_write_text",
    "atomic_writer",
    "CheckpointJournal",
    "ResiliencePolicy",
    "RetryPolicy",
    "TaskFailure",
    "resilient_map",
    "DEFAULT_SEED",
    "RngFactory",
    "derive_seed",
    "stream",
    "DiskCache",
    "content_key",
    "resolve_jobs",
    "render_csv",
    "render_table",
    "Telemetry",
    "capture",
    "load_manifest",
    "render_manifest",
    "validate_manifest",
    "HOURS_PER_YEAR",
    "energy_kwh",
    "hours_to_years",
    "operational_carbon_kg",
    "percent",
    "savings_fraction",
    "watts_to_kw",
    "years_to_hours",
]
