"""Synthetic Azure-like VM arrival/departure traces.

The paper's packing study replays 35 production VM traces from multiple
Azure data centers.  Those traces are proprietary; this generator
synthesizes traces with the published marginals of Azure's workload
(Resource Central, Protean):

- VM core sizes concentrate on small power-of-two shapes (1-8 cores) with
  a tail of 16/32-core VMs,
- memory per core clusters around 4 GB/core (1, 2, 4, 8 GB/core mix),
- lifetimes are heavy-tailed: most VMs live under a day, a minority live
  for weeks and a few outlive the trace window,
- arrivals are Poisson with diurnal modulation,
- each VM targets a pre-defined baseline generation (old generations keep
  receiving *new* deployments, as the paper observes),
- a small share are long-living "full-node" VMs requiring dedicated
  servers,
- each VM reports the maximum fraction of its memory it ever touches
  (most servers stay below 60% — Fig. 10's precondition for backing
  untouched memory with CXL).

A trace's applications are assigned the paper's way: sample a class from
the fleet core-hour shares (Table III), then uniformly choose an
application within the class.

The generator draws in blocks — the full size column in one
``random(2n)`` block, ``choice`` calls replaced by one uniform plus a
cumulative-weight search (exactly what ``Generator.choice`` does
internally), scalar loops only where a stream's draw count is
data-dependent (diurnal thinning, ziggurat exponentials, rejection
beta/integers) — and assembles columnar arrays.  The original
one-VM-at-a-time loop, whose draw schedule defines the trace content,
lives in ``tests/oracles/traces.py``; the tests and golden digests hold
the two to the bit-identical VM stream.
"""

from __future__ import annotations

import dataclasses
import math
import numbers
from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..core import settings, telemetry
from ..core.checks import check_finite
from ..core.errors import ConfigError
from ..core.resilience import TaskFailure, drop_failures, resilient_map
from ..core.rng import RngFactory
from ..perf.apps import (
    FLEET_CORE_HOUR_SHARE,
    apps_in_class,
)
from .columnar import ColumnarTrace
from .vm import VmRequest

#: Full-node VMs request their generation's whole server shape
#: (Gen1/2: 64 cores; Gen3: 80 cores at 9.6 GB/core); indexed by
#: generation number (slot 0 unused).
_FULL_NODE_CORES = np.array([0, 64, 64, 80], dtype=np.int64)
_FULL_NODE_GB_PER_CORE = np.array([0.0, 6.0, 8.0, 9.6], dtype=np.float64)


@dataclass(frozen=True)
class TraceParams:
    """Knobs of the synthetic trace generator.

    Attributes:
        duration_days: Trace window length.
        mean_concurrent_vms: Target steady-state VM population.
        core_sizes / core_size_weights: VM vCPU shape distribution.
        memory_per_core_gb / memory_per_core_weights: GB-per-core mix.
        short_lifetime_hours: Mean lifetime of the short-lived mode.
        long_lifetime_hours: Mean lifetime of the long-lived mode.
        long_lived_fraction: Probability a VM is long-lived.
        generation_mix: Share of deployments targeting Gen1/2/3 (the
            paper notes old generations keep growing).
        full_node_fraction: Share of VMs that need a dedicated server.
        diurnal_amplitude: Relative day/night arrival-rate swing.
        mem_touch_alpha / mem_touch_beta: Beta-distribution parameters of
            the max-touched-memory fraction (mean 0.55, matching Pond's
            finding that untouched memory is almost half of a VM's
            allocation).
    """

    duration_days: float = 14.0
    mean_concurrent_vms: int = 350
    core_sizes: Tuple[int, ...] = (1, 2, 4, 8, 16, 32)
    core_size_weights: Tuple[float, ...] = (0.22, 0.28, 0.25, 0.15, 0.07, 0.03)
    memory_per_core_gb: Tuple[float, ...] = (1.0, 2.0, 4.0, 8.0)
    memory_per_core_weights: Tuple[float, ...] = (0.05, 0.10, 0.40, 0.45)
    short_lifetime_hours: float = 6.0
    long_lifetime_hours: float = 24.0 * 21
    long_lived_fraction: float = 0.12
    generation_mix: Tuple[float, float, float] = (0.15, 0.30, 0.55)
    full_node_fraction: float = 0.0005
    full_node_lifetime_hours: float = 24.0 * 14
    diurnal_amplitude: float = 0.3
    mem_touch_alpha: float = 2.75
    mem_touch_beta: float = 2.25

    def __post_init__(self) -> None:
        # Equal params must have one repr (store and cache keys hash it):
        # hold every float-annotated field as float, so ``3`` and ``3.0``
        # days are the same params.
        for spec in dataclasses.fields(self):
            value = getattr(self, spec.name)
            if spec.type == "float" and isinstance(value, numbers.Real):
                object.__setattr__(self, spec.name, float(value))
            elif spec.type.startswith("Tuple[float") and all(
                isinstance(v, numbers.Real) for v in value
            ):
                object.__setattr__(
                    self, spec.name, tuple(float(v) for v in value)
                )
        check_finite(self.duration_days, "duration_days", above=0)
        check_finite(self.mean_concurrent_vms, "mean_concurrent_vms", above=0)
        for weights, values, label in (
            (self.core_size_weights, self.core_sizes, "core sizes"),
            (
                self.memory_per_core_weights,
                self.memory_per_core_gb,
                "memory per core",
            ),
        ):
            if len(weights) != len(values):
                raise ConfigError(f"{label}: weights/values length mismatch")
            if abs(sum(weights) - 1.0) > 1e-6:
                raise ConfigError(f"{label}: weights must sum to 1")
        if abs(sum(self.generation_mix) - 1.0) > 1e-6:
            raise ConfigError("generation mix must sum to 1")
        if not 0 <= self.full_node_fraction < 1:
            raise ConfigError("full-node fraction must be in [0, 1)")
        if not 0 <= self.diurnal_amplitude < 1:
            raise ConfigError("diurnal amplitude must be in [0, 1)")
        for value, label in (
            (self.short_lifetime_hours, "short lifetime"),
            (self.long_lifetime_hours, "long lifetime"),
            (self.full_node_lifetime_hours, "full-node lifetime"),
        ):
            check_finite(value, label, above=0)
        if not 0 <= self.long_lived_fraction <= 1:
            raise ConfigError("long-lived fraction must be in [0, 1]")
        check_finite(self.mem_touch_alpha, "mem_touch_alpha", above=0)
        check_finite(self.mem_touch_beta, "mem_touch_beta", above=0)

    @property
    def mean_lifetime_hours(self) -> float:
        """Population-mean VM lifetime."""
        return (
            (1 - self.long_lived_fraction) * self.short_lifetime_hours
            + self.long_lived_fraction * self.long_lifetime_hours
        )

    @property
    def arrival_rate_per_hour(self) -> float:
        """Arrival rate sustaining the target population (Little's law)."""
        return self.mean_concurrent_vms / self.mean_lifetime_hours

    @classmethod
    def fit(cls, trace: "VmTrace") -> "TraceParams":
        """Marginals-fitted params for an (ingested) trace.

        Method-of-moments estimates over the trace columns — empirical
        core/memory mixes, two-mode lifetime split, Little's-law
        concurrency, diurnal Fourier amplitude, Beta moments for the
        touched-memory fraction.  Delegates to
        :func:`repro.analysis.marginals.fit_trace_params` (imported
        lazily: ``analysis`` sits above ``allocation`` in the layering).
        """
        from ..analysis.marginals import fit_trace_params

        return fit_trace_params(trace)


def _choice_cdf(weights: Sequence[float]) -> np.ndarray:
    """The cumulative-weight table ``Generator.choice(p=weights)`` builds.

    ``choice`` draws one uniform ``u`` and returns
    ``cdf.searchsorted(u, side="right")`` on exactly this (normalized)
    cumulative array, so sharing the construction keeps replacement
    draws bit-identical.
    """
    cdf = np.asarray(weights, dtype=np.float64).cumsum()
    cdf /= cdf[-1]
    return cdf


class _ParamTables:
    """Per-``TraceParams`` sampling tables, built once per params value."""

    __slots__ = (
        "core_cdf", "core_values", "mem_cdf", "mem_values",
        "gen_cdf",
    )

    def __init__(self, params: TraceParams) -> None:
        self.core_cdf = _choice_cdf(params.core_size_weights)
        self.core_values = np.asarray(params.core_sizes, dtype=np.int64)
        self.mem_cdf = _choice_cdf(params.memory_per_core_weights)
        self.mem_values = np.asarray(
            params.memory_per_core_gb, dtype=np.float64
        )
        self.gen_cdf = _choice_cdf(params.generation_mix)


@lru_cache(maxsize=128)
def _params_tables(params: TraceParams) -> _ParamTables:
    return _ParamTables(params)


class _AppTables:
    """Application-assignment tables (pure functions of fleet constants).

    ``flat_names`` concatenates every class's members in fleet-share
    order; ``offsets[c]`` is class ``c``'s start index in it, so a flat
    app index is ``offsets[c] + within-class index``.  This is the
    app-name interning table every generated trace shares.
    """

    __slots__ = (
        "n_classes", "shares", "members", "class_cdf", "class_cdf_list",
        "member_lens", "offsets", "flat_names",
    )

    def __init__(self) -> None:
        classes = list(FLEET_CORE_HOUR_SHARE.keys())
        shares = np.array([FLEET_CORE_HOUR_SHARE[c] for c in classes])
        self.shares = shares / shares.sum()
        self.n_classes = len(classes)
        self.members = tuple(
            tuple(app.name for app in apps_in_class(c)) for c in classes
        )
        self.class_cdf = _choice_cdf(self.shares)
        self.class_cdf_list = self.class_cdf.tolist()
        self.member_lens = [len(members) for members in self.members]
        offsets, total = [], 0
        for length in self.member_lens:
            offsets.append(total)
            total += length
        self.offsets = offsets
        self.flat_names = tuple(
            name for members in self.members for name in members
        )


_APP_TABLES: Optional[_AppTables] = None


def _app_tables() -> _AppTables:
    global _APP_TABLES
    if _APP_TABLES is None:
        _APP_TABLES = _AppTables()
    return _APP_TABLES


class VmTrace:
    """A generated trace: VM requests sorted by arrival time.

    Canonically columnar (:class:`ColumnarTrace`); the ``vms`` row tuple
    is a lazily materialized view for code that walks VMs one at a time.
    Construct with exactly one of ``vms=`` or ``columns=``; either form
    converts to the other on demand and round-trips losslessly.
    """

    #: ``_events`` holds the replay's merged arrival/departure stream and
    #: the window end it was merged for, filled by the first replay
    #: (``allocation.cluster._trace_events``); it is never pickled.
    __slots__ = ("name", "params", "_rows", "_columns", "_events")

    def __init__(
        self,
        name: str,
        params: TraceParams,
        vms: Optional[Sequence[VmRequest]] = None,
        columns: Optional[ColumnarTrace] = None,
    ) -> None:
        if (vms is None) == (columns is None):
            raise ConfigError(
                "VmTrace takes exactly one of vms= or columns="
            )
        self.name = name
        self.params = params
        self._rows = tuple(vms) if vms is not None else None
        self._columns = columns
        self._events = None

    @property
    def vms(self) -> Tuple[VmRequest, ...]:
        """The row view (materialized on first access)."""
        rows = self._rows
        if rows is None:
            rows = self._rows = self._columns.to_vms()
        return rows

    @property
    def columns(self) -> ColumnarTrace:
        """The columnar view (built on first access for row-built traces)."""
        columns = self._columns
        if columns is None:
            columns = self._columns = ColumnarTrace.from_vms(
                self._rows, base_app_names=_app_tables().flat_names
            )
        return columns

    @property
    def vm_count(self) -> int:
        """Number of VMs, without materializing rows."""
        columns = self._columns
        return len(self._rows) if columns is None else columns.n

    @property
    def duration_hours(self) -> float:
        """The trace window *length* (see :attr:`end_hours` for its end)."""
        return self.params.duration_days * 24.0

    @property
    def start_hours(self) -> float:
        """Where the trace window opens: the first VM arrival.

        Synthetic traces start at t=0; ingested real traces usually do
        not (the capture begins mid-day), so replay windows and snapshot
        grids anchor here rather than at the epoch.
        """
        return self.columns.start_hours()

    @property
    def end_hours(self) -> float:
        """Where the trace window closes: ``start_hours + duration``."""
        return self.start_hours + self.duration_hours

    @property
    def last_arrival_hours(self) -> float:
        """The latest VM arrival (0.0 for an empty trace)."""
        return self.columns.last_arrival_hours()

    def filter(self, mask: np.ndarray, name: Optional[str] = None) -> "VmTrace":
        """A sub-trace of the rows selected by a boolean column mask.

        Row order and ``vm_id`` are preserved; ``params`` carries over.
        """
        return VmTrace(
            name=name or self.name,
            params=self.params,
            columns=self.columns.take(mask),
        )

    def peak_concurrent_cores(self) -> int:
        """Peak simultaneous requested cores (sizing lower bound).

        Exact event sweep over the columns: departures at an instant
        release cores before arrivals at the same instant claim them
        (half-open ``[arrival, departure)`` occupancy).
        """
        return self.columns.peak_concurrent_cores()

    def digest(self) -> str:
        """Content identity of the VM stream (sha256 over the columns)."""
        return self.columns.digest()

    def __repr__(self) -> str:
        return (
            f"VmTrace(name={self.name!r}, params={self.params!r}, "
            f"vms=<{self.vm_count} VMs>)"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, VmTrace):
            return NotImplemented
        return (
            self.name == other.name
            and self.params == other.params
            and self.columns == other.columns
        )

    def __hash__(self) -> int:
        return hash((self.name, self.params, self.columns.digest()))

    def __reduce__(self):
        # Pickle the compact columnar form (workers rebuild rows lazily).
        return (_rebuild_trace, (self.name, self.params, self.columns))


def _rebuild_trace(
    name: str, params: TraceParams, columns: ColumnarTrace
) -> VmTrace:
    return VmTrace(name=name, params=params, columns=columns)


def generate_trace(
    seed: int,
    params: Optional[TraceParams] = None,
    name: Optional[str] = None,
) -> VmTrace:
    """Generate one synthetic VM trace.

    Identical ``(seed, params)`` always produce the identical trace.
    """
    params = params or TraceParams()
    with telemetry.timer("trace.generate"):
        trace = VmTrace(
            name=name or f"trace-{seed}",
            params=params,
            columns=_generate_columns(seed, params),
        )
    tel = telemetry.active()
    if tel is not None:
        tel.count_many(
            {"trace.generated": 1, "trace.generated_vms": trace.vm_count}
        )
    return trace


def _generate_columns(seed: int, params: TraceParams) -> ColumnarTrace:
    """Block-drawn trace generation, bit-identical to the scalar loop.

    Each of the four RNG streams is consumed in exactly the scalar
    loop's per-stream order (``tests/oracles/traces.py``); only *cross-stream* interleaving is reorganized
    (streams are independent, so that changes nothing):

    - ``sizes``: exactly two uniforms per VM, replayed as one
      ``random(2n)`` block plus cumulative-weight searches (what
      ``choice`` does internally, one call at a time).
    - ``metadata``: the per-VM draw schedule mixes fixed-cost uniforms
      with rejection-sampled ``integers``/``beta`` on one stream, so the
      loop stays scalar — but each ``choice`` (a uniform + a cdf search)
      is replaced by ``random()`` + ``bisect_right`` on the prebuilt
      cumulative tables, which is ~20x cheaper and draw-identical.
    - ``arrivals``: the diurnal thinning loop is inherently sequential
      (each proposal's timestamp feeds the next draw's acceptance test).
    - ``lifetimes``: branch-dependent draw counts (full-node VMs skip
      the long/short uniform), so sequential, with the full-node flags
      resolved from the metadata pass first.

    Columns are assembled with numpy ops whose results are bit-equal to
    the scalar arithmetic (int64*float64 products, ``maximum`` floors).
    """
    rngs = RngFactory(seed).child("vm-trace")
    arr_rng = rngs.stream("arrivals")
    size_rng = rngs.stream("sizes")
    life_rng = rngs.stream("lifetimes")
    meta_rng = rngs.stream("metadata")
    tables = _params_tables(params)
    apps = _app_tables()

    duration_hours = params.duration_days * 24.0
    base_rate = params.arrival_rate_per_hour

    # -- lifetimes stream, part 1: the initial steady-state population.
    initial_count = int(life_rng.poisson(params.mean_concurrent_vms))
    p_long_present = (
        params.long_lived_fraction
        * params.long_lifetime_hours
        / params.mean_lifetime_hours
    )
    life_random = life_rng.random
    life_exponential = life_rng.exponential
    short_hours = params.short_lifetime_hours
    long_hours = params.long_lifetime_hours
    lifetimes = [
        life_exponential(long_hours)
        if life_random() < p_long_present
        else life_exponential(short_hours)
        for _ in range(initial_count)
    ]

    # -- arrivals stream: diurnal thinning (sequential by construction).
    amplitude = params.diurnal_amplitude
    peak_rate = base_rate * (1.0 + amplitude)
    mean_gap = 1.0 / peak_rate
    accept_scale = 1.0 + amplitude
    arr_exponential = arr_rng.exponential
    arr_random = arr_rng.random
    sin = math.sin
    two_pi = 2.0 * math.pi
    arrivals: List[float] = []
    t = 0.0
    while True:
        t += arr_exponential(mean_gap)
        if t >= duration_hours:
            break
        intensity = 1.0 + amplitude * sin(two_pi * t / 24.0)
        if arr_random() > intensity / accept_scale:
            continue
        arrivals.append(t)
    accepted_count = len(arrivals)
    total = initial_count + accepted_count

    # -- metadata stream: per-VM [gen-u, (full-u,) class-u, integers,
    #    beta]; choices become uniform + cdf search.
    meta_random = meta_rng.random
    meta_integers = meta_rng.integers
    meta_beta = meta_rng.beta
    class_cdf = apps.class_cdf_list
    member_lens = apps.member_lens
    offsets = apps.offsets
    alpha = params.mem_touch_alpha
    beta_param = params.mem_touch_beta
    gen_uniforms: List[float] = []
    full_uniforms: List[float] = []
    app_index: List[int] = []
    mem_fractions: List[float] = []
    for _ in range(initial_count):
        gen_uniforms.append(meta_random())
        cls = bisect_right(class_cdf, meta_random())
        app_index.append(offsets[cls] + int(meta_integers(member_lens[cls])))
        mem_fractions.append(meta_beta(alpha, beta_param))
    for _ in range(accepted_count):
        gen_uniforms.append(meta_random())
        full_uniforms.append(meta_random())
        cls = bisect_right(class_cdf, meta_random())
        app_index.append(offsets[cls] + int(meta_integers(member_lens[cls])))
        mem_fractions.append(meta_beta(alpha, beta_param))

    # -- lifetimes stream, part 2: arrivals (needs the full-node flags).
    full_fraction = params.full_node_fraction
    full_hours = params.full_node_lifetime_hours
    long_fraction = params.long_lived_fraction
    arrival_full = [u < full_fraction for u in full_uniforms]
    for is_full in arrival_full:
        if is_full:
            lifetimes.append(life_exponential(full_hours))
        elif life_random() < long_fraction:
            lifetimes.append(life_exponential(long_hours))
        else:
            lifetimes.append(life_exponential(short_hours))

    # -- sizes stream: one block draw for every (core, memory) pair.
    size_uniforms = size_rng.random(2 * total)
    core_idx = np.searchsorted(
        tables.core_cdf, size_uniforms[0::2], side="right"
    )
    mem_idx = np.searchsorted(
        tables.mem_cdf, size_uniforms[1::2], side="right"
    )

    # -- columnar assembly.
    generation = 1 + np.searchsorted(
        tables.gen_cdf,
        np.asarray(gen_uniforms, dtype=np.float64),
        side="right",
    ).astype(np.int64)
    full_node = np.zeros(total, dtype=np.bool_)
    full_node[initial_count:] = arrival_full
    cores = tables.core_values[core_idx]
    gb_per_core = tables.mem_values[mem_idx]
    if full_node.any():
        mask = full_node
        cores = cores.copy()
        gb_per_core = gb_per_core.copy()
        cores[mask] = _FULL_NODE_CORES[generation[mask]]
        gb_per_core[mask] = _FULL_NODE_GB_PER_CORE[generation[mask]]
    arrival_hours = np.concatenate(
        [
            np.zeros(initial_count, dtype=np.float64),
            np.asarray(arrivals, dtype=np.float64),
        ]
    )
    return ColumnarTrace(
        vm_id=np.arange(total, dtype=np.int64),
        arrival_hours=arrival_hours,
        lifetime_hours=np.maximum(
            np.asarray(lifetimes, dtype=np.float64), 0.05
        ),
        cores=cores,
        memory_gb=cores * gb_per_core,
        generation=generation,
        app_index=np.asarray(app_index, dtype=np.int64),
        max_memory_fraction=np.asarray(mem_fractions, dtype=np.float64),
        full_node=full_node,
        app_names=apps.flat_names,
    )


def _generate_spec(spec: Tuple[int, TraceParams, str]) -> VmTrace:
    """Generate one suite trace from its spec (a ``resilient_map`` task)."""
    seed, params, name = spec
    return generate_trace(seed=seed, params=params, name=name)


def suite_specs(
    count: int = 35,
    base_seed: int = 100,
    params: Optional[TraceParams] = None,
) -> List[Tuple[int, TraceParams, str]]:
    """The ``(seed, params, name)`` spec of each suite trace.

    Splitting spec derivation from generation lets the trace store key
    entries without generating anything.
    """
    if count < 1:
        raise ConfigError("need at least one trace")
    base = params or TraceParams()
    jitter = RngFactory(base_seed).stream("suite-jitter")
    specs = []
    for i in range(count):
        scale = 0.75 + 0.5 * jitter.random()
        long_frac = min(0.3, max(0.05, base.long_lived_fraction
                                 * (0.7 + 0.6 * jitter.random())))
        trace_params = dataclasses.replace(
            base,
            mean_concurrent_vms=max(60, int(base.mean_concurrent_vms * scale)),
            long_lived_fraction=long_frac,
        )
        specs.append((base_seed + i, trace_params, f"dc-{i:02d}"))
    return specs


def production_trace_suite(
    count: int = 35,
    base_seed: int = 100,
    params: Optional[TraceParams] = None,
    jobs: Optional[int] = None,
    store: Optional[object] = None,
) -> List[VmTrace]:
    """The stand-in for the paper's 35 production traces.

    Each trace uses a distinct seed and mild parameter jitter (population
    and lifetime mix vary across data centers).

    When the persistent trace store is enabled (``store=`` argument, or
    the run settings' ``use_trace_store``: ``REPRO_TRACE_STORE``, else
    the result-cache opt-in), stored traces load from ``.npz`` and only
    the misses are generated — in process unless ``jobs`` asks for more
    than one worker, and then through ``resilient_map`` under the run
    settings' resilience policy.  A trace whose generation failed under
    the CLI's ``--keep-going`` is neither stored nor returned.
    """
    specs = suite_specs(count=count, base_seed=base_seed, params=params)
    if store is None:
        from .store import TraceStore

        store = TraceStore() if settings.current().use_trace_store else None
    results: List[Optional[VmTrace]] = [None] * len(specs)
    if store is not None:
        for i, (seed, trace_params, name) in enumerate(specs):
            results[i] = store.get(seed, trace_params, name)
    missing = [i for i, trace in enumerate(results) if trace is None]
    if missing:
        if jobs is not None and jobs != 1 and len(missing) > 1:
            fresh = resilient_map(
                _generate_spec, [specs[i] for i in missing], jobs=jobs
            )
        else:
            fresh = [_generate_spec(specs[i]) for i in missing]
        for i, trace in zip(missing, fresh):
            results[i] = trace
            if store is not None and not isinstance(trace, TaskFailure):
                seed, trace_params, _name = specs[i]
                store.put(seed, trace_params, trace.columns)
    return drop_failures(results)
