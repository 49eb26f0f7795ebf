"""Incremental scenario sweep: recompute only the invalidated cone.

``run_sweep`` evaluates the full adoption × buffer × CXL-fraction ×
SKU × trace-backend grid through the GSF pipeline, publishing every
point's payload into a :class:`~repro.catalog.results.ResultsCatalog`
and recording its provenance edges.  On a repeat run it:

1. digests the current leaf inputs (:func:`current_leaf_inputs` — trace
   content, hardware tables, code salt),
2. diffs them against the provenance graph
   (:func:`repro.core.provenance.invalidated`) to report the stale cone,
3. looks every point up by its closure key — unchanged inputs hit the
   catalog (a single compressed read), changed inputs *miss* because
   their key moved, and only those misses recompute, and
4. reconciles: a recomputed payload whose closure key already had a
   published entry must encode byte-identically to it, else the sweep
   raises — silent nondeterminism must never replace published results.

Recomputation rides :func:`repro.core.resilience.resilient_map`, so
when a resilience policy is active (the CLI's ``--resume`` /
``--retries`` / ``--faults``) the sweep inherits checkpoint/resume,
retries, and fault injection — a killed sweep resumes bit-identically.

Points are frozen dataclasses and the compute function is module-level,
so the grid fans out over worker processes like every other experiment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar, Dict, List, Mapping, Optional, Sequence, Tuple

from ..allocation.ingest import azure_tables, azure_trace_suite, file_digest
from ..allocation.traces import TraceParams, generate_trace
from ..core import provenance, settings, telemetry
from ..core.checks import check_finite
from ..core.errors import ConfigError, SimulationError
from ..core.resilience import resilient_map
from ..core.runner import content_key
from ..hardware import catalog as parts_catalog
from ..hardware.components import CxlControllerSpec, DramSpec
from ..hardware.sku import ServerSKU, paper_skus
from .results import ResultsCatalog, closure_key, payload_digest

#: The artifact id of the whole-sweep summary node.
SUMMARY_ARTIFACT = "sweep/summary"


# -- the grid ------------------------------------------------------------------


@dataclass(frozen=True)
class SweepSpec:
    """The axes of one scenario sweep (the grid is their product).

    Attributes:
        skus: GreenSKU names from :func:`~repro.hardware.sku.paper_skus`.
        adoption_rules: Names understood by
            :func:`repro.analysis.ablations.adoption_policy`.
        buffer_fractions: Growth-buffer headrooms to evaluate.
        cxl_dimm_counts: Reused-DDR4 DIMM counts; ``None`` keeps the
            stock SKU, an even integer rebuilds it via
            :func:`with_cxl_dimms`.
        backends: Trace backends (``synthetic`` / ``azure``).
        carbon_intensity: Grid CI override (``None`` = framework default).
        seed / vms / days: Synthetic-trace generator inputs.  They shape
            the ``trace/synthetic`` *leaf digest*, not the point
            identity — mutating them invalidates every synthetic point's
            closure, which is exactly the incremental-recompute story.
    """

    skus: Tuple[str, ...] = ("GreenSKU-Full",)
    adoption_rules: Tuple[str, ...] = ("carbon-aware",)
    buffer_fractions: Tuple[float, ...] = (0.15,)
    cxl_dimm_counts: Tuple[Optional[int], ...] = (None,)
    backends: Tuple[str, ...] = ("synthetic",)
    carbon_intensity: Optional[float] = None
    seed: int = 7
    vms: int = 60
    days: float = 2.0

    def __post_init__(self) -> None:
        known = set(paper_skus())
        for name in self.skus:
            if name not in known:
                raise ConfigError(f"unknown SKU {name!r}")
        for backend in self.backends:
            if backend not in settings.TRACE_BACKENDS:
                raise ConfigError(f"unknown trace backend {backend!r}")
        if not (self.skus and self.adoption_rules and self.buffer_fractions
                and self.cxl_dimm_counts and self.backends):
            raise ConfigError("every sweep axis needs at least one value")
        for fraction in self.buffer_fractions:
            check_finite(fraction, "buffer fraction", at_least=0, below=1)
        if self.carbon_intensity is not None:
            check_finite(
                self.carbon_intensity, "carbon intensity", at_least=0
            )
        check_finite(self.days, "days", above=0)


@dataclass(frozen=True)
class SweepPoint:
    """One grid point: a fully resolved scenario.

    ``seed`` / ``vms`` / ``days`` ride along so the point is
    self-contained for worker processes, but :attr:`artifact_id`
    deliberately excludes them — trace content is a shared *leaf* of the
    provenance graph, so changing it moves the leaf digest (invalidating
    the cone) rather than renaming every artifact.
    """

    # Constants, not fields: perfbench's goldens and
    # benchmarks/golden_catalog_cone.json pin artifact ids ending
    # ``/sigNone/polblind`` and payloads carrying both keys; a change to
    # perfbench's goldens may drop them.
    grid_signal: ClassVar[Optional[str]] = None
    placement_policy: ClassVar[str] = "blind"

    sku: str
    rule: str
    buffer_fraction: float
    cxl_dimms: Optional[int]
    backend: str
    carbon_intensity: Optional[float]
    seed: int
    vms: int
    days: float

    @property
    def artifact_id(self) -> str:
        """The point's stable provenance node id."""
        return (
            f"point/{self.sku}/{self.rule}/buf{self.buffer_fraction!r}"
            f"/cxl{self.cxl_dimms}/{self.backend}/ci{self.carbon_intensity!r}"
            f"/sig{self.grid_signal}/pol{self.placement_policy}"
        )


def sweep_points(spec: SweepSpec) -> List[SweepPoint]:
    """The grid, in deterministic axis-major order."""
    points = []
    for sku in spec.skus:
        for rule in spec.adoption_rules:
            for buffer_fraction in spec.buffer_fractions:
                for cxl_dimms in spec.cxl_dimm_counts:
                    for backend in spec.backends:
                        points.append(
                            SweepPoint(
                                sku=sku,
                                rule=rule,
                                buffer_fraction=buffer_fraction,
                                cxl_dimms=cxl_dimms,
                                backend=backend,
                                carbon_intensity=spec.carbon_intensity,
                                seed=spec.seed,
                                vms=spec.vms,
                                days=spec.days,
                            )
                        )
    return points


# -- the CXL-fraction axis -----------------------------------------------------


def with_cxl_dimms(sku: ServerSKU, cxl_dimms: int) -> ServerSKU:
    """Rebuild ``sku`` with ``cxl_dimms`` reused DDR4 DIMMs behind CXL.

    The ablation recipe generalized: strip the stock CXL memory and
    controllers, attach ``cxl_dimms`` × 32 GB reused DDR4 behind
    ``ceil(cxl_dimms / 4)`` controllers, and retune the local DIMM count
    so total capacity stays as close as possible to the stock SKU's
    (trading one 64 GB DDR5 for each pair of reused DIMMs, on the paper
    SKUs).  ``with_cxl_dimms(greensku_cxl(), 8)`` reproduces the stock
    GreenSKU-CXL memory configuration exactly.
    """
    if cxl_dimms < 0 or cxl_dimms % 2:
        raise ConfigError("cxl_dimms must be an even count >= 0")
    target_gb = sku.memory_gb
    kept = [
        (spec, count)
        for spec, count in sku.parts
        if not (isinstance(spec, DramSpec) and spec.via_cxl)
        and not isinstance(spec, CxlControllerSpec)
    ]
    local_dram = [
        (i, spec) for i, (spec, _count) in enumerate(kept)
        if isinstance(spec, DramSpec)
    ]
    if len(local_dram) != 1:
        raise ConfigError(
            f"{sku.name}: need exactly one local DRAM spec to retune, "
            f"found {len(local_dram)}"
        )
    index, local_spec = local_dram[0]
    cxl_gb = cxl_dimms * parts_catalog.DDR4_32GB_REUSED.capacity_gb
    local_count = round((target_gb - cxl_gb) / local_spec.capacity_gb)
    if local_count < 1:
        raise ConfigError(
            f"{sku.name}: {cxl_dimms} CXL DIMMs leave no local memory"
        )
    kept[index] = (local_spec, local_count)
    if cxl_dimms:
        kept.append((parts_catalog.DDR4_32GB_REUSED, cxl_dimms))
        kept.append(
            (parts_catalog.CXL_CONTROLLER, math.ceil(cxl_dimms / 4))
        )
    return ServerSKU.build(
        f"{sku.name}-cxl{cxl_dimms}",
        kept,
        form_factor_u=sku.form_factor_u,
        generation=sku.generation,
    )


# -- leaf-input digests --------------------------------------------------------


def _hardware_digest() -> str:
    """One digest over every paper SKU's full bill of materials."""
    skus = paper_skus()
    return content_key(*(skus[name] for name in sorted(skus)))


def _synthetic_trace_digest(spec: SweepSpec) -> str:
    """The synthetic backend's leaf digest: the generator's full input."""
    params = TraceParams(
        mean_concurrent_vms=spec.vms, duration_days=spec.days
    )
    return content_key("synthetic", spec.seed, params)


def _azure_trace_digest() -> str:
    """The azure backend's leaf digest: content of the source table.

    Digests the first (sorted) vmtable CSV under the configured
    directory — the same file :func:`_compute_point` will ingest.
    """
    return content_key("azure", file_digest(azure_tables()[0]))


def current_leaf_inputs(spec: SweepSpec) -> Dict[str, str]:
    """Digest every leaf input the sweep depends on, *right now*.

    This is the 'current state of the world' side of the provenance
    diff: trace content per backend, the hardware tables, and the code
    salt.  Anything here changing is what invalidates catalog entries.
    """
    leaves = {
        "code": settings.current().code_salt,
        "hardware": _hardware_digest(),
    }
    if "synthetic" in spec.backends:
        leaves["trace/synthetic"] = _synthetic_trace_digest(spec)
    if "azure" in spec.backends:
        leaves["trace/azure"] = _azure_trace_digest()
    return leaves


def point_inputs(
    point: SweepPoint, leaves: Mapping[str, str]
) -> Dict[str, str]:
    """The full input closure of one point (its catalog address).

    The point's own configuration enters as a self-named leaf
    (``point/<id>`` → a content hash of the point), so two points never
    collide and a config change re-keys exactly that point.
    """
    return {
        f"cfg/{point.artifact_id}": content_key(point),
        "code": leaves["code"],
        "hardware": leaves["hardware"],
        f"trace/{point.backend}": leaves[f"trace/{point.backend}"],
    }


# -- the compute kernel --------------------------------------------------------


def _compute_point(point: SweepPoint) -> Dict[str, object]:
    """Evaluate one scenario end to end (worker entry; pure in ``point``).

    Builds the trace, the (possibly CXL-retuned) SKU, the adoption
    policy, runs the sizing search + GSF evaluation, and returns the
    JSON payload.  Policy callables are rebuilt from the rule name here
    because closures do not pickle.
    """
    from ..analysis.ablations import adoption_policy
    from ..gsf.framework import Gsf, GsfConfig
    from ..gsf.sizing import size_mixed_cluster

    if point.backend == "synthetic":
        trace = generate_trace(
            point.seed,
            TraceParams(
                mean_concurrent_vms=point.vms, duration_days=point.days
            ),
        )
    else:
        trace = azure_trace_suite(count=1)[0]
    gsf = Gsf(GsfConfig(buffer_fraction=point.buffer_fraction))
    if point.carbon_intensity is not None:
        gsf = gsf.at_intensity(point.carbon_intensity)
    sku = paper_skus()[point.sku]
    if point.cxl_dimms is not None:
        sku = with_cxl_dimms(sku, point.cxl_dimms)
    policy = adoption_policy(point.rule, gsf, sku)
    sizing = size_mixed_cluster(trace, gsf.baseline, sku, policy)
    evaluation = gsf.evaluate(sku, trace, sizing=sizing)
    payload = evaluation.to_payload()
    payload["point"] = {
        "sku": point.sku,
        "rule": point.rule,
        "buffer_fraction": point.buffer_fraction,
        "cxl_dimms": point.cxl_dimms,
        "backend": point.backend,
        "grid_signal": point.grid_signal,
        "placement_policy": point.placement_policy,
    }
    return payload


# -- the driver ----------------------------------------------------------------


@dataclass
class SweepOutcome:
    """Everything one ``run_sweep`` call produced or reused.

    Attributes:
        points: The grid, in order.
        keys: Each point's closure key (its catalog address).
        payloads: Each point's payload, warm or fresh, aligned with
            ``points`` (``None`` only for points that degraded under an
            active ``--keep-going`` resilience policy).
        recomputed: Artifact ids that actually recomputed this run.
        warm: Artifact ids served straight from the catalog.
        invalidation: The provenance diff against current inputs; its
            ``cone_digest()`` is the CI golden value.
        summary: The whole-sweep summary payload (also published).
        summary_key: The summary's catalog key.
    """

    points: List[SweepPoint]
    keys: List[str]
    payloads: List[Optional[Dict[str, object]]]
    recomputed: List[str]
    warm: List[str]
    invalidation: provenance.InvalidationReport
    summary: Dict[str, object]
    summary_key: str

    def live_keys(self) -> List[str]:
        """The catalog keys this sweep considers live (for ``gc``)."""
        return sorted(set(self.keys) | {self.summary_key})


def _summary_payload(
    points: Sequence[SweepPoint],
    payloads: Sequence[Optional[Dict[str, object]]],
) -> Dict[str, object]:
    """The sweep-level rollup: one row per completed point."""
    rows = []
    for point, payload in zip(points, payloads):
        if payload is None:
            continue
        rows.append({
            "id": point.artifact_id,
            "sku": point.sku,
            "rule": point.rule,
            "buffer_fraction": point.buffer_fraction,
            "cxl_dimms": point.cxl_dimms,
            "backend": point.backend,
            "grid_signal": point.grid_signal,
            "placement_policy": point.placement_policy,
            "cluster_savings": payload["cluster_savings"],
        })
    return {"points": rows, "count": len(rows)}


def run_sweep(
    spec: SweepSpec,
    catalog: Optional[ResultsCatalog] = None,
    log: Optional[provenance.ProvenanceLog] = None,
    jobs: Optional[int] = None,
) -> SweepOutcome:
    """Run (or incrementally re-run) one scenario sweep.

    Warm points are a single compressed catalog read each; cold points
    recompute through :func:`~repro.core.resilience.resilient_map`
    (inheriting the run settings' resilience policy) and are published +
    provenance-recorded.  ``log`` defaults to the run settings' log.
    A recomputed payload whose closure key already had a catalog entry
    must encode to byte-identical entry bytes, else ``SimulationError``
    — nondeterminism must never silently replace published results.
    """
    catalog = catalog if catalog is not None else ResultsCatalog()
    if log is None:
        log = settings.current().provenance or provenance.ProvenanceLog()
    points = sweep_points(spec)
    leaves = current_leaf_inputs(spec)
    report = provenance.invalidated(log.latest(), leaves)
    telemetry.count("catalog.invalidated", len(report.invalid))
    telemetry.count("catalog.sweep_points", len(points))

    inputs_by_point = [point_inputs(point, leaves) for point in points]
    keys = [closure_key(inputs) for inputs in inputs_by_point]
    key_of = dict(zip(points, keys))

    payloads: List[Optional[Dict[str, object]]] = []
    warm: List[str] = []
    cold_idx: List[int] = []
    for i, key in enumerate(keys):
        payload = catalog.get_payload(key)
        payloads.append(payload)
        if payload is None:
            cold_idx.append(i)
        else:
            warm.append(points[i].artifact_id)

    recomputed: List[str] = []
    if cold_idx:
        with telemetry.span("catalog.recompute"):
            fresh = resilient_map(
                _compute_point,
                [points[i] for i in cold_idx],
                key_fn=key_of.__getitem__,
                jobs=jobs,
            )
        for i, payload in zip(cold_idx, fresh):
            if not isinstance(payload, dict):
                continue  # TaskFailure under --keep-going: not published
            entry_path = catalog.entry_path(keys[i])
            fresh_bytes = ResultsCatalog.encode_entry(
                inputs_by_point[i], payload
            )
            if entry_path.exists():
                with open(entry_path, "rb") as fh:
                    stored = fh.read()
                if stored != fresh_bytes:
                    raise SimulationError(
                        f"sweep reconciliation failed for "
                        f"{points[i].artifact_id}: recomputed payload "
                        f"differs from the published entry at an "
                        f"unchanged input closure"
                    )
            catalog.put(keys[i], inputs_by_point[i], payload)
            payloads[i] = payload
            recomputed.append(points[i].artifact_id)

    for point, inputs, payload in zip(points, inputs_by_point, payloads):
        if payload is not None:
            log.record(
                point.artifact_id, "point", inputs, payload_digest(payload)
            )

    summary = _summary_payload(points, payloads)
    summary_inputs = {"code": leaves["code"]}
    for point, payload in zip(points, payloads):
        if payload is not None:
            summary_inputs[point.artifact_id] = payload_digest(payload)
    summary_key = closure_key(summary_inputs)
    catalog.put(summary_key, summary_inputs, summary)
    log.record(
        SUMMARY_ARTIFACT, "sweep", summary_inputs, payload_digest(summary)
    )
    return SweepOutcome(
        points=points,
        keys=keys,
        payloads=payloads,
        recomputed=recomputed,
        warm=warm,
        invalidation=report,
        summary=summary,
        summary_key=summary_key,
    )


__all__ = [
    "SUMMARY_ARTIFACT",
    "SweepOutcome",
    "SweepPoint",
    "SweepSpec",
    "current_leaf_inputs",
    "point_inputs",
    "run_sweep",
    "sweep_points",
    "with_cxl_dimms",
]
