"""Latency-versus-load curves and SLO derivation (GSF performance component).

The paper's methodology (Section VI):

- For each application, sweep offered load (QPS) and record 95th-percentile
  tail latency on an 8-core VM on the baseline SKU and on 8/10/12-core VMs
  on the GreenSKU (Fig. 7).
- The SLO is the baseline's p95 latency at 90% of its peak saturation
  throughput (following PARTIES/TimeTrader-style methodology).
- "Low load" is 30% of peak throughput; low-load latency is a secondary
  metric (the paper reports the GreenSKU's median low-load latency 16%
  above Gen3).

Every latency comes from the exact analytic M/M/c model
(:mod:`repro.perf.mmc`).  Grid-shaped work — load sweeps, multi-curve
panels, (app × generation) SLO tables — goes through the batched
:func:`tail_latencies` evaluator, which inverts whole parameter arrays
in one call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.errors import ConfigError
from .apps import ApplicationProfile, platform_for_generation
from .mmc import response_percentile_ms

#: The paper sets the SLO at the tail latency reached at 90% of peak load.
SLO_LOAD_FRACTION = 0.9

#: The paper defines "low load" as 30% of peak throughput.
LOW_LOAD_FRACTION = 0.3

#: Tail percentile used throughout (the paper also checks p99).
TAIL_QUANTILE = 0.95


def _validated_quantile(quantile: float) -> float:
    """Validate a latency quantile, raising ``ConfigError`` outside (0, 1)."""
    try:
        q = float(quantile)
    except (TypeError, ValueError):
        raise ConfigError(
            f"quantile must be a number in (0, 1), got {quantile!r}"
        ) from None
    if not 0.0 < q < 1.0:
        raise ConfigError(f"quantile must be in (0, 1), got {quantile!r}")
    return q


def _check_points(service_ms, cores, load_qps) -> None:
    """Reject queue parameters the M/M/c model cannot evaluate.

    Every point needs a finite load > 0 QPS, a finite mean service time
    > 0 ms and at least one core; scalars and arrays are both accepted.
    """
    for name, values in (
        ("load (QPS)", load_qps), ("mean service time (ms)", service_ms)
    ):
        values = np.asarray(values, dtype=np.float64)
        if not np.all(np.isfinite(values) & (values > 0)):
            raise ConfigError(f"{name} must be finite and > 0 at every point")
    if np.any(np.asarray(cores) < 1):
        raise ConfigError("need at least 1 core at every point")


@dataclass(frozen=True)
class LatencyCurve:
    """A tail-latency-versus-load sweep for one (app, platform, cores).

    Attributes:
        label: Human-readable curve label (e.g. ``"Gen3 (8 cores)"``).
        cores: VM cores serving the load.
        peak_qps: Saturation throughput (requests/second).
        qps: Offered loads swept.
        p95_ms: Tail latency at each load; ``inf`` past saturation.
    """

    label: str
    cores: int
    peak_qps: float
    qps: Tuple[float, ...]
    p95_ms: Tuple[float, ...]

    def latency_at(self, load_qps: float) -> float:
        """Tail latency at the swept point nearest ``load_qps``."""
        idx = int(np.argmin(np.abs(np.asarray(self.qps) - load_qps)))
        return self.p95_ms[idx]

    def max_load_meeting(self, slo_ms: float) -> float:
        """Highest swept load whose tail latency meets ``slo_ms`` (0 if none)."""
        best = 0.0
        for q, lat in zip(self.qps, self.p95_ms):
            if lat <= slo_ms and q > best:
                best = q
        return best


def peak_qps(app: ApplicationProfile, platform: str, cores: int,
             cxl: bool = False) -> float:
    """Saturation throughput: ``cores / mean service time``."""
    service_s = app.service_ms_on(platform, cxl=cxl) / 1000.0
    return cores / service_s


def tail_latency_ms(
    app: ApplicationProfile,
    platform: str,
    cores: int,
    load_qps: float,
    cxl: bool = False,
    quantile: float = TAIL_QUANTILE,
) -> float:
    """Tail latency of ``app`` on (platform, cores) at ``load_qps``.

    Returns ``inf`` when the load saturates the configuration.  Any
    ``quantile`` in (0, 1) is honored.  A quantile outside (0, 1), a
    non-finite or non-positive load, and fewer than one core raise
    :class:`~repro.core.errors.ConfigError`.
    """
    service_ms = app.service_ms_on(platform, cxl=cxl)
    _check_points(service_ms, cores, load_qps)
    q = _validated_quantile(quantile)
    return response_percentile_ms(q, load_qps, 1000.0 / service_ms, cores)


def tail_latencies(
    service_ms, cores, load_qps, quantile: float = TAIL_QUANTILE
) -> np.ndarray:
    """Batched tail latency over broadcast parameter arrays.

    The grid-shaped core of :func:`tail_latency_ms`: every argument may
    be a scalar or an array (numpy broadcasting applies), and the whole
    grid evaluates in one array M/M/c inversion.  Saturated points
    report ``inf``.

    Args:
        service_ms: Mean service time per point, milliseconds (finite,
            > 0).
        cores: Serving cores per point (>= 1).
        load_qps: Offered load per point (finite, > 0).
        quantile: Latency quantile in (0, 1).

    Raises:
        ConfigError: On any point outside those ranges, or a quantile
            outside (0, 1).
    """
    q = _validated_quantile(quantile)
    svc, cores_a, load = np.broadcast_arrays(
        np.asarray(service_ms, dtype=np.float64),
        np.asarray(cores, dtype=np.int64),
        np.asarray(load_qps, dtype=np.float64),
    )
    _check_points(svc, cores_a, load)
    shape = load.shape
    svc, cores_a, load = (np.ravel(a) for a in (svc, cores_a, load))
    return response_percentile_ms(q, load, 1000.0 / svc, cores_a).reshape(
        shape
    )


def latency_curve(
    app: ApplicationProfile,
    platform: str,
    cores: int,
    cxl: bool = False,
    load_fractions: Optional[Sequence[float]] = None,
    reference_peak_qps: Optional[float] = None,
    label: Optional[str] = None,
) -> LatencyCurve:
    """Sweep offered load and record tail latency (one batched call).

    Args:
        load_fractions: Fractions of the *reference* peak to sweep
            (default: 0.1..0.98).  Points past this configuration's own
            saturation report ``inf`` — the hockey-stick in Fig. 7.
        reference_peak_qps: Peak the fractions refer to.  Fig. 7 sweeps
            all configurations over the *baseline's* load axis; ``None``
            (the default) uses this configuration's own peak, and
            non-positive values raise ``ConfigError``.
    """
    if load_fractions is None:
        load_fractions = tuple(np.arange(0.1, 1.0, 0.05))
    own_peak = peak_qps(app, platform, cores, cxl=cxl)
    if reference_peak_qps is not None:
        if reference_peak_qps <= 0:
            raise ConfigError(
                f"reference_peak_qps must be > 0, got {reference_peak_qps}"
            )
        ref_peak = reference_peak_qps
    else:
        ref_peak = own_peak
    qps_points = [f * ref_peak for f in load_fractions]
    latencies = tail_latencies(
        app.service_ms_on(platform, cxl=cxl),
        cores,
        np.asarray(qps_points),
    )
    return LatencyCurve(
        label=label or f"{app.name} on {platform} ({cores} cores)",
        cores=cores,
        peak_qps=own_peak,
        qps=tuple(qps_points),
        p95_ms=tuple(float(x) for x in latencies),
    )


@dataclass(frozen=True)
class CurveSpec:
    """One configuration of a multi-curve panel (see :func:`latency_curves`).

    Attributes:
        platform: Platform key (e.g. ``"gen3"``, ``"bergamo"``).
        cores: VM cores for this curve.
        cxl: Whether memory is CXL-attached.
        reference_peak_qps: Load axis the sweep fractions refer to
            (``None`` = this configuration's own peak).
        label: Curve label (``None`` = generated).
    """

    platform: str
    cores: int
    cxl: bool = False
    reference_peak_qps: Optional[float] = None
    label: Optional[str] = None


def latency_curves(
    app: ApplicationProfile,
    specs: Sequence[CurveSpec],
    load_fractions: Optional[Sequence[float]] = None,
) -> List[LatencyCurve]:
    """Evaluate a whole panel of latency curves in one batched call.

    Point-for-point identical to calling :func:`latency_curve` per spec;
    a Fig. 7 panel (baseline + three candidate counts × 18 load points)
    becomes a single grid evaluation.  No specs give no curves.
    """
    specs = list(specs)
    if not specs:
        return []
    if load_fractions is None:
        load_fractions = tuple(np.arange(0.1, 1.0, 0.05))
    n_points = len(load_fractions)
    svc_cols, cores_cols, qps_cols = [], [], []
    peaks, labels = [], []
    for spec in specs:
        own_peak = peak_qps(app, spec.platform, spec.cores, cxl=spec.cxl)
        if spec.reference_peak_qps is not None:
            if spec.reference_peak_qps <= 0:
                raise ConfigError(
                    "reference_peak_qps must be > 0, got "
                    f"{spec.reference_peak_qps}"
                )
            ref_peak = spec.reference_peak_qps
        else:
            ref_peak = own_peak
        qps_cols.append([f * ref_peak for f in load_fractions])
        svc_cols.append(
            np.full(n_points, app.service_ms_on(spec.platform, cxl=spec.cxl))
        )
        cores_cols.append(np.full(n_points, spec.cores, dtype=np.int64))
        peaks.append(own_peak)
        labels.append(
            spec.label
            or f"{app.name} on {spec.platform} ({spec.cores} cores)"
        )
    latencies = tail_latencies(
        np.concatenate(svc_cols),
        np.concatenate(cores_cols),
        np.concatenate([np.asarray(c) for c in qps_cols]),
    )
    curves = []
    for j, spec in enumerate(specs):
        segment = latencies[j * n_points:(j + 1) * n_points]
        curves.append(
            LatencyCurve(
                label=labels[j],
                cores=spec.cores,
                peak_qps=peaks[j],
                qps=tuple(qps_cols[j]),
                p95_ms=tuple(float(x) for x in segment),
            )
        )
    return curves


@dataclass(frozen=True)
class Slo:
    """A baseline-derived service-level objective.

    Attributes:
        app_name: Application the SLO belongs to.
        generation: Baseline generation the SLO was derived from.
        latency_ms: Tail-latency bound (baseline p95 at 90% of peak).
        load_qps: The absolute load at which the SLO must be met.
        baseline_peak_qps: The baseline configuration's saturation load.
    """

    app_name: str
    generation: int
    latency_ms: float
    load_qps: float
    baseline_peak_qps: float


def derive_slo(
    app: ApplicationProfile,
    generation: int,
    baseline_cores: int = 8,
) -> Slo:
    """The paper's SLO: baseline p95 at 90% of the baseline's peak load."""
    platform = platform_for_generation(generation)
    base_peak = peak_qps(app, platform, baseline_cores)
    slo_load = SLO_LOAD_FRACTION * base_peak
    latency = tail_latency_ms(app, platform, baseline_cores, slo_load)
    return Slo(
        app_name=app.name,
        generation=generation,
        latency_ms=latency,
        load_qps=slo_load,
        baseline_peak_qps=base_peak,
    )


def derive_slos(
    apps: Sequence[ApplicationProfile],
    generations: Sequence[int],
    baseline_cores: int = 8,
) -> Dict[Tuple[str, int], Slo]:
    """Batched :func:`derive_slo` over a whole (app × generation) grid.

    One :func:`tail_latencies` call covers every cell; keyed by
    ``(app.name, generation)``.
    """
    apps = list(apps)
    generations = list(generations)
    entries = []
    for app in apps:
        for gen in generations:
            platform = platform_for_generation(gen)
            base_peak = peak_qps(app, platform, baseline_cores)
            entries.append(
                (app, gen, base_peak, SLO_LOAD_FRACTION * base_peak,
                 app.service_ms_on(platform))
            )
    if not entries:
        return {}
    latencies = tail_latencies(
        np.array([e[4] for e in entries]),
        baseline_cores,
        np.array([e[3] for e in entries]),
    )
    return {
        (app.name, gen): Slo(
            app_name=app.name,
            generation=gen,
            latency_ms=float(latency),
            load_qps=slo_load,
            baseline_peak_qps=base_peak,
        )
        for (app, gen, base_peak, slo_load, _svc), latency in zip(
            entries, latencies
        )
    }


def meets_slo(
    app: ApplicationProfile,
    slo: Slo,
    cores: int,
    platform: str = "bergamo",
    cxl: bool = False,
) -> bool:
    """Whether (platform, cores) meets the SLO at the SLO's load."""
    latency = tail_latency_ms(app, platform, cores, slo.load_qps, cxl=cxl)
    # Tiny relative tolerance: an app with identical per-core speed on both
    # platforms meets its own SLO exactly.
    return latency <= slo.latency_ms * (1.0 + 1e-9)


def low_load_latency_ms(
    app: ApplicationProfile,
    platform: str,
    cores: int,
    cxl: bool = False,
) -> float:
    """Tail latency at the paper's "low load" (30% of own peak)."""
    load = LOW_LOAD_FRACTION * peak_qps(app, platform, cores, cxl=cxl)
    return tail_latency_ms(app, platform, cores, load, cxl=cxl)


def low_load_comparison(
    apps: Sequence[ApplicationProfile],
    scaled_cores: "dict[str, int]",
    generation: int,
    baseline_cores: int = 8,
) -> List[float]:
    """Per-app low-load latency ratios, GreenSKU (scaled) over baseline.

    Mirrors the paper's analysis that finds GreenSKU-Efficient's median
    low-load latency 16% above Gen3 (and below Gen1/Gen2).

    Args:
        scaled_cores: App name -> cores used on the GreenSKU (the scaling
            factor already applied).  Apps missing from the map use the
            baseline core count.
    """
    platform = platform_for_generation(generation)
    ratios = []
    for app in apps:
        if not app.latency_critical:
            continue
        green_cores = scaled_cores.get(app.name, baseline_cores)
        base = low_load_latency_ms(app, platform, baseline_cores)
        green = low_load_latency_ms(app, "bergamo", green_cores)
        ratios.append(green / base)
    return ratios
