"""Scaling-factor computation (GSF performance component output).

The performance component's output is, per application and per baseline
generation, a *scaling factor*: how many GreenSKU cores are needed per
baseline core for a VM to meet the application's performance goal
(Table III).

Methodology, following the paper:

- Latency-critical applications: scale an 8-core baseline VM to 8, 10, or
  12 GreenSKU cores (factors 1, 1.25, 1.5) and accept the smallest count
  that meets the baseline-derived SLO (p95 at 90% of baseline peak).  When
  even 12 cores fail, the factor is reported as ">1.5" (``math.inf``) —
  the adoption component will reject such applications.
- Throughput applications (DevOps builds): the factor is the measured
  slowdown rounded up to the {1, 1.25, 1.5} grid, since build throughput
  scales with cores.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass, fields
from functools import lru_cache
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from ..core.errors import ConfigError
from .apps import (
    APPLICATIONS,
    ApplicationProfile,
    platform_for_generation,
    table3_apps,
)
from .latency import Slo, derive_slo, derive_slos, tail_latencies

#: Core counts the paper evaluates on the GreenSKU for an 8-core baseline VM.
CANDIDATE_CORES: Tuple[int, ...] = (8, 10, 12)

#: Baseline VM core count the candidates are compared against.
BASELINE_CORES = 8

#: Grid of reportable scaling factors; beyond the last the paper reports
#: ">1.5".
FACTOR_GRID: Tuple[float, ...] = (1.0, 1.25, 1.5)

#: Tolerance when rounding throughput slowdowns onto the factor grid:
#: Table III reports all Build-* at factor 1 vs Gen2 even though Table II
#: shows the GreenSKU up to 5.4% slower (Build-PHP: 1.17 vs 1.11), so a
#: build within 6% of a grid point counts as that grid point.
THROUGHPUT_GRID_TOLERANCE = 0.06


@dataclass(frozen=True)
class ScalingResult:
    """Scaling outcome for one application against one baseline generation.

    Attributes:
        app_name: Application.
        generation: Baseline generation compared against.
        factor: Scaling factor on the {1, 1.25, 1.5} grid, or ``math.inf``
            when 12 GreenSKU cores cannot meet the SLO (">1.5").
        cores: GreenSKU cores corresponding to the factor (None for inf).
        slo: The SLO used (None for throughput applications).
    """

    app_name: str
    generation: int
    factor: float
    cores: Optional[int]
    slo: Optional[Slo] = None

    @property
    def adoptable_performance(self) -> bool:
        """Whether the app can meet its goal on the GreenSKU at all."""
        return math.isfinite(self.factor)

    @property
    def display(self) -> str:
        """Table III's cell text: ``1``, ``1.25``, ``1.5`` or ``>1.5``."""
        if not math.isfinite(self.factor):
            return ">1.5"
        if self.factor == int(self.factor):
            return str(int(self.factor))
        return f"{self.factor:g}"


def _snap_to_grid(ratio: float) -> float:
    """Round a throughput slowdown up to the factor grid (with tolerance)."""
    for factor in FACTOR_GRID:
        if ratio <= factor * (1.0 + THROUGHPUT_GRID_TOLERANCE):
            return factor
    return math.inf


def scaling_factor(
    app: ApplicationProfile,
    generation: int,
    platform: str = "bergamo",
    cxl: bool = False,
) -> ScalingResult:
    """Scaling factor of ``app`` on the GreenSKU vs an 8-core baseline VM.

    Args:
        app: Application profile.
        generation: Baseline generation (1, 2, or 3).
        platform: GreenSKU CPU platform (``"bergamo"``).
        cxl: Evaluate with CXL-backed memory (GreenSKU-CXL/Full).
    """
    if generation not in (1, 2, 3):
        raise ConfigError(f"generation must be 1, 2 or 3, got {generation}")
    if not app.latency_critical:
        base_platform = platform_for_generation(generation)
        slowdown = app.speed_on(base_platform) / app.speed_on(
            platform, cxl=cxl
        )
        factor = _snap_to_grid(slowdown)
        cores = (
            int(round(BASELINE_CORES * factor))
            if math.isfinite(factor)
            else None
        )
        return ScalingResult(app.name, generation, factor, cores)

    slo = derive_slo(app, generation, BASELINE_CORES)
    # One batched feasibility probe over the whole candidate grid (the
    # same evaluation scaling_table uses) instead of one meets_slo call
    # per candidate.  The bound matches meets_slo's tolerance, so
    # decisions are identical to the per-point loop (the regression
    # test pins this).
    latencies = tail_latencies(
        app.service_ms_on(platform, cxl=cxl),
        np.array(CANDIDATE_CORES, dtype=np.int64),
        slo.load_qps,
    )
    bound = slo.latency_ms * (1.0 + 1e-9)
    for cores, latency in zip(CANDIDATE_CORES, latencies):
        if latency <= bound:
            return ScalingResult(
                app.name,
                generation,
                cores / BASELINE_CORES,
                cores,
                slo,
            )
    return ScalingResult(app.name, generation, math.inf, None, slo)


#: Distinct (profiles, generations, ``cxl``) inputs the Table III memo
#: keeps.  A process asks for a handful (the default apps with and without
#: CXL, Table III's 19 rows, one generation for ``factors_by_app``).
_TABLE_MEMO_SIZE = 32


def scaling_table(
    apps: Optional[Sequence[ApplicationProfile]] = None,
    generations: Sequence[int] = (1, 2, 3),
    cxl: bool = False,
) -> Dict[str, Dict[int, ScalingResult]]:
    """Table III: scaling factors for every app against every generation.

    The table is a pure function of the profiles' field values, the
    generations and ``cxl``, so it is derived once per process for each
    such value and then served from a small memo (an equal copy of a
    profile hits; a profile with any field changed misses).  Each call
    returns its own dicts, which the caller may mutate without affecting
    the next call; the :class:`ScalingResult` cells are frozen.
    """
    apps = tuple(apps) if apps is not None else tuple(table3_apps())
    generations = tuple(generations)
    for gen in generations:
        if gen not in (1, 2, 3):
            raise ConfigError(f"generation must be 1, 2 or 3, got {gen}")
    table = _memo_table(_TableInputs(apps, generations, bool(cxl)))
    return {name: dict(row) for name, row in table.items()}


def _profile_key(app: ApplicationProfile) -> tuple:
    """Every field value of ``app``, hashable (``speed`` as sorted items)."""
    key = [type(app)]
    for spec in fields(app):
        value = getattr(app, spec.name)
        if isinstance(value, Mapping):
            value = tuple(sorted(value.items()))
        key.append(value)
    return tuple(key)


class _TableInputs:
    """One table's inputs, hashed and compared by value: every field of
    every profile, the generations and ``cxl``.  (A profile itself is not
    hashable: its ``speed`` is a mapping.)"""

    __slots__ = ("apps", "generations", "cxl", "_key", "_hash")

    def __init__(
        self,
        apps: Tuple[ApplicationProfile, ...],
        generations: Tuple[int, ...],
        cxl: bool,
    ):
        self.apps = apps
        self.generations = generations
        self.cxl = cxl
        self._key = (tuple(map(_profile_key, apps)), generations, cxl)
        self._hash = hash(self._key)

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _TableInputs) and self._key == other._key


@lru_cache(maxsize=_TABLE_MEMO_SIZE)
def _memo_table(inputs: _TableInputs) -> Dict[str, Dict[int, ScalingResult]]:
    return _derive_table(inputs.apps, inputs.generations, inputs.cxl)


def _derive_table(
    apps: Sequence[ApplicationProfile],
    generations: Sequence[int],
    cxl: bool,
) -> Dict[str, Dict[int, ScalingResult]]:
    """The uncached Table III derivation behind :func:`scaling_table`.

    Batched: all latency-critical cells share one :func:`derive_slos`
    call and one (cell × candidate-cores) :func:`tail_latencies` grid,
    so the whole table costs two vectorized evaluations instead of one
    latency inversion per candidate.  Cell outcomes match per-cell
    :func:`scaling_factor` calls.
    """
    table: Dict[str, Dict[int, ScalingResult]] = {app.name: {} for app in apps}
    for app in apps:
        if app.latency_critical:
            continue
        for gen in generations:
            table[app.name][gen] = scaling_factor(app, gen, cxl=cxl)

    lc_apps = [app for app in apps if app.latency_critical]
    if lc_apps and generations:
        slos = derive_slos(lc_apps, generations, BASELINE_CORES)
        cells = [
            (app, gen, slos[(app.name, gen)])
            for app in lc_apps
            for gen in generations
        ]
        candidates = np.array(CANDIDATE_CORES, dtype=np.int64)
        latencies = tail_latencies(
            np.array(
                [app.service_ms_on("bergamo", cxl=cxl) for app, _, _ in cells]
            )[:, None],
            candidates[None, :],
            np.array([slo.load_qps for _, _, slo in cells])[:, None],
        )
        for (app, gen, slo), row in zip(cells, latencies):
            # Same tolerance as meets_slo: equal-speed apps meet their
            # own SLO exactly.
            bound = slo.latency_ms * (1.0 + 1e-9)
            result = ScalingResult(app.name, gen, math.inf, None, slo)
            for cores, latency in zip(CANDIDATE_CORES, row):
                if latency <= bound:
                    result = ScalingResult(
                        app.name, gen, cores / BASELINE_CORES, cores, slo
                    )
                    break
            table[app.name][gen] = result
    return table


def factors_by_app(
    generation: int = 3,
    cxl: bool = False,
    apps: Optional[Sequence[ApplicationProfile]] = None,
) -> Dict[str, float]:
    """App name -> scaling factor against one generation (inf = cannot)."""
    apps = list(apps) if apps is not None else list(APPLICATIONS)
    table = scaling_table(apps, (generation,), cxl=cxl)
    return {app.name: table[app.name][generation].factor for app in apps}
