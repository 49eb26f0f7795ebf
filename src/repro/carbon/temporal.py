"""Temporal carbon-aware scheduling on GreenSKU clusters (paper Section IX).

The paper's related work covers shifting workloads temporally to chase
clean energy (Wiesner et al., Radovanovic et al.) and notes "these
solutions can apply on top of GreenSKUs."  This module composes them:

- an hourly grid carbon-intensity profile (diurnal solar dip, optional
  windy nights),
- a deadline scheduler that moves *delay-tolerant* batch work (the
  DevOps share of the fleet) into the cleanest hours within its slack,
- the operational-emissions delta, stacked on top of a GreenSKU's
  per-core savings.

The point the composition makes: temporal shifting only touches the
*operational, flexible* slice of emissions, while the GreenSKU moves the
whole per-core footprint — they are complements, not substitutes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from ..core.checks import check_finite
from ..core.errors import ConfigError


def diurnal_intensity_profile(
    mean_ci: float = 0.1,
    solar_swing: float = 0.5,
    hours: int = 24,
) -> np.ndarray:
    """An hourly carbon-intensity profile with a midday solar dip.

    Args:
        mean_ci: Daily average intensity (kgCO2e/kWh).
        solar_swing: Relative swing of the solar dip (0.5 = middays run
            50% below the mean, nights 50% above, sinusoidally).
        hours: Profile length (wraps daily).
    """
    check_finite(mean_ci, "mean carbon intensity", at_least=0)
    if not 0 <= solar_swing < 1:
        raise ConfigError("solar swing must be in [0, 1)")
    t = np.arange(hours)
    # Minimum at 13:00, maximum around 01:00.
    return mean_ci * (1.0 + solar_swing * np.cos(2 * math.pi * (t - 1) / 24))


@dataclass(frozen=True)
class BatchJob:
    """One delay-tolerant job.

    Attributes:
        job_id: Identifier.
        submit_hour: Hour the job arrives.
        duration_hours: Contiguous hours of work.
        deadline_hour: Latest hour the job may *finish*.
        power_kw: Average power drawn while running.
    """

    job_id: int
    submit_hour: int
    duration_hours: int
    deadline_hour: int
    power_kw: float

    def __post_init__(self) -> None:
        if self.duration_hours <= 0:
            raise ConfigError(f"job {self.job_id}: duration must be > 0")
        check_finite(self.power_kw, f"job {self.job_id}: power", above=0)
        if self.deadline_hour < self.submit_hour + self.duration_hours:
            raise ConfigError(
                f"job {self.job_id}: deadline precedes earliest finish"
            )


@dataclass(frozen=True)
class ScheduledJob:
    """A job with its chosen start hour and emissions."""

    job: BatchJob
    start_hour: int
    emissions_kg: float


@dataclass(frozen=True)
class TemporalShiftResult:
    """Emissions with and without carbon-aware temporal shifting."""

    immediate: List[ScheduledJob]
    shifted: List[ScheduledJob]

    @property
    def immediate_kg(self) -> float:
        return sum(s.emissions_kg for s in self.immediate)

    @property
    def shifted_kg(self) -> float:
        return sum(s.emissions_kg for s in self.shifted)

    @property
    def savings_fraction(self) -> float:
        if self.immediate_kg == 0:
            return 0.0
        return 1.0 - self.shifted_kg / self.immediate_kg


def job_emissions(
    job: BatchJob, start_hour: int, profile: Sequence[float]
) -> float:
    """kgCO2e of running ``job`` starting at ``start_hour``."""
    if start_hour < job.submit_hour:
        raise ConfigError("jobs cannot start before submission")
    if start_hour + job.duration_hours > job.deadline_hour:
        raise ConfigError("start would miss the deadline")
    n = len(profile)
    return sum(
        job.power_kw * profile[(start_hour + h) % n]
        for h in range(job.duration_hours)
    )


def schedule_batch(
    jobs: Sequence[BatchJob],
    profile: Optional[Sequence[float]] = None,
) -> TemporalShiftResult:
    """Schedule each job immediately vs in its cleanest feasible window.

    Jobs are independent (capacity is assumed available across the slack
    window — the growth buffer and diurnal trough the allocation study
    shows make this realistic for the DevOps-scale batch share).
    """
    if profile is None:
        profile = diurnal_intensity_profile()
    immediate, shifted = [], []
    for job in jobs:
        immediate.append(
            ScheduledJob(
                job=job,
                start_hour=job.submit_hour,
                emissions_kg=job_emissions(job, job.submit_hour, profile),
            )
        )
        latest_start = job.deadline_hour - job.duration_hours
        best_start = min(
            range(job.submit_hour, latest_start + 1),
            key=lambda s: job_emissions(job, s, profile),
        )
        shifted.append(
            ScheduledJob(
                job=job,
                start_hour=best_start,
                emissions_kg=job_emissions(job, best_start, profile),
            )
        )
    return TemporalShiftResult(immediate=immediate, shifted=shifted)


def synthetic_batch_workload(
    jobs: int = 40,
    horizon_hours: int = 72,
    seed: int = 19,
) -> List[BatchJob]:
    """A synthetic delay-tolerant batch workload (build/CI-style jobs)."""
    from ..core.rng import RngFactory

    if jobs < 1 or horizon_hours < 12:
        raise ConfigError("need >= 1 job and a >= 12 h horizon")
    rng = RngFactory(seed).stream("batch-jobs")
    out: List[BatchJob] = []
    for i in range(jobs):
        submit = int(rng.integers(0, horizon_hours - 12))
        duration = int(rng.integers(1, 5))
        slack = int(rng.integers(4, 12))
        out.append(
            BatchJob(
                job_id=i,
                submit_hour=submit,
                duration_hours=duration,
                deadline_hour=submit + duration + slack,
                power_kw=float(rng.uniform(0.2, 1.5)),
            )
        )
    return out


def stacked_savings(
    greensku_per_core_savings: float,
    batch_operational_share: float,
    temporal_savings_on_batch: float,
    operational_share: float = 0.55,
) -> float:
    """Combined savings of GreenSKU + temporal shifting (complements).

    The GreenSKU saves on everything; temporal shifting additionally
    trims the *flexible operational* slice of what remains:

    ``1 - (1 - g) * (1 - t * f_op * f_batch)``
    """
    for name, value in (
        ("GreenSKU savings", greensku_per_core_savings),
        ("batch share", batch_operational_share),
        ("temporal savings", temporal_savings_on_batch),
        ("operational share", operational_share),
    ):
        if not 0 <= value <= 1:
            raise ConfigError(f"{name} must be in [0, 1]")
    residual_trim = (
        temporal_savings_on_batch
        * operational_share
        * batch_operational_share
    )
    return 1.0 - (1.0 - greensku_per_core_savings) * (1.0 - residual_trim)
