"""Synthetic DIMM failure-rate telemetry (paper Fig. 2).

The paper's Fig. 2 plots normalized DDR4 DIMM failure rates against
deployment time over a 7-year production window: after an initial period of
elevated infant mortality, the moving average stays flat — the empirical
basis for reusing old DIMMs.  Azure's raw telemetry is proprietary; this
module synthesizes a statistically equivalent monthly failure-rate process
(exponentially decaying infant mortality plus a flat intrinsic rate plus
sampling noise), following the field studies the paper cites (Sridharan &
Liberty 2012; Siddiqua et al. 2017).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from ..core.checks import check_finite
from ..core.errors import ConfigError
from ..core.rng import RngFactory


@dataclass(frozen=True)
class FailureTraceParams:
    """Parameters of the synthetic failure process.

    Rates are normalized to the steady-state failure rate = 1.0, matching
    the paper's normalized y-axis.

    Attributes:
        months: Trace length (paper: a 7-year window, 84 months).
        infant_mortality: Extra failure rate at month 0 (decays away).
        infant_decay_months: e-folding time of the infant-mortality decay.
        noise_cv: Coefficient of variation of monthly sampling noise
            (gamma-distributed multiplicative noise).
        wearout_onset_month: Month at which age-related wear-out would
            begin; ``None``/past-end for DRAM, which shows no aging within
            the observed window (the paper's accelerated-aging studies
            show flat AFRs beyond 12 years).
        wearout_slope_per_month: Linear rate increase after onset.
    """

    months: int = 84
    infant_mortality: float = 1.2
    infant_decay_months: float = 4.0
    noise_cv: float = 0.18
    wearout_onset_month: int = 10_000
    wearout_slope_per_month: float = 0.0

    def __post_init__(self) -> None:
        if self.months < 1:
            raise ConfigError("trace needs at least one month")
        check_finite(self.infant_mortality, "infant mortality", at_least=0)
        check_finite(self.noise_cv, "noise CV", at_least=0)
        check_finite(
            self.infant_decay_months, "infant decay time", above=0
        )
        check_finite(
            self.wearout_slope_per_month, "wear-out slope", at_least=0
        )


def expected_rate(params: FailureTraceParams, month: np.ndarray) -> np.ndarray:
    """Noise-free expected failure rate at each month (steady state = 1)."""
    rate = 1.0 + params.infant_mortality * np.exp(
        -np.asarray(month, dtype=float) / params.infant_decay_months
    )
    past_onset = np.maximum(
        0.0, np.asarray(month, dtype=float) - params.wearout_onset_month
    )
    return rate + params.wearout_slope_per_month * past_onset


def synthesize_failure_trace(
    params: FailureTraceParams = FailureTraceParams(),
    seed: int = 7,
) -> Tuple[np.ndarray, np.ndarray]:
    """Generate (months, normalized monthly failure rates).

    Noise is gamma-distributed with unit mean so rates stay positive and
    the moving average converges to the expected rate.
    """
    months = np.arange(params.months)
    mean = expected_rate(params, months)
    if params.noise_cv == 0:
        return months, mean
    rng = RngFactory(seed).stream("dimm-failures")
    shape = 1.0 / (params.noise_cv ** 2)
    noise = rng.gamma(shape=shape, scale=1.0 / shape, size=params.months)
    return months, mean * noise


def moving_average(values: np.ndarray, window: int = 6) -> np.ndarray:
    """Trailing moving average (the black line in Fig. 2).

    The first ``window - 1`` points average over the data available so far.
    """
    if window < 1:
        raise ConfigError("window must be >= 1")
    values = np.asarray(values, dtype=float)
    out = np.empty_like(values)
    cumsum = np.cumsum(values)
    for i in range(len(values)):
        lo = max(0, i - window + 1)
        total = cumsum[i] - (cumsum[lo - 1] if lo > 0 else 0.0)
        out[i] = total / (i - lo + 1)
    return out


def steady_state_slope(
    months: np.ndarray, rates: np.ndarray, skip_months: int = 24
) -> float:
    """Least-squares slope of the failure rate after the infant period.

    The paper's claim is that this is ~0 (failure rates stay constant over
    the 7-year window); units are normalized-rate per month.
    """
    months = np.asarray(months, dtype=float)
    rates = np.asarray(rates, dtype=float)
    mask = months >= skip_months
    if mask.sum() < 2:
        raise ConfigError("not enough steady-state months to fit a slope")
    slope, _intercept = np.polyfit(months[mask], rates[mask], 1)
    return float(slope)
