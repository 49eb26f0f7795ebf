"""GSF's adoption component (Section IV-C / V).

Decides, per application and per baseline generation, whether running on a
GreenSKU *saves carbon while meeting performance goals*:

- the performance component supplies the scaling factor (GreenSKU cores
  needed per 8-core baseline VM, Table III),
- the carbon model supplies CO2e-per-core for the GreenSKU and baselines,
- the application adopts the GreenSKU iff
  ``scaled_cores * co2e_green < baseline_cores * co2e_baseline``
  (and the scaling factor is finite at all).

The output doubles as the allocation simulator's placement policy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..carbon.model import CarbonModel
from ..core.errors import ConfigError
from ..hardware.sku import (
    ServerSKU,
    baseline_gen1,
    baseline_gen2,
    baseline_gen3,
)
from ..perf.apps import APPLICATIONS, ApplicationProfile
from ..perf.scaling import BASELINE_CORES, ScalingResult, scaling_table


@dataclass(frozen=True)
class AdoptionDecision:
    """One application's adoption outcome against one baseline generation.

    Attributes:
        app_name: Application.
        generation: Baseline generation the VM would otherwise run on.
        scaling_factor: Performance component's factor (inf = cannot meet
            the SLO on the GreenSKU at any evaluated scale).
        green_carbon_kg: Lifetime CO2e to serve the VM on the GreenSKU
            (scaled cores x GreenSKU CO2e-per-core).
        baseline_carbon_kg: Lifetime CO2e to serve it on the baseline.
        adopt: The decision.
    """

    app_name: str
    generation: int
    scaling_factor: float
    green_carbon_kg: float
    baseline_carbon_kg: float

    @property
    def adopt(self) -> bool:
        """Adopt iff the GreenSKU meets the goal and emits less carbon."""
        return (
            math.isfinite(self.scaling_factor)
            and self.green_carbon_kg < self.baseline_carbon_kg
        )

    @property
    def savings_fraction(self) -> float:
        """Per-VM carbon savings when adopting (negative = regression)."""
        if not math.isfinite(self.scaling_factor):
            return -math.inf
        return 1.0 - self.green_carbon_kg / self.baseline_carbon_kg


def default_baseline_skus() -> Dict[int, ServerSKU]:
    """The deployed baseline SKUs by generation."""
    return {1: baseline_gen1(), 2: baseline_gen2(), 3: baseline_gen3()}


class AdoptionModel:
    """Evaluates and caches adoption decisions for one GreenSKU.

    Example::

        model = AdoptionModel(CarbonModel(), greensku_full())
        decision = model.decide("Xapian", generation=3)
        policy = model.policy()           # for allocation.simulate
    """

    def __init__(
        self,
        carbon_model: CarbonModel,
        greensku: ServerSKU,
        baselines: Optional[Dict[int, ServerSKU]] = None,
        apps: Optional[Sequence[ApplicationProfile]] = None,
        cxl: bool = False,
        baseline_cores: int = BASELINE_CORES,
    ):
        self.carbon_model = carbon_model
        self.greensku = greensku
        self.baselines = baselines or default_baseline_skus()
        self.apps = {
            a.name: a for a in (apps if apps is not None else APPLICATIONS)
        }
        self.cxl = cxl
        self.baseline_cores = baseline_cores
        self._green_per_core = carbon_model.assess(greensku).total_per_core
        self._base_per_core = {
            gen: carbon_model.assess(sku).total_per_core
            for gen, sku in self.baselines.items()
        }
        self._decisions: Dict[Tuple[str, int], AdoptionDecision] = {}
        self._table: Optional[Dict[str, Dict[int, ScalingResult]]] = None

    def decide(self, app_name: str, generation: int) -> AdoptionDecision:
        """The (cached) adoption decision for one app and generation."""
        key = (app_name, generation)
        if key in self._decisions:
            return self._decisions[key]
        if generation not in self._base_per_core:
            raise ConfigError(f"no baseline SKU for generation {generation}")
        if app_name not in self.apps:
            raise ConfigError(f"unknown application {app_name!r}")
        if self._table is None:
            # One Table III serves every cell this model decides.  It is
            # derived once per process for each (profiles, generations,
            # cxl) value and shared across models: it is a pure function
            # of those immutable inputs, and each model gets its own dicts.
            self._table = scaling_table(
                list(self.apps.values()), sorted(self.baselines), cxl=self.cxl
            )
        result = self._table[app_name][generation]
        baseline_carbon = self.baseline_cores * self._base_per_core[generation]
        if math.isfinite(result.factor):
            green_cores = self.baseline_cores * result.factor
            green_carbon = green_cores * self._green_per_core
        else:
            green_carbon = math.inf
        decision = AdoptionDecision(
            app_name=app_name,
            generation=generation,
            scaling_factor=result.factor,
            green_carbon_kg=green_carbon,
            baseline_carbon_kg=baseline_carbon,
        )
        self._decisions[key] = decision
        return decision

    def decisions(self) -> List[AdoptionDecision]:
        """Decisions for every known app against every baseline generation."""
        return [
            self.decide(name, gen)
            for name in sorted(self.apps)
            for gen in sorted(self.baselines)
        ]

    def policy(self):
        """An :data:`~repro.allocation.cluster.AdoptionPolicy` callable.

        Maps (app_name, generation) to the scaling factor when the app
        adopts, else None.
        """

        def adoption_policy(app_name: str, generation: int) -> Optional[float]:
            decision = self.decide(app_name, generation)
            return decision.scaling_factor if decision.adopt else None

        return adoption_policy

    def adopted_core_hour_share(self) -> float:
        """Fleet core-hour share that adopts, weighted like the traces.

        Weights classes by Table III's core-hour shares, applications
        uniformly within a class, and generations by nothing (reported per
        generation would differ; this uses Gen3, the dominant target).
        """
        from ..perf.apps import FLEET_CORE_HOUR_SHARE, apps_in_class

        share = 0.0
        for app_class, class_share in FLEET_CORE_HOUR_SHARE.items():
            members = apps_in_class(app_class)
            members = [m for m in members if m.name in self.apps]
            if not members:
                continue
            adopted = sum(
                1 for m in members if self.decide(m.name, 3).adopt
            )
            share += class_share * adopted / len(members)
        return share
