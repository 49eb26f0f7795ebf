"""Rack-level configuration.

The carbon model amortizes rack overheads (structure, power bus, rack
controller) across the servers in the rack.  How many servers fit is the
minimum of a *space* constraint (usable rack units / server form factor) and
a *power* constraint (rack power capacity net of the rack's own draw,
divided by server power) — the paper's ``N_s = min(floor(P_cap/P_s),
N_s_cap)``.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.checks import check_finite
from ..core.errors import CarbonModelError, ConfigError


@dataclass(frozen=True)
class RackConfig:
    """Physical rack parameters (Table VI defaults).

    Attributes:
        space_capacity_u: Rack units usable by servers (42U minus 10U of
            overhead for networking/power gear = 32U).
        power_capacity_watts: Rack power budget (15 kW).
        overhead_power_watts: Power drawn by the rack itself — "rack misc"
            in Table V (500 W).
        overhead_embodied_kg: Embodied carbon of the empty rack (500 kg).
    """

    space_capacity_u: int = 32
    power_capacity_watts: float = 15000.0
    overhead_power_watts: float = 500.0
    overhead_embodied_kg: float = 500.0

    def __post_init__(self) -> None:
        check_finite(self.space_capacity_u, "rack space (U)", above=0)
        check_finite(
            self.power_capacity_watts, "rack power capacity (W)", above=0
        )
        check_finite(
            self.overhead_power_watts, "rack overhead power (W)", at_least=0
        )
        check_finite(
            self.overhead_embodied_kg, "rack overhead embodied (kg)", at_least=0
        )
        if self.power_capacity_watts <= self.overhead_power_watts:
            raise ConfigError(
                "rack power capacity must exceed the rack's own draw"
            )

    def servers_per_rack(
        self, server_power_watts: float, form_factor_u: int
    ) -> int:
        """Servers that fit: min(space-constrained, power-constrained).

        Raises :class:`CarbonModelError` when not even one server fits,
        since such a SKU cannot be deployed at all.
        """
        if server_power_watts <= 0:
            raise ConfigError("server power must be > 0")
        by_space = self.space_capacity_u // form_factor_u
        available = self.power_capacity_watts - self.overhead_power_watts
        by_power = int(available // server_power_watts)
        n = min(by_space, by_power)
        if n < 1:
            raise CarbonModelError(
                f"no server fits the rack: space allows {by_space}, "
                f"power allows {by_power}"
            )
        return n

    def is_space_bound(
        self, server_power_watts: float, form_factor_u: int
    ) -> bool:
        """True when the space constraint binds before the power constraint."""
        by_space = self.space_capacity_u // form_factor_u
        available = self.power_capacity_watts - self.overhead_power_watts
        by_power = int(available // server_power_watts)
        return by_space <= by_power

    def rack_power_watts(
        self, server_power_watts: float, servers: int
    ) -> float:
        """Total rack power: ``N_s * P_s + rack overhead`` (Eq. 2)."""
        return servers * server_power_watts + self.overhead_power_watts
