"""Server component specifications.

A *component spec* carries everything the GSF carbon, reliability, and
performance models need to know about one physical part:

- power: thermal design power (TDP) in watts, plus the loss factor of its
  power-delivery electronics (Eq. 1's ``(1 + l)``; the paper applies a 5%
  voltage-regulator loss to the CPU),
- embodied carbon in kgCO2e (zero when the part is *reused*: the paper,
  following Switzer et al., treats second-life parts as carbon-free),
- an annual failure rate (AFR) contribution, expressed as failures per 100
  servers per year, matching the paper's Section V accounting,
- a *category* used for Fig.-1-style emission attribution.

Specs are frozen dataclasses: a catalog entry never mutates, and SKUs are
composed from (spec, count) pairs.
"""

from __future__ import annotations

import dataclasses
import enum
from dataclasses import dataclass
from typing import Optional

from ..core.checks import check_count, check_finite
from ..core.errors import ConfigError


class Category(str, enum.Enum):
    """Attribution buckets for emission breakdowns (Fig. 1)."""

    CPU = "cpu"
    DRAM = "dram"
    SSD = "ssd"
    CXL = "cxl"
    NIC = "nic"
    OTHER = "other"


@dataclass(frozen=True)
class ComponentSpec:
    """One physical server part, as seen by the carbon/reliability models.

    Attributes:
        name: Human-readable part name (e.g. ``"DDR5-64GB"``).
        category: Attribution bucket for breakdowns.
        tdp_watts: Thermal design power of one part, in watts.
        embodied_kg: Embodied emissions of one *new* part, in kgCO2e.
        reused: Whether the part is second-life.  Reused parts contribute
            zero embodied carbon but keep their full operational footprint.
        loss_factor: Power-electronics loss ``l`` applied to this part's
            derated power (Eq. 1).  0.05 for the CPU's voltage regulator.
        afr_per_100_servers: The part's contribution to server AFR,
            in failures per 100 servers per year.
        fip_eligible: Whether Fail-In-Place can absorb this part's failures
            (true for DIMMs and SSDs in the paper).
    """

    name: str
    category: Category
    tdp_watts: float
    embodied_kg: float
    reused: bool = False
    loss_factor: float = 0.0
    afr_per_100_servers: float = 0.0
    fip_eligible: bool = False

    def __post_init__(self) -> None:
        check_finite(self.tdp_watts, f"{self.name}: TDP", at_least=0)
        check_finite(
            self.embodied_kg, f"{self.name}: embodied carbon", at_least=0
        )
        check_finite(self.loss_factor, f"{self.name}: loss factor", at_least=0)
        check_finite(self.afr_per_100_servers, f"{self.name}: AFR", at_least=0)

    @property
    def effective_embodied_kg(self) -> float:
        """Embodied carbon counted by the model: zero for reused parts."""
        return 0.0 if self.reused else self.embodied_kg

    def powered_watts(self, derate: float) -> float:
        """Average power of this part under a TDP derating factor.

        Implements one term of the paper's Eq. 1:
        ``TDP_i * d_i * (1 + l_i)``.
        """
        if not 0 <= derate <= 1:
            raise ConfigError(f"derate factor must be in [0, 1], got {derate}")
        return self.tdp_watts * derate * (1.0 + self.loss_factor)

    def as_reused(self) -> "ComponentSpec":
        """A second-life copy of this part: zero embodied, same power/AFR.

        The paper keeps AFRs unchanged for reused DIMMs/SSDs because field
        data shows reused parts fail at the same or lower rates (Fig. 2).
        """
        return dataclasses.replace(self, reused=True)


@dataclass(frozen=True)
class CpuSpec(ComponentSpec):
    """A CPU part, extending :class:`ComponentSpec` with performance data.

    Attributes:
        cores: Physical cores per socket.
        max_freq_ghz: Maximum core frequency.
        llc_mib: Last-level cache per socket, in MiB.
        perf_per_core: Relative single-thread performance (Gen3 Genoa = 1.0),
            calibrated from the paper's Sysbench numbers (Bergamo is 10%
            slower than Genoa and 6% slower than Milan per core).
        mem_bw_gbps: Socket memory bandwidth (GB/s) from native channels.
    """

    cores: int = 0
    max_freq_ghz: float = 0.0
    llc_mib: int = 0
    perf_per_core: float = 1.0
    mem_bw_gbps: float = 0.0

    def __post_init__(self) -> None:
        super().__post_init__()
        check_count(self.cores, f"{self.name}: CPU cores")
        if self.cores == 0:
            raise ConfigError(f"{self.name}: CPU must have > 0 cores")
        check_finite(
            self.perf_per_core, f"{self.name}: per-core perf", above=0
        )
        check_finite(
            self.max_freq_ghz, f"{self.name}: max frequency", at_least=0
        )
        check_count(self.llc_mib, f"{self.name}: LLC MiB")
        check_finite(
            self.mem_bw_gbps, f"{self.name}: memory bandwidth", at_least=0
        )

    @property
    def tdp_per_core(self) -> float:
        """Watts of TDP per physical core."""
        return self.tdp_watts / self.cores


@dataclass(frozen=True)
class DramSpec(ComponentSpec):
    """A DRAM DIMM, extending :class:`ComponentSpec` with capacity.

    Attributes:
        capacity_gb: DIMM capacity in GB.
        technology: ``"ddr4"`` or ``"ddr5"``.
        via_cxl: Whether the DIMM is attached behind a CXL controller
            (higher access latency; memory exposed as a compute-less
            NUMA node per the paper's Pond-style mitigation).
    """

    capacity_gb: int = 0
    technology: str = "ddr5"
    via_cxl: bool = False

    def __post_init__(self) -> None:
        super().__post_init__()
        check_finite(self.capacity_gb, f"{self.name}: DIMM capacity", above=0)
        if self.technology not in ("ddr4", "ddr5"):
            raise ConfigError(
                f"{self.name}: unknown DRAM technology {self.technology!r}"
            )

    @property
    def watts_per_gb(self) -> float:
        """Operational power density of the DIMM."""
        return self.tdp_watts / self.capacity_gb


@dataclass(frozen=True)
class SsdSpec(ComponentSpec):
    """An SSD, extending :class:`ComponentSpec` with capacity and I/O limits.

    Attributes:
        capacity_tb: Drive capacity in TB.
        write_bw_gbps: Sequential/random write bandwidth in GB/s
            (paper: old drives 1.0, new drives 2.3).
        write_kiops: Random write thousands-of-IOPS
            (paper reports 250 vs 600 "IOPS" for old vs new drives).
        interface: ``"m.2"`` (PCIe3-era, reused via passive adapter) or
            ``"e1.s"`` (PCIe5-era).
    """

    capacity_tb: float = 0.0
    write_bw_gbps: float = 0.0
    write_kiops: float = 0.0
    interface: str = "e1.s"

    def __post_init__(self) -> None:
        super().__post_init__()
        check_finite(self.capacity_tb, f"{self.name}: SSD capacity", above=0)
        check_finite(
            self.write_bw_gbps, f"{self.name}: write bandwidth", at_least=0
        )
        check_finite(self.write_kiops, f"{self.name}: write kIOPS", at_least=0)
        if self.interface not in ("m.2", "e1.s"):
            raise ConfigError(
                f"{self.name}: unknown SSD interface {self.interface!r}"
            )

    @property
    def watts_per_tb(self) -> float:
        """Operational power density of the drive."""
        return self.tdp_watts / self.capacity_tb


@dataclass(frozen=True)
class CxlControllerSpec(ComponentSpec):
    """A CXL memory (Type 3, CXL.mem) controller card.

    Attributes:
        dimm_slots: Number of DDR4 DIMMs the card can hold (paper: 4).
        pcie_lanes: PCIe5 lanes consumed by the card.
        added_bw_gbps: Memory bandwidth added behind the card (the paper
            cites ~100 GB/s for 32 CXL/PCIe5 lanes with 256-byte
            interleaving, i.e. ~50 GB/s for a 16-lane card).
        load_latency_ns: Loaded access latency through the card (paper:
            ~280 ns at medium load vs ~140 ns for local DDR5).
    """

    dimm_slots: int = 4
    pcie_lanes: int = 16
    added_bw_gbps: float = 50.0
    load_latency_ns: float = 280.0

    def __post_init__(self) -> None:
        super().__post_init__()
        check_count(self.dimm_slots, f"{self.name}: DIMM slots")
        if self.dimm_slots == 0:
            raise ConfigError(f"{self.name}: controller needs >= 1 DIMM slot")
        check_count(self.pcie_lanes, f"{self.name}: PCIe lanes")
        check_finite(
            self.added_bw_gbps, f"{self.name}: added bandwidth", at_least=0
        )
        check_finite(
            self.load_latency_ns, f"{self.name}: load latency", at_least=0
        )


@dataclass(frozen=True)
class SimpleSpec(ComponentSpec):
    """A catch-all part (NIC, fans, boards, PSU, chassis)."""


def reused(spec: ComponentSpec) -> ComponentSpec:
    """Functional alias for :meth:`ComponentSpec.as_reused`."""
    return spec.as_reused()


def scaled_dram(
    base: DramSpec, capacity_gb: int, name: Optional[str] = None
) -> DramSpec:
    """A DIMM like ``base`` but at a different capacity.

    TDP and embodied carbon scale linearly with capacity, matching the
    paper's per-GB accounting (Table V).
    """
    if capacity_gb <= 0:
        raise ConfigError("capacity_gb must be > 0")
    factor = capacity_gb / base.capacity_gb
    return dataclasses.replace(
        base,
        name=name or f"{base.name}-{capacity_gb}GB",
        capacity_gb=capacity_gb,
        tdp_watts=base.tdp_watts * factor,
        embodied_kg=base.embodied_kg * factor,
    )


def scaled_ssd(
    base: SsdSpec, capacity_tb: float, name: Optional[str] = None
) -> SsdSpec:
    """An SSD like ``base`` but at a different capacity (per-TB scaling)."""
    if capacity_tb <= 0:
        raise ConfigError("capacity_tb must be > 0")
    factor = capacity_tb / base.capacity_tb
    return dataclasses.replace(
        base,
        name=name or f"{base.name}-{capacity_tb:g}TB",
        capacity_tb=capacity_tb,
        tdp_watts=base.tdp_watts * factor,
        embodied_kg=base.embodied_kg * factor,
    )
