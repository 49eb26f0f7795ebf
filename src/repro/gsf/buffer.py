"""GSF's growth-buffer component (Section IV-D / V).

Cloud providers deploy extra capacity to absorb spikes in VM deployment
growth while new servers are procured.  For a brand-new GreenSKU there is
no demand history to size a dedicated buffer from, so the paper keeps the
*entire* buffer on baseline SKUs and lets VMs run fungibly on GreenSKUs
while capacity lasts — one buffer, sized from the baseline's history, at
the cost of the buffer being carbon-inefficient baseline hardware.  That
cost is charged against the GreenSKU deployment's savings.
"""

from __future__ import annotations

from dataclasses import dataclass
import math

from ..core.checks import check_finite

#: Default buffer as a fraction of serving capacity, a typical headroom
#: figure for hyperscale inventory management (Chopra et al.-style safety
#: stock at weeks of lead time and double-digit annual growth).
DEFAULT_BUFFER_FRACTION = 0.15


@dataclass(frozen=True)
class BufferPlan:
    """Buffer servers to deploy on top of a right-sized cluster.

    Attributes:
        baseline_buffer_servers: Extra baseline SKUs held as the growth
            buffer (the paper's single-buffer workaround).
        green_buffer_servers: Extra GreenSKUs (zero under the paper's
            policy; nonzero only for the dual-buffer ablation).
    """

    baseline_buffer_servers: int
    green_buffer_servers: int = 0

    @property
    def total(self) -> int:
        return self.baseline_buffer_servers + self.green_buffer_servers


def baseline_only_buffer(
    serving_cores: float,
    baseline_cores_per_server: int,
    buffer_fraction: float = DEFAULT_BUFFER_FRACTION,
) -> BufferPlan:
    """The paper's policy: a buffer of baseline SKUs sized from capacity.

    Args:
        serving_cores: Core capacity of the right-sized serving cluster
            (baseline plus GreenSKU cores).
        baseline_cores_per_server: Cores per baseline server.
        buffer_fraction: Buffer headroom as a fraction of serving cores.
    """
    check_finite(serving_cores, "serving cores", at_least=0)
    check_finite(
        baseline_cores_per_server, "baseline cores per server", above=0
    )
    check_finite(buffer_fraction, "buffer fraction", at_least=0, below=1)
    buffer_cores = serving_cores * buffer_fraction
    servers = int(math.ceil(buffer_cores / baseline_cores_per_server))
    return BufferPlan(baseline_buffer_servers=servers)


def proportional_dual_buffer(
    baseline_cores: float,
    green_cores: float,
    baseline_cores_per_server: int,
    green_cores_per_server: int,
    buffer_fraction: float = DEFAULT_BUFFER_FRACTION,
) -> BufferPlan:
    """Ablation policy: per-SKU buffers proportional to each pool.

    Requires demand history per SKU (which a new GreenSKU lacks — the
    reason the paper avoids it) but shows what a mature deployment's
    buffer would cost.
    """
    check_finite(baseline_cores, "baseline cores", at_least=0)
    check_finite(green_cores, "green cores", at_least=0)
    check_finite(
        baseline_cores_per_server, "baseline cores per server", above=0
    )
    check_finite(green_cores_per_server, "green cores per server", above=0)
    check_finite(buffer_fraction, "buffer fraction", at_least=0, below=1)
    base_servers = int(
        math.ceil(baseline_cores * buffer_fraction / baseline_cores_per_server)
    )
    green_servers = int(
        math.ceil(green_cores * buffer_fraction / green_cores_per_server)
    )
    return BufferPlan(
        baseline_buffer_servers=base_servers,
        green_buffer_servers=green_servers,
    )
