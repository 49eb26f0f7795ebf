"""Server state under Azure's production placement rules.

The paper's VM allocation component uses a simulator capturing the key
placement rules of Azure's production scheduler (Protean):

1. best-fit placement heuristics that reduce resource fragmentation,
2. a preference for placing VMs on non-empty nodes (empty nodes are kept
   in reserve for full-node VMs and power efficiency),
3. VM placement constraints (full-node VMs require a dedicated, empty
   baseline server; GreenSKU eligibility comes from the adoption
   component).

This module provides the mutable :class:`Server` state, the memory
slack :data:`MEM_EPS` every feasibility check shares, and the
heuristic names.  :class:`~repro.allocation.index.PlacementEngine`
answers the rules; the linear scan that states them one server at a
time is the reference in ``tests/oracles/allocation.py``.
"""

from __future__ import annotations

from typing import Dict, Iterable, KeysView, List, Tuple

from ..core.errors import SimulationError
from ..hardware.sku import ServerSKU
from .vm import VmRequest

#: Absolute slack on memory-feasibility comparisons.  All feasibility
#: predicates are phrased in *threshold form* — ``free >= need - MEM_EPS``
#: — so that a scan over servers and an indexed lookup keyed on
#: ``free_memory_gb`` evaluate the exact same float comparison and
#: therefore agree bit-for-bit at the boundary.
MEM_EPS = 1e-9


def _sku_shape(sku: ServerSKU) -> Tuple[int, float, float, float]:
    """``(cores, memory GB, CXL GB, CXL fraction)`` of a SKU."""
    return (
        sku.cores,
        float(sku.memory_gb),
        float(sku.cxl_memory_gb),
        sku.cxl_fraction,
    )


class Server:
    """Mutable allocation state of one physical server.

    Attributes:
        server_id: Unique id within the cluster.
        sku: The server's SKU (capacities derive from it).
        is_green: True when the SKU is a GreenSKU (``generation == 0``).
        total_cores / total_memory_gb / total_cxl_gb / cxl_fraction: The
            SKU's shape, equal to its ``cores``, ``memory_gb``,
            ``cxl_memory_gb`` and ``cxl_fraction``.  :meth:`pool` derives
            it from the parts list once for a whole pool of servers.
    """

    __slots__ = (
        "server_id",
        "sku",
        "is_green",
        "total_cores",
        "total_memory_gb",
        "total_cxl_gb",
        "cxl_fraction",
        "free_cores",
        "free_memory_gb",
        "_vms",
        "_touched_memory_gb",
        "_cxl_used_gb",
        "dedicated",
    )

    def __init__(self, server_id: int, sku: ServerSKU, _shape=None):
        cores, memory_gb, cxl_gb, cxl_fraction = _shape or _sku_shape(sku)
        self.server_id = server_id
        self.sku = sku
        self.is_green = sku.generation == 0
        self.total_cores = cores
        self.total_memory_gb = memory_gb
        self.total_cxl_gb = cxl_gb
        self.cxl_fraction = cxl_fraction
        self.free_cores = cores
        self.free_memory_gb = memory_gb
        self._vms: Dict[int, Tuple[int, float, float, float]] = {}
        self._touched_memory_gb = 0.0
        self._cxl_used_gb = 0.0
        self.dedicated = False  # held by a full-node VM

    @classmethod
    def pool(cls, sku: ServerSKU, ids: Iterable[int]) -> List["Server"]:
        """Fresh servers of one SKU, one per id, in id order.

        Each ``ServerSKU`` capacity property sums over the parts list on
        every read, so the shape is derived once here and shared by the
        whole pool.
        """
        shape = _sku_shape(sku)
        return [cls(server_id, sku, shape) for server_id in ids]

    # -- capacity queries ---------------------------------------------------

    @property
    def is_empty(self) -> bool:
        """No VMs placed."""
        return not self._vms

    @property
    def vm_count(self) -> int:
        """Number of VMs currently placed."""
        return len(self._vms)

    @property
    def vm_ids(self) -> KeysView[int]:
        """Ids of the VMs currently placed (a live, read-only view)."""
        return self._vms.keys()

    @property
    def allocated_cores(self) -> int:
        """Cores currently allocated to VMs."""
        return self.total_cores - self.free_cores

    @property
    def allocated_memory_gb(self) -> float:
        """Memory currently allocated to VMs."""
        return self.total_memory_gb - self.free_memory_gb

    @property
    def core_density(self) -> float:
        """Allocated over allocatable cores (the paper's packing density)."""
        return self.allocated_cores / self.total_cores

    @property
    def memory_density(self) -> float:
        """Allocated over allocatable memory."""
        return self.allocated_memory_gb / self.total_memory_gb

    @property
    def touched_memory_fraction(self) -> float:
        """Max memory its VMs ever touch, over server capacity (Fig. 10)."""
        return self._touched_memory_gb / self.total_memory_gb

    @property
    def cxl_used_gb(self) -> float:
        """Memory currently tiered onto CXL-attached DDR4 (Pond plans)."""
        return self._cxl_used_gb

    @property
    def cxl_utilization(self) -> float:
        """CXL-pool usage over CXL capacity (0 for CXL-less servers)."""
        if self.total_cxl_gb == 0:
            return 0.0
        return self._cxl_used_gb / self.total_cxl_gb

    @property
    def free_cxl_gb(self) -> float:
        """Remaining CXL-pool capacity for tiering decisions."""
        return self.total_cxl_gb - self._cxl_used_gb

    def fits(self, cores: int, memory_gb: float) -> bool:
        """Whether a request fits the remaining capacity."""
        return (
            not self.dedicated
            and cores <= self.free_cores
            and self.free_memory_gb >= memory_gb - MEM_EPS
        )

    # -- mutation -------------------------------------------------------------

    def place(
        self,
        vm: VmRequest,
        cores: int,
        memory_gb: float,
        cxl_gb: float = 0.0,
    ) -> None:
        """Place a VM consuming ``cores``/``memory_gb`` (already scaled).

        ``cxl_gb`` is the share of the VM's memory the Pond tiering plan
        put on CXL-attached DDR4; it is bookkeeping within ``memory_gb``,
        not additional capacity.  No feasibility check reads it; only the
        ``cxl`` snapshot aggregate does, so replays that keep no snapshot
        aggregates plan no tiering and pass 0.

        The :meth:`fits` and :attr:`free_cxl_gb` checks are written out
        here, in the same threshold form: every placement of a replay
        runs them.
        """
        vm_id = vm.vm_id
        vms = self._vms
        if vm_id in vms:
            raise SimulationError(f"VM {vm_id} already on server")
        free_memory_gb = self.free_memory_gb
        if (
            self.dedicated
            or not cores <= self.free_cores
            or not free_memory_gb >= memory_gb - MEM_EPS
        ):
            raise SimulationError(
                f"VM {vm_id} does not fit server {self.server_id}"
            )
        if cxl_gb < 0 or cxl_gb > memory_gb + 1e-9:
            raise SimulationError(
                f"VM {vm_id}: CXL share {cxl_gb} outside [0, {memory_gb}]"
            )
        if cxl_gb > self.total_cxl_gb - self._cxl_used_gb + 1e-9:
            raise SimulationError(
                f"VM {vm_id}: CXL pool exhausted on server "
                f"{self.server_id}"
            )
        touched = memory_gb * vm.max_memory_fraction
        vms[vm_id] = (cores, memory_gb, touched, cxl_gb)
        self.free_cores -= cores
        self.free_memory_gb = free_memory_gb - memory_gb
        self._touched_memory_gb += touched
        self._cxl_used_gb += cxl_gb
        if vm.full_node:
            self.dedicated = True

    def remove(self, vm_id: int) -> None:
        """Remove a departed VM and release its resources."""
        try:
            cores, memory_gb, touched, cxl_gb = self._vms.pop(vm_id)
        except KeyError:
            raise SimulationError(
                f"VM {vm_id} not on server {self.server_id}"
            ) from None
        self.free_cores += cores
        self.free_memory_gb += memory_gb
        self._touched_memory_gb -= touched
        self._cxl_used_gb -= cxl_gb
        if not self._vms:
            self.dedicated = False

    def reset(self) -> None:
        """Restore the pristine empty state of a freshly built server.

        Place/remove cycles can leave float dust in ``free_memory_gb``;
        reusable probe contexts (sizing searches) call this between
        replays so every probe starts from exactly the state
        ``ClusterSpec.build_servers`` would produce.
        """
        self.free_cores = self.total_cores
        self.free_memory_gb = self.total_memory_gb
        self._vms.clear()
        self._touched_memory_gb = 0.0
        self._cxl_used_gb = 0.0
        self.dedicated = False

    def __repr__(self) -> str:
        return (
            f"Server({self.server_id}, {self.sku.name}, "
            f"{self.allocated_cores}/{self.total_cores}c)"
        )


#: Placement heuristics selectable for ablation studies.  ``best-fit`` is
#: the production rule set (and the paper's); the others exist to
#: quantify how much the best-fit + prefer-non-empty rules buy.
PLACEMENT_POLICIES = ("best-fit", "first-fit", "worst-fit")
