"""Server state and placement-rule tests."""

import pytest

from repro.allocation.index import PlacementEngine
from repro.allocation.scheduler import Server
from repro.allocation.vm import VmRequest
from repro.core.errors import SimulationError
from repro.hardware.sku import baseline_gen3, greensku_full


def make_vm(vm_id=1, cores=4, memory_gb=16.0, full_node=False, **kw):
    base = dict(
        vm_id=vm_id,
        arrival_hours=0.0,
        lifetime_hours=10.0,
        cores=cores,
        memory_gb=memory_gb,
        generation=3,
        app_name="Redis",
    )
    base.update(kw)
    if full_node:
        base.update(cores=80, memory_gb=768.0, full_node=True)
    return VmRequest(**base)


class TestServerState:
    def test_initial_capacity(self):
        server = Server(0, baseline_gen3())
        assert server.free_cores == 80
        assert server.free_memory_gb == pytest.approx(768.0)
        assert server.is_empty

    def test_greensku_flag(self):
        assert Server(0, greensku_full()).is_green
        assert not Server(0, baseline_gen3()).is_green

    def test_place_and_remove(self):
        server = Server(0, baseline_gen3())
        vm = make_vm()
        server.place(vm, vm.cores, vm.memory_gb)
        assert server.allocated_cores == 4
        assert server.vm_count == 1
        server.remove(vm.vm_id)
        assert server.is_empty
        assert server.free_cores == 80

    def test_double_place_rejected(self):
        server = Server(0, baseline_gen3())
        vm = make_vm()
        server.place(vm, 4, 16.0)
        with pytest.raises(SimulationError):
            server.place(vm, 4, 16.0)

    def test_remove_unknown_rejected(self):
        with pytest.raises(SimulationError):
            Server(0, baseline_gen3()).remove(99)

    def test_overcommit_rejected(self):
        server = Server(0, baseline_gen3())
        with pytest.raises(SimulationError):
            server.place(make_vm(cores=100, memory_gb=16), 100, 16.0)

    def test_densities(self):
        server = Server(0, baseline_gen3())
        server.place(make_vm(cores=40, memory_gb=384.0), 40, 384.0)
        assert server.core_density == pytest.approx(0.5)
        assert server.memory_density == pytest.approx(0.5)

    def test_touched_memory_tracking(self):
        server = Server(0, baseline_gen3())
        vm = make_vm(cores=8, memory_gb=76.8, max_memory_fraction=0.5)
        server.place(vm, 8, 76.8)
        assert server.touched_memory_fraction == pytest.approx(
            76.8 * 0.5 / 768.0
        )
        server.remove(vm.vm_id)
        assert server.touched_memory_fraction == pytest.approx(0.0)

    def test_full_node_dedicates_server(self):
        server = Server(0, baseline_gen3())
        vm = make_vm(full_node=True)
        server.place(vm, 80, 768.0)
        assert server.dedicated
        assert not server.fits(1, 1.0)

    def test_remove_full_node_clears_dedicated(self):
        # Once the full-node VM departs, the server must rejoin the
        # general pool: dedicated cleared, capacity fully released.
        server = Server(0, baseline_gen3())
        vm = make_vm(full_node=True)
        server.place(vm, 80, 768.0)
        server.remove(vm.vm_id)
        assert not server.dedicated
        assert server.is_empty
        assert server.fits(1, 1.0)


class TestBestFit:
    """The production placement rules, as the engine answers them."""

    def test_prefers_non_empty(self):
        empty = Server(0, baseline_gen3())
        busy = Server(1, baseline_gen3())
        engine = PlacementEngine([empty, busy])
        engine.place(busy, make_vm(vm_id=9), 4, 16.0)
        chosen = engine.choose_baseline(make_vm(vm_id=2), 4, 16.0)
        assert chosen is busy

    def test_best_fit_by_remaining_cores(self):
        loose = Server(0, baseline_gen3())
        tight = Server(1, baseline_gen3())
        engine = PlacementEngine([loose, tight])
        engine.place(loose, make_vm(vm_id=8, cores=8), 8, 32.0)
        engine.place(
            tight, make_vm(vm_id=9, cores=72, memory_gb=288.0), 72, 288.0
        )
        chosen = engine.choose_baseline(make_vm(vm_id=2), 4, 16.0)
        assert chosen is tight

    def test_none_when_nothing_fits(self):
        engine = PlacementEngine([Server(0, baseline_gen3())])
        chosen = engine.choose_baseline(
            make_vm(cores=100, memory_gb=16), 100, 16.0
        )
        assert chosen is None

    def test_memory_constraint_respected(self):
        server = Server(0, baseline_gen3())
        engine = PlacementEngine([server])
        engine.place(
            server, make_vm(vm_id=5, cores=4, memory_gb=760.0), 4, 760.0
        )
        chosen = engine.choose_baseline(
            make_vm(vm_id=6, cores=4, memory_gb=32.0), 4, 32.0
        )
        assert chosen is None

    def test_full_node_needs_empty_baseline(self):
        green = Server(0, greensku_full())
        busy_base = Server(1, baseline_gen3())
        empty_base = Server(2, baseline_gen3())
        engine = PlacementEngine([green, busy_base, empty_base])
        engine.place(busy_base, make_vm(vm_id=3), 4, 16.0)
        vm = make_vm(vm_id=4, full_node=True)
        assert engine.choose_green(vm, 80, 768.0) is None
        assert engine.choose_baseline(vm, 80, 768.0) is empty_base

    def test_full_node_never_on_green(self):
        engine = PlacementEngine([Server(0, greensku_full())])
        vm = make_vm(full_node=True)
        assert engine.choose_green(vm, 80, 768.0) is None
        assert engine.choose_baseline(vm, 80, 768.0) is None
