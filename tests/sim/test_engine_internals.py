"""Engine internals: power aggregation and response-latency wiring."""

import numpy as np
import pytest

from tests.conftest import make_vm
from repro.baselines.pri_aware import PriAwarePolicy
from repro.core.local import ServerAllocation
from repro.datacenter.server import XEON_E5410
from repro.sim.config import scaled_config
from repro.sim.engine import SimulationEngine
from repro.sim.state import FleetPlacement


@pytest.fixture
def kernel():
    return SimulationEngine(
        scaled_config("tiny").with_horizon(4), PriAwarePolicy()
    ).kernel


def manual_placement(vms, dc_of: dict[int, int], n_dcs=3):
    """A hand-built placement: one server per DC, top frequency."""
    allocations = []
    for dc in range(n_dcs):
        members = [vm.vm_id for vm in vms if dc_of[vm.vm_id] == dc]
        allocations.append(
            ServerAllocation(
                model=XEON_E5410,
                n_servers=8,
                server_vms=[members] if members else [],
                frequencies=[1] if members else [],
                saturated=[False] if members else [],
            )
        )
    return FleetPlacement(assignment=dict(dc_of), allocations=allocations)


class TestITPower:
    def test_matches_hand_computation(self, kernel):
        vms = [make_vm(vm_id=0, seed=1), make_vm(vm_id=1, seed=2)]
        placement = manual_placement(vms, {0: 0, 1: 0})
        vm_rows = {0: 0, 1: 1}
        demand = kernel._demand(vms, 0)
        power, actives = kernel._fleet_it_power(placement, vm_rows, demand)
        expected = XEON_E5410.power_trace(1, demand[0] + demand[1])
        assert actives[0] == 1
        power = power[0]
        assert np.allclose(power, expected)

    def test_empty_dc_zero_power(self, kernel):
        vms = [make_vm(vm_id=0, seed=1)]
        placement = manual_placement(vms, {0: 0})
        demand = kernel._demand(vms, 0)
        power, actives = kernel._fleet_it_power(placement, {0: 0}, demand)
        assert actives[2] == 0
        assert np.all(power[2] == 0.0)

    def test_two_servers_sum(self, kernel):
        vms = [make_vm(vm_id=0, seed=1), make_vm(vm_id=1, seed=2)]
        allocation = ServerAllocation(
            model=XEON_E5410,
            n_servers=8,
            server_vms=[[0], [1]],
            frequencies=[0, 1],
            saturated=[False, False],
        )
        placement = FleetPlacement(
            assignment={0: 0, 1: 0},
            allocations=[
                allocation,
                ServerAllocation(model=XEON_E5410, n_servers=8),
                ServerAllocation(model=XEON_E5410, n_servers=8),
            ],
        )
        demand = kernel._demand(vms, 0)
        power, actives = kernel._fleet_it_power(
            placement, {0: 0, 1: 1}, demand
        )
        expected = XEON_E5410.power_trace(0, demand[0]) + XEON_E5410.power_trace(
            1, demand[1]
        )
        assert actives[0] == 2
        assert np.allclose(power[0], expected)


class TestResponseLatencies:
    def test_matches_latency_model(self, kernel):
        vms = [
            make_vm(vm_id=0, service_id=0, seed=1),
            make_vm(vm_id=1, service_id=0, seed=2),
            make_vm(vm_id=2, service_id=0, seed=3),
        ]
        placement = manual_placement(vms, {0: 0, 1: 1, 2: 1})
        volumes = kernel.volumes.volumes(vms, 2).volumes
        latencies = kernel._response_latencies(placement, vms, volumes, 2)

        # DC1 receives from vm0 (DC0) and internally from vm2<->vm1.
        expected_sources = {
            0: float(volumes[0, 1] + volumes[0, 2]),
            1: float(volumes[1, 2] + volumes[2, 1]),
        }
        expected = kernel.latency_model.destination_latency(
            1, expected_sources, 2
        ).total_s
        assert latencies[1][0] == pytest.approx(expected)

    def test_receiving_vm_counts(self, kernel):
        vms = [
            make_vm(vm_id=0, service_id=0, seed=1),
            make_vm(vm_id=1, service_id=0, seed=2),
        ]
        placement = manual_placement(vms, {0: 0, 1: 0})
        volumes = kernel.volumes.volumes(vms, 1).volumes
        latencies = kernel._response_latencies(placement, vms, volumes, 1)
        receiving = [count for _, count in latencies]
        # Both VMs exchange intra-service data, both sit in DC0.
        assert receiving[0] == 2
        assert receiving[1] == 0
        assert receiving[2] == 0

    def test_empty_dc_zero_latency(self, kernel):
        vms = [make_vm(vm_id=0, seed=1)]
        placement = manual_placement(vms, {0: 0})
        volumes = np.zeros((1, 1))
        latencies = kernel._response_latencies(placement, vms, volumes, 0)
        assert latencies[1] == (0.0, 0)
        assert latencies[2] == (0.0, 0)


class TestDemandCache:
    def test_rows_cached(self, kernel):
        vm = make_vm(vm_id=0, seed=1)
        first = kernel._demand([vm], 2)
        row = kernel._demand_cache[(0, 2)]
        second = kernel._demand([vm, make_vm(vm_id=1, seed=2)], 2)
        assert kernel._demand_cache[(0, 2)] is row
        assert np.array_equal(first[0], second[0])

    def test_eviction_keeps_recent(self, kernel):
        vm = make_vm(vm_id=0, seed=1)
        kernel._demand([vm], 0)
        kernel._demand([vm], 5)
        kernel._evict_cache(5)
        assert (0, 0) not in kernel._demand_cache
        assert (0, 5) in kernel._demand_cache
