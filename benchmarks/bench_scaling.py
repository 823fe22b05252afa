"""Controller and engine scaling: wall time of each phase vs fleet size.

The paper argues the two-phase split keeps the controller cheap enough
for real-time hourly invocation.  These micro-benchmarks time each
phase (embedding, constrained k-means, Algorithm 2, local allocation)
on synthetic fleets of growing size, plus the slot kernel's per-slot
physics hot paths (`_fleet_it_power`, `_response_latencies`) against
their loop oracles in `tests/oracles/kernel.py` -- the batched path
must be measurably faster per slot while staying bit-identical.
"""

import numpy as np
import pytest

from conftest import make_specs, make_vm
from repro.core.correlation import attraction_matrix, repulsion_matrix
from repro.core.forces import ForceDirectedEmbedding, ForceParameters
from repro.core.kmeans import constrained_kmeans, warm_start_centroids
from repro.core.local import allocate_correlation_aware
from repro.core.migration import revise_migrations
from repro.datacenter.server import XEON_E5410
from repro.network.ber import BERProcess
from repro.network.latency import LatencyModel
from repro.network.topology import GeoTopology
from repro.sim.config import scaled_config
from repro.sim.engine import SimulationEngine
from tests.oracles.kernel import dc_it_power_loop, response_latencies_loop


def synthetic_inputs(n_vms: int, steps: int = 60, seed: int = 0):
    rng = np.random.default_rng(seed)
    traces = rng.uniform(0.1, 3.0, size=(n_vms, steps))
    volumes = rng.uniform(0.0, 20.0, size=(n_vms, n_vms))
    np.fill_diagonal(volumes, 0.0)
    positions = rng.normal(size=(n_vms, 2))
    return traces, volumes, positions


@pytest.mark.parametrize("n_vms", [50, 150, 300])
def test_embedding_scaling(benchmark, n_vms):
    traces, volumes, positions = synthetic_inputs(n_vms)
    attraction = attraction_matrix(volumes)
    repulsion = repulsion_matrix(traces)
    embedding = ForceDirectedEmbedding(ForceParameters(max_iterations=20))
    result = benchmark(embedding.run, positions, attraction, repulsion)
    assert result.positions.shape == (n_vms, 2)


@pytest.mark.parametrize("n_vms", [50, 150, 300])
def test_kmeans_scaling(benchmark, n_vms):
    _, __, positions = synthetic_inputs(n_vms)
    rng = np.random.default_rng(1)
    loads = rng.uniform(0.2, 2.0, n_vms)
    capacities = np.full(3, loads.sum())
    centroids = warm_start_centroids(positions, None, 3)
    result = benchmark(
        constrained_kmeans, positions, loads, capacities, centroids
    )
    assert result.assignment.shape == (n_vms,)


@pytest.mark.parametrize("n_vms", [50, 150])
def test_migration_revision_scaling(benchmark, n_vms):
    rng = np.random.default_rng(2)
    vms = [
        make_vm(vm_id=i, image_gb=float(rng.choice([2, 4, 8])), seed=i)
        for i in range(n_vms)
    ]
    latency_model = LatencyModel(GeoTopology(make_specs()), BERProcess(seed=1))
    target = rng.integers(0, 3, n_vms)
    previous = rng.integers(0, 3, n_vms)
    positions = rng.normal(size=(n_vms, 2))
    centroids = rng.normal(size=(3, 2))
    loads = rng.uniform(0.2, 2.0, n_vms)
    caps = np.full(3, loads.sum() / 2.0)
    plan = benchmark(
        revise_migrations,
        vms,
        target,
        previous,
        positions,
        centroids,
        loads,
        caps,
        latency_model,
        0,
        72.0,
    )
    assert len(plan.assignment) == n_vms


@pytest.mark.parametrize("n_vms", [50, 150, 300])
def test_local_allocation_scaling(benchmark, n_vms):
    traces, _, __ = synthetic_inputs(n_vms)
    allocation = benchmark(
        allocate_correlation_aware,
        list(range(n_vms)),
        traces,
        XEON_E5410,
        max(n_vms // 2, 1),
    )
    assert allocation.vm_count() == n_vms


# -- engine per-slot physics hot paths ---------------------------------


class _SyntheticPlacement:
    """Bare placement stand-in for the engine hot-path benchmarks."""

    def __init__(self, allocations=None, assignment=None):
        self.allocations = allocations
        self.assignment = assignment


def _physics_kernel(steps: int, n_dcs: int = 3):
    """A slot kernel over the first ``n_dcs`` tiny-scale sites."""
    import dataclasses

    from repro.baselines import EnerAwarePolicy

    tiny = scaled_config("tiny")
    config = dataclasses.replace(
        tiny,
        name="bench",
        specs=tiny.specs[:n_dcs],
        horizon_slots=1,
        steps_per_slot=steps,
    )
    return SimulationEngine(config, EnerAwarePolicy()).kernel


def _it_power_inputs(n_vms: int, steps: int = 720, seed: int = 0):
    rng = np.random.default_rng(seed)
    demand = rng.uniform(0.05, 0.8, size=(n_vms, steps))
    vm_rows = {i: i for i in range(n_vms)}
    allocation = allocate_correlation_aware(
        list(range(n_vms)), demand, XEON_E5410, n_vms
    )
    placement = _SyntheticPlacement(allocations=[allocation])
    return placement, vm_rows, demand


@pytest.mark.parametrize("impl", ["loop", "batched"])
@pytest.mark.parametrize("n_vms", [300, 1000])
def test_it_power_per_slot(benchmark, impl, n_vms):
    """Per-slot IT-power of a one-DC placement: the fleet CSR product
    vs the loop oracle."""
    kernel = _physics_kernel(steps=720, n_dcs=1)
    placement, vm_rows, demand = _it_power_inputs(n_vms)
    reference, _ = dc_it_power_loop(kernel, placement, 0, vm_rows, demand)
    if impl == "batched":
        power, actives = benchmark(
            kernel._fleet_it_power, placement, vm_rows, demand
        )
        power, active = power[0], actives[0]
    else:
        power, active = benchmark(
            dc_it_power_loop, kernel, placement, 0, vm_rows, demand
        )
    assert np.array_equal(power, reference)
    assert active == placement.allocations[0].active_servers


@pytest.mark.parametrize("impl", ["loop", "batched"])
@pytest.mark.parametrize("n_vms", [150, 450])
def test_response_latencies_per_slot(benchmark, impl, n_vms):
    """Per-slot Eq. 1 evaluation: grouped volume matrix vs dict loops."""
    rng = np.random.default_rng(3)
    kernel = _physics_kernel(steps=60)
    vms = [
        make_vm(vm_id=i, service_id=i // 5, seed=i) for i in range(n_vms)
    ]
    volumes = np.exp(rng.normal(1.0, 1.0, size=(n_vms, n_vms)))
    np.fill_diagonal(volumes, 0.0)
    placement = _SyntheticPlacement(
        assignment={vm.vm_id: int(rng.integers(0, 3)) for vm in vms}
    )
    reference = response_latencies_loop(kernel, placement, vms, volumes, 5)
    if impl == "batched":
        latencies = benchmark(
            kernel._response_latencies, placement, vms, volumes, 5
        )
    else:
        latencies = benchmark(
            response_latencies_loop, kernel, placement, vms, volumes, 5
        )
    assert latencies == reference
