"""Batched engine hot paths: bit-exact equivalence with the loop oracles."""

import numpy as np
import pytest

from repro.experiments.runner import default_policies
from repro.sim.config import scaled_config
from repro.sim.engine import SimulationEngine, run_policies
from repro.workload.packs import LibraryWorkload
from tests.oracles.kernel import (
    dc_it_power_grouped,
    dc_it_power_loop,
    loop_engine,
    response_latencies_loop,
)


def run_pair(policy_a, policy_b, horizon=6):
    config = scaled_config("tiny").with_horizon(horizon)
    loops = loop_engine(config, policy_a).run()
    batched = SimulationEngine(config, policy_b).run()
    return loops, batched


@pytest.mark.parametrize("index", range(4))
def test_full_run_bit_identical(index):
    """Every per-slot ledger float matches the loop reference exactly."""
    loops, batched = run_pair(
        default_policies()[index], default_policies()[index]
    )
    assert loops.horizon == batched.horizon
    assert loops.slots == batched.slots


def test_summary_metrics_identical():
    loops, batched = run_pair(default_policies()[0], default_policies()[0])
    assert loops.summary() == batched.summary()
    assert np.array_equal(loops.response_samples(), batched.response_samples())


def test_dc_it_power_paths_agree_per_slot():
    config = scaled_config("tiny").with_horizon(2)
    engine = SimulationEngine(config, default_policies()[1])
    kernel = engine.kernel
    vms = engine.population.alive(0)
    vm_rows = {vm.vm_id: row for row, vm in enumerate(vms)}
    demand = kernel._demand(vms, 0)
    observation_policy = default_policies()[1]
    observation_policy.reset()
    from repro.sim.config import build_datacenters
    from repro.sim.state import SlotObservation

    observation = SlotObservation(
        slot=0,
        vms=vms,
        demand_traces=demand,
        volumes=engine.volumes.volumes(vms, 0),
        previous_assignment={},
        dcs=build_datacenters(config),
        latency_model=engine.latency_model,
        latency_constraint_s=config.latency_constraint_s,
    )
    placement = observation_policy.place(observation)
    power, actives = kernel._fleet_it_power(placement, vm_rows, demand)
    for dc_index in range(config.n_dcs):
        loop = dc_it_power_loop(kernel, placement, dc_index, vm_rows, demand)
        assert np.array_equal(loop[0], power[dc_index])
        assert loop[1] == actives[dc_index]


def test_response_latency_paths_agree_per_slot():
    config = scaled_config("tiny").with_horizon(2)
    engine = SimulationEngine(config, default_policies()[1])
    vms = engine.population.alive(1)
    volumes = engine.volumes.volumes(vms, 1).volumes
    rng = np.random.default_rng(7)
    placement_stub = type(
        "Stub",
        (),
        {"assignment": {vm.vm_id: int(rng.integers(0, 3)) for vm in vms}},
    )()
    loop = response_latencies_loop(engine.kernel, placement_stub, vms, volumes, 1)
    fast = engine.kernel._response_latencies(placement_stub, vms, volumes, 1)
    assert loop == fast


def test_response_latency_empty_fleet():
    config = scaled_config("tiny").with_horizon(2)
    engine = SimulationEngine(config, default_policies()[1])
    placement_stub = type("Stub", (), {"assignment": {}})()
    empty = np.zeros((0, 0))
    loop = response_latencies_loop(engine.kernel, placement_stub, [], empty, 0)
    fast = engine.kernel._response_latencies(placement_stub, [], empty, 0)
    assert loop == fast == [(0.0, 0)] * config.n_dcs


class TestRunPoliciesOptions:
    """run_policies forwards engine options to every engine it builds."""

    def test_clairvoyant_threaded_through(self):
        config = scaled_config("tiny").with_horizon(4)
        policies = default_policies()[1:2]
        via_runner = run_policies(config, policies, clairvoyant=True)
        direct = SimulationEngine(
            config, default_policies()[1], clairvoyant=True
        ).run()
        assert via_runner[0].slots == direct.slots

    def test_placements_are_always_validated(self):
        config = scaled_config("tiny").with_horizon(2)
        policy = default_policies()[1]
        place = policy.place

        def unplaced(observation):
            placement = place(observation)
            placement.assignment.pop(observation.vms[0].vm_id)
            return placement

        policy.place = unplaced
        with pytest.raises(ValueError):
            run_policies(config, [policy])

    def test_trace_library_threaded_through(self):
        from repro.workload.traces import TraceLibrary

        config = scaled_config("tiny").with_horizon(2)
        alternate = TraceLibrary(
            steps_per_slot=config.steps_per_slot, seed=config.seed + 99
        )
        default = run_policies(config, default_policies()[1:2])
        swapped = run_policies(
            config, default_policies()[1:2], workload=LibraryWorkload(alternate)
        )
        assert default[0].total_facility_energy_joules() != pytest.approx(
            swapped[0].total_facility_energy_joules()
        )


class TestDemandCacheEviction:
    def test_eviction_is_bucketed_per_slot(self):
        config = scaled_config("tiny").with_horizon(3)
        kernel = SimulationEngine(config, default_policies()[1]).kernel
        vms = kernel.population.alive(0)
        kernel._demand(vms, 0)
        kernel._demand(vms, 1)
        assert set(kernel._demand_cache_slots) == {0, 1}
        kernel._evict_cache(1)
        assert set(kernel._demand_cache_slots) == {1}
        assert all(slot == 1 for _, slot in kernel._demand_cache)

    def test_cache_consistent_after_run(self):
        config = scaled_config("tiny").with_horizon(4)
        engine = SimulationEngine(config, default_policies()[1])
        engine.run()
        kernel = engine.kernel
        bucketed = {
            key
            for keys in kernel._demand_cache_slots.values()
            for key in keys
        }
        assert bucketed == set(kernel._demand_cache)
        assert {slot for _, slot in kernel._demand_cache} <= {2, 3}


class TestFleetItPower:
    """The one-shot fleet CSR product equals the per-DC oracles exactly."""

    def physics_inputs(self, slot=0):
        config = scaled_config("tiny").with_horizon(2)
        engine = SimulationEngine(config, default_policies()[1])
        vms = engine.population.alive(slot)
        vm_rows = {vm.vm_id: row for row, vm in enumerate(vms)}
        demand = engine.kernel._demand(vms, slot)
        policy = default_policies()[1]
        policy.reset()
        from repro.sim.config import build_datacenters
        from repro.sim.state import SlotObservation

        observation = SlotObservation(
            slot=slot,
            vms=vms,
            demand_traces=demand,
            volumes=engine.volumes.volumes(vms, slot),
            previous_assignment={},
            dcs=build_datacenters(config),
            latency_model=engine.latency_model,
            latency_constraint_s=config.latency_constraint_s,
        )
        placement = policy.place(observation)
        return config, engine, placement, vm_rows, demand

    def test_matches_per_dc_paths(self):
        config, engine, placement, vm_rows, demand = self.physics_inputs()
        kernel = engine.kernel
        power, actives = kernel._fleet_it_power(placement, vm_rows, demand)
        assert power.shape == (config.n_dcs, config.steps_per_slot)
        for dc_index in range(config.n_dcs):
            loop = dc_it_power_loop(kernel, placement, dc_index, vm_rows, demand)
            per_dc = dc_it_power_grouped(
                kernel, placement, dc_index, vm_rows, demand
            )
            assert np.array_equal(power[dc_index], loop[0])
            assert np.array_equal(power[dc_index], per_dc[0])
            assert actives[dc_index] == loop[1] == per_dc[1]

    def test_empty_placement(self):
        from repro.core.local import ServerAllocation
        from repro.datacenter.server import XEON_E5410

        config, engine, placement, vm_rows, demand = self.physics_inputs()
        placement.allocations = [
            ServerAllocation(model=XEON_E5410, n_servers=4)
            for _ in range(config.n_dcs)
        ]
        power, actives = engine.kernel._fleet_it_power(
            placement, vm_rows, np.zeros((0, config.steps_per_slot))
        )
        assert not power.any()
        assert actives == [0] * config.n_dcs


class TestFleetGreenPathsInRun:
    """Full runs agree across every battery-kernel variant."""

    def test_struct_of_arrays_green_full_run(self):
        config = scaled_config("tiny").with_horizon(6)
        loops = loop_engine(config, default_policies()[1]).run()
        fleet_engine = SimulationEngine(config, default_policies()[1])
        fleet_engine.green.scalar_replay_max_dcs = 0
        batched = fleet_engine.run()
        assert loops.slots == batched.slots


class TestPairVolumes:
    """The grouped pair-volume gather (satellite of the workload-cache
    PR) must stay bit-identical to the reference block sums -- and the
    tempting reduceat alternative provably cannot."""

    def _blocked_case(self, n_vms, n_dcs, seed=11):
        rng = np.random.default_rng(seed)
        volumes = rng.uniform(0.0, 40.0, (n_vms, n_vms))
        np.fill_diagonal(volumes, 0.0)
        dc_of = rng.integers(0, n_dcs, n_vms)
        return volumes, dc_of

    def _reference_pairs(self, volumes, dc_of, n_dcs):
        pair = np.zeros((n_dcs, n_dcs))
        for src in range(n_dcs):
            senders = np.nonzero(dc_of == src)[0]
            for dst in range(n_dcs):
                members = np.nonzero(dc_of == dst)[0]
                if senders.size and members.size:
                    pair[src, dst] = volumes[np.ix_(senders, members)].sum()
        return pair

    @pytest.mark.parametrize("slot", [0, 1])
    def test_grouped_path_bit_identical_to_loop(self, slot):
        """Engine path vs per-pair nonzero reference, elementwise exact."""
        config = scaled_config("tiny").with_horizon(2)
        engine = SimulationEngine(config, default_policies()[1])
        vms = engine.population.alive(slot)
        # Drive the real entry points with a stub placement over the
        # engine's own population (identity must hold end to end).
        rng = np.random.default_rng(3)
        stub = type(
            "Stub",
            (),
            {
                "assignment": {
                    vm.vm_id: int(rng.integers(0, engine.config.n_dcs))
                    for vm in vms
                }
            },
        )()
        real = engine.volumes.volumes(vms, slot).volumes
        loop = response_latencies_loop(engine.kernel, stub, vms, real, slot)
        fast = engine.kernel._response_latencies(stub, vms, real, slot)
        assert loop == fast

    def test_grouped_blocks_match_reference_at_large_sizes(self):
        """Blocks beyond numpy's buffered-iteration threshold (8192
        elements) are exactly where strided shortcuts break; the
        np.ix_ gather must stay exact there."""
        volumes, dc_of = self._blocked_case(300, 2)
        reference = self._reference_pairs(volumes, dc_of, 2)
        order = np.argsort(dc_of, kind="stable")
        counts = np.bincount(dc_of, minlength=2)
        bounds = np.concatenate(([0], np.cumsum(counts)))
        groups = [order[bounds[dc]: bounds[dc + 1]] for dc in range(2)]
        for src in range(2):
            for dst in range(2):
                block_sum = volumes[np.ix_(groups[src], groups[dst])].sum()
                assert block_sum == reference[src, dst]

    def test_reduceat_is_not_bit_identical(self):
        """Documents why the engine does NOT use np.add.reduceat: its
        strict left-to-right accumulation diverges (in the last ulps)
        from ndarray.sum()'s pairwise reduction on realistic blocks,
        so a reduceat implementation would break the engine's
        bit-identity contract with the loop oracle."""
        volumes, dc_of = self._blocked_case(300, 2, seed=5)
        reference = self._reference_pairs(volumes, dc_of, 2)
        order = np.argsort(dc_of, kind="stable")
        counts = np.bincount(dc_of, minlength=2)
        bounds = np.concatenate(([0], np.cumsum(counts)))[:-1]
        blocked = volumes[np.ix_(order, order)]
        # The classic two-pass reduceat: columns, then rows.
        by_cols = np.add.reduceat(blocked, bounds, axis=1)
        pair = np.add.reduceat(by_cols, bounds, axis=0)
        assert pair == pytest.approx(reference)  # close...
        assert not np.array_equal(pair, reference)  # ...but not equal
