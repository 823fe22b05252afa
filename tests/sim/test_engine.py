"""Simulation engine: slot loop invariants and reproducibility."""

import numpy as np
import pytest

from repro.baselines.pri_aware import PriAwarePolicy
from repro.core.controller import ProposedPolicy
from repro.sim.config import scaled_config
from repro.sim.engine import SimulationEngine, run_policies


@pytest.fixture(scope="module")
def short_config():
    return scaled_config("tiny").with_horizon(6)


@pytest.fixture(scope="module")
def proposed_run(short_config):
    return SimulationEngine(short_config, ProposedPolicy()).run()


class TestRunShape:
    def test_one_record_per_slot(self, proposed_run, short_config):
        assert proposed_run.horizon == short_config.horizon_slots

    def test_one_dc_record_per_dc(self, proposed_run, short_config):
        for slot in proposed_run.slots:
            assert len(slot.dc_records) == short_config.n_dcs

    def test_policy_and_config_names(self, proposed_run):
        assert proposed_run.policy_name == "Proposed"
        assert proposed_run.config_name == "tiny"

    def test_vm_counts_positive(self, proposed_run):
        assert all(slot.n_vms > 0 for slot in proposed_run.slots)


class TestPhysics:
    def test_energy_positive_when_loaded(self, proposed_run):
        assert proposed_run.total_facility_energy_joules() > 0.0

    def test_cost_non_negative(self, proposed_run):
        assert all(slot.grid_cost_eur >= 0.0 for slot in proposed_run.slots)

    def test_it_below_facility_energy(self, proposed_run):
        for slot in proposed_run.slots:
            for dc_record in slot.dc_records:
                assert (
                    dc_record.it_energy_joules
                    <= dc_record.green.facility_energy + 1e-6
                )

    def test_green_ledgers_conserve(self, proposed_run):
        for slot in proposed_run.slots:
            for dc_record in slot.dc_records:
                dc_record.green.sanity_check()

    def test_response_latencies_non_negative(self, proposed_run):
        assert np.all(proposed_run.response_samples() >= 0.0)

    def test_active_servers_bounded(self, proposed_run, short_config):
        for slot in proposed_run.slots:
            for dc_record, spec in zip(slot.dc_records, short_config.specs):
                assert dc_record.active_servers <= spec.n_servers


class TestReproducibility:
    def test_same_seed_same_result(self, short_config):
        a = SimulationEngine(short_config, ProposedPolicy()).run()
        b = SimulationEngine(short_config, ProposedPolicy()).run()
        assert a.total_grid_cost_eur() == b.total_grid_cost_eur()
        assert a.total_facility_energy_joules() == b.total_facility_energy_joules()
        assert np.array_equal(a.response_samples(), b.response_samples())

    def test_different_seed_different_workload(self, short_config):
        other = scaled_config("tiny", seed=99).with_horizon(6)
        a = SimulationEngine(short_config, PriAwarePolicy()).run()
        b = SimulationEngine(other, PriAwarePolicy()).run()
        assert a.total_facility_energy_joules() != b.total_facility_energy_joules()

    def test_engine_reset_policy_between_runs(self, short_config):
        policy = ProposedPolicy()
        engine = SimulationEngine(short_config, policy)
        engine.run()
        first_positions = dict(policy._positions)
        engine.run()
        assert set(policy._positions) == set(first_positions)


class TestRunPolicies:
    def test_same_workload_across_policies(self, short_config):
        results = run_policies(
            short_config, [ProposedPolicy(), PriAwarePolicy()]
        )
        vms_a = [slot.n_vms for slot in results[0].slots]
        vms_b = [slot.n_vms for slot in results[1].slots]
        assert vms_a == vms_b

    def test_policy_names_preserved(self, short_config):
        results = run_policies(
            short_config, [ProposedPolicy(), PriAwarePolicy()]
        )
        assert [result.policy_name for result in results] == [
            "Proposed",
            "Pri-aware",
        ]


class TestCaching:
    def test_demand_cache_evicts_old_slots(self, short_config):
        engine = SimulationEngine(short_config, PriAwarePolicy())
        engine.run()
        slots_cached = {slot for _, slot in engine.kernel._demand_cache}
        assert all(slot >= short_config.horizon_slots - 1 for slot in slots_cached)
