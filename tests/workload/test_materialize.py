"""Workload materializations: keys, slot cache, LRU, engine identity."""

import dataclasses

import numpy as np
import pytest

from repro.experiments.runner import default_policies
from repro.sim.config import scaled_config
from repro.sim.engine import SimulationEngine
from repro.workload.materialize import (
    MaterializationCache,
    SlotDataCache,
    build_materialization,
    configure_process_cache,
    materialization_key,
    process_cache,
)
from repro.workload.packs import (
    RecordedTraceSource,
    TracePack,
    default_pack,
    get_pack,
)
from tests.oracles.kernel import loop_engine


def tiny(horizon=3):
    return scaled_config("tiny").with_horizon(horizon)


def recorded_pack(seed=11, n_vms=6, days=1):
    rng = np.random.default_rng(seed)
    matrix = rng.uniform(0.05, 0.95, size=(n_vms, days * 24 * 30))
    return TracePack(
        name="rec-test",
        source=RecordedTraceSource(utilization=matrix, steps_per_slot=30),
    )


class TestMaterializationKey:
    def test_deterministic(self):
        config = tiny()
        assert materialization_key(config, None) == materialization_key(
            config, None
        )

    def test_none_pack_is_default_pack(self):
        config = tiny()
        assert materialization_key(config, None) == materialization_key(
            config, default_pack()
        )

    def test_seed_changes_key(self):
        config = tiny()
        reseeded = dataclasses.replace(config, seed=config.seed + 1)
        assert materialization_key(config, None) != materialization_key(
            reseeded, None
        )

    def test_horizon_changes_key(self):
        assert materialization_key(tiny(3), None) != materialization_key(
            tiny(4), None
        )

    def test_pack_content_changes_key(self):
        config = tiny()
        assert materialization_key(
            config, recorded_pack(seed=1)
        ) != materialization_key(config, recorded_pack(seed=2))

    def test_pack_name_does_not_change_key(self):
        config = tiny()
        pack = recorded_pack()
        renamed = dataclasses.replace(pack, name="other-name")
        assert materialization_key(config, pack) == materialization_key(
            config, renamed
        )

    def test_scenario_mix_distinct_from_synthetic(self):
        # Scenario packs rewrite the arrival model in configure();
        # their realized workloads differ, so their keys must too.
        config = tiny()
        assert materialization_key(
            config, get_pack("synthetic")
        ) != materialization_key(config, get_pack("scenario-hpc"))

    def test_workload_irrelevant_fields_do_not_change_key(self):
        config = tiny()
        renamed = dataclasses.replace(config, name="renamed-experiment")
        assert materialization_key(config, None) == materialization_key(
            renamed, None
        )


class TestSlotDataCache:
    def materialized(self, horizon=3, **kwargs):
        return build_materialization(tiny(horizon), None, **kwargs)

    def test_demand_hit_returns_same_frozen_array(self):
        mat = self.materialized()
        vms = mat.population.alive(0)
        first = mat.demand(vms, 0)
        second = mat.demand(vms, 0)
        assert first is second
        assert not first.flags.writeable
        assert mat.slots.hits == 1
        assert mat.slots.misses == 1

    def test_demand_matches_trace_provider_exactly(self):
        mat = self.materialized()
        vms = mat.population.alive(1)
        matrix = mat.demand(vms, 1)
        for row, vm in zip(matrix, vms):
            assert np.array_equal(row, mat.traces.slot_demand(vm, 1))

    def test_volume_hit_and_freeze(self):
        mat = self.materialized()
        vms = mat.population.alive(0)
        first = mat.volume_matrix(vms, 0)
        second = mat.volume_matrix(vms, 0)
        assert first is second
        assert not first.volumes.flags.writeable

    def test_volume_matches_fresh_process(self):
        mat = self.materialized()
        vms = mat.population.alive(2)
        cached = mat.volume_matrix(vms, 2)
        fresh = (
            default_pack()
            .build_volumes(mat.config)
            .volumes(vms, 2)
        )
        assert np.array_equal(cached.volumes, fresh.volumes)

    def test_tiny_budget_declines_instead_of_evicting(self):
        mat = self.materialized(slot_budget_bytes=1)
        vms = mat.population.alive(0)
        assert mat.demand(vms, 0) is None
        assert mat.volume_matrix(vms, 0) is None
        assert mat.slots.declined == 2
        assert mat.slots.bytes == 0

    def test_budget_admits_prefix_then_declines(self):
        mat = self.materialized()
        vms = mat.population.alive(0)
        one_matrix = len(vms) * mat.config.steps_per_slot * 8
        mat.slots.budget_bytes = one_matrix
        assert mat.demand(vms, 0) is not None  # fills the budget...
        assert mat.demand(vms, 0) is not None  # ...hits stay served
        assert mat.demand(vms, 1) is None  # ...new slots decline
        assert mat.slots.declined == 1

    def test_empty_population_shortcut(self):
        mat = self.materialized()
        empty = mat.demand([], 0)
        assert empty.shape == (0, mat.config.steps_per_slot)

    def test_per_row_memo_reuses_overlapping_population(self):
        mat = self.materialized()
        vms = mat.population.alive(0)
        assert len(vms) >= 2
        full = mat.demand(vms, 0)
        subset = mat.demand(vms[:-1], 0)
        assert np.array_equal(subset, full[:-1])
        # The subset matrix reassembles from row memos: no fresh
        # slot_demand work, visible as rows equal to the full matrix's.
        assert mat.slots.misses == 2

    def test_cache_decline_is_engine_fallback_not_error(self):
        config = tiny()
        mat = build_materialization(config, None, slot_budget_bytes=1)
        policy = default_policies()[1]
        starved = SimulationEngine(config, policy, materialization=mat).run()
        policy = default_policies()[1]
        plain = SimulationEngine(config, policy).run()
        assert starved.slots == plain.slots

    def test_stats_shape(self):
        cache = SlotDataCache(budget_bytes=123)
        stats = cache.stats()
        assert stats == {
            "hits": 0,
            "misses": 0,
            "declined": 0,
            "bytes": 0,
            "demand_entries": 0,
            "volume_entries": 0,
        }


class TestMaterializationCache:
    def test_lru_eviction_under_small_cap(self):
        cache = MaterializationCache(size=1)
        config_a = tiny(2)
        config_b = dataclasses.replace(config_a, seed=config_a.seed + 7)
        first = cache.materialize(config_a, None)
        assert cache.materialize(config_a, None) is first
        cache.materialize(config_b, None)  # evicts config_a's entry
        assert cache.keys() == [materialization_key(config_b, None)]
        rebuilt = cache.materialize(config_a, None)
        assert rebuilt is not first
        assert cache.stats()["entries"] == 1
        assert cache.stats()["hits"] == 1
        assert cache.stats()["misses"] == 3

    def test_lru_refreshes_on_hit(self):
        cache = MaterializationCache(size=2)
        config_a = tiny(2)
        config_b = dataclasses.replace(config_a, seed=config_a.seed + 7)
        config_c = dataclasses.replace(config_a, seed=config_a.seed + 8)
        kept = cache.materialize(config_a, None)
        cache.materialize(config_b, None)
        cache.materialize(config_a, None)  # refresh: b is now oldest
        cache.materialize(config_c, None)  # evicts b, not a
        assert cache.materialize(config_a, None) is kept

    def test_key_mismatch_raises(self):
        cache = MaterializationCache(size=2)
        config = tiny(2)
        with pytest.raises(ValueError, match="key mismatch"):
            cache.get(
                "0" * 64, lambda: build_materialization(config, None)
            )

    def test_configure_process_cache_replaces_global(self):
        original = process_cache()
        replaced = configure_process_cache(size=2)
        try:
            assert process_cache() is replaced
            assert replaced is not original
            assert replaced.size == 2
        finally:
            configure_process_cache()


class TestEngineBitIdentity:
    """Materialized runs are byte-identical to self-built runs."""

    def run_pair(self, pack, policy_index=1, horizon=3):
        config = tiny(horizon)
        mat = build_materialization(config, pack)
        policy = default_policies()[policy_index]
        shared = SimulationEngine(config, policy, materialization=mat).run()
        policy = default_policies()[policy_index]
        plain = SimulationEngine(config, policy, workload=pack).run()
        return shared, plain, mat

    @pytest.mark.parametrize(
        "pack_name", ["synthetic", "synthetic-dense", "scenario-hpc"]
    )
    def test_registered_packs(self, pack_name):
        shared, plain, _ = self.run_pair(get_pack(pack_name))
        assert shared.slots == plain.slots
        assert np.array_equal(
            shared.response_samples(), plain.response_samples()
        )

    def test_recorded_pack(self):
        shared, plain, _ = self.run_pair(recorded_pack())
        assert shared.slots == plain.slots

    def test_loop_engine(self):
        """A materialized run equals the loop-oracle engine's run."""
        shared, _, _ = self.run_pair(None)
        oracle = loop_engine(tiny(3), default_policies()[1]).run()
        assert shared.slots == oracle.slots

    def test_reuse_across_engines_stays_identical(self):
        config = tiny(3)
        mat = build_materialization(config, None)
        results = []
        for _ in range(2):
            policy = default_policies()[2]
            results.append(
                SimulationEngine(config, policy, materialization=mat).run()
            )
        policy = default_policies()[2]
        plain = SimulationEngine(config, policy).run()
        assert results[0].slots == results[1].slots == plain.slots
        assert mat.slots.hits > 0  # the second run was served warm

    def test_wrong_workload_config_rejected(self):
        mat = build_materialization(tiny(3), None)
        with pytest.raises(ValueError, match="different workload"):
            SimulationEngine(
                tiny(4), default_policies()[1], materialization=mat
            )

    def test_workload_irrelevant_config_change_shares(self):
        """A battery sweep's configs share one materialization: fleet
        fields stay out of the key, and the engine keeps its own
        config for the physics."""
        config = tiny(3)
        specs = tuple(
            dataclasses.replace(spec, battery_kwh=spec.battery_kwh * 2.0)
            for spec in config.specs
        )
        doubled = dataclasses.replace(config, specs=specs)
        mat = build_materialization(config, None)
        shared = SimulationEngine(
            doubled, default_policies()[1], materialization=mat
        ).run()
        plain = SimulationEngine(doubled, default_policies()[1]).run()
        assert shared.slots == plain.slots
        assert shared.slots != SimulationEngine(
            config, default_policies()[1]
        ).run().slots  # the battery change did take effect

    def test_materialization_excludes_other_workload_sources(self):
        mat = build_materialization(tiny(3), None)
        with pytest.raises(ValueError, match="already carries"):
            SimulationEngine(
                tiny(3),
                default_policies()[1],
                workload=recorded_pack(),
                materialization=mat,
            )
