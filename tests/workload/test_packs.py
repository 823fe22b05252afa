"""Trace packs: content hashing, registry, provider behavior."""

import numpy as np
import pytest

from repro.baselines.pri_aware import PriAwarePolicy
from repro.sim.config import scaled_config
from repro.sim.engine import SimulationEngine
from repro.workload.packs import (
    DataCorrelationParams,
    LibraryWorkload,
    RecordedTraceSource,
    SyntheticTraceSource,
    TracePack,
    available_packs,
    default_pack,
    get_pack,
    register_pack,
)
from repro.workload.recorded import RecordedTraceLibrary
from repro.workload.vm import AppType


@pytest.fixture
def matrix() -> np.ndarray:
    rng = np.random.default_rng(11)
    return rng.uniform(0.1, 0.9, size=(4, 120))


def recorded_pack(matrix, **kwargs) -> TracePack:
    return TracePack(
        name=kwargs.pop("name", "rec"),
        source=RecordedTraceSource(
            utilization=matrix, steps_per_slot=kwargs.pop("steps_per_slot", 30)
        ),
        **kwargs,
    )


class TestContentHash:
    def test_same_content_same_hash(self, matrix):
        assert recorded_pack(matrix).sha256 == recorded_pack(matrix.copy()).sha256

    def test_name_not_hashed(self, matrix):
        assert (
            recorded_pack(matrix, name="a").sha256
            == recorded_pack(matrix, name="b").sha256
        )

    def test_matrix_change_changes_hash(self, matrix):
        other = matrix.copy()
        other[0, 0] += 1e-9
        assert recorded_pack(matrix).sha256 != recorded_pack(other).sha256

    def test_version_changes_hash(self, matrix):
        assert (
            recorded_pack(matrix, version=1).sha256
            != recorded_pack(matrix, version=2).sha256
        )

    def test_datacorr_params_change_hash(self, matrix):
        tweaked = recorded_pack(
            matrix, datacorr=DataCorrelationParams(jitter_sigma=0.4)
        )
        assert recorded_pack(matrix).sha256 != tweaked.sha256

    def test_app_mix_changes_hash(self, matrix):
        mixed = recorded_pack(matrix).with_app_mix({AppType.HPC: 1.0})
        assert recorded_pack(matrix).sha256 != mixed.sha256

    def test_app_mix_key_order_irrelevant(self, matrix):
        forward = recorded_pack(matrix).with_app_mix(
            {AppType.WEB: 0.5, AppType.HPC: 0.5}
        )
        backward = recorded_pack(matrix).with_app_mix(
            {AppType.HPC: 0.5, AppType.WEB: 0.5}
        )
        assert forward.sha256 == backward.sha256

    def test_synthetic_vs_recorded_differ(self, matrix):
        synthetic = TracePack(name="s", source=SyntheticTraceSource())
        assert synthetic.sha256 != recorded_pack(matrix).sha256

    def test_extension_params_change_hash(self, matrix):
        base = recorded_pack(matrix)
        extended = TracePack(
            name="rec",
            source=RecordedTraceSource(
                utilization=matrix, steps_per_slot=30, extend_days=7
            ),
        )
        assert base.sha256 != extended.sha256

    def test_descriptor_shape(self, matrix):
        descriptor = recorded_pack(matrix).descriptor()
        assert descriptor["name"] == "rec"
        assert descriptor["kind"] == "recorded"
        assert len(descriptor["sha256"]) == 64
        import json

        json.dumps(descriptor)  # JSON-stable

    def test_source_snapshots_caller_array(self, matrix):
        """Mutating the input after construction cannot skew the hash."""
        original = matrix.copy()
        pack = recorded_pack(matrix)  # sha256 not yet computed (lazy)
        matrix[0, 0] = 0.0
        assert pack.sha256 == recorded_pack(original).sha256
        assert pack.source.utilization[0, 0] == original[0, 0]
        with pytest.raises(ValueError):
            pack.source.utilization[0, 0] = 0.5  # read-only snapshot

    def test_content_descriptor_omits_name(self, matrix):
        pack = recorded_pack(matrix)
        content = pack.content_descriptor()
        assert "name" not in content
        assert content["sha256"] == pack.sha256
        assert (
            recorded_pack(matrix, name="other").content_descriptor() == content
        )


class TestRegistry:
    def test_default_pack_registered(self):
        assert default_pack().name == "synthetic"
        assert get_pack("synthetic").kind == "synthetic"

    def test_scenario_packs_registered(self):
        packs = available_packs()
        assert "scenario-hpc" in packs
        assert packs["scenario-hpc"].app_mix[AppType.HPC] == 0.7

    def test_registry_visible_from_package_top_level(self):
        import repro

        assert repro.get_pack("scenario-hpc").kind == "synthetic"
        assert "scenario-mixed" in repro.available_packs()

    def test_unknown_pack_names_alternatives(self):
        with pytest.raises(KeyError, match="synthetic"):
            get_pack("nope")

    def test_duplicate_registration_rejected(self, matrix):
        with pytest.raises(ValueError, match="already registered"):
            register_pack(recorded_pack(matrix, name="synthetic"))

    def test_replace_allows_reregistration(self, matrix):
        from repro.workload import packs as packs_module

        pack = recorded_pack(matrix, name="test-replace")
        try:
            register_pack(pack, replace=True)
            assert get_pack("test-replace") is pack
            register_pack(pack, replace=True)
        finally:
            packs_module._REGISTRY.pop("test-replace", None)


class TestFromCsv:
    def test_named_after_file(self, tmp_path, matrix):
        path = tmp_path / "mydc.csv"
        np.savetxt(path, matrix, delimiter=",")
        pack = TracePack.from_csv(path, steps_per_slot=30)
        assert pack.name == "mydc"
        assert pack.kind == "recorded"

    def test_hash_survives_reload(self, tmp_path, matrix):
        path = tmp_path / "traces.csv"
        np.savetxt(path, matrix, delimiter=",")
        first = TracePack.from_csv(path, steps_per_slot=30)
        second = TracePack.from_csv(path, steps_per_slot=30)
        assert first.sha256 == second.sha256

    def test_extend_days_forwarded(self, tmp_path, matrix):
        path = tmp_path / "traces.csv"
        np.savetxt(path, matrix, delimiter=",")
        pack = TracePack.from_csv(path, steps_per_slot=30, extend_days=7)
        config = scaled_config("tiny")
        library = pack.build_traces(config)
        assert library.recorded_slots == 4 * 7


class TestProviderBehavior:
    def test_configure_applies_app_mix(self, matrix):
        config = scaled_config("tiny")
        pack = recorded_pack(matrix).with_app_mix({AppType.HPC: 1.0})
        configured = pack.configure(config)
        assert configured.arrival_model.app_mix == {AppType.HPC: 1.0}
        assert config.arrival_model.app_mix != {AppType.HPC: 1.0}

    def test_configure_without_mix_is_identity(self, matrix):
        config = scaled_config("tiny")
        assert recorded_pack(matrix).configure(config) is config

    def test_steps_per_slot_mismatch_rejected(self, matrix):
        config = scaled_config("tiny")  # 30 steps per slot
        pack = TracePack(
            name="bad",
            source=RecordedTraceSource(utilization=matrix, steps_per_slot=40),
        )
        with pytest.raises(ValueError, match="steps per slot"):
            pack.build_traces(config)

    def test_build_volumes_uses_engine_seed_convention(self, matrix):
        config = scaled_config("tiny", seed=5)
        process = recorded_pack(matrix).build_volumes(config)
        assert process.seed == config.seed + 2

    def test_invalid_matrix_rejected_at_construction(self):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            RecordedTraceSource(
                utilization=np.full((2, 30), 1.5), steps_per_slot=30
            )

    def test_extend_days_validated(self, matrix):
        with pytest.raises(ValueError, match="extend_days"):
            RecordedTraceSource(
                utilization=matrix, steps_per_slot=30, extend_days=0
            )


class TestEngineIntegration:
    def test_default_pack_matches_implicit_default(self):
        config = scaled_config("tiny").with_horizon(3)
        implicit = SimulationEngine(config, PriAwarePolicy()).run()
        explicit = SimulationEngine(
            config, PriAwarePolicy(), workload=default_pack()
        ).run()
        assert implicit.slots == explicit.slots

    def test_pack_matches_equivalent_trace_library(self, matrix):
        config = scaled_config("tiny").with_horizon(3)
        pack = recorded_pack(matrix)
        via_pack = SimulationEngine(
            config, PriAwarePolicy(), workload=pack
        ).run()
        via_library = SimulationEngine(
            config,
            PriAwarePolicy(),
            workload=LibraryWorkload(
                RecordedTraceLibrary(matrix, steps_per_slot=30)
            ),
        ).run()
        assert via_pack.slots == via_library.slots

    def test_scenario_pack_changes_population_mix(self):
        config = scaled_config("tiny").with_horizon(2)
        hpc = SimulationEngine(
            config, PriAwarePolicy(), workload=get_pack("scenario-hpc")
        )
        vms = hpc.population.alive(0)
        hpc_fraction = sum(
            1 for vm in vms if vm.app_type is AppType.HPC
        ) / len(vms)
        assert hpc_fraction > 0.3

    def test_library_workload_descriptor_is_opaque(self, matrix):
        provider = LibraryWorkload(
            RecordedTraceLibrary(matrix, steps_per_slot=30)
        )
        assert provider.descriptor()["sha256"] is None
