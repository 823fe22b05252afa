"""Store migration: v1 per-file roots convert bit-identically."""

import json

import pytest

from repro.experiments.orchestrator import Orchestrator, RunRequest
from repro.experiments.runner import default_policies
from repro.sim.config import scaled_config
from repro.sim.results import RunResult
from repro.store import (
    JsonFileBackend,
    ResultStore,
    SegmentBackend,
    migrate_store,
)


def tiny_requests(count: int = 3):
    config = scaled_config("tiny", seed=0).with_horizon(2)
    return [
        RunRequest(config=config, policy=policy)
        for policy in default_policies()[:count]
    ]


@pytest.fixture(scope="module")
def v1_root(tmp_path_factory):
    """A warm per-file store holding real RunResult ledgers."""
    root = tmp_path_factory.mktemp("v1-store")
    Orchestrator(store=ResultStore(root)).run_many(tiny_requests())
    return root


class TestMigrateToSegment:
    def test_round_trip_is_bit_identical(self, v1_root, tmp_path):
        report = migrate_store(v1_root, tmp_path / "seg", to="segment")
        assert report.migrated == 3
        assert report.verified
        source = JsonFileBackend(v1_root)
        dest = SegmentBackend(tmp_path / "seg")
        for fingerprint, document in source.scan():
            copied = dest.fetch(fingerprint)
            assert json.dumps(copied, sort_keys=True) == json.dumps(
                document, sort_keys=True
            )

    def test_real_ledgers_survive(self, v1_root, tmp_path):
        migrate_store(v1_root, tmp_path / "seg", to="segment")
        source = JsonFileBackend(v1_root)
        dest = SegmentBackend(tmp_path / "seg")
        for fingerprint, document in source.scan():
            original = RunResult.from_dict(document["result"])
            migrated = RunResult.from_dict(dest.fetch(fingerprint)["result"])
            assert migrated.to_dict() == original.to_dict()
            assert migrated.slots == original.slots
            assert migrated.summary() == original.summary()

    def test_migrated_root_serves_warm_runs(self, v1_root, tmp_path):
        migrate_store(v1_root, tmp_path / "seg", to="segment")
        # Auto-detection finds the segment layout; every run resolves
        # from disk without simulating.
        warm = Orchestrator(store=ResultStore(tmp_path / "seg")).run_many(
            tiny_requests()
        )
        assert [artifact.source for artifact in warm] == ["disk"] * 3
        cold = Orchestrator(store=ResultStore()).run_many(tiny_requests())
        for warm_artifact, cold_artifact in zip(warm, cold):
            assert warm_artifact.result.slots == cold_artifact.result.slots

    def test_migration_merges_into_existing_dest(self, v1_root, tmp_path):
        dest = tmp_path / "seg"
        extra_fp = "ab" * 32
        SegmentBackend(dest).put(extra_fp, {"fingerprint": extra_fp})
        report = migrate_store(v1_root, dest, to="segment")
        assert report.verified
        assert SegmentBackend(dest).count() == 4


class TestSelfMigrationRefused:
    """Overlapping source/dest would interleave reader scans and puts."""

    def test_same_root_refused(self, v1_root):
        with pytest.raises(ValueError, match="overlapping"):
            migrate_store(v1_root, v1_root, to="segment")

    def test_same_root_via_relative_spelling_refused(self, v1_root):
        aliased = v1_root / ".." / v1_root.name
        with pytest.raises(ValueError, match="overlapping"):
            migrate_store(v1_root, aliased, to="segment")

    def test_dest_nested_inside_source_refused(self, v1_root):
        with pytest.raises(ValueError, match="overlapping"):
            migrate_store(v1_root, v1_root / "migrated", to="segment")

    def test_source_nested_inside_dest_refused(self, v1_root, tmp_path):
        with pytest.raises(ValueError, match="overlapping"):
            migrate_store(v1_root, v1_root.parent, to="segment")

    def test_source_untouched_after_refusal(self, v1_root, tmp_path):
        import json as json_module

        before = {
            fingerprint: json_module.dumps(document, sort_keys=True)
            for fingerprint, document in JsonFileBackend(v1_root).scan()
        }
        with pytest.raises(ValueError):
            migrate_store(v1_root, v1_root / "sub", to="segment")
        after = {
            fingerprint: json_module.dumps(document, sort_keys=True)
            for fingerprint, document in JsonFileBackend(v1_root).scan()
        }
        assert after == before
