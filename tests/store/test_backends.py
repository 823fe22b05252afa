"""Store backends: protocol conformance, layouts, auto-detection."""

import hashlib
import json

import pytest

from repro.store import (
    JsonFileBackend,
    MARKER_NAME,
    ResultStore,
    SegmentBackend,
    detect_format,
    open_backend,
)
from repro.store.base import write_marker
from repro.store.segment import INDEX_DTYPE

BACKENDS = {
    "json": JsonFileBackend,
    "segment": SegmentBackend,
}


def fp(index: int) -> str:
    return hashlib.sha256(f"doc-{index}".encode()).hexdigest()


def doc(index: int, **extra) -> dict:
    return {
        "store_version": 1,
        "fingerprint": fp(index),
        "request": {"policy": {"name": f"policy-{index % 3}"}},
        "result": {"values": [index, index * 2, index * 3]},
        **extra,
    }


@pytest.fixture(params=sorted(BACKENDS))
def backend(request, tmp_path):
    return BACKENDS[request.param](tmp_path / request.param)


class TestBackendContract:
    def test_roundtrip(self, backend):
        backend.put(fp(1), doc(1))
        assert backend.fetch(fp(1)) == doc(1)

    def test_missing_is_none(self, backend):
        assert backend.fetch(fp(9)) is None
        assert fp(9) not in backend

    def test_contains(self, backend):
        backend.put(fp(1), doc(1))
        assert fp(1) in backend

    def test_overwrite_last_wins(self, backend):
        backend.put(fp(1), doc(1))
        backend.put(fp(1), doc(1, extra="updated"))
        assert backend.fetch(fp(1))["extra"] == "updated"

    def test_delete(self, backend):
        backend.put(fp(1), doc(1))
        assert backend.delete(fp(1)) is True
        assert backend.fetch(fp(1)) is None
        assert backend.delete(fp(1)) is False

    def test_keys_and_scan(self, backend):
        documents = {fp(i): doc(i) for i in range(8)}
        for fingerprint, document in documents.items():
            backend.put(fingerprint, document)
        assert sorted(backend.keys()) == sorted(documents)
        scanned = dict(backend.scan())
        assert scanned == documents

    def test_count(self, backend):
        for i in range(5):
            backend.put(fp(i), doc(i))
        backend.delete(fp(0))
        assert backend.count() == 4

    def test_fresh_instance_sees_writes(self, backend):
        for i in range(4):
            backend.put(fp(i), doc(i))
        fresh = type(backend)(backend.root)
        assert fresh.count() == 4
        assert fresh.fetch(fp(2)) == doc(2)


class TestAutoDetection:
    def test_virgin_root_has_no_format(self, tmp_path):
        assert detect_format(tmp_path) is None

    def test_legacy_per_file_root_detected(self, tmp_path):
        JsonFileBackend(tmp_path).put(fp(1), doc(1))
        assert detect_format(tmp_path) == "json"
        assert isinstance(open_backend(tmp_path), JsonFileBackend)

    def test_sharded_root_detected_via_marker(self, tmp_path):
        """The retired sharded layout is recognized -- and refused by
        name, never misread as a virgin or per-file root."""
        write_marker(tmp_path, "sharded")
        JsonFileBackend(tmp_path / "shards" / "packA").put(fp(1), doc(1))
        assert detect_format(tmp_path) == "sharded"
        for name in ("auto", "json", "segment"):
            with pytest.raises(ValueError, match="'sharded'"):
                open_backend(tmp_path, name)
        with pytest.raises(ValueError, match="'sharded'"):
            ResultStore(tmp_path)
        with pytest.raises(ValueError, match="unknown store backend"):
            open_backend(tmp_path / "virgin", "sharded")

    def test_segment_root_detected_via_marker(self, tmp_path):
        SegmentBackend(tmp_path).put(fp(1), doc(1))
        assert detect_format(tmp_path) == "segment"
        assert isinstance(open_backend(tmp_path), SegmentBackend)

    def test_directory_fallback_without_marker(self, tmp_path):
        SegmentBackend(tmp_path).put(fp(1), doc(1))
        (tmp_path / MARKER_NAME).unlink()
        assert detect_format(tmp_path) == "segment"

    def test_format_conflict_refused(self, tmp_path):
        JsonFileBackend(tmp_path).put(fp(1), doc(1))
        with pytest.raises(ValueError, match="refusing"):
            open_backend(tmp_path, "segment")

    def test_unknown_backend_name_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="unknown store backend"):
            open_backend(tmp_path, "etcd")

    def test_explicit_matching_name_accepted(self, tmp_path):
        JsonFileBackend(tmp_path).put(fp(1), doc(1))
        assert isinstance(
            open_backend(tmp_path, "json"), JsonFileBackend
        )


class TestSegmentLayout:
    def test_single_segment_pair_per_writer(self, tmp_path):
        backend = SegmentBackend(tmp_path)
        for i in range(10):
            backend.put(fp(i), doc(i))
        segments = sorted((tmp_path / "segments").glob("*.seg"))
        indexes = sorted((tmp_path / "segments").glob("*.idx"))
        assert len(segments) == 1
        assert len(indexes) == 1
        assert indexes[0].stat().st_size == 10 * INDEX_DTYPE.itemsize

    def test_torn_index_tail_ignored(self, tmp_path):
        backend = SegmentBackend(tmp_path)
        for i in range(5):
            backend.put(fp(i), doc(i))
        (idx_path,) = (tmp_path / "segments").glob("*.idx")
        with open(idx_path, "ab") as handle:
            handle.write(b"\x01\x02\x03")  # crash mid-entry
        fresh = SegmentBackend(tmp_path)
        assert fresh.count() == 5

    def test_index_entry_past_segment_end_ignored(self, tmp_path):
        backend = SegmentBackend(tmp_path)
        for i in range(3):
            backend.put(fp(i), doc(i))
        (seg_path,) = (tmp_path / "segments").glob("*.seg")
        size = seg_path.stat().st_size
        with open(seg_path, "r+b") as handle:  # crash-truncated segment
            handle.truncate(size - 4)
        fresh = SegmentBackend(tmp_path)
        assert fresh.count() == 2  # last record's bytes are gone
        assert fresh.fetch(fp(0)) == doc(0)

    def test_tombstone_survives_reopen(self, tmp_path):
        backend = SegmentBackend(tmp_path)
        for i in range(4):
            backend.put(fp(i), doc(i))
        backend.delete(fp(2))
        fresh = SegmentBackend(tmp_path)
        assert fresh.fetch(fp(2)) is None
        assert fresh.count() == 3

    def test_non_hex_fingerprint_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="SHA-256"):
            SegmentBackend(tmp_path).put("not-a-fingerprint", doc(1))

    def test_compact_reclaims_dead_records(self, tmp_path):
        backend = SegmentBackend(tmp_path)
        for i in range(6):
            backend.put(fp(i), doc(i))
        for i in range(6):  # duplicates
            backend.put(fp(i), doc(i))
        backend.delete(fp(0))
        before = sum(
            p.stat().st_size for p in (tmp_path / "segments").glob("*.seg")
        )
        assert backend.compact() == 5
        after = sum(
            p.stat().st_size for p in (tmp_path / "segments").glob("*.seg")
        )
        assert after < before
        assert len(list((tmp_path / "segments").glob("*.seg"))) == 1
        fresh = SegmentBackend(tmp_path)
        assert fresh.count() == 5
        assert fresh.fetch(fp(3)) == doc(3)
        assert fresh.fetch(fp(0)) is None

    def test_reader_refreshes_on_miss(self, tmp_path):
        reader = SegmentBackend(tmp_path)
        assert reader.fetch(fp(1)) is None
        writer = SegmentBackend(tmp_path)
        writer.put(fp(1), doc(1))
        assert reader.fetch(fp(1)) == doc(1)  # discovered on miss


class TestResultStoreBackends:
    """ResultStore over each backend, exercised through the orchestrator."""

    def run_one(self, store):
        from repro.experiments.orchestrator import Orchestrator, RunRequest
        from repro.experiments.runner import default_policies
        from repro.sim.config import scaled_config

        request = RunRequest(
            config=scaled_config("tiny", seed=0).with_horizon(2),
            policy=default_policies()[1],
        )
        return Orchestrator(store=store).run(request)

    @pytest.mark.parametrize("name", sorted(BACKENDS))
    def test_cold_then_warm(self, tmp_path, name):
        cold = self.run_one(ResultStore(tmp_path, backend=name))
        assert cold.source == "computed"
        warm = self.run_one(ResultStore(tmp_path, backend=name))
        assert warm.source == "disk"
        # And via auto-detection, without naming the backend:
        auto = self.run_one(ResultStore(tmp_path))
        assert auto.source == "disk"
        assert warm.result.slots == cold.result.slots

    def test_legacy_root_read_transparently(self, tmp_path):
        """A warm root from the old per-file layout resolves unchanged."""
        # The pre-split store wrote root/v1/<fp[:2]>/<fp>.json with no
        # marker; the default ResultStore still produces that layout.
        cold = self.run_one(ResultStore(tmp_path))
        path = (
            tmp_path / "v1" / cold.fingerprint[:2] / f"{cold.fingerprint}.json"
        )
        assert path.exists()
        assert not (tmp_path / MARKER_NAME).exists()
        warm = self.run_one(ResultStore(tmp_path, backend="auto"))
        assert warm.source == "disk"
        assert warm.result.slots == cold.result.slots

    @pytest.mark.parametrize("name", sorted(BACKENDS))
    def test_legacy_shard_meta_still_loads(self, tmp_path, name):
        """Documents written before the sharded layout was retired
        carry a ``meta.shard`` label; they resolve warm unchanged."""
        cold = self.run_one(ResultStore(tmp_path, backend=name))
        backend = open_backend(tmp_path, name)
        document = backend.fetch(cold.fingerprint)
        assert "shard" not in document.get("meta", {})
        document["meta"] = {**document.get("meta", {}), "shard": "tiny"}
        backend.put(cold.fingerprint, document)
        warm = self.run_one(ResultStore(tmp_path, backend=name))
        assert warm.source == "disk"
        assert warm.result.slots == cold.result.slots

    def test_memory_only_store_has_no_backend(self):
        store = ResultStore()
        assert store.backend is None
        assert store.path_for(fp(1)) is None
        assert list(store.documents()) == []

    def test_segment_store_has_no_per_document_path(self, tmp_path):
        store = ResultStore(tmp_path, backend="segment")
        self.run_one(store)
        assert store.path_for(fp(1)) is None

    def test_corrupt_segment_payload_is_a_miss(self, tmp_path):
        store = ResultStore(tmp_path, backend="segment")
        artifact = self.run_one(store)
        (seg_path,) = (tmp_path / "segments").glob("*.seg")
        data = bytearray(seg_path.read_bytes())
        data[60:70] = b"\xff" * 10  # stomp the first payload's bytes
        seg_path.write_bytes(bytes(data))
        fresh = ResultStore(tmp_path)
        assert fresh.fetch(artifact.fingerprint) is None
        assert fresh.misses == 1


class TestMarkerFile:
    def test_marker_contents(self, tmp_path):
        SegmentBackend(tmp_path).put(fp(1), doc(1))
        payload = json.loads((tmp_path / MARKER_NAME).read_text())
        assert payload == {"format": "segment", "store_version": 1}


class TestResultStoreBackendInstance:
    """A pre-built backend instance is honored even without ``root``."""

    def test_backend_instance_without_root(self, tmp_path):
        from repro.store import ResultStore, SegmentBackend

        backend = SegmentBackend(tmp_path / "seg")
        store = ResultStore(backend=backend)
        assert store.backend is backend
        assert store.root == backend.root
