"""Age/policy retention for ``repro store gc``."""

from __future__ import annotations

import hashlib
import os
import time

import pytest

from repro.cli import main
from repro.store import (
    JsonFileBackend,
    SegmentBackend,
    collect_garbage,
    parse_age,
)

BACKENDS = {
    "json": JsonFileBackend,
    "segment": SegmentBackend,
}


def fingerprint(index: int) -> str:
    return hashlib.sha256(f"retention-{index}".encode()).hexdigest()


def document(index: int, pack: str | None) -> dict:
    doc = {"fingerprint": fingerprint(index), "result": {"v": index}}
    if pack is not None:
        doc["meta"] = {"pack": {"name": pack, "version": 1}}
    return doc


def fill(backend, packs: list[str | None]) -> list[str]:
    fingerprints = []
    for index, pack in enumerate(packs):
        backend.put(fingerprint(index), document(index, pack))
        fingerprints.append(fingerprint(index))
    return fingerprints


def age_document(backend, fingerprint: str, seconds: float) -> None:
    """Backdate a document's timestamp source by ``seconds``."""
    path = getattr(backend, "path_for", lambda _: None)(fingerprint)
    if path is None:  # segment: the whole segment file carries the time
        with backend._lock:
            path = backend._index[fingerprint][0]
    stamp = time.time() - seconds
    os.utime(path, (stamp, stamp))


class TestParseAge:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("90", 90.0),
            ("45s", 45.0),
            ("30m", 1800.0),
            ("12h", 43200.0),
            ("30d", 30 * 86400.0),
            ("2w", 14 * 86400.0),
            (" 1.5h ", 5400.0),
        ],
    )
    def test_accepts(self, text, expected):
        assert parse_age(text) == expected

    @pytest.mark.parametrize("text", ["", "soon", "10y", "-3d", "d", "1 2"])
    def test_rejects(self, text):
        with pytest.raises(ValueError, match="bad age"):
            parse_age(text)


class TestTimestamps:
    @pytest.mark.parametrize("name", sorted(BACKENDS))
    def test_fresh_documents_are_recent(self, tmp_path, name):
        backend = BACKENDS[name](tmp_path / name)
        fill(backend, ["alpha"])
        stamp = backend.timestamp(fingerprint(0))
        assert stamp is not None
        assert abs(time.time() - stamp) < 60

    @pytest.mark.parametrize("name", sorted(BACKENDS))
    def test_missing_document_has_no_timestamp(self, tmp_path, name):
        backend = BACKENDS[name](tmp_path / name)
        assert backend.timestamp("0" * 64) is None


class TestOlderThan:
    @pytest.mark.parametrize("name", ["json"])
    def test_collects_only_old_documents(self, tmp_path, name):
        backend = BACKENDS[name](tmp_path / name)
        fill(backend, ["alpha"] * 4)
        for index in (0, 1):
            age_document(backend, fingerprint(index), 3600)
        doomed = collect_garbage(backend, older_than=1800)
        assert sorted(doomed) == sorted([fingerprint(0), fingerprint(1)])
        assert backend.count() == 2

    def test_segment_granularity_is_conservative(self, tmp_path):
        """One segment file = one clock: aging it ages every record."""
        backend = SegmentBackend(tmp_path / "seg")
        fill(backend, ["alpha"] * 3)
        age_document(backend, fingerprint(0), 3600)  # ages the file
        doomed = collect_garbage(backend, older_than=1800, dry_run=True)
        assert len(doomed) == 3
        # A fresh append renews the file's clock; nothing is then old
        # enough -- conservative in the keep direction.
        backend.put(fingerprint(9), document(9, "alpha"))
        doomed = collect_garbage(backend, older_than=1800, dry_run=True)
        assert doomed == []

    def test_composes_with_identity_filters(self, tmp_path):
        backend = JsonFileBackend(tmp_path / "mixed")
        fill(backend, ["alpha", "beta", "alpha", "beta"])
        for index in range(4):
            age_document(backend, fingerprint(index), 7200)
        doomed = collect_garbage(backend, older_than=3600, pack="beta")
        assert sorted(doomed) == sorted([fingerprint(1), fingerprint(3)])
        assert backend.count() == 2


class TestKeepLatest:
    def test_keeps_n_newest_per_pack(self, tmp_path):
        backend = JsonFileBackend(tmp_path / "kl")
        fill(backend, ["alpha", "alpha", "alpha", "beta", "beta"])
        # Ages: alpha 0 oldest, 1 middle, 2 newest; beta 3 older than 4.
        for index, age in ((0, 500), (1, 300), (2, 100), (3, 400), (4, 200)):
            age_document(backend, fingerprint(index), age)
        doomed = collect_garbage(backend, keep_latest=1)
        assert sorted(doomed) == sorted(
            [fingerprint(0), fingerprint(1), fingerprint(3)]
        )
        assert fingerprint(2) in backend  # newest alpha survives
        assert fingerprint(4) in backend  # newest beta survives

    def test_keep_latest_composes_with_older_than(self, tmp_path):
        backend = JsonFileBackend(tmp_path / "both")
        fill(backend, ["alpha"] * 3)
        for index, age in ((0, 5000), (1, 4000), (2, 100)):
            age_document(backend, fingerprint(index), age)
        # keep-latest spares doc 2; older-than spares nothing else
        # younger than an hour -- only 0 and 1 go.
        doomed = collect_garbage(backend, older_than=3600, keep_latest=1)
        assert sorted(doomed) == sorted([fingerprint(0), fingerprint(1)])

    def test_segment_ties_break_by_append_order(self, tmp_path):
        """One segment file = one mtime: replay order decides newest."""
        backend = SegmentBackend(tmp_path / "seg-kl")
        fill(backend, ["alpha"] * 5)  # one writer, one shared mtime
        doomed = collect_garbage(backend, keep_latest=2)
        # The last two *appended* documents survive, regardless of how
        # their fingerprints sort lexicographically.
        assert sorted(doomed) == sorted(fingerprint(i) for i in range(3))
        assert fingerprint(3) in backend
        assert fingerprint(4) in backend

    def test_unpacked_documents_group_together(self, tmp_path):
        backend = JsonFileBackend(tmp_path / "nopack")
        fill(backend, [None, None, None])
        for index, age in ((0, 300), (1, 200), (2, 100)):
            age_document(backend, fingerprint(index), age)
        doomed = collect_garbage(backend, keep_latest=2)
        assert doomed == [fingerprint(0)]


class TestGcCli:
    def _store_with_old_docs(self, tmp_path):
        root = tmp_path / "root"
        backend = JsonFileBackend(root)
        fill(backend, ["alpha"] * 3)
        for index in range(3):
            age_document(backend, fingerprint(index), 10 * 86400)
        return root

    def test_older_than_flag(self, tmp_path, capsys):
        root = self._store_with_old_docs(tmp_path)
        code = main(
            ["store", "gc", "--store", str(root), "--older-than", "7d"]
        )
        assert code == 0
        assert "deleted 3 document(s)" in capsys.readouterr().out
        assert JsonFileBackend(root).count() == 0

    def test_keep_latest_flag(self, tmp_path, capsys):
        root = self._store_with_old_docs(tmp_path)
        code = main(
            ["store", "gc", "--store", str(root), "--keep-latest", "2"]
        )
        assert code == 0
        assert "deleted 1 document(s)" in capsys.readouterr().out
        assert JsonFileBackend(root).count() == 2

    def test_retention_flags_count_as_filters(self, tmp_path):
        root = self._store_with_old_docs(tmp_path)
        with pytest.raises(SystemExit, match="refusing to gc everything"):
            main(["store", "gc", "--store", str(root)])
        # --older-than alone satisfies the refusal check (above) while
        # a bad spelling is a usage error, not a traceback.
        with pytest.raises(SystemExit, match="bad age"):
            main(
                ["store", "gc", "--store", str(root), "--older-than", "often"]
            )

    def test_dry_run_reports_without_deleting(self, tmp_path, capsys):
        root = self._store_with_old_docs(tmp_path)
        code = main(
            [
                "store", "gc", "--store", str(root),
                "--older-than", "7d", "--dry-run",
            ]
        )
        assert code == 0
        assert "would delete 3 document(s)" in capsys.readouterr().out
        assert JsonFileBackend(root).count() == 3