"""Store maintenance: listing, gc (with retention policy), migration.

These helpers power the ``repro store`` CLI subcommand.  They operate
on raw backends (not :class:`~repro.store.core.ResultStore`), so they
see documents exactly as persisted.

Filtering model
---------------

Documents are labeled two ways:

* the *request descriptor* (hashed into the fingerprint) carries the
  pack's content identity -- schema, version, kind, sha256 -- for any
  run that named a workload pack;
* the optional *meta* envelope (written since the backend split,
  never hashed) additionally carries the pack *name*.

``ls``/``gc`` filters therefore match pack versions and sha prefixes
on every document, while pack-*name* filters only match documents new
enough to carry meta (older documents deliberately keyed renames
identically, so their names are unknowable).
"""

from __future__ import annotations

import json
import pathlib
import re
import time
from dataclasses import dataclass

from repro.store.base import StoreBackend
from repro.store.core import open_backend

#: Age-suffix multipliers accepted by :func:`parse_age`.
_AGE_UNITS = {
    "s": 1.0,
    "m": 60.0,
    "h": 3600.0,
    "d": 86400.0,
    "w": 7 * 86400.0,
}


def parse_age(text: str) -> float:
    """Parse a human age spec (``30d``, ``12h``, ``45m``...) to seconds.

    A bare number means seconds.  Raises ``ValueError`` on anything
    else -- the gc CLI turns that into a usage error.
    """
    match = re.fullmatch(r"\s*(\d+(?:\.\d+)?)\s*([smhdw]?)\s*", str(text))
    if not match:
        raise ValueError(
            f"bad age {text!r}; use <number>[s|m|h|d|w], e.g. 30d or 12h"
        )
    value, unit = match.groups()
    return float(value) * _AGE_UNITS[unit or "s"]


@dataclass(frozen=True)
class DocumentInfo:
    """One store document's identity labels, for listing/filtering."""

    fingerprint: str
    policy: str | None
    pack_name: str | None
    pack_version: int | None
    pack_sha256: str | None
    campaign: str | None = None

    @classmethod
    def from_document(cls, fingerprint: str, document: dict) -> "DocumentInfo":
        request = document.get("request") or {}
        meta = document.get("meta") or {}
        pack = request.get("pack") or {}
        meta_pack = meta.get("pack") or {}
        policy = (request.get("policy") or {}).get("name")
        return cls(
            fingerprint=fingerprint,
            policy=policy,
            pack_name=meta_pack.get("name"),
            pack_version=pack.get("version", meta_pack.get("version")),
            pack_sha256=pack.get("sha256", meta_pack.get("sha256")),
            campaign=meta.get("campaign"),
        )


def matches(
    info: DocumentInfo,
    pack: str | None = None,
    pack_version: int | None = None,
    sha: str | None = None,
    fingerprint: str | None = None,
    campaign: str | None = None,
) -> bool:
    """Whether a document matches every given filter (AND semantics)."""
    if pack is not None and info.pack_name != pack:
        return False
    if campaign is not None and info.campaign != campaign:
        # Like pack-name filters, campaign labels live in the meta
        # envelope: only artifacts an in-process suite run stamped
        # match (service-path artifacts are audited via the ledger).
        return False
    if pack_version is not None and info.pack_version != pack_version:
        return False
    if sha is not None and not (
        info.pack_sha256 or ""
    ).startswith(sha):
        return False
    if fingerprint is not None and not info.fingerprint.startswith(
        fingerprint
    ):
        return False
    return True


def list_documents(backend: StoreBackend, **filters) -> list[DocumentInfo]:
    """Every document in ``backend`` matching the filters."""
    rows = []
    for fingerprint, document in backend.scan():
        info = DocumentInfo.from_document(fingerprint, document)
        if matches(info, **filters):
            rows.append(info)
    return rows


def collect_garbage(
    backend: StoreBackend,
    dry_run: bool = False,
    older_than: float | None = None,
    keep_latest: int | None = None,
    now: float | None = None,
    **filters,
) -> list[str]:
    """Delete (or, with ``dry_run``, just report) matching documents.

    Retention policy (applied after the identity filters):

    ``older_than``
        Only collect documents whose backend timestamp
        (:meth:`~repro.store.base.StoreBackend.timestamp`) is at least
        this many seconds before ``now``.  Timestamps are conservative
        (segment stores report per-segment-file granularity), so a
        document that *might* be newer is spared; one with no
        timestamp at all is never age-collected.
    ``keep_latest``
        Spare the N newest documents of every pack name (documents
        without pack meta group under ``None``), newest-first by
        timestamp, with the backend's replay order
        (:meth:`~repro.store.base.StoreBackend.keys`) breaking ties --
        segment stores stamp every record in a segment file with one
        mtime, but replay their records in append order, so "newest"
        stays meaningful there too.  Applies on top of ``older_than``:
        a document must be old enough *and* outside its pack's keep
        set to go.
    """
    matching = list_documents(backend, **filters)
    if older_than is not None or keep_latest is not None:
        reference = time.time() if now is None else now
        stamped = [
            (info, backend.timestamp(info.fingerprint)) for info in matching
        ]
        if keep_latest is not None:
            replay_rank = {
                fingerprint: rank
                for rank, fingerprint in enumerate(backend.keys())
            }
            by_pack: dict[str | None, list[tuple[float, int, str]]] = {}
            for info, stamp in stamped:
                by_pack.setdefault(info.pack_name, []).append(
                    (stamp if stamp is not None else float("-inf"),
                     replay_rank.get(info.fingerprint, -1),
                     info.fingerprint)
                )
            spared: set[str] = set()
            for group in by_pack.values():
                group.sort(reverse=True)
                spared.update(
                    fp for _, _, fp in group[: max(keep_latest, 0)]
                )
            stamped = [
                (info, stamp)
                for info, stamp in stamped
                if info.fingerprint not in spared
            ]
        fingerprints = [
            info.fingerprint
            for info, stamp in stamped
            if older_than is None
            or (stamp is not None and reference - stamp >= older_than)
        ]
    else:
        fingerprints = [info.fingerprint for info in matching]
    if not dry_run:
        for fingerprint in fingerprints:
            backend.delete(fingerprint)
    return fingerprints


@dataclass(frozen=True)
class MigrationReport:
    """Outcome of one store migration."""

    migrated: int
    mismatched: tuple[str, ...]

    @property
    def verified(self) -> bool:
        """True when every document round-tripped bit-identically."""
        return not self.mismatched


def migrate_store(
    source: pathlib.Path | str,
    dest: pathlib.Path | str,
    to: str = "segment",
    source_backend: str = "auto",
) -> MigrationReport:
    """Copy every document from ``source`` into a ``to``-format ``dest``.

    The copy preserves documents verbatim (same JSON trees, same
    fingerprints), then
    re-reads every fingerprint from the destination and compares the
    canonical JSON serialization -- the bit-identity check behind
    ``repro store migrate``.

    Self-migration is refused: with ``dest`` equal to ``source`` --
    or nested inside it, or containing it -- the writer's puts land in
    the tree the reader is scanning, which can double-count documents
    or corrupt the layout mid-scan.  Both paths are resolved before
    the check, so symlinked or relative spellings of the same root are
    caught too.
    """
    source_resolved = pathlib.Path(source).resolve()
    dest_resolved = pathlib.Path(dest).resolve()
    if (
        source_resolved == dest_resolved
        or dest_resolved.is_relative_to(source_resolved)
        or source_resolved.is_relative_to(dest_resolved)
    ):
        raise ValueError(
            f"cannot migrate {str(source)!r} into {str(dest)!r}: source "
            "and destination resolve to overlapping paths; migrating a "
            "store into itself would interleave reads and writes -- "
            "pick a destination outside the source tree"
        )
    reader = open_backend(source, source_backend)
    writer = open_backend(dest, to)
    migrated = 0
    for fingerprint, document in reader.scan():
        writer.put(fingerprint, document)
        migrated += 1
    mismatched = []
    for fingerprint, document in reader.scan():
        copied = writer.fetch(fingerprint)
        if json.dumps(copied, sort_keys=True) != json.dumps(
            document, sort_keys=True
        ):
            mismatched.append(fingerprint)
    return MigrationReport(migrated=migrated, mismatched=tuple(mismatched))
