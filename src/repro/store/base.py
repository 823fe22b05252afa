"""Shared result-store contract: constants, protocol, format detection.

A store *backend* maps run fingerprints (SHA-256 hex digests) to JSON
documents.  Two implementations live in this package:

* :class:`~repro.store.jsonfile.JsonFileBackend` -- the original
  one-document-per-file layout (``root/v1/<fp[:2]>/<fp>.json``),
  auto-detected on warm roots from earlier versions.
* :class:`~repro.store.segment.SegmentBackend` -- append-only packed
  segments plus a fixed-width, mmap-able offset index; the scaling
  path for millions of documents.

Auto-detection rules (``detect_format``)
----------------------------------------

1. A ``STORE_FORMAT.json`` marker names the format explicitly
   (written by the segment backend on first put).
2. A ``segments/`` directory means ``segment``.
3. A versioned document directory (``v1/``, ...) means ``json`` --
   every store written before the backend split looks like this.
4. Otherwise the root is virgin and the caller's default applies
   (``json``, preserving the historical layout for new roots).
"""

from __future__ import annotations

import json
import pathlib
from typing import Iterator, Protocol, runtime_checkable

#: Version of the on-disk document schema.  Simulated numbers are
#: versioned separately, by :data:`repro.sim.engine.MODEL_VERSION`.
STORE_VERSION = 1

#: Environment variable naming a default on-disk store root.
STORE_ENV_VAR = "REPRO_RESULT_STORE"

#: Environment variable naming the backend format for new store roots.
BACKEND_ENV_VAR = "REPRO_STORE_BACKEND"

#: Marker file stamping a root with its backend format.
MARKER_NAME = "STORE_FORMAT.json"

#: Formats accepted by :func:`repro.store.open_backend` (plus "auto").
KNOWN_FORMATS = ("json", "segment")


@runtime_checkable
class StoreBackend(Protocol):
    """Fingerprint -> JSON-document storage.

    Documents are plain dicts (the orchestrator's run documents:
    store version, fingerprint, request descriptor, serialized result,
    optional metadata).  Backends store and return them verbatim --
    validation lives in :class:`repro.store.ResultStore`.
    """

    format: str
    root: pathlib.Path

    def fetch(self, fingerprint: str) -> dict | None:
        """The document for ``fingerprint``, or None (missing/corrupt)."""

    def put(self, fingerprint: str, document: dict) -> None:
        """Store ``document`` under ``fingerprint`` (atomic/durable)."""

    def delete(self, fingerprint: str) -> bool:
        """Remove a document; True when something was deleted."""

    def keys(self) -> Iterator[str]:
        """Every stored fingerprint (deterministic order)."""

    def scan(self) -> Iterator[tuple[str, dict]]:
        """Every ``(fingerprint, document)`` pair (deterministic order)."""

    def count(self) -> int:
        """Number of stored documents."""

    def timestamp(self, fingerprint: str) -> float | None:
        """Best-known write time of a document (unix seconds), or None.

        Backends answer from filesystem metadata: per-file layouts
        report the document file's mtime exactly; the segment layout
        reports its segment file's mtime, an *upper bound* on every
        record in it (a long-lived writer appends to one file, so its
        records all look as new as the latest append).  Age-based
        retention therefore never deletes a document that might be
        newer than claimed -- it can only be conservative.
        """

    def __contains__(self, fingerprint: str) -> bool: ...


def write_marker(root: pathlib.Path, fmt: str) -> None:
    """Stamp ``root`` as holding a ``fmt`` store (idempotent)."""
    root.mkdir(parents=True, exist_ok=True)
    marker = root / MARKER_NAME
    if not marker.exists():
        marker.write_text(
            json.dumps({"format": fmt, "store_version": STORE_VERSION})
            + "\n"
        )


def read_marker(root: pathlib.Path) -> str | None:
    """The format a ``STORE_FORMAT.json`` marker names, if present."""
    try:
        payload = json.loads((root / MARKER_NAME).read_text())
    except (OSError, json.JSONDecodeError):
        return None
    fmt = payload.get("format")
    return fmt if isinstance(fmt, str) else None


def detect_format(root: pathlib.Path | str) -> str | None:
    """The backend format stored under ``root``; None for a virgin root.

    See the module docstring for the precedence rules.
    """
    root = pathlib.Path(root)
    marked = read_marker(root)
    if marked is not None:
        return marked
    if (root / "segments").is_dir():
        return "segment"
    if (root / f"v{STORE_VERSION}").is_dir() or any(root.glob("v[0-9]*")):
        return "json"
    return None
