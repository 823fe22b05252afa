"""The original per-file JSON store layout, as a pluggable backend.

One document per fingerprint::

    root/v1/<fp[:2]>/<fingerprint>.json

``v1`` is :data:`~repro.store.base.STORE_VERSION`; bumping it orphans
every old entry at once.  Writes are atomic (temp file + rename), so a
crashed run never leaves a truncated document behind and concurrent
writers of the same fingerprint race to an intact winner.  This layout
is what every store root written before the backend split contains, so
it is the auto-detected default -- see
:func:`repro.store.base.detect_format`.
"""

from __future__ import annotations

import json
import os
import pathlib
import tempfile
from typing import Iterator

from repro.store.base import STORE_VERSION


class JsonFileBackend:
    """One JSON document per fingerprint under ``root/v1/``."""

    format = "json"

    def __init__(self, root: pathlib.Path | str) -> None:
        self.root = pathlib.Path(root)

    def path_for(self, fingerprint: str) -> pathlib.Path:
        """On-disk document path for a fingerprint."""
        return (
            self.root
            / f"v{STORE_VERSION}"
            / fingerprint[:2]
            / f"{fingerprint}.json"
        )

    def fetch(self, fingerprint: str) -> dict | None:
        """The document for a fingerprint (None if missing/corrupt)."""
        try:
            return json.loads(self.path_for(fingerprint).read_text())
        except (OSError, json.JSONDecodeError):
            return None

    def put(self, fingerprint: str, document: dict) -> None:
        """Write one document atomically (temp file + rename)."""
        path = self.path_for(fingerprint)
        path.parent.mkdir(parents=True, exist_ok=True)
        handle = tempfile.NamedTemporaryFile(
            "w", dir=path.parent, suffix=".tmp", delete=False
        )
        try:
            with handle:
                json.dump(document, handle)
            os.replace(handle.name, path)
        except BaseException:
            os.unlink(handle.name)
            raise

    def delete(self, fingerprint: str) -> bool:
        """Unlink a document; True when one existed."""
        try:
            self.path_for(fingerprint).unlink()
        except OSError:
            return False
        return True

    def keys(self) -> Iterator[str]:
        """Every stored fingerprint, sorted."""
        base = self.root / f"v{STORE_VERSION}"
        for path in sorted(base.glob("*/*.json")):
            yield path.stem

    def scan(self) -> Iterator[tuple[str, dict]]:
        """Every (fingerprint, document) pair, sorted by fingerprint."""
        for fingerprint in self.keys():
            document = self.fetch(fingerprint)
            if document is not None:
                yield fingerprint, document

    def count(self) -> int:
        """Number of stored documents."""
        return sum(1 for _ in self.keys())

    def timestamp(self, fingerprint: str) -> float | None:
        """The document file's mtime (exact per-document write time)."""
        try:
            return self.path_for(fingerprint).stat().st_mtime
        except OSError:
            return None

    def __contains__(self, fingerprint: str) -> bool:
        return self.path_for(fingerprint).exists()
