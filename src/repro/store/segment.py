"""Append-only segment store: packed records + mmap-able offset index.

Layout::

    root/STORE_FORMAT.json                  # {"format": "segment", ...}
    root/segments/<writer>.seg              # packed document records
    root/segments/<writer>.idx              # fixed-width offset index

Record format (``.seg``)
------------------------

Each record is ``<32s Q`` header + payload: the raw 32-byte
fingerprint, the payload length as a little-endian u64, then the
UTF-8 JSON document bytes.  A length of zero is a *tombstone*: the
fingerprint was deleted.  The segment is self-describing, so a lost
index can always be rebuilt by a linear scan.

Index format (``.idx``)
-----------------------

Fixed 48-byte entries (:data:`INDEX_DTYPE`): raw fingerprint, payload
offset, payload length -- directly mmap-able as a numpy structured
array, which is how large indexes are loaded.  Entries are appended
*after* their record bytes, so a crash can at worst leave a trailing
partial entry (ignored by the length check) or a record without an
entry (invisible; rewritten on the next run, reclaimed by
:meth:`SegmentBackend.compact`).

Concurrent-writer discipline
----------------------------

Every backend instance appends to its *own* ``<writer>.seg/.idx``
pair -- the writer id embeds a nanosecond timestamp, the pid and a
random suffix -- so processes sharing a root never interleave bytes
in one file and need no locks.  Readers discover new/grown index
files on any miss and on every scan.  Entries replay in (file name,
file order) order; file names sort by creation time, which makes the
replay order match wall-clock write order across writers for the
cases that matter (delete-then-recompute).  Runs are deterministic
per fingerprint, so racing writers of the *same* fingerprint store
identical documents and either winner is correct.

Compaction (:meth:`SegmentBackend.compact`) rewrites the live
documents into one fresh segment pair and removes the old files; it
requires exclusive access, enforced with an ``O_EXCL`` lock file.
"""

from __future__ import annotations

import json
import mmap
import os
import pathlib
import struct
import threading
import time
import uuid
from typing import BinaryIO, Iterator

import numpy as np

from repro.store.base import write_marker

#: One mmap-able offset-index entry: raw fingerprint, offset, length.
INDEX_DTYPE = np.dtype(
    [("fingerprint", "S32"), ("offset", "<u8"), ("length", "<u8")]
)

#: Record header preceding each payload in a segment file.
RECORD_HEADER = struct.Struct("<32sQ")

#: Index files larger than this are loaded through ``np.memmap``.
_MMAP_THRESHOLD = 1 << 20

#: Records batch-parsed per ``json.loads`` call during a scan.
_SCAN_CHUNK = 4096


def _fingerprint_bytes(fingerprint: str) -> bytes:
    """The raw 32-byte form of a SHA-256 hex fingerprint."""
    try:
        raw = bytes.fromhex(fingerprint)
    except ValueError:
        raw = b""
    if len(raw) != 32:
        raise ValueError(
            "segment stores key documents by SHA-256 hex fingerprints "
            f"(64 hex chars); got {fingerprint!r}"
        )
    return raw


class _SegmentWriter:
    """This instance's private append-only segment/index file pair."""

    def __init__(self, base: pathlib.Path) -> None:
        base.mkdir(parents=True, exist_ok=True)
        stamp = (
            f"{time.time_ns():020d}-{os.getpid():08d}-{uuid.uuid4().hex[:8]}"
        )
        self.seg_path = base / f"{stamp}.seg"
        self.idx_path = base / f"{stamp}.idx"
        self._seg = open(self.seg_path, "ab")
        self._idx = open(self.idx_path, "ab")
        self._offset = 0

    def append(self, fingerprint: str, payload: bytes) -> int:
        """Append one record; returns the payload's segment offset."""
        raw = _fingerprint_bytes(fingerprint)
        self._seg.write(RECORD_HEADER.pack(raw, len(payload)))
        if payload:
            self._seg.write(payload)
        self._seg.flush()
        offset = self._offset + RECORD_HEADER.size
        entry = np.array([(raw, offset, len(payload))], dtype=INDEX_DTYPE)
        self._idx.write(entry.tobytes())
        self._idx.flush()
        self._offset += RECORD_HEADER.size + len(payload)
        return offset

    def close(self) -> None:
        self._seg.close()
        self._idx.close()


class SegmentBackend:
    """Documents packed into append-only segments with an offset index."""

    format = "segment"

    def __init__(self, root: pathlib.Path | str) -> None:
        self.root = pathlib.Path(root)
        self._lock = threading.RLock()
        self._index: dict[str, tuple[pathlib.Path, int, int]] = {}
        self._consumed: dict[pathlib.Path, int] = {}
        self._writer: _SegmentWriter | None = None
        self._readers: dict[pathlib.Path, BinaryIO] = {}
        self._load()

    # -- index maintenance -------------------------------------------------

    def _segments_dir(self) -> pathlib.Path:
        return self.root / "segments"

    def _load(self) -> None:
        """Apply every new index entry on disk (new files and growth)."""
        base = self._segments_dir()
        if not base.is_dir():
            return
        for idx_path in sorted(base.glob("*.idx")):
            self._apply(idx_path)

    def _apply(self, idx_path: pathlib.Path) -> None:
        try:
            size = idx_path.stat().st_size
        except OSError:
            return
        start = self._consumed.get(idx_path, 0)
        usable = size - size % INDEX_DTYPE.itemsize  # ignore torn tail
        if usable <= start:
            return
        if usable - start >= _MMAP_THRESHOLD:
            mapped = np.memmap(idx_path, dtype=np.uint8, mode="r")
            entries = mapped[start:usable].view(INDEX_DTYPE)
        else:
            with open(idx_path, "rb") as handle:
                handle.seek(start)
                entries = np.frombuffer(
                    handle.read(usable - start), dtype=INDEX_DTYPE
                )
        seg_path = idx_path.with_suffix(".seg")
        try:
            seg_size = seg_path.stat().st_size
        except OSError:
            seg_size = 0
        offsets = entries["offset"].astype(np.int64)
        lengths = entries["length"].astype(np.int64)
        # An entry pointing past the segment's current end means its
        # record bytes have not landed (or were truncated by a crash):
        # stop there; a later refresh retries from that point.
        invalid = np.nonzero((offsets + lengths > seg_size) & (lengths > 0))[0]
        stop = int(invalid[0]) if invalid.size else len(entries)
        # One hex pass over the raw column (``.tobytes()`` keeps the
        # full 32 bytes -- numpy S-string *indexing* would drop the
        # trailing NULs that sha256 digests may legitimately end in).
        hex_blob = entries["fingerprint"][:stop].tobytes().hex()
        index = self._index
        for position in range(stop):
            fingerprint = hex_blob[position * 64 : position * 64 + 64]
            length = lengths[position]
            if length == 0:
                index.pop(fingerprint, None)  # tombstone
            else:
                index[fingerprint] = (
                    seg_path,
                    int(offsets[position]),
                    int(length),
                )
        self._consumed[idx_path] = start + stop * INDEX_DTYPE.itemsize

    def _ensure_writer(self) -> _SegmentWriter:
        if self._writer is None:
            write_marker(self.root, self.format)
            self._writer = _SegmentWriter(self._segments_dir())
        return self._writer

    def _read_payload(
        self, seg_path: pathlib.Path, offset: int, length: int
    ) -> bytes | None:
        handle = self._readers.get(seg_path)
        if handle is None:
            try:
                handle = open(seg_path, "rb")
            except OSError:
                return None
            self._readers[seg_path] = handle
        payload = os.pread(handle.fileno(), length, offset)
        return payload if len(payload) == length else None

    # -- StoreBackend API --------------------------------------------------

    def fetch(self, fingerprint: str) -> dict | None:
        """The document for a fingerprint (refreshes the index on miss)."""
        with self._lock:
            entry = self._index.get(fingerprint)
            if entry is None:
                self._load()
                entry = self._index.get(fingerprint)
            if entry is None:
                return None
            payload = self._read_payload(*entry)
        if payload is None:
            return None
        try:
            return json.loads(payload)
        except (UnicodeDecodeError, json.JSONDecodeError):
            return None

    def put(self, fingerprint: str, document: dict) -> None:
        """Append one document to this instance's segment."""
        payload = json.dumps(document).encode()
        with self._lock:
            writer = self._ensure_writer()
            offset = writer.append(fingerprint, payload)
            self._index[fingerprint] = (
                writer.seg_path,
                offset,
                len(payload),
            )

    def delete(self, fingerprint: str) -> bool:
        """Tombstone a document; True when it was present."""
        with self._lock:
            if fingerprint not in self._index:
                self._load()
            if fingerprint not in self._index:
                return False
            self._ensure_writer().append(fingerprint, b"")  # tombstone
            self._index.pop(fingerprint, None)
            return True

    def _grouped_entries(
        self,
    ) -> list[tuple[pathlib.Path, list[tuple[int, str, int]]]]:
        """Live entries grouped per segment, in replay order.

        Returns ``[(seg path, [(offset, fingerprint, length), ...])]``
        with groups ordered by segment name and entries by offset --
        one dict pass plus per-group sorts of already-nearly-sorted
        offset lists, deliberately avoiding a global decorate-sort
        (and any per-entry ``pathlib`` attribute access, which is far
        too slow at 10k+ documents).
        """
        with self._lock:
            self._load()
            groups: dict[pathlib.Path, list[tuple[int, str, int]]] = {}
            for fingerprint, (path, offset, length) in self._index.items():
                group = groups.get(path)
                if group is None:
                    group = groups[path] = []
                group.append((offset, fingerprint, length))
        for group in groups.values():
            group.sort()
        return sorted(groups.items(), key=lambda item: item[0].name)

    def keys(self) -> Iterator[str]:
        """Every live fingerprint, in replay (segment, offset) order."""
        for _, group in self._grouped_entries():
            for _, fingerprint, _ in group:
                yield fingerprint

    def scan(self) -> Iterator[tuple[str, dict]]:
        """Every live document, read segment-by-segment sequentially.

        Each segment is mmap'd once and its records are parsed in
        chunked *batch* ``json.loads`` calls (one synthetic JSON array
        per chunk), which amortizes the per-call decoder overhead that
        dominates small-document scans.  A chunk containing a corrupt
        payload falls back to per-record parsing so intact neighbors
        still stream out.
        """
        for seg_path, entries in self._grouped_entries():
            try:
                with open(seg_path, "rb") as handle:
                    mapped = mmap.mmap(
                        handle.fileno(), 0, access=mmap.ACCESS_READ
                    )
            except (OSError, ValueError):
                continue
            with mapped:
                for chunk_start in range(0, len(entries), _SCAN_CHUNK):
                    chunk = entries[chunk_start : chunk_start + _SCAN_CHUNK]
                    payloads = [
                        mapped[offset : offset + length]
                        for offset, _, length in chunk
                    ]
                    try:
                        documents = json.loads(
                            b"[" + b",".join(payloads) + b"]"
                        )
                    except (UnicodeDecodeError, json.JSONDecodeError):
                        documents = None
                    if documents is None:
                        for (_, fingerprint, _), payload in zip(
                            chunk, payloads
                        ):
                            try:
                                yield fingerprint, json.loads(payload)
                            except (UnicodeDecodeError, json.JSONDecodeError):
                                continue
                    else:
                        for (_, fingerprint, _), document in zip(
                            chunk, documents
                        ):
                            yield fingerprint, document

    def count(self) -> int:
        """Number of live documents."""
        with self._lock:
            self._load()
            return len(self._index)

    def timestamp(self, fingerprint: str) -> float | None:
        """The owning segment file's mtime (an upper bound per record).

        Segment records carry no per-record clock; the segment file's
        mtime (time of its *latest* append) over-estimates every
        record's age-relevant write time, so age-based retention stays
        conservative: a document is only reported old when its whole
        segment has been quiet that long.
        """
        with self._lock:
            entry = self._index.get(fingerprint)
            if entry is None:
                self._load()
                entry = self._index.get(fingerprint)
        if entry is None:
            return None
        try:
            return entry[0].stat().st_mtime
        except OSError:
            return None

    def __contains__(self, fingerprint: str) -> bool:
        with self._lock:
            if fingerprint in self._index:
                return True
            self._load()
            return fingerprint in self._index

    # -- maintenance -------------------------------------------------------

    def compact(self) -> int:
        """Rewrite live documents into one fresh segment pair.

        Reclaims tombstoned and duplicated records.  Requires
        exclusive access to the root (other writers would lose their
        open segments); an ``O_EXCL`` lock file enforces one compactor
        at a time.  Returns the number of live documents kept.
        """
        base = self._segments_dir()
        if not base.is_dir():
            return 0
        lock_path = base / ".compact.lock"
        try:
            lock_fd = os.open(
                lock_path, os.O_CREAT | os.O_EXCL | os.O_WRONLY
            )
        except FileExistsError:
            raise RuntimeError(
                f"another compaction holds {lock_path}; remove the lock "
                "file if it is stale"
            ) from None
        try:
            with self._lock:
                live = [(fp, doc) for fp, doc in self.scan()]
                old_files = [
                    path
                    for path in base.iterdir()
                    if path.suffix in (".seg", ".idx")
                ]
                self.close()
                self._index.clear()
                self._consumed.clear()
                for fingerprint, document in live:
                    self.put(fingerprint, document)
                keep = (
                    {self._writer.seg_path, self._writer.idx_path}
                    if self._writer is not None
                    else set()
                )
                for path in old_files:
                    if path not in keep:
                        path.unlink(missing_ok=True)
            return len(live)
        finally:
            os.close(lock_fd)
            lock_path.unlink(missing_ok=True)

    def close(self) -> None:
        """Close this instance's writer and cached read handles."""
        with self._lock:
            if self._writer is not None:
                self._writer.close()
                self._writer = None
            for handle in self._readers.values():
                handle.close()
            self._readers.clear()
