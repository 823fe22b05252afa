"""Result-store backend benchmarks: cold write, warm read, 10k scan.

Measures the two persistent layouts of :mod:`repro.store` on the
operations that dominate at scale:

* *cold write* -- appending fresh documents to an empty root;
* *warm read* -- point lookups by fingerprint through a fresh backend
  instance (what a warm orchestrator session does per request);
* *10k scan* -- iterating every document (what ``repro store ls``/
  ``gc`` and report aggregation do).

The scan comparison is the headline: the per-file layout pays one
``open()`` + parse per document, the segment layout reads each
segment sequentially through one mmap.  The ROADMAP acceptance bar --
segment >= 5x faster than per-file JSON on a 10k-document warm scan
-- is asserted by ``test_segment_scan_speedup`` and recorded under
``benchmarks/reports/``.

Documents here are small synthetic run documents (a few hundred
bytes), so the numbers isolate storage overhead rather than result
serialization.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import time

import pytest

from repro.store import JsonFileBackend, SegmentBackend

BACKENDS = {
    "json": JsonFileBackend,
    "segment": SegmentBackend,
}

N_WRITE = 1_000
N_READ = 500
N_SCAN = 10_000


def fingerprint(index: int) -> str:
    return hashlib.sha256(f"bench-doc-{index}".encode()).hexdigest()


def document(index: int) -> dict:
    # Deliberately small (~190 bytes): the scan comparison measures
    # per-document *storage* overhead (opens, globs, seeks), which
    # payload parsing would otherwise mask for every backend alike.
    return {
        "store_version": 1,
        "fingerprint": fingerprint(index),
        "request": {"policy": {"name": f"p{index % 4}"}},
        "result": {"v": index},
    }


def fill(backend, count: int) -> None:
    for index in range(count):
        backend.put(fingerprint(index), document(index))
    close = getattr(backend, "close", None)
    if close is not None:
        close()


@pytest.fixture(scope="session")
def scan_corpora(tmp_path_factory):
    """One ``N_SCAN``-document root per backend, built once per session."""
    corpora = {}
    for name, cls in BACKENDS.items():
        root = tmp_path_factory.mktemp(f"store-{name}")
        fill(cls(root), N_SCAN)
        corpora[name] = root
    return corpora


@pytest.mark.parametrize("name", sorted(BACKENDS))
def test_store_cold_write(benchmark, tmp_path_factory, name):
    """Write ``N_WRITE`` documents into a fresh root."""
    cls = BACKENDS[name]

    def setup():
        root = tmp_path_factory.mktemp(f"cold-{name}")
        return (cls(root),), {}

    def cold_write(backend):
        fill(backend, N_WRITE)
        shutil.rmtree(backend.root, ignore_errors=True)

    benchmark.pedantic(cold_write, setup=setup, rounds=3)


@pytest.mark.parametrize("name", sorted(BACKENDS))
def test_store_warm_read(benchmark, scan_corpora, name):
    """Point-fetch ``N_READ`` documents through a fresh instance."""
    root = scan_corpora[name]
    cls = BACKENDS[name]
    stride = N_SCAN // N_READ

    def warm_read():
        backend = cls(root)
        hits = sum(
            backend.fetch(fingerprint(index)) is not None
            for index in range(0, N_SCAN, stride)
        )
        assert hits == N_READ
        return hits

    benchmark(warm_read)


@pytest.mark.parametrize("name", sorted(BACKENDS))
def test_store_scan_10k(benchmark, scan_corpora, name):
    """Scan every document through a fresh instance."""
    root = scan_corpora[name]
    cls = BACKENDS[name]

    def scan():
        seen = sum(1 for _ in cls(root).scan())
        assert seen == N_SCAN
        return seen

    benchmark(scan)


def _best_scan_seconds(cls, root, rounds: int = 3) -> float:
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        seen = sum(1 for _ in cls(root).scan())
        elapsed = time.perf_counter() - start
        assert seen == N_SCAN
        best = min(best, elapsed)
    return best


def test_segment_scan_speedup(scan_corpora, report_dir):
    """Acceptance bar: segment scan >= 5x faster than per-file JSON."""
    json_s = _best_scan_seconds(JsonFileBackend, scan_corpora["json"])
    segment_s = _best_scan_seconds(SegmentBackend, scan_corpora["segment"])
    speedup = json_s / segment_s
    lines = [
        f"result-store warm scan, {N_SCAN} documents (best of 3)",
        f"  per-file json : {json_s * 1e3:9.1f} ms",
        f"  segment       : {segment_s * 1e3:9.1f} ms",
        f"  speedup       : {speedup:9.1f}x (bar: >= 5x)",
    ]
    path = report_dir / "store_scan.txt"
    path.write_text("\n".join(lines) + "\n")
    print()
    for line in lines:
        print(line)
    assert speedup >= 5.0, (
        f"segment scan only {speedup:.1f}x faster than per-file JSON "
        f"({segment_s * 1e3:.1f} ms vs {json_s * 1e3:.1f} ms)"
    )


def test_store_document_sizes(scan_corpora, report_dir):
    """Record the on-disk footprint of each layout (same 10k docs)."""
    lines = [f"on-disk footprint, {N_SCAN} documents"]
    for name in sorted(BACKENDS):
        root = scan_corpora[name]
        total = sum(
            path.stat().st_size for path in root.rglob("*") if path.is_file()
        )
        files = sum(1 for path in root.rglob("*") if path.is_file())
        lines.append(f"  {name:<8}: {total / 1e6:8.2f} MB in {files} file(s)")
    (report_dir / "store_footprint.txt").write_text("\n".join(lines) + "\n")
    print()
    for line in lines:
        print(line)
    # Sanity: every backend stored every document.
    for name, cls in BACKENDS.items():
        sample = cls(scan_corpora[name]).fetch(fingerprint(N_SCAN // 2))
        assert json.dumps(sample, sort_keys=True) == json.dumps(
            document(N_SCAN // 2), sort_keys=True
        )
