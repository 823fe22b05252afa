"""Data-correlation generation: loop oracle vs batched path.

The ROADMAP profile showed ``DataCorrelationProcess.volumes`` -- then
an O(n^2) per-pair Python loop invoked twice per engine slot --
dominating small-scale runs once the engine physics were batched.
This benchmark measures the batched replacement against that loop,
which now lives in ``tests/oracles/datacorr.py``:

* **bit-identity** -- at every population size {1, 2, 50, 200} the
  batched matrices must equal the loop's exactly (the same guarantee
  the engine's other batched hot paths carry);
* **per-slot speedup** -- at n=200 the batched path must be at least
  10x faster per slot than the loop, measured warm (base volumes
  cached in both implementations, which is the engine's steady state).

Run via ``make bench-smoke`` (or directly with pytest).
"""

from __future__ import annotations

import time

import numpy as np

from conftest import make_vm
from repro.workload.datacorr import DataCorrelationProcess
from tests.oracles.datacorr import volumes_loop

#: Population sizes the equivalence sweep covers.
SIZES = (1, 2, 50, 200)

#: Required warm per-slot advantage of the batched path at n=200.
REQUIRED_SPEEDUP = 10.0

#: Slots timed per measurement repeat.
SLOTS_PER_REPEAT = 5

#: Measurement repeats (the best repeat is scored, damping scheduler
#: noise on shared CI runners).
REPEATS = 5


def population(n: int) -> list:
    """Mixed-service population with non-contiguous vm ids."""
    return [
        make_vm(vm_id=3 + 7 * index, service_id=index // 4, seed=index)
        for index in range(n)
    ]


def processes(seed: int = 17):
    """``(loop, batched)`` volume callables over separate processes."""
    loop = DataCorrelationProcess(seed=seed)
    batched = DataCorrelationProcess(seed=seed)
    return (
        lambda vms, slot: volumes_loop(loop, vms, slot),
        batched.volumes,
    )


def best_slot_time(volumes, vms: list) -> float:
    """Best-of-repeats mean seconds per ``volumes`` call, warm."""
    volumes(vms, 0)  # warm the per-pair base draws / matrices
    best = float("inf")
    slot = 1
    for _ in range(REPEATS):
        start = time.perf_counter()
        for _ in range(SLOTS_PER_REPEAT):
            volumes(vms, slot)
            slot += 1
        best = min(best, (time.perf_counter() - start) / SLOTS_PER_REPEAT)
    return best


def test_datacorr_bit_identical_across_sizes():
    """Loop and batched paths agree exactly at every population size."""
    for n in SIZES:
        vms = population(n)
        loop, batched = processes()
        for slot in (0, 9):
            reference = loop(vms, slot)
            candidate = batched(vms, slot)
            assert candidate.vm_ids == reference.vm_ids
            assert np.array_equal(candidate.volumes, reference.volumes), (
                f"n={n} slot={slot} diverged"
            )


def test_datacorr_speedup(report_dir):
    """Batched path is >= 10x faster per warm slot at n=200."""
    lines = [
        "bench_datacorr: DataCorrelationProcess.volumes loop vs batched",
        f"  (warm per-slot time, best of {REPEATS} x {SLOTS_PER_REPEAT} slots)",
    ]
    speedups = {}
    for n in SIZES:
        vms = population(n)
        loop, batched = processes()
        loop_s = best_slot_time(loop, vms)
        batched_s = best_slot_time(batched, vms)
        speedups[n] = loop_s / batched_s
        lines.append(
            f"  n={n:>3}  loop {loop_s * 1e3:8.3f} ms  "
            f"batched {batched_s * 1e3:8.3f} ms  "
            f"speedup {speedups[n]:6.1f}x"
        )
    lines.append(
        f"  required at n=200: >= {REQUIRED_SPEEDUP:.0f}x  "
        f"measured: {speedups[200]:.1f}x"
    )
    from conftest import write_report

    write_report(report_dir, "bench_datacorr.txt", lines)
    assert speedups[200] >= REQUIRED_SPEEDUP, (
        f"batched datacorr only {speedups[200]:.1f}x faster at n=200 "
        f"(need >= {REQUIRED_SPEEDUP:.0f}x)"
    )
