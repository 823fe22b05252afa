"""Workload-cache benchmark: one materialization, many policies.

The paper's deliverables are sweeps -- several policies (and engine
option variants) judged over the *same* workload realization.  Without
the workload cache every run regenerates that realization from
scratch (~90% of a baseline run's wall time); with it, sticky workers
materialize each workload once and every same-key run after the first
reuses the realized population, traces, demand and volume matrices.

This benchmark executes the canonical sweep shape cold, twice:

``cache+sticky``
    ``Orchestrator(jobs=2, workload_cache=4)`` -- sticky key-affine
    workers, per-process materialization LRU, shared-memory pack
    fan-out where it applies.
``cache-off``
    ``Orchestrator(jobs=2, workload_cache=0)`` -- the pre-cache
    execution path: plain pool, per-run workload builds.

Gates (asserted, and recorded in ``benchmarks/reports/``):

* cached sweep >= :data:`SPEEDUP_BAR` x the cache-off sweep;
* artifacts are byte-identical between the two paths -- equal
  fingerprints and equal canonical result documents (the cache is an
  execution detail, invisible in every output byte);
* a large recorded pack engages the shared-memory fan-out (exactly
  one published segment) and stays byte-identical too.

A machine-readable ``BENCH_workload.json`` lands next to
``BENCH_green.json`` for the nightly trajectory.
"""

from __future__ import annotations

import json
import os
import time

import numpy as np

from repro.experiments.orchestrator import (
    EngineOptions,
    Orchestrator,
    ResultStore,
    RunRequest,
)
from repro.experiments.runner import default_policies
from repro.sim.config import EngineCoreConfig, scaled_config
from repro.workload.packs import RecordedTraceSource, TracePack

#: Minimum cold-sweep speedup of cache+sticky over cache-off.
SPEEDUP_BAR = 2.0

#: Worker processes on both sides of the comparison.
JOBS = 2

#: Sweep horizon: long enough that workload generation dominates.
HORIZON = 8

def _sweep_requests() -> list[RunRequest]:
    """The canonical sweep: 3 baselines x (engine driver x clairvoyant).

    Twelve runs, one materialization key -- fresh policy instances per
    request (policies carry cross-slot state).
    """
    config = scaled_config("tiny").with_horizon(HORIZON)
    return [
        RunRequest(
            config=config,
            policy=policy,
            options=EngineOptions(
                clairvoyant=clairvoyant, engine=EngineCoreConfig(kind=kind)
            ),
        )
        for kind in ("slot", "event")
        for clairvoyant in (False, True)
        for policy in default_policies()[1:4]
    ]


def _recorded_requests(pack: TracePack) -> list[RunRequest]:
    config = scaled_config("tiny").with_horizon(4)
    return [
        RunRequest(config=config, policy=policy, pack=pack)
        for policy in default_policies()[1:3]
    ]


def _big_recorded_pack() -> TracePack:
    """A recorded day big enough to cross the shared-memory floor."""
    rng = np.random.default_rng(23)
    matrix = rng.uniform(0.05, 0.95, size=(200, 24 * 30))
    assert matrix.nbytes >= 1 << 20
    return TracePack(
        name="bench-recorded",
        source=RecordedTraceSource(utilization=matrix, steps_per_slot=30),
    )


def _canonical(artifact) -> str:
    return json.dumps(artifact.result.to_dict(), sort_keys=True)


def _timed_cold_sweep(requests, workload_cache):
    """Elapsed seconds + artifacts + cache stats for one cold sweep."""
    with Orchestrator(
        store=ResultStore(),
        jobs=JOBS,
        workload_cache=workload_cache,
    ) as orchestrator:
        start = time.perf_counter()
        artifacts = orchestrator.run_many(requests)
        elapsed = time.perf_counter() - start
        stats = orchestrator.workload_cache_stats()
    return elapsed, artifacts, stats


def _assert_identical(cached_artifacts, plain_artifacts):
    for ours, theirs in zip(cached_artifacts, plain_artifacts):
        assert ours.fingerprint == theirs.fingerprint
        assert _canonical(ours) == _canonical(theirs)


def test_workload_cache_cold_sweep(report_dir):
    """Gate: cache+sticky+shm >= 2x cache-off on a same-workload sweep.

    Unlike the fleet bench, this gate holds on any CPU count: the win
    is *eliminated recomputation* (one workload materialization
    instead of twelve), not parallel overlap, so there is no skip.
    """
    cached_elapsed, cached_artifacts, cache_stats = _timed_cold_sweep(
        _sweep_requests(), workload_cache=4
    )
    plain_elapsed, plain_artifacts, _ = _timed_cold_sweep(
        _sweep_requests(), workload_cache=0
    )
    assert len(cached_artifacts) == len(plain_artifacts) == 12
    _assert_identical(cached_artifacts, plain_artifacts)
    # Every worker materialized the sweep's one workload at most once.
    assert cache_stats["misses"] <= JOBS
    assert cache_stats["hits"] >= len(cached_artifacts) - JOBS

    # -- shared-memory fan-out variant: a real recorded pack ---------------
    pack = _big_recorded_pack()
    with Orchestrator(
        store=ResultStore(), jobs=JOBS, workload_cache=4
    ) as orchestrator:
        shm_artifacts = orchestrator.run_many(_recorded_requests(pack))
        shared = orchestrator.workload_cache_stats()["shared"]
    with Orchestrator(
        store=ResultStore(), jobs=JOBS, workload_cache=0
    ) as orchestrator:
        shm_plain = orchestrator.run_many(_recorded_requests(pack))
    _assert_identical(shm_artifacts, shm_plain)
    assert shared["segments"] == 1
    assert shared["bytes"] == pack.source.utilization.nbytes

    speedup = plain_elapsed / cached_elapsed
    report = {
        "benchmark": "workload_cache_cold_sweep",
        "jobs": JOBS,
        "runs": len(cached_artifacts),
        "horizon": HORIZON,
        "cpu_count": os.cpu_count(),
        "cached": {
            "elapsed_s": round(cached_elapsed, 3),
            "materialization_misses": cache_stats["misses"],
            "materialization_hits": cache_stats["hits"],
            "slot_hits": cache_stats["slot_hits"],
            "slot_misses": cache_stats["slot_misses"],
        },
        "cache_off": {"elapsed_s": round(plain_elapsed, 3)},
        "shared_memory": {
            "segments": shared["segments"],
            "bytes": shared["bytes"],
        },
        "speedup_cached_vs_off": round(speedup, 2),
        "bars": {"speedup_min": SPEEDUP_BAR},
    }
    (report_dir / "BENCH_workload.json").write_text(
        json.dumps(report, indent=2) + "\n"
    )

    lines = [
        f"workload-cache cold sweep ({len(cached_artifacts)} runs, "
        f"one workload, jobs={JOBS}, horizon {HORIZON})",
        f"  cache-off   : {plain_elapsed:7.2f}s",
        f"  cache+sticky: {cached_elapsed:7.2f}s "
        f"(hits {cache_stats['hits']}, misses {cache_stats['misses']})",
        f"  shm fan-out : {shared['segments']} segment, "
        f"{shared['bytes'] / (1 << 20):.2f} MiB shared once",
        f"  speedup     : {speedup:7.2f}x (bar: >= {SPEEDUP_BAR}x)",
    ]
    (report_dir / "workload_cache.txt").write_text("\n".join(lines) + "\n")
    print()
    for line in lines:
        print(line)

    assert speedup >= SPEEDUP_BAR, (
        f"workload cache speedup regressed: {speedup:.2f}x < "
        f"{SPEEDUP_BAR}x (cached {cached_elapsed:.2f}s vs "
        f"off {plain_elapsed:.2f}s)"
    )
