"""Experiment-service benchmarks: warm wire throughput under load.

The service's job is to let many clients share one warm store, so the
headline number is *cached* artifacts served per second: one daemon
(segment-backed store, pre-warmed with a 64-fingerprint grid at tiny
scale) serving :data:`N_CLIENTS` concurrent
:class:`~repro.service.client.ServiceClient` threads.

Three wire modes are measured in the same run:

``single_post_identity``
    The single-POST shape: one ``POST /runs`` per artifact, no
    compression.  This is the baseline the lean-wire work is judged
    against.
``batch_identity``
    ``submit_many`` over ``POST /runs/poll`` (headline detail), still
    uncompressed -- isolates the batching win.
``batch_gzip``
    The full lean-wire path: batched, gzip-encoded, headline-projected
    responses assembled from the daemon's pre-compressed cache.

Gates (asserted, and recorded in ``benchmarks/reports/``):

* ``batch_gzip``    >= :data:`BATCH_RATE_BAR` warm artifacts/s,
* ``batch_gzip``    >= :data:`SPEEDUP_BAR` x ``single_post_identity``,
* ``single_post_identity`` >= :data:`SINGLE_RATE_BAR` (the original
  ROADMAP bar -- the single-POST shape must not regress).

Note both sides of the exchange run in this one process (8 clients +
the daemon share the GIL), so the daemon alone clears the bars with
headroom.  The machine-readable ``BENCH_service.json`` lands next to
``BENCH_green.json`` for the nightly trajectory.

The daemon's store is left under ``benchmarks/reports/service_store``:
the nightly workflow compacts it with ``repro store compact`` after
the smoke suite, exercising the scheduled-compaction path end to end.
"""

from __future__ import annotations

import json
import shutil
import threading
import time

from repro.experiments.orchestrator import (
    Orchestrator,
    ResultStore,
    RunRequest,
)
from repro.experiments.runner import default_policies
from repro.service import ExperimentDaemon, ServiceClient
from repro.service.protocol import encode_request
from repro.sim.config import scaled_config

from conftest import REPORT_DIR

#: Concurrent client threads (the acceptance bar's fixed fan-in).
N_CLIENTS = 8

#: Distinct seeds in the warm grid; x4 policies = warm fingerprints.
WARM_SEEDS = 16

#: Minimum warm throughput of the batched+compressed path.
BATCH_RATE_BAR = 8_000.0

#: Minimum speedup of the batched+compressed path over single-POST.
SPEEDUP_BAR = 3.0

#: The original single-POST bar (the single-POST shape must not
#: regress).
SINGLE_RATE_BAR = 1_000.0

#: How long each mode's measurement hammers the daemon.
MEASURE_S = 2.0

#: Store root handed to the nightly ``repro store compact`` step.
SERVICE_STORE = REPORT_DIR / "service_store"


def _requests() -> list[RunRequest]:
    """The warm grid: 4 policies x WARM_SEEDS distinct fingerprints."""
    requests = []
    for seed in range(WARM_SEEDS):
        config = scaled_config("tiny", seed=seed).with_horizon(2)
        requests.extend(
            RunRequest(config=config, policy=policy)
            for policy in default_policies()
        )
    return requests


def _start_daemon() -> tuple[ExperimentDaemon, list[RunRequest]]:
    """A daemon over a segment store pre-warmed with the grid."""
    shutil.rmtree(SERVICE_STORE, ignore_errors=True)
    SERVICE_STORE.parent.mkdir(exist_ok=True)
    store = ResultStore(SERVICE_STORE, backend="segment")
    orchestrator = Orchestrator(store=store, jobs=2)
    requests = _requests()
    orchestrator.run_many(requests)  # warm the store
    daemon = ExperimentDaemon(orchestrator).start()
    return daemon, requests


def _measure(make_client, iterate, prime) -> dict:
    """Fan N_CLIENTS threads at the daemon; one mode's throughput.

    Every thread builds its client, primes it (connection + response
    cache variants) *before* the barrier, then serves until the bell.
    """
    counts = [0] * N_CLIENTS
    barrier = threading.Barrier(N_CLIENTS + 1)
    bell: dict[str, float] = {}

    def body(slot: int) -> None:
        client = make_client()
        prime(client)
        barrier.wait()
        served = 0
        while time.perf_counter() < bell["stop_at"]:
            served += iterate(client)
        counts[slot] = served
        client.close()

    threads = [
        threading.Thread(target=body, args=(slot,))
        for slot in range(N_CLIENTS)
    ]
    for thread in threads:
        thread.start()
    start = time.perf_counter()
    bell["stop_at"] = start + MEASURE_S
    barrier.wait()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - start
    served = sum(counts)
    return {
        "artifacts_served": served,
        "elapsed_s": round(elapsed, 4),
        "rate_per_s": round(served / elapsed, 1),
    }


def test_service_warm_wire_throughput(report_dir):
    """Gates: batched+gzip >= 8k warm artifacts/s and >= 3x single-POST."""
    daemon, requests = _start_daemon()
    try:
        url = daemon.url
        # Pre-encode the single-POST wire payloads once: that mode
        # measures the *daemon's* warm path, not client-side
        # canonicalization cost.
        payloads = [
            json.dumps(encode_request(request)).encode()
            for request in requests
        ]

        def single_iterate(client: ServiceClient) -> int:
            for body in payloads:
                status, payload = client._request(
                    "POST", "/runs", body=body
                )
                assert status == 200, (status, payload)
            return len(payloads)

        def batch_iterate(client: ServiceClient) -> int:
            artifacts = client.run_many(requests)
            assert len(artifacts) == len(requests)
            return len(artifacts)

        def single_prime(client: ServiceClient) -> None:
            single_iterate(client)

        def batch_prime(client: ServiceClient) -> None:
            client.ping()
            batch_iterate(client)

        modes = {
            "single_post_identity": _measure(
                lambda: ServiceClient(url, compress=False),
                single_iterate,
                single_prime,
            ),
            "batch_identity": _measure(
                lambda: ServiceClient(
                    url, compress=False, detail="headline"
                ),
                batch_iterate,
                batch_prime,
            ),
            "batch_gzip": _measure(
                lambda: ServiceClient(
                    url, compress=True, detail="headline"
                ),
                batch_iterate,
                batch_prime,
            ),
        }
        stats = ServiceClient(url).stats()
    finally:
        daemon.close()

    single_rate = modes["single_post_identity"]["rate_per_s"]
    batch_rate = modes["batch_gzip"]["rate_per_s"]
    speedup = batch_rate / single_rate
    report = {
        "benchmark": "service_warm_wire_throughput",
        "n_clients": N_CLIENTS,
        "warm_fingerprints": len(requests),
        "measure_s": MEASURE_S,
        "modes": modes,
        "speedup_batch_gzip_vs_single_post": round(speedup, 2),
        "bars": {
            "batch_gzip_min_per_s": BATCH_RATE_BAR,
            "speedup_min": SPEEDUP_BAR,
            "single_post_min_per_s": SINGLE_RATE_BAR,
        },
        "wire": stats["wire"],
    }
    path = report_dir / "BENCH_service.json"
    path.write_text(json.dumps(report, indent=2) + "\n")

    lines = [
        f"experiment service warm wire throughput "
        f"({N_CLIENTS} concurrent clients, {len(requests)} warm "
        f"fingerprints, {MEASURE_S:.1f}s per mode)",
    ]
    for name, mode in modes.items():
        lines.append(
            f"  {name:<22}: {mode['rate_per_s']:>9.0f} artifacts/s "
            f"({mode['artifacts_served']} in {mode['elapsed_s']:.2f}s)"
        )
    lines.append(
        f"  batch_gzip / single   : {speedup:9.2f}x "
        f"(bars: >= {BATCH_RATE_BAR:.0f}/s and >= {SPEEDUP_BAR:.0f}x)"
    )
    (report_dir / "service_throughput.txt").write_text(
        "\n".join(lines) + "\n"
    )
    print()
    for line in lines:
        print(line)

    assert batch_rate >= BATCH_RATE_BAR, (
        f"batched+gzip rate {batch_rate:.0f}/s below the "
        f"{BATCH_RATE_BAR:.0f}/s bar"
    )
    assert speedup >= SPEEDUP_BAR, (
        f"batched+gzip is only {speedup:.2f}x single-POST "
        f"(bar: {SPEEDUP_BAR:.0f}x)"
    )
    assert single_rate >= SINGLE_RATE_BAR, (
        f"single-POST rate {single_rate:.0f}/s regressed below the "
        f"{SINGLE_RATE_BAR:.0f}/s bar"
    )
    # Every serve after the warm-up must be a cache hit, not a sim.
    assert stats["computed"] == 0


def test_service_roundtrip_latency(benchmark, report_dir):
    """Single-client warm round-trip (submit -> artifact) latency."""
    daemon, requests = _start_daemon()
    client = ServiceClient(daemon.url)
    request = requests[0]
    client.run(request)  # prime the response cache

    def roundtrip():
        artifact = client.run(request)
        assert artifact.fingerprint == request.fingerprint()

    try:
        benchmark(roundtrip)
    finally:
        client.close()
        daemon.close()
