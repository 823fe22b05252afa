"""Concurrent clients: cross-client dedup and abandoned connections."""

from __future__ import annotations

import json
import socket
import threading
import time
import urllib.request

from repro.service import ServiceClient
from repro.service.protocol import encode_poll, encode_request


def _stats(url: str) -> dict:
    with urllib.request.urlopen(f"{url}/stats", timeout=10) as response:
        return json.loads(response.read())


def _stats_settled(url: str) -> dict:
    """Stats once counters caught up (done callbacks trail waiters)."""
    deadline = time.monotonic() + 5.0
    while True:
        stats = _stats(url)
        if stats["inflight"] == 0 or time.monotonic() > deadline:
            return stats
        time.sleep(0.02)


class TestCrossClientDedup:
    def test_overlapping_submissions_execute_once(
        self, daemon, tiny_requests
    ):
        """Two clients racing the same grid: every miss runs once."""
        results: dict[int, list] = {}
        errors: list[BaseException] = []

        def hammer(slot: int) -> None:
            try:
                client = ServiceClient(daemon.url)
                results[slot] = client.run_many(tiny_requests)
                client.close()
            except BaseException as error:  # surfaced by the main thread
                errors.append(error)

        threads = [
            threading.Thread(target=hammer, args=(slot,)) for slot in (0, 1)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not errors
        assert set(results) == {0, 1}

        # Both clients got the full grid, bit-identically.
        a, b = results[0], results[1]
        assert [x.fingerprint for x in a] == [x.fingerprint for x in b]
        for x, y in zip(a, b):
            assert json.dumps(x.result.to_dict(), sort_keys=True) == (
                json.dumps(y.result.to_dict(), sort_keys=True)
            )

        # The daemon simulated each unique fingerprint exactly once --
        # the overlapping submissions deduplicated in flight.  (The
        # loser of each race may resolve via the fingerprint probe
        # without ever POSTing, so only a lower bound holds for
        # submitted.)
        stats = _stats_settled(daemon.url)
        assert stats["computed"] == len(tiny_requests)
        assert stats["errors"] == 0
        assert stats["submitted"] >= len(tiny_requests)

    def test_serial_daemon_also_dedups(self, daemon_factory, tiny_requests):
        """jobs=1 (inline execution) still dedups across clients."""
        daemon = daemon_factory(jobs=1)
        request = tiny_requests[0]
        outcomes = []

        def submit_one() -> None:
            client = ServiceClient(daemon.url)
            outcomes.append(client.run(request))
            client.close()

        threads = [threading.Thread(target=submit_one) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert len(outcomes) == 4
        assert _stats_settled(daemon.url)["computed"] == 1


class TestAbandonedConnections:
    def test_disconnect_mid_longpoll_does_not_wedge(
        self, daemon, tiny_requests
    ):
        """A client that vanishes mid-long-poll leaves the daemon healthy."""
        request = tiny_requests[0]
        fingerprint = request.fingerprint()
        body = json.dumps(encode_request(request)).encode()
        urllib.request.urlopen(
            urllib.request.Request(
                f"{daemon.url}/runs", data=body,
                headers={"Content-Type": "application/json"}, method="POST",
            ),
            timeout=10,
        ).read()

        # Open a raw long-poll on the pending run and slam the socket.
        host, port = daemon.address
        rogue = socket.create_connection((host, port), timeout=10)
        rogue.sendall(
            f"GET /runs/{fingerprint}?wait=30 HTTP/1.1\r\n"
            f"Host: {host}\r\n\r\n".encode()
        )
        time.sleep(0.05)
        rogue.close()

        # The daemon keeps answering other clients immediately...
        start = time.perf_counter()
        client = ServiceClient(daemon.url)
        assert client.ping()["status"] == "ok"
        assert time.perf_counter() - start < 5.0
        # ...and the abandoned run still completes and is served.
        artifact = client.run(request)
        assert artifact.fingerprint == fingerprint
        stats = _stats_settled(daemon.url)
        assert stats["computed"] == 1
        assert stats["errors"] == 0
        client.close()

    def test_disconnect_mid_stream_does_not_wedge(
        self, daemon, tiny_requests
    ):
        """Same for the streamed poll (``POST /runs/poll``, wait>0)."""
        fingerprints = []
        for request in tiny_requests[:2]:
            body = json.dumps(encode_request(request)).encode()
            urllib.request.urlopen(
                urllib.request.Request(
                    f"{daemon.url}/runs", data=body,
                    headers={"Content-Type": "application/json"},
                    method="POST",
                ),
                timeout=10,
            ).read()
            fingerprints.append(request.fingerprint())
        host, port = daemon.address
        poll = json.dumps(encode_poll(fingerprints, 30.0)).encode()
        rogue = socket.create_connection((host, port), timeout=10)
        rogue.sendall(
            f"POST /runs/poll HTTP/1.1\r\nHost: {host}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(poll)}\r\n\r\n".encode()
            + poll
        )
        time.sleep(0.05)
        rogue.close()

        client = ServiceClient(daemon.url)
        assert client.ping()["status"] == "ok"
        artifacts = client.run_many(tiny_requests[:2])
        assert [a.fingerprint for a in artifacts] == fingerprints
        client.close()
