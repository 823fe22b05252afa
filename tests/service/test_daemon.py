"""Daemon endpoints: submit/poll/stream semantics over real HTTP."""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.request
from concurrent.futures import Future

from repro.experiments.orchestrator import RunFuture, RunRequest
from repro.service.protocol import (
    WIRE_VERSION,
    encode_batch,
    encode_poll,
    encode_request,
)
from repro.workload.packs import (
    RecordedTraceSource,
    TracePack,
)

import numpy as np


def get(url, path):
    try:
        with urllib.request.urlopen(url + path, timeout=10) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


def post(url, path, payload):
    body = json.dumps(payload).encode()
    request = urllib.request.Request(
        url + path,
        data=body,
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


def poll_stream(url, fingerprints, wait_s=60.0):
    """``POST /runs/poll`` with ``wait>0``: the streamed JSON lines."""
    request = urllib.request.Request(
        url + "/runs/poll",
        data=json.dumps(encode_poll(fingerprints, wait_s)).encode(),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    with urllib.request.urlopen(request, timeout=wait_s + 30) as response:
        return [json.loads(line) for line in response if line.strip()]


class TestHealthAndStats:
    def test_healthz(self, daemon):
        status, payload = get(daemon.url, "/healthz")
        assert status == 200
        workload_cache = payload.pop("workload_cache")
        assert workload_cache["enabled"] == (
            daemon.orchestrator.workload_cache > 0
        )
        # No submissions decoded yet: the engine-mode counts are empty.
        assert payload.pop("engine_modes") == {}
        assert payload == {
            "wire_version": WIRE_VERSION,
            "kind": "health",
            "status": "ok",
            "daemon_id": daemon.daemon_id,
            "jobs": daemon.orchestrator.jobs,
            "inflight": 0,
            "queue_depth": 0,
        }
        # The default identity is the bound host:port.
        host, port = daemon.address
        assert payload["daemon_id"] == f"{host}:{port}"

    def test_stats_shape(self, daemon):
        status, payload = get(daemon.url, "/stats")
        assert status == 200
        for key in ("submitted", "hits", "computed", "errors", "inflight",
                    "store", "jobs", "uptime_s", "daemon_id",
                    "queue_depth"):
            assert key in payload
        assert payload["daemon_id"] == daemon.daemon_id

    def test_unknown_endpoint_404(self, daemon):
        status, payload = get(daemon.url, "/nope")
        assert status == 404
        assert payload["kind"] == "error"


class TestSubmitAndPoll:
    def test_miss_then_longpoll_then_hit(self, daemon, tiny_requests):
        request = tiny_requests[0]
        fingerprint = request.fingerprint()
        status, payload = post(daemon.url, "/runs", encode_request(request))
        assert status == 202
        assert payload["kind"] == "pending"
        assert payload["fingerprint"] == fingerprint

        status, payload = get(
            daemon.url, f"/runs/{fingerprint}?wait=30"
        )
        assert status == 200
        assert payload["kind"] == "run_artifact"
        assert payload["fingerprint"] == fingerprint

        # Resubmission is now an instant store hit.
        status, payload = post(daemon.url, "/runs", encode_request(request))
        assert status == 200
        assert payload["kind"] == "run_artifact"
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            stats = get(daemon.url, "/stats")[1]
            if stats["computed"] == 1:
                break
            time.sleep(0.02)
        assert stats["computed"] == 1
        assert stats["hits"] >= 1

    def test_unknown_fingerprint_404(self, daemon):
        status, payload = get(daemon.url, f"/runs/{'0' * 64}")
        assert status == 404 or payload["kind"] == "error"

    def test_poll_without_wait_reports_pending(self, daemon, tiny_requests):
        request = tiny_requests[1]
        fingerprint = request.fingerprint()
        status, _ = post(daemon.url, "/runs", encode_request(request))
        assert status == 202
        status, payload = get(daemon.url, f"/runs/{fingerprint}")
        assert status in (200, 202)  # 202 unless the run won the race
        # Drain so teardown doesn't race the executing run.
        status, payload = get(daemon.url, f"/runs/{fingerprint}?wait=30")
        assert status == 200

    def test_malformed_body_400(self, daemon):
        import http.client

        connection = http.client.HTTPConnection(*daemon.address, timeout=10)
        connection.request(
            "POST", "/runs", body=b"{not json",
            headers={"Content-Type": "application/json"},
        )
        response = connection.getresponse()
        assert response.status == 400
        connection.close()

    def test_version_mismatch_400(self, daemon, tiny_requests):
        """Any version but WIRE_VERSION -- the retired 1 included --
        is refused on every POST endpoint."""
        request = tiny_requests[0]
        for version in (1, 99):
            envelopes = {
                "/runs": encode_request(request),
                "/runs/batch": encode_batch([encode_request(request)]),
                "/runs/poll": encode_poll([request.fingerprint()]),
            }
            for path, payload in envelopes.items():
                payload["wire_version"] = version
                status, answer = post(daemon.url, path, payload)
                assert status == 400, (version, path)
                assert "version" in answer["error"], (version, path)
        assert daemon.counters["computed"] == 0

    def test_version_checked_even_on_warm_fingerprints(
        self, daemon, tiny_requests
    ):
        """The warm fast path must not serve a mismatched peer."""
        request = tiny_requests[0]
        post(daemon.url, "/runs", encode_request(request))
        get(daemon.url, f"/runs/{request.fingerprint()}?wait=30")
        warm = encode_request(request)
        status, _ = post(daemon.url, "/runs", warm)
        assert status == 200  # cached
        for version in (1, 99):
            bad = dict(warm)
            bad["wire_version"] = version
            status, answer = post(daemon.url, "/runs", bad)
            assert status == 400
            assert "wire version" in answer["error"]

    def test_fingerprint_mismatch_409(self, daemon, tiny_requests):
        payload = encode_request(tiny_requests[0])
        payload["fingerprint"] = "f" * 64
        status, answer = post(daemon.url, "/runs", payload)
        assert status == 409
        assert "mismatch" in answer["error"]

    def test_failing_run_reports_500(self, daemon_factory, tiny_config):
        daemon = daemon_factory(jobs=1)
        # A pack serving 30 steps/slot against a config expecting
        # tiny's slotting fails inside the engine build -- a genuine
        # execution-time error on the daemon.
        pack = TracePack(
            name="mismatched",
            source=RecordedTraceSource(
                utilization=np.full((3, 60), 0.5), steps_per_slot=60
            ),
        )
        from repro.experiments.runner import default_policies

        request = RunRequest(
            config=tiny_config, policy=default_policies()[0], pack=pack
        )
        status, payload = post(daemon.url, "/runs", encode_request(request))
        assert status == 202  # even serial daemons answer promptly
        status, payload = get(
            daemon.url, f"/runs/{request.fingerprint()}?wait=30"
        )
        assert status == 500
        assert payload["kind"] == "error"
        assert "steps per slot" in payload["error"]
        # The streamed poll reports the recorded error too (the run
        # is neither stored nor in flight by now -- it must not be
        # misreported as an unknown fingerprint).
        lines = poll_stream(daemon.url, [request.fingerprint()], 1.0)
        assert lines[0]["kind"] == "error"
        assert lines[0]["status"] == 500
        assert "steps per slot" in lines[0]["error"]
        # Counters update in done callbacks, which can trail the poll
        # that observed the failure by an instant.
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            stats = get(daemon.url, "/stats")[1]
            if stats["errors"] == 1:
                break
            time.sleep(0.02)
        assert stats["errors"] == 1


class TestStreamEndpoint:
    """``POST /runs/poll`` with ``wait>0`` streams in completion order."""

    def test_stream_returns_all_in_completion_order(
        self, daemon, tiny_requests
    ):
        fingerprints = []
        for request in tiny_requests:
            status, _ = post(daemon.url, "/runs", encode_request(request))
            assert status in (200, 202)
            fingerprints.append(request.fingerprint())
        lines = poll_stream(daemon.url, fingerprints)
        kinds = {line["kind"] for line in lines}
        assert kinds == {"run_artifact"}
        assert {line["fingerprint"] for line in lines} == set(fingerprints)
        assert all(line["wire_version"] == WIRE_VERSION for line in lines)

    def test_stream_requires_fingerprints(self, daemon):
        payload = encode_poll([], 1.0)
        del payload["fingerprints"]
        status, answer = post(daemon.url, "/runs/poll", payload)
        assert status == 400
        assert "fingerprints" in answer["error"]

    def test_stream_reports_unknown_fingerprints(self, daemon):
        lines = poll_stream(daemon.url, ["0" * 64], 1.0)
        assert lines[0]["kind"] == "error"
        assert lines[0]["status"] == 404

    def test_retired_stream_route_is_gone(self, daemon, tiny_requests):
        status, _ = get(
            daemon.url, f"/runs?fp={tiny_requests[0].fingerprint()}"
        )
        assert status == 404


class TestNonFiniteWait:
    def test_nan_wait_refused_promptly(
        self, daemon, tiny_requests, monkeypatch
    ):
        """A NaN deadline never expires: it must be refused up front,
        not spin the handler until the run finishes."""
        gate: Future = Future()
        monkeypatch.setattr(
            daemon.orchestrator,
            "launch",
            lambda request, fingerprint: RunFuture(
                request, fingerprint, gate
            ),
        )
        request = tiny_requests[0]
        fingerprint = request.fingerprint()
        try:
            status, _ = post(daemon.url, "/runs", encode_request(request))
            assert status == 202
            for spelling in ("nan", "inf", "-inf"):
                start = time.monotonic()
                status, answer = get(
                    daemon.url, f"/runs/{fingerprint}?wait={spelling}"
                )
                assert status == 400, spelling
                assert "finite" in answer["error"]
                assert time.monotonic() - start < 2.0
            status, _ = get(daemon.url, f"/runs/{fingerprint}")
            assert status == 202  # the run itself is untouched
        finally:
            gate.set_exception(RuntimeError("released by the test"))
