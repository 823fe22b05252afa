"""Wire envelopes for requests, artifacts and errors.

Every payload the daemon and client exchange is one JSON object with
two mandatory fields: ``wire_version`` and ``kind`` (``run_request`` /
``run_artifact`` / ``pending`` / ``error`` / ``run_batch`` /
``run_poll``).  Requests additionally carry the client-computed
fingerprint so the daemon can verify its decode reproduced the exact
run identity before touching the store; artifacts carry either the
serialized :class:`~repro.sim.results.RunResult` ledger
(``detail=full``, round-tripping bit-identically -- the same
``to_dict``/``from_dict`` pair the store uses) or the headline
projection (``detail=headline``,
:meth:`~repro.sim.results.RunResult.headline`).

There is one wire version, :data:`WIRE_VERSION`; an envelope carrying
any other is refused (the daemon answers ``400``).  Every client is in
this repository, so there is nothing to negotiate.

The codec (:mod:`repro.service.codec`) handles the object tree inside
``request``; this module owns the envelopes, so protocol evolution
(new kinds, new fields) is confined here.
"""

from __future__ import annotations

import math
from typing import Any, Callable

from repro.experiments.orchestrator import RunArtifact, RunRequest
from repro.service.codec import CodecError, decode, encode
from repro.sim.results import HeadlineResult, RunResult

__all__ = [
    "DETAIL_LEVELS",
    "FingerprintMismatch",
    "WIRE_VERSION",
    "WireError",
    "decode_artifact",
    "decode_batch",
    "decode_poll",
    "decode_request",
    "encode_artifact",
    "encode_batch",
    "encode_error",
    "encode_health",
    "encode_pending",
    "encode_poll",
    "encode_request",
]

#: Version of the wire envelopes and the codec's tag scheme.  Bump on
#: any change an old peer would misread.
WIRE_VERSION = 2

#: Artifact projection levels a client may request.
DETAIL_LEVELS = ("headline", "full")


class WireError(ValueError):
    """A payload violates the wire protocol (version, kind, shape)."""


class FingerprintMismatch(WireError):
    """A request's declared fingerprint disagrees with its content.

    Kept distinct from other wire errors because the daemon answers it
    with ``409 Conflict`` (the payload is well-formed; its *identity*
    is inconsistent -- almost always client/daemon codec drift).
    """


def _check_envelope(payload: Any, kind: str) -> dict:
    if not isinstance(payload, dict):
        raise WireError(f"expected a JSON object, got {type(payload).__name__}")
    version = payload.get("wire_version")
    if version != WIRE_VERSION:
        raise WireError(
            f"wire version mismatch: peer speaks {version!r}, this side "
            f"speaks {WIRE_VERSION}"
        )
    if payload.get("kind") != kind:
        raise WireError(
            f"expected a {kind!r} payload, got {payload.get('kind')!r}"
        )
    return payload


def check_detail(detail: Any) -> str:
    """Validate a ``detail`` field; returns it (default ``full``)."""
    if detail is None:
        return "full"
    if detail not in DETAIL_LEVELS:
        raise WireError(
            f"unknown detail level {detail!r}; choose from {DETAIL_LEVELS}"
        )
    return detail


def encode_request(
    request: RunRequest,
    fingerprint: str | None = None,
    use_store: bool = True,
    detail: str = "full",
) -> dict:
    """The ``POST /runs`` body (and batch entry) for ``request``.

    ``fingerprint`` defaults to the request's own; passing a
    precomputed one saves the client a second canonicalization pass.
    ``use_store=False`` asks the daemon to resimulate even on a store
    hit (the ``--no-cache`` path; the result is still recorded).
    """
    return {
        "wire_version": WIRE_VERSION,
        "kind": "run_request",
        "fingerprint": fingerprint or request.fingerprint(),
        "use_store": bool(use_store),
        "request": encode(request),
        "detail": check_detail(detail),
    }


def decode_request(payload: Any) -> tuple[RunRequest, str, bool]:
    """Decode and verify a ``run_request`` payload.

    Returns ``(request, fingerprint, use_store)``.  The declared
    fingerprint must match the decoded request's own -- a mismatch
    means codec drift (or a corrupted payload) and is refused before
    it can poison the store.
    """
    payload = _check_envelope(payload, "run_request")
    declared = payload.get("fingerprint")
    if not isinstance(declared, str):
        raise WireError("run_request payload lacks a fingerprint")
    try:
        request = decode(payload.get("request"))
    except CodecError as error:
        raise WireError(f"undecodable request: {error}") from None
    if not isinstance(request, RunRequest):
        raise WireError(
            f"payload decodes to {type(request).__name__}, not a RunRequest"
        )
    actual = request.fingerprint()
    if actual != declared:
        raise FingerprintMismatch(
            f"fingerprint mismatch: payload declares {declared[:12]}..., "
            f"decoded request hashes to {actual[:12]}... (codec drift?)"
        )
    return request, actual, bool(payload.get("use_store", True))


def encode_artifact(artifact: RunArtifact, detail: str = "full") -> dict:
    """The wire form of a resolved artifact.

    ``detail=full`` ships the complete ledger under ``result``;
    ``detail=headline`` ships the headline projection under
    ``headline`` instead.
    """
    payload = {
        "wire_version": WIRE_VERSION,
        "kind": "run_artifact",
        "fingerprint": artifact.fingerprint,
        "source": artifact.source,
        "elapsed_s": artifact.elapsed_s,
        "detail": check_detail(detail),
    }
    if detail == "headline":
        payload["headline"] = artifact.result.headline()
    else:
        payload["result"] = artifact.result.to_dict()
    return payload


def decode_artifact(
    payload: Any, fetch_full: Callable[[], RunResult] | None = None
) -> RunArtifact:
    """Rebuild a :class:`RunArtifact` from its wire form.

    ``detail=headline`` payloads decode to an artifact carrying a
    :class:`~repro.sim.results.HeadlineResult`; ``fetch_full`` (the
    service client supplies a per-fingerprint fetcher) is what lets
    that projection lazily upgrade to the full ledger on demand.
    """
    payload = _check_envelope(payload, "run_artifact")
    detail = check_detail(payload.get("detail"))
    if detail == "headline":
        headline = payload.get("headline")
        if not isinstance(headline, dict):
            raise WireError("headline artifact lacks a headline block")
        result: RunResult | HeadlineResult = HeadlineResult(
            headline, fetch_full=fetch_full
        )
    else:
        try:
            result = RunResult.from_dict(payload["result"])
        except (KeyError, TypeError, ValueError) as error:
            raise WireError(
                f"undecodable artifact result: {error}"
            ) from None
    return RunArtifact(
        fingerprint=payload.get("fingerprint", ""),
        result=result,
        source=payload.get("source", "service"),
        elapsed_s=float(payload.get("elapsed_s", 0.0)),
    )


def encode_batch(entries: list[dict], detail: str = "full") -> dict:
    """The ``POST /runs/batch`` body: encoded requests + one detail.

    ``entries`` are :func:`encode_request` envelopes (each carries its
    own ``use_store`` flag); the daemon answers one JSON line per
    entry (artifact / pending / error), in entry order, so a whole
    sweep submits in one round trip.
    """
    return {
        "wire_version": WIRE_VERSION,
        "kind": "run_batch",
        "detail": check_detail(detail),
        "entries": entries,
    }


def decode_batch(payload: Any) -> tuple[list[dict], str]:
    """Validate a batch envelope; returns ``(entries, detail)``.

    Entries are validated individually by the submit path (each is a
    full ``run_request`` envelope) -- this checks only the batch
    framing, so one malformed entry poisons its own disposition line,
    not the whole batch.
    """
    payload = _check_envelope(payload, "run_batch")
    entries = payload.get("entries")
    if not isinstance(entries, list) or not entries:
        raise WireError("run_batch payload needs a non-empty entries list")
    return entries, check_detail(payload.get("detail"))


def encode_poll(
    fingerprints: list[str],
    wait_s: float = 0.0,
    detail: str = "full",
) -> dict:
    """The ``POST /runs/poll`` body: settle many runs in one call.

    The fingerprint list travels in the body, so no URL length caps
    its size.  ``wait=0`` answers in one (compressible) body;
    ``wait>0`` long-poll streams JSON lines in completion order.
    """
    return {
        "wire_version": WIRE_VERSION,
        "kind": "run_poll",
        "fingerprints": list(fingerprints),
        "wait": float(wait_s),
        "detail": check_detail(detail),
    }


def decode_poll(payload: Any) -> tuple[list[str], float, str]:
    """Validate a poll envelope; returns ``(fingerprints, wait, detail)``."""
    payload = _check_envelope(payload, "run_poll")
    fingerprints = payload.get("fingerprints")
    if not isinstance(fingerprints, list) or not all(
        isinstance(item, str) for item in fingerprints
    ):
        raise WireError("run_poll payload needs a list of fingerprints")
    try:
        wait_s = float(payload.get("wait", 0.0))
    except (TypeError, ValueError):
        raise WireError("run_poll wait must be a number") from None
    if not math.isfinite(wait_s):
        raise WireError("run_poll wait must be finite")
    return fingerprints, wait_s, check_detail(payload.get("detail"))


def encode_pending(fingerprint: str) -> dict:
    """The ``202``/stream payload for a run still executing."""
    return {
        "wire_version": WIRE_VERSION,
        "kind": "pending",
        "fingerprint": fingerprint,
    }


def encode_health(
    daemon_id: str,
    jobs: int,
    inflight: int,
    queue_depth: int,
    workload_cache: dict | None = None,
    engine_modes: dict | None = None,
) -> dict:
    """The ``GET /healthz`` payload: liveness plus load.

    Besides the liveness fields this carries the
    member's identity and load so a fleet router can weight or skip
    saturated members without a second ``/stats`` round trip:
    ``jobs`` (executor width), ``inflight`` (runs executing or queued
    daemon-side) and ``queue_depth`` (``max(0, inflight - jobs)`` --
    work that cannot start until a slot frees).  ``workload_cache``
    (optional -- old daemons simply omit it) summarizes the member's
    workload materialization cache so ``repro fleet status`` can show
    cache efficacy per member without a ``/stats`` round trip.
    ``engine_modes`` (optional, same omission contract) counts the
    decoded submissions per simulation driver (``{"slot": N,
    "event": M}``) so the fleet view can show which engine cores a
    member has been serving.
    """
    payload = {
        "wire_version": WIRE_VERSION,
        "kind": "health",
        "status": "ok",
        "daemon_id": daemon_id,
        "jobs": int(jobs),
        "inflight": int(inflight),
        "queue_depth": int(queue_depth),
    }
    if workload_cache is not None:
        payload["workload_cache"] = workload_cache
    if engine_modes is not None:
        payload["engine_modes"] = engine_modes
    return payload


def encode_error(
    message: str,
    fingerprint: str | None = None,
    status: int = 400,
) -> dict:
    """An error payload (also used per-line on the stream endpoints)."""
    payload = {
        "wire_version": WIRE_VERSION,
        "kind": "error",
        "error": message,
        "status": status,
    }
    if fingerprint is not None:
        payload["fingerprint"] = fingerprint
    return payload
