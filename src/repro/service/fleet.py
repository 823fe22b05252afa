"""Fingerprint-routed fan-out of run execution over many daemons.

:class:`FleetClient` implements the same
:class:`~repro.experiments.orchestrator.Orchestrator` consumer surface
as :class:`~repro.service.client.ServiceClient` -- ``submit`` /
``submit_many`` / ``as_done`` / ``as_resolved`` / ``run`` /
``run_many`` / ``with_jobs`` -- against *many* daemon URLs at once, so
``--service URL1,URL2,URL3`` scales a cold sweep's miss execution
across hosts with zero changes to runner/scenarios/pareto/sensitivity
logic.  The members must share one store root (the segment backend is
lock-free under concurrent writers, so N daemons over one root is the
supported deployment); warm hits then resolve on whichever member is
asked.

Routing
-------

Each fingerprint is routed with rendezvous (highest-random-weight)
hashing: every member key is scored by ``sha256(key + "|" +
fingerprint)`` and the highest score wins.  The scoring needs no
coordination and no agreed member *order* -- any two clients
configured with the same member set route every fingerprint to the
same daemon, so a miss executes exactly once fleet-wide (the winning
daemon's in-flight registry dedups concurrent submissions, and the
shared store dedups across time).  When a member is added or removed
only ~1/N of the keyspace moves, unlike modulo hashing which
reshuffles nearly everything.

Failover
--------

Member failures surface as
:class:`~repro.service.client.ServiceUnavailable` (connection-level:
refused, reset, timed out, stream died).  The fleet marks the member
down and re-routes its unresolved fingerprints over the survivors.
This is safe, not just live: re-execution is idempotent -- the same
fingerprint reproduces byte-identical artifacts anywhere in the fleet
(simulations are deterministic functions of the request) and the
shared store dedups whichever copy lands -- so the worst case of a
kill mid-sweep is some duplicated *work*, never lost or duplicated
*artifacts*.  Protocol-level rejections (a :class:`ServiceError`
that was cleanly delivered) are not failover events; they surface.

A member marked down stays down for routing until :meth:`ping` or
:meth:`status` observes it healthy again.
"""

from __future__ import annotations

import hashlib
import queue
import threading
import time
from concurrent.futures import Future, InvalidStateError
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

from repro.experiments.orchestrator import (
    RunArtifact,
    RunFuture,
    RunRequest,
)
from repro.service.client import (
    ServiceClient,
    ServiceError,
    ServiceUnavailable,
)
from repro.service.protocol import check_detail

__all__ = [
    "FleetClient",
    "parse_fleet_spec",
    "rendezvous_member",
]


def rendezvous_member(fingerprint: str, member_keys: Sequence[str]) -> str:
    """The member that owns ``fingerprint``, by rendezvous hashing.

    Order-independent and coordination-free: every caller that agrees
    on the member *set* agrees on the winner.  Ties (impossible in
    practice for SHA-256, but the contract should not rely on that)
    break toward the lexicographically larger key.
    """
    if not member_keys:
        raise ServiceUnavailable("no fleet members to route to")
    return max(
        member_keys,
        key=lambda key: (
            hashlib.sha256(f"{key}|{fingerprint}".encode()).digest(),
            key,
        ),
    )


def rendezvous_order(
    fingerprint: str, member_keys: Sequence[str]
) -> list[str]:
    """Every member in failover order for ``fingerprint``.

    The head is :func:`rendezvous_member`'s winner; dropping a dead
    head leaves exactly the order the survivors would compute, which
    is what makes walking this list a correct failover policy.
    """
    return sorted(
        member_keys,
        key=lambda key: (
            hashlib.sha256(f"{key}|{fingerprint}".encode()).digest(),
            key,
        ),
        reverse=True,
    )


def parse_fleet_spec(spec) -> list[str]:
    """Member URLs from a ``--service`` value.

    Accepts a list/tuple of URLs, a comma-separated string, an
    ``@path`` reference to a fleet file, or a bare path to an existing
    file.  Fleet files hold one URL per line; blank lines and ``#``
    comments are skipped.  Duplicates collapse (first occurrence
    wins); an empty spec is refused.
    """
    if isinstance(spec, (list, tuple)):
        urls = [str(item).strip() for item in spec]
    else:
        text = str(spec).strip()
        if text.startswith("@"):
            urls = _read_fleet_file(Path(text[1:]))
        elif "," in text:
            urls = text.split(",")
        elif "//" not in text and ":" not in text and Path(text).is_file():
            urls = _read_fleet_file(Path(text))
        else:
            urls = [text]
    cleaned = list(dict.fromkeys(url.strip() for url in urls if url.strip()))
    if not cleaned:
        raise ServiceError(f"fleet spec names no members: {spec!r}")
    return cleaned


def _read_fleet_file(path: Path) -> list[str]:
    try:
        text = path.read_text()
    except OSError as error:
        raise ServiceError(
            f"cannot read fleet file {path}: {error}"
        ) from None
    lines = []
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if line:
            lines.append(line)
    return lines


class _Member:
    """One daemon in the fleet: its client plus health bookkeeping."""

    __slots__ = ("key", "client", "alive", "error", "health")

    def __init__(self, key: str, client: ServiceClient) -> None:
        self.key = key
        self.client = client
        self.alive = True
        self.error: str | None = None
        self.health: dict = {}


class _Entry:
    """One unresolved fingerprint: where it lives and who waits on it.

    ``future`` is the fleet-level future every handle wraps; it
    survives failovers.  ``member_key``/``member_future`` are the
    *current* placement and are rewritten when the member dies.
    """

    __slots__ = (
        "request",
        "fingerprint",
        "use_store",
        "detail",
        "future",
        "member_key",
        "member_future",
    )

    def __init__(
        self,
        request: RunRequest,
        fingerprint: str,
        use_store: bool,
        detail: str | None,
    ) -> None:
        self.request = request
        self.fingerprint = fingerprint
        self.use_store = use_store
        self.detail = detail
        self.future: Future = Future()
        self.member_key: str = ""
        self.member_future: RunFuture | None = None


class FleetClient:
    """Resolve run requests against a fleet of experiment daemons.

    Construction does not touch the network; the first submission (or
    an explicit :meth:`ping`) does.  Constructor parameters mirror
    :class:`~repro.service.client.ServiceClient` and are forwarded to
    every per-member client; ``urls`` additionally accepts anything
    :func:`parse_fleet_spec` does.
    """

    def __init__(
        self,
        urls,
        use_store: bool = True,
        progress: Callable[[int, int], None] | None = None,
        timeout_s: float = 10.0,
        detail: str = "full",
        compress: bool = True,
        poll_wait_s: float | None = None,
    ) -> None:
        self.use_store = use_store
        self.progress = progress
        self.detail = check_detail(detail)
        self.jobs = 0  # execution capacity lives daemon-side
        self._members: dict[str, _Member] = {}
        for url in parse_fleet_spec(urls):
            client = ServiceClient(
                url,
                use_store=use_store,
                timeout_s=timeout_s,
                detail=detail,
                compress=compress,
                poll_wait_s=poll_wait_s,
            )
            # Keyed by the *normalized* URL so clients configured with
            # cosmetically different spellings still agree on routing.
            self._members.setdefault(
                client.url, _Member(client.url, client)
            )
        self._lock = threading.Lock()
        self._entries: dict[str, _Entry] = {}

    # -- membership and routing --------------------------------------------

    @property
    def urls(self) -> list[str]:
        """The normalized member URLs (stable order)."""
        return sorted(self._members)

    def _alive_keys(self) -> list[str]:
        with self._lock:
            return [
                key
                for key, member in self._members.items()
                if member.alive
            ]

    def member_for(self, fingerprint: str) -> str:
        """The member URL currently owning ``fingerprint``."""
        alive = self._alive_keys()
        if not alive:
            raise ServiceUnavailable(self._exhausted_message())
        return rendezvous_member(fingerprint, alive)

    def _exhausted_message(self) -> str:
        with self._lock:
            details = "; ".join(
                f"{key}: {member.error or 'down'}"
                for key, member in sorted(self._members.items())
            )
        return f"all fleet members are unavailable ({details})"

    def _mark_down(self, member_key: str, error: BaseException) -> None:
        with self._lock:
            member = self._members.get(member_key)
            if member is not None and member.alive:
                member.alive = False
                member.error = str(error)

    # -- entry plumbing ----------------------------------------------------

    def _forget(self, fingerprint: str) -> None:
        with self._lock:
            self._entries.pop(fingerprint, None)

    def _settle_entry(self, entry: _Entry) -> None:
        """Copy a done member future's outcome into the fleet future."""
        member_future = entry.member_future
        if member_future is None or not member_future.done():
            return
        error = member_future.exception(timeout=0)
        try:
            if error is None:
                entry.future.set_result(member_future.result(timeout=0))
            else:
                entry.future.set_exception(error)
        except InvalidStateError:
            pass  # a concurrent path settled it first

    def _register(
        self,
        request: RunRequest,
        fingerprint: str,
        use_store: bool,
        detail: str | None,
    ) -> tuple[_Entry, bool]:
        """The entry for a fingerprint, creating it if absent.

        Returns ``(entry, created)``.  Duplicate submissions -- same
        fingerprint, any handle -- share one entry and therefore one
        fleet future, mirroring the daemon's own in-flight dedup.
        """
        with self._lock:
            existing = self._entries.get(fingerprint)
            if existing is not None:
                return existing, False
            entry = _Entry(request, fingerprint, use_store, detail)
            self._entries[fingerprint] = entry
        entry.future.add_done_callback(
            lambda _done, fp=fingerprint: self._forget(fp)
        )
        return entry, True

    def _assign(self, entries: list[_Entry]) -> None:
        """Place entries on members, spraying per-member in parallel.

        Loops until every entry is placed or every member is down (in
        which case the stranded futures fail with the exhaustion
        error).  A member that dies mid-spray is marked down and its
        share rerouted on the next pass -- the failover path and the
        happy path are one code path.
        """
        remaining = [
            entry for entry in entries if not entry.future.done()
        ]
        while remaining:
            alive = self._alive_keys()
            if not alive:
                error = ServiceUnavailable(self._exhausted_message())
                for entry in remaining:
                    try:
                        entry.future.set_exception(error)
                    except InvalidStateError:
                        pass
                return
            groups: dict[str, list[_Entry]] = {}
            for entry in remaining:
                key = rendezvous_member(entry.fingerprint, alive)
                groups.setdefault(key, []).append(entry)
            failed: list[_Entry] = []
            failed_lock = threading.Lock()

            def spray(member_key: str, group: list[_Entry]) -> None:
                member = self._members[member_key]
                # Entries can disagree on use_store/detail; batch the
                # agreeing runs together.
                subgroups: dict[tuple, list[_Entry]] = {}
                for entry in group:
                    subgroups.setdefault(
                        (entry.use_store, entry.detail), []
                    ).append(entry)
                for (use_store, detail), sub in subgroups.items():
                    try:
                        member_futures = member.client.submit_many(
                            [entry.request for entry in sub],
                            use_store=use_store,
                            detail=detail,
                        )
                    except ServiceUnavailable as error:
                        self._mark_down(member_key, error)
                        with failed_lock:
                            failed.extend(sub)
                        continue
                    for entry, member_future in zip(sub, member_futures):
                        with self._lock:
                            entry.member_key = member_key
                            entry.member_future = member_future
                        if member_future.done():
                            self._settle_entry(entry)

            if len(groups) == 1:
                spray(*next(iter(groups.items())))
            else:
                threads = [
                    threading.Thread(
                        target=spray, args=(key, group), daemon=True
                    )
                    for key, group in groups.items()
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join()
            remaining = failed

    def _failover(self, member_key: str, error: BaseException) -> None:
        """Mark a member down and reroute its unresolved entries."""
        self._mark_down(member_key, error)
        with self._lock:
            stranded = [
                entry
                for entry in self._entries.values()
                if entry.member_key == member_key
                and not entry.future.done()
            ]
        if stranded:
            self._assign(stranded)

    def _await(self, fingerprint: str, timeout: float | None) -> None:
        """Block until one fingerprint settles, failing members over."""
        deadline = (
            None if timeout is None else time.monotonic() + timeout
        )
        while True:
            with self._lock:
                entry = self._entries.get(fingerprint)
            if entry is None or entry.future.done():
                return
            member_future = entry.member_future
            member_key = entry.member_key
            if member_future is None:
                # Mid-reassignment; the spray loop will place it.
                time.sleep(0.01)
                continue
            if member_future.done():
                self._settle_entry(entry)
                return
            remaining = None
            if deadline is not None:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise TimeoutError(
                        f"run {fingerprint[:12]}... still pending"
                    )
            try:
                member_future.result(remaining)
            except ServiceUnavailable as error:
                self._failover(member_key, error)
            except TimeoutError:
                raise
            except BaseException:
                if member_future.done():
                    # The run itself failed daemon-side; that outcome
                    # is terminal and propagates via the fleet future.
                    self._settle_entry(entry)
                    return
                raise  # a protocol-level error from the poll itself
            else:
                self._settle_entry(entry)
                return

    # -- the orchestrator surface ------------------------------------------

    def with_jobs(self, jobs: int) -> "FleetClient":
        """No-op for API compatibility: capacity is the members'."""
        return self

    def with_meta(self, extra: dict) -> "FleetClient":
        """Forward meta stamps (the campaign header) to every member."""
        for member in self._members.values():
            member.client.with_meta(extra)
        return self

    def lookup(self, request, fingerprint: str) -> RunFuture | None:
        """A warm-only store read, tried fleet-wide.

        Members share one store root, so the rendezvous owner answers
        first; a down owner fails over to the remaining members in
        routing order (a miss on any live member is authoritative --
        the store is shared).
        """
        alive = self._alive_keys()
        for key in rendezvous_order(fingerprint, alive):
            member = self._members[key]
            try:
                return member.client.lookup(request, fingerprint)
            except ServiceUnavailable as error:
                self._mark_down(key, error)
        return None

    def close(self) -> None:
        """Drop every member's keep-alive connection (idempotent)."""
        for member in self._members.values():
            member.client.close()

    def __enter__(self) -> "FleetClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def submit(
        self,
        request: RunRequest,
        use_store: bool | None = None,
        detail: str | None = None,
    ) -> RunFuture:
        """Submit one request to the member that owns its fingerprint."""
        return self.submit_many(
            [request], use_store=use_store, detail=detail
        )[0]

    def submit_many(
        self,
        requests: Sequence[RunRequest],
        use_store: bool | None = None,
        detail: str | None = None,
    ) -> list[RunFuture]:
        """Submit a batch, partitioned per member by rendezvous.

        Per-member shares go out as that member's own chunked
        ``submit_many`` on parallel threads, so fleet submission
        latency is the *slowest member's* share, not the sum.
        Duplicate fingerprints -- within the batch or against earlier
        submissions -- share one fleet future.
        """
        if use_store is None:
            use_store = self.use_store
        if detail is not None:
            detail = check_detail(detail)
        order: list[str] = []
        handles: dict[str, RunFuture] = {}
        created: list[_Entry] = []
        for request in requests:
            fingerprint = request.fingerprint()
            order.append(fingerprint)
            if fingerprint in handles:
                continue
            entry, fresh = self._register(
                request, fingerprint, use_store, detail
            )
            if fresh:
                created.append(entry)
            handles[fingerprint] = _FleetRunFuture(
                self, request, fingerprint, entry.future
            )
        if created:
            self._assign(created)
        return [handles[fingerprint] for fingerprint in order]

    def _notify(self, done: int, total: int) -> None:
        if self.progress is not None:
            self.progress(done, total)

    def as_done(
        self, futures: Iterable[RunFuture], timeout: float | None = None
    ) -> Iterator[RunFuture]:
        """Yield unique futures as members complete their runs.

        The per-member ``as_done`` poll streams are pumped on
        background threads and merged here in arrival order, so a
        fast member's completions are never gated on a slow (or dead)
        member's long-poll.  A pump that dies with
        :class:`ServiceUnavailable` triggers failover: the member's
        unresolved fingerprints are rerouted and fresh pumps cover
        them on the survivors.
        """
        unique = list(dict.fromkeys(futures))
        total = len(unique)
        done = 0
        waiting: dict[str, list[RunFuture]] = {}
        for future in unique:
            if future.done():
                done += 1
                self._notify(done, total)
                yield future
            else:
                waiting.setdefault(future.fingerprint, []).append(future)
        if not waiting:
            return
        deadline = (
            None if timeout is None else time.monotonic() + timeout
        )
        events: queue.Queue = queue.Queue()
        covered: set[str] = set()

        def pump(member_key: str, fingerprints: list[str]) -> None:
            member = self._members[member_key]
            member_futures = []
            with self._lock:
                for fingerprint in fingerprints:
                    entry = self._entries.get(fingerprint)
                    if (
                        entry is not None
                        and entry.member_key == member_key
                        and entry.member_future is not None
                    ):
                        member_futures.append(entry.member_future)
            try:
                for settled in member.client.as_done(member_futures):
                    events.put(
                        ("settled", member_key, settled.fingerprint)
                    )
                events.put(("drained", member_key, fingerprints))
            except ServiceUnavailable as error:
                events.put(("down", member_key, (fingerprints, error)))
            except BaseException as error:  # surfaced on the caller
                events.put(("failed", member_key, (fingerprints, error)))

        def launch_pumps() -> None:
            groups: dict[str, list[str]] = {}
            with self._lock:
                for fingerprint in waiting:
                    if fingerprint in covered:
                        continue
                    entry = self._entries.get(fingerprint)
                    if entry is None or entry.member_future is None:
                        continue
                    groups.setdefault(entry.member_key, []).append(
                        fingerprint
                    )
            for member_key, fingerprints in groups.items():
                covered.update(fingerprints)
                threading.Thread(
                    target=pump,
                    args=(member_key, fingerprints),
                    daemon=True,
                ).start()

        def sweep() -> Iterator[RunFuture]:
            # Entries settled by any path (pump, concurrent poller,
            # failover exhaustion) surface here.
            for fingerprint in [
                fp for fp, group in waiting.items() if group[0].done()
            ]:
                for future in waiting.pop(fingerprint):
                    yield future

        launch_pumps()
        while waiting:
            for future in sweep():
                done += 1
                self._notify(done, total)
                yield future
            if not waiting:
                return
            wait_s = 0.25
            if deadline is not None:
                wait_s = min(wait_s, deadline - time.monotonic())
                if wait_s <= 0:
                    raise TimeoutError(
                        f"{len(waiting)} run(s) still pending"
                    )
            try:
                kind, member_key, payload = events.get(timeout=wait_s)
            except queue.Empty:
                launch_pumps()  # cover entries placed since last pass
                continue
            if kind == "settled":
                fingerprint = payload
                with self._lock:
                    entry = self._entries.get(fingerprint)
                if entry is not None:
                    self._settle_entry(entry)
                covered.discard(fingerprint)
            elif kind == "drained":
                covered.difference_update(payload)
                launch_pumps()
            elif kind == "down":
                fingerprints, error = payload
                covered.difference_update(fingerprints)
                self._failover(member_key, error)
                launch_pumps()
            else:  # "failed": a pump hit a non-failover error
                fingerprints, error = payload
                covered.difference_update(fingerprints)
                raise error

    def as_resolved(
        self, futures: Iterable[RunFuture], timeout: float | None = None
    ) -> Iterator[RunArtifact]:
        """Yield artifacts in fleet completion order (errors raise)."""
        for future in self.as_done(futures, timeout=timeout):
            yield future.result()

    def run(
        self,
        request: RunRequest,
        use_store: bool | None = None,
        detail: str | None = None,
    ) -> RunArtifact:
        """Resolve one request against the fleet, blocking."""
        return self.submit(
            request, use_store=use_store, detail=detail
        ).result()

    def run_many(
        self,
        requests: Sequence[RunRequest],
        use_store: bool | None = None,
        detail: str | None = None,
    ) -> list[RunArtifact]:
        """Resolve a batch fleet-wide, preserving request order."""
        futures = self.submit_many(
            requests, use_store=use_store, detail=detail
        )
        first_error: BaseException | None = None
        for future in self.as_done(futures):
            error = future.exception()
            if error is not None:
                first_error = first_error or error
        if first_error is not None:
            raise first_error
        return [future.result() for future in futures]

    # -- health and introspection ------------------------------------------

    def ping(self) -> dict:
        """Probe every member; raises when none answers.

        Healthy members (re)join the routing set -- this is also the
        recovery path for a member that was marked down.  The return
        value carries the fleet block :meth:`status` renders.
        """
        payload = self.status()
        if not any(
            member["alive"] for member in payload["fleet"]["members"]
        ):
            raise ServiceUnavailable(self._exhausted_message())
        return payload

    def status(self) -> dict:
        """Per-member health/load without raising: the ``fleet`` block."""
        members = []
        for key in self.urls:
            member = self._members[key]
            try:
                health = member.client.ping()
            except ServiceError as error:
                with self._lock:
                    member.alive = False
                    member.error = str(error)
                    member.health = {}
            else:
                with self._lock:
                    member.alive = True
                    member.error = None
                    member.health = health
            members.append(
                {
                    "url": key,
                    "alive": member.alive,
                    "error": member.error,
                    "daemon_id": member.health.get("daemon_id"),
                    "jobs": member.health.get("jobs"),
                    "inflight": member.health.get("inflight"),
                    "queue_depth": member.health.get("queue_depth"),
                    "workload_cache": member.health.get("workload_cache"),
                    "engine_modes": member.health.get("engine_modes"),
                }
            )
        alive = sum(1 for member in members if member["alive"])
        return {
            "kind": "fleet",
            "fleet": {
                "members": members,
                "alive": alive,
                "total": len(members),
            },
        }

    def stats(self) -> dict:
        """Every reachable member's ``/stats``, keyed by member URL."""
        per_member = {}
        for key in self.urls:
            try:
                per_member[key] = self._members[key].client.stats()
            except ServiceError as error:
                per_member[key] = {"error": str(error)}
        return {"kind": "fleet_stats", "members": per_member}


class _FleetRunFuture(RunFuture):
    """A :class:`RunFuture` whose pending state lives on the fleet.

    ``result``/``exception`` long-poll the fingerprint's *current*
    member through :meth:`FleetClient._await`, which reroutes on
    member death -- so a handle taken before a failover still
    resolves after it.
    """

    __slots__ = ("_fleet",)

    def __init__(
        self,
        fleet: FleetClient,
        request: RunRequest,
        fingerprint: str,
        future: Future,
    ) -> None:
        super().__init__(request, fingerprint, future)
        self._fleet = fleet

    def _ensure_resolution(self, timeout: float | None) -> None:
        if not self._future.done():
            self._fleet._await(self.fingerprint, timeout)

    def result(self, timeout: float | None = None) -> RunArtifact:
        """Block for the artifact, failing dead members over."""
        self._ensure_resolution(timeout)
        return self._future.result(timeout)

    def exception(
        self, timeout: float | None = None
    ) -> BaseException | None:
        """The run's terminal error, or None (blocks like result)."""
        self._ensure_resolution(timeout)
        return self._future.exception(timeout)
