"""Parallel experiment orchestration over a pluggable result store.

Every deliverable of the reproduction -- the figure comparisons, the
alpha Pareto sweep, the sensitivity sweeps, the LP bound and the
scenario study -- reduces to evaluating a grid of *(configuration x
policy x seed)* simulation runs.  This module owns that evaluation:

* :class:`RunRequest` names one run: an
  :class:`~repro.sim.config.ExperimentConfig`, a policy, an optional
  seed override and the :class:`EngineOptions` flags.  Its
  :meth:`~RunRequest.fingerprint` is a SHA-256 over the canonicalized
  request, the unit of caching.
* :class:`~repro.store.ResultStore` (in :mod:`repro.store`) maps
  fingerprints to :class:`~repro.sim.results.RunResult` -- a memory
  layer plus one of two persistent backends (per-file JSON or
  append-only segments); see that package and DESIGN.md
  for layouts, auto-detection and concurrency discipline.
* :class:`Orchestrator` resolves requests against the store and fans
  misses out over a persistent ``ProcessPoolExecutor``.  The primitive
  is :meth:`Orchestrator.submit`, which returns a :class:`RunFuture`;
  :meth:`Orchestrator.as_resolved` streams artifacts back in
  *completion* order, so callers can render progress and chain
  dependent analyses (LP bounds, report rows) while later misses are
  still simulating.  :meth:`Orchestrator.run_many` is a thin
  submit-all/await-all wrapper that preserves request order.  Runs are
  deterministic per request, so parallel, streamed and serial
  execution produce identical :class:`~repro.sim.results.RunResult`
  ledgers.

Cache-invalidation (fingerprint) rules
--------------------------------------

The fingerprint hashes the *complete* canonicalized request:

* every ``ExperimentConfig`` field, recursively -- fleet specs,
  tariffs, PUE models, arrival model (including the app mix), horizon,
  sampling rate, QoS and seed;
* the policy descriptor -- class name plus all public constructor
  state (:meth:`~repro.sim.state.PlacementPolicy.descriptor`);
* every :class:`EngineOptions` field (each one changes results);
* the workload pack's content descriptor (schema, version, kind and
  the SHA-256 *content* hash of
  :class:`~repro.workload.packs.TracePack` -- for a recorded pack that
  digest covers the raw utilization matrix; the pack *name* is a label
  and deliberately stays out), so recorded-workload runs cache exactly
  like synthetic ones and renames stay cache-compatible;
* :data:`~repro.store.STORE_VERSION` (the document schema) and
  :data:`~repro.sim.engine.MODEL_VERSION` (the simulated model's
  semantics).

Anything that could change a run's numbers therefore changes its key;
entries never need explicit invalidation, only garbage collection
(``repro store gc``).  Store-side labels that must *not* key runs --
the pack's display name, the daemon, the campaign -- travel in the
document's ``meta`` envelope instead (:func:`run_meta`).
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
import os
import threading
import time
import weakref
from concurrent.futures import Future, ProcessPoolExecutor, as_completed
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Sequence

from repro.experiments.sticky import StickyPool
from repro.sim.config import EngineCoreConfig, ExperimentConfig
from repro.sim.engine import MODEL_VERSION, SimulationEngine
from repro.sim.results import RunResult
from repro.sim.state import PlacementPolicy
from repro.store import (
    STORE_ENV_VAR,
    STORE_VERSION,
    ResultStore,
)
from repro.workload.materialize import (
    DEFAULT_CACHE_MATERIALIZATIONS,
    DEFAULT_SLOT_BUDGET_BYTES,
    MaterializationCache,
    configure_process_cache,
    materialization_key,
    process_cache,
)
from repro.workload.packs import TracePack
from repro.workload.shm import SharedPackStub, SharedWorkloadPublisher

#: Environment knobs for the workload materialization cache.  They
#: configure *execution*, never identity: no fingerprint ever sees
#: them (cache on/off/size produces byte-identical artifacts).
WORKLOAD_CACHE_ENV_VAR = "REPRO_WORKLOAD_CACHE"
WORKLOAD_CACHE_MB_ENV_VAR = "REPRO_WORKLOAD_CACHE_MB"

__all__ = [
    "EngineOptions",
    "Orchestrator",
    "ResultStore",
    "RunArtifact",
    "RunFuture",
    "RunRequest",
    "STORE_ENV_VAR",
    "STORE_VERSION",
    "canonical",
    "execute_request",
    "grid_requests",
    "run_meta",
]


@dataclass(frozen=True)
class EngineOptions:
    """Engine flags a :class:`RunRequest` threads through to the engine.

    Holds only fields that change a run's result.

    Attributes
    ----------
    clairvoyant:
        Give policies the current slot's traces (perfect forecast).
    engine:
        The :class:`~repro.sim.config.EngineCoreConfig` selecting the
        simulation driver (``slot`` or ``event``).  An event run
        carries a per-request ledger a slot run does not, so they are
        distinct artifacts even though their slot ledgers are
        byte-identical.
    """

    clairvoyant: bool = False
    engine: EngineCoreConfig = field(default_factory=EngineCoreConfig)


def canonical(value):
    """Canonicalize ``value`` into JSON-stable plain data.

    Handles dataclasses, enums (and enum-keyed dicts), functions,
    numpy scalars and arbitrary objects with public attribute state.
    Deterministic: equal configurations canonicalize to equal trees.
    """
    if isinstance(value, (bool, int, float, str)) or value is None:
        return value
    if isinstance(value, enum.Enum):
        return {"__enum__": type(value).__qualname__, "name": value.name}
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            "__class__": type(value).__qualname__,
            **{
                f.name: canonical(getattr(value, f.name))
                for f in dataclasses.fields(value)
            },
        }
    if isinstance(value, dict):
        return {str(canonical(key)): canonical(val) for key, val in value.items()}
    if isinstance(value, (list, tuple)):
        return [canonical(item) for item in value]
    if callable(value) and hasattr(value, "__qualname__"):
        return {
            "__function__": f"{getattr(value, '__module__', '?')}."
            f"{value.__qualname__}"
        }
    if hasattr(value, "item") and not hasattr(value, "__len__"):
        return value.item()  # numpy scalar
    if hasattr(value, "__dict__"):
        return {
            "__class__": type(value).__qualname__,
            **{
                key: canonical(val)
                for key, val in sorted(vars(value).items())
                if not key.startswith("_")
            },
        }
    raise TypeError(f"cannot canonicalize {type(value).__name__}: {value!r}")


@dataclass(frozen=True)
class RunRequest:
    """One simulation run: config x policy x seed x engine flags.

    Attributes
    ----------
    config:
        The experiment configuration.
    policy:
        The placement policy instance to run (a fresh engine is built
        around it; its cross-slot state is reset at run start).
    seed:
        Optional seed override; ``None`` keeps ``config.seed``.  The
        replication helpers use this to fan one config out over seeds.
    options:
        Engine flags threaded through to the engine.
    pack:
        Optional :class:`~repro.workload.packs.TracePack` naming the
        workload; ``None`` selects the synthetic default pack.  The
        pack's *content* descriptor (schema, version, kind, sha256 --
        not the name) joins the fingerprint, so a recorded-CSV run
        caches by the recording's actual bytes and renaming a pack
        keeps its cached runs warm.
    """

    config: ExperimentConfig
    policy: PlacementPolicy
    seed: int | None = None
    options: EngineOptions = field(default_factory=EngineOptions)
    pack: TracePack | None = None

    def resolved_config(self) -> ExperimentConfig:
        """The config with the seed override applied."""
        if self.seed is None or self.seed == self.config.seed:
            return self.config
        return dataclasses.replace(self.config, seed=self.seed)

    def descriptor(self) -> dict:
        """Full canonical description of the request (hashed + stored)."""
        return {
            "store_version": STORE_VERSION,
            "model_version": MODEL_VERSION,
            "config": canonical(self.resolved_config()),
            "policy": canonical(self.policy.descriptor()),
            "options": canonical(self.options),
            "pack": (
                None if self.pack is None else self.pack.content_descriptor()
            ),
        }

    def fingerprint(self) -> str:
        """SHA-256 hex digest keying this run in the result store.

        Memoized: requests are value-stable once built (the orchestrator
        and wire layers hash, dedupe and poll by fingerprint many times
        per request), so the canonical descriptor walk runs once.
        """
        cached = self.__dict__.get("_fingerprint")
        if cached is None:
            blob = json.dumps(self.descriptor(), sort_keys=True)
            cached = hashlib.sha256(blob.encode()).hexdigest()
            object.__setattr__(self, "_fingerprint", cached)
        return cached


def run_meta(request: RunRequest) -> dict:
    """Store-side labels for a request (never part of the fingerprint).

    The pack block records the workload pack's *name* alongside its
    content identity so ``repro store ls``/``gc`` can filter by pack
    name even though fingerprints deliberately ignore it.
    """
    pack = request.pack
    meta: dict = {}
    if pack is not None:
        meta["pack"] = {
            "name": pack.name,
            "version": pack.version,
            "kind": pack.kind,
            "sha256": pack.sha256,
        }
    return meta


@dataclass(frozen=True)
class RunArtifact:
    """A resolved request: the result plus its provenance.

    Attributes
    ----------
    fingerprint:
        The request's store key.
    result:
        The run ledger.
    source:
        Where the result came from: ``"computed"``, ``"memory"`` or
        ``"disk"``.
    elapsed_s:
        Wall time spent obtaining the result (0 for memory hits).
    """

    fingerprint: str
    result: RunResult
    source: str
    elapsed_s: float

    @property
    def from_cache(self) -> bool:
        """True when the store supplied the result without simulating."""
        return self.source != "computed"


class RunFuture:
    """Handle to one submitted request, resolving to a :class:`RunArtifact`.

    Store hits resolve immediately; misses resolve when their worker
    finishes (by which point the result has already streamed into the
    store -- persistence callbacks run before the future completes, so
    an artifact you hold is an artifact that survives a crash).
    """

    __slots__ = ("request", "fingerprint", "_future")

    def __init__(
        self, request: RunRequest, fingerprint: str, future: Future
    ) -> None:
        self.request = request
        self.fingerprint = fingerprint
        self._future = future

    def done(self) -> bool:
        """True when the artifact (or an error) is available."""
        return self._future.done()

    def result(self, timeout: float | None = None) -> RunArtifact:
        """Block for the artifact; re-raises the run's error if it failed."""
        return self._future.result(timeout)

    def exception(self, timeout: float | None = None) -> BaseException | None:
        """The run's error, or None (blocks like :meth:`result`)."""
        return self._future.exception(timeout)

    @classmethod
    def resolved(
        cls, request: RunRequest, fingerprint: str, artifact: RunArtifact
    ) -> "RunFuture":
        future: Future = Future()
        future.set_result(artifact)
        return cls(request, fingerprint, future)


def execute_request(request: RunRequest) -> RunResult:
    """Run one request to completion (the process-pool work function)."""
    engine = SimulationEngine(
        request.resolved_config(),
        request.policy,
        clairvoyant=request.options.clairvoyant,
        workload=request.pack,
        engine=request.options.engine,
    )
    return engine.run()


def _timed_execute(request: RunRequest) -> tuple[RunResult, float]:
    start = time.perf_counter()
    result = execute_request(request)
    return result, time.perf_counter() - start


def _env_int(name: str, default: int) -> int:
    raw = os.environ.get(name, "").strip()
    if not raw:
        return default
    try:
        return int(raw)
    except ValueError:
        return default


def _materialization_key_of(request: RunRequest) -> str:
    """The request's workload materialization key, memoized like
    :meth:`RunRequest.fingerprint` (requests are value-stable)."""
    cached = request.__dict__.get("_materialization_key")
    if cached is None:
        cached = materialization_key(request.resolved_config(), request.pack)
        object.__setattr__(request, "_materialization_key", cached)
    return cached


@dataclass(frozen=True)
class _WorkerTask:
    """One pooled run plus its workload-cache routing envelope.

    When ``stub`` is set the request travels with ``pack=None`` and
    the worker re-attaches the pack zero-copy from shared memory;
    fingerprints are always computed parent-side from the original
    request, so the stripped copy never needs one.
    """

    request: RunRequest
    key: str
    stub: SharedPackStub | None = None


def _timed_execute_task(
    task: _WorkerTask, cache: MaterializationCache | None = None
) -> tuple[RunResult, float, dict]:
    """Worker-side entry for cached runs.

    Resolves the task's materialization from the per-process cache
    (building it on miss), restores a shared-memory pack when one was
    published, and returns the run plus a cache-stats snapshot tagged
    with the worker pid -- the parent keeps the latest snapshot per
    pid and sums them for :meth:`Orchestrator.workload_cache_stats`.
    """
    start = time.perf_counter()
    if cache is None:
        cache = process_cache()
    request = task.request
    if task.stub is not None:
        request = dataclasses.replace(request, pack=task.stub.restore())
    materialization = cache.materialize(
        request.resolved_config(), request.pack
    )
    if materialization.key != task.key:
        raise RuntimeError(
            "workload materialization key diverged between parent "
            f"({task.key[:12]}) and worker ({materialization.key[:12]})"
        )
    engine = SimulationEngine(
        request.resolved_config(),
        request.policy,
        clairvoyant=request.options.clairvoyant,
        materialization=materialization,
        engine=request.options.engine,
    )
    result = engine.run()
    elapsed = time.perf_counter() - start
    stats = dict(cache.stats())
    stats["pid"] = os.getpid()
    return result, elapsed, stats


def _unpack_payload(payload) -> tuple[RunResult, float, dict | None]:
    """Normalize worker payloads: cached tasks add a stats snapshot."""
    if len(payload) == 3:
        return payload
    result, elapsed = payload
    return result, elapsed, None


def _shutdown_pool(pool) -> None:
    pool.shutdown(wait=False)


def _close_publisher(publisher: SharedWorkloadPublisher) -> None:
    publisher.close()


class Orchestrator:
    """Resolves run requests against a store, fanning misses out.

    Parameters
    ----------
    store:
        The result store consulted before simulating and updated after.
        Defaults to a fresh memory-only store.
    jobs:
        Worker processes for cache misses.  ``1`` executes serially in
        this process (``submit`` then blocks and returns an
        already-resolved future); higher values keep a persistent
        ``ProcessPoolExecutor`` so submissions stream.  Parallel runs
        are deterministic: every engine derives its streams from the
        request, so results are identical to serial execution.
    use_store:
        Default store behavior.  ``False`` makes every resolution
        simulate (results are still recorded) -- consumers that only
        take an orchestrator, like the CLI's ``--no-cache`` path,
        configure cache bypass here.
    progress:
        Optional ``callback(completed, total)`` fired as each unique
        run of a batch resolves (:meth:`run_many` /
        :meth:`as_resolved`); the CLI uses it to stream run counts
        during sweeps.
    meta:
        Extra store-document ``meta`` keys stamped onto every run this
        orchestrator records, merged over :func:`run_meta`'s derived
        labels.  Provenance only -- never part of the fingerprint (the
        service daemon stamps ``{"daemon": <id>}`` here so fleet
        members are attributable in the shared store).
    workload_cache:
        Materializations each process keeps warm (LRU entries).  ``0``
        disables the whole workload-cache layer -- plain pool, full
        pack pickling, per-run workload builds, exactly the pre-cache
        execution path.  ``None`` (default) reads
        ``REPRO_WORKLOAD_CACHE`` and falls back to
        :data:`~repro.workload.materialize.DEFAULT_CACHE_MATERIALIZATIONS`.
        Per-materialization realized-slot budgets come from
        ``REPRO_WORKLOAD_CACHE_MB``.  Execution detail only: artifacts
        and fingerprints are byte-identical either way.
    """

    def __init__(
        self,
        store: ResultStore | None = None,
        jobs: int = 1,
        use_store: bool = True,
        progress: Callable[[int, int], None] | None = None,
        meta: dict | None = None,
        workload_cache: int | None = None,
    ) -> None:
        self.store = store if store is not None else ResultStore()
        self.jobs = max(1, int(jobs))
        self.use_store = use_store
        self.progress = progress
        self.meta = dict(meta or {})
        if workload_cache is None:
            workload_cache = _env_int(
                WORKLOAD_CACHE_ENV_VAR, DEFAULT_CACHE_MATERIALIZATIONS
            )
        self.workload_cache = max(0, int(workload_cache))
        self.slot_budget_bytes = (
            _env_int(
                WORKLOAD_CACHE_MB_ENV_VAR, DEFAULT_SLOT_BUDGET_BYTES >> 20
            )
            << 20
        )
        self._pool: ProcessPoolExecutor | StickyPool | None = None
        self._publisher: SharedWorkloadPublisher | None = None
        self._local_cache: MaterializationCache | None = None
        self._worker_stats: dict[int, dict] = {}
        self._inflight: dict[str, Future] = {}
        self._lock = threading.Lock()

    def with_jobs(self, jobs: int) -> "Orchestrator":
        """This orchestrator's store and options at a new worker count.

        Returns ``self`` when the count already matches -- the helper
        behind every ``jobs=N`` convenience parameter in the
        experiment runners.
        """
        if jobs == self.jobs:
            return self
        return Orchestrator(
            store=self.store,
            jobs=jobs,
            use_store=self.use_store,
            progress=self.progress,
            meta=self.meta,
            workload_cache=self.workload_cache,
        )

    def with_meta(self, extra: dict) -> "Orchestrator":
        """This orchestrator's store and options with extra meta stamps.

        Returns ``self`` when nothing would change.  The campaign
        driver uses this to stamp every artifact a suite produces with
        its campaign id (into the store-document meta envelope, never
        the fingerprint), so ``repro store ls --campaign`` can list a
        campaign's artifacts as a unit.
        """
        merged = {**self.meta, **extra}
        if merged == self.meta:
            return self
        return Orchestrator(
            store=self.store,
            jobs=self.jobs,
            use_store=self.use_store,
            progress=self.progress,
            meta=merged,
            workload_cache=self.workload_cache,
        )

    def _meta_for(self, request: RunRequest) -> dict:
        """The store-document meta for one run: derived labels + stamps."""
        meta = run_meta(request)
        meta.update(self.meta)
        return meta

    # -- worker-pool lifecycle ---------------------------------------------

    def _ensure_pool(self) -> ProcessPoolExecutor | StickyPool:
        if self._pool is None:
            if self.workload_cache > 0:
                # Sticky, key-affine workers with the per-process
                # materialization cache installed at spawn.
                self._pool = StickyPool(
                    self.jobs,
                    initializer=configure_process_cache,
                    initargs=(self.workload_cache, self.slot_budget_bytes),
                )
                self._publisher = SharedWorkloadPublisher()
                weakref.finalize(self, _close_publisher, self._publisher)
            else:
                self._pool = ProcessPoolExecutor(max_workers=self.jobs)
            # Workers outlive batches (submissions stream), but must
            # not outlive the orchestrator.
            weakref.finalize(self, _shutdown_pool, self._pool)
        return self._pool

    def _ensure_local_cache(self) -> MaterializationCache:
        """The in-process cache behind serial (``jobs == 1``) runs.

        Owned by the orchestrator, so a long-lived daemon reuses
        materializations across client requests.
        """
        if self._local_cache is None:
            self._local_cache = MaterializationCache(
                size=self.workload_cache,
                slot_budget_bytes=self.slot_budget_bytes,
            )
        return self._local_cache

    def close(self) -> None:
        """Shut the worker pool down (idempotent; pending runs finish)."""
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
        if self._publisher is not None:
            self._publisher.close()
            self._publisher = None

    def __enter__(self) -> "Orchestrator":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- the futures API ---------------------------------------------------

    def submit(
        self,
        request: RunRequest,
        use_store: bool | None = None,
        detail: str | None = None,
    ) -> RunFuture:
        """Resolve one request asynchronously.

        Store hits return an already-resolved future.  Misses are
        deduplicated against in-flight work (two submissions of one
        fingerprint share a worker) and their results stream into the
        store the moment the worker finishes -- before the future is
        marked done.  With ``jobs == 1`` the miss executes inline and
        errors propagate from ``submit`` itself, preserving the serial
        fail-fast behavior.

        ``detail`` is accepted for interface parity with
        :class:`~repro.service.client.ServiceClient` (where
        ``headline`` trims the wire payload) and ignored here: the
        result already sits in local memory, so there is nothing to
        project away.
        """
        if use_store is None:
            use_store = self.use_store
        return self.resolve(request, request.fingerprint(), use_store)

    def resolve(
        self, request: RunRequest, fingerprint: str, use_store: bool = True
    ) -> RunFuture:
        """The submit/dedup core: store lookup, in-flight dedup, launch.

        Shared by the in-process path (:meth:`submit`, which computes
        the fingerprint itself) and the service daemon
        (:mod:`repro.service.server`, which receives the fingerprint
        over the wire and verifies it against the decoded request
        before calling in) -- both sides therefore apply identical
        hit/dedup semantics against one store.
        """
        if use_store:
            hit = self.lookup(request, fingerprint)
            if hit is not None:
                return hit
        return self.launch(request, fingerprint)

    def lookup(
        self, request: RunRequest, fingerprint: str
    ) -> RunFuture | None:
        """An already-resolved future for a store hit, else None."""
        hit = self.store.fetch(fingerprint)
        if hit is None:
            return None
        result, source = hit
        return RunFuture.resolved(
            request,
            fingerprint,
            RunArtifact(
                fingerprint=fingerprint,
                result=result,
                source=source,
                elapsed_s=0.0,
            ),
        )

    def inflight_count(self) -> int:
        """Number of fingerprints currently executing in the pool."""
        with self._lock:
            return len(self._inflight)

    def workload_cache_stats(self) -> dict:
        """Aggregate workload-cache efficacy across every process.

        Sums the serial in-process cache with the latest snapshot each
        pool worker returned (workers report absolute counters, so the
        latest per pid is the total per pid).  Surfaced by the service
        daemon's ``/stats`` and ``repro fleet status``.
        """
        stats = {
            "enabled": self.workload_cache > 0,
            "size": self.workload_cache,
            "hits": 0,
            "misses": 0,
            "entries": 0,
            "slot_hits": 0,
            "slot_misses": 0,
            "bytes": 0,
        }
        sources: list[dict] = []
        if self._local_cache is not None:
            sources.append(self._local_cache.stats())
        with self._lock:
            workers = list(self._worker_stats.values())
        sources.extend(workers)
        for source in sources:
            for counter in (
                "hits", "misses", "entries",
                "slot_hits", "slot_misses", "bytes",
            ):
                stats[counter] += source.get(counter, 0)
        stats["workers"] = len(workers)
        if self._publisher is not None:
            stats["shared"] = self._publisher.stats()
        return stats

    def launch(self, request: RunRequest, fingerprint: str) -> RunFuture:
        """Execute a miss, bypassing the store lookup.

        Pooled runs (``jobs > 1``) still dedup against in-flight work;
        serial runs execute inline on the calling thread (callers that
        can race themselves -- the service daemon -- guard serial
        launches with their own registry).
        """
        if self.jobs == 1:
            if self.workload_cache > 0:
                result, elapsed, _stats = _timed_execute_task(
                    _WorkerTask(
                        request=request,
                        key=_materialization_key_of(request),
                    ),
                    cache=self._ensure_local_cache(),
                )
            else:
                result, elapsed = _timed_execute(request)
            self.store.put(
                fingerprint, result, request.descriptor(),
                self._meta_for(request),
            )
            return RunFuture.resolved(
                request,
                fingerprint,
                RunArtifact(
                    fingerprint=fingerprint,
                    result=result,
                    source="computed",
                    elapsed_s=elapsed,
                ),
            )
        with self._lock:
            base = self._inflight.get(fingerprint)
            created = base is None
            if created:
                pool = self._ensure_pool()
                if isinstance(pool, StickyPool):
                    task = self._worker_task(request)
                    base = pool.submit(
                        _timed_execute_task, task, key=task.key
                    )
                else:
                    base = pool.submit(_timed_execute, request)
                self._inflight[fingerprint] = base
        # Callbacks are registered *outside* the lock: a future that is
        # already done runs its callback inline in this thread, and
        # _record re-acquires the (non-reentrant) lock.  Persistence
        # (_record) registers before the wrapper chain, so in both the
        # executor-thread and inline cases the store.put completes
        # before the wrapper future reports done.
        if created:
            base.add_done_callback(
                lambda done, fp=fingerprint, req=request: self._record(
                    fp, req, done
                )
            )
        wrapper: Future = Future()

        def _chain(done: Future) -> None:
            error = done.exception()
            if error is not None:
                wrapper.set_exception(error)
                return
            result, elapsed, _stats = _unpack_payload(done.result())
            wrapper.set_result(
                RunArtifact(
                    fingerprint=fingerprint,
                    result=result,
                    source="computed",
                    elapsed_s=elapsed,
                )
            )

        base.add_done_callback(_chain)
        return RunFuture(request, fingerprint, wrapper)

    def _worker_task(self, request: RunRequest) -> _WorkerTask:
        """The sticky-pool envelope for ``request``.

        Publishes large recorded packs to shared memory (once per pack
        content) so the task ships a few-hundred-byte stub instead of
        the utilization matrix; anything unpublishable falls back to
        the ordinary full-request pickle.
        """
        key = _materialization_key_of(request)
        stub = None
        if self._publisher is not None:
            stub = self._publisher.publish_pack(request.pack)
        if stub is not None:
            request = dataclasses.replace(request, pack=None)
        return _WorkerTask(request=request, key=key, stub=stub)

    def _record(self, fingerprint: str, request: RunRequest, base: Future) -> None:
        """Completion callback: stream the result into the store.

        Runs in the executor's management thread, so a batch that dies
        partway (worker crash, interrupt) keeps every completed run.
        The store write happens *before* the in-flight entry is
        dropped -- a resubmission of the same fingerprint either
        shares the in-flight future or hits the store, never
        re-simulates.
        """
        if base.exception() is None:
            result, _elapsed, stats = _unpack_payload(base.result())
            self.store.put(
                fingerprint, result, request.descriptor(),
                self._meta_for(request),
            )
            if stats is not None:
                # Latest absolute snapshot per worker pid; summed in
                # workload_cache_stats().
                with self._lock:
                    self._worker_stats[stats["pid"]] = stats
        with self._lock:
            self._inflight.pop(fingerprint, None)

    def submit_many(
        self,
        requests: Sequence[RunRequest],
        use_store: bool | None = None,
        detail: str | None = None,
    ) -> list[RunFuture]:
        """Submit a batch; duplicates share one future (simulated once).

        With the workload cache enabled, submissions are issued in
        materialization-key order (stable, so same-key requests keep
        their relative order): each sticky worker then drains its
        queue one workload at a time instead of thrashing between
        materializations.  The *returned* futures always align with
        ``requests``.

        ``detail`` is accepted for service-client parity and ignored
        in-process (see :meth:`submit`).
        """
        order = list(range(len(requests)))
        if self.workload_cache > 0 and self.jobs > 1:
            order.sort(key=lambda i: _materialization_key_of(requests[i]))
        future_at: dict[int, RunFuture] = {}
        by_fingerprint: dict[str, RunFuture] = {}
        for index in order:
            request = requests[index]
            fingerprint = request.fingerprint()
            future = by_fingerprint.get(fingerprint)
            if future is None:
                future = self.submit(request, use_store=use_store)
                by_fingerprint[fingerprint] = future
            future_at[index] = future
        return [future_at[index] for index in range(len(requests))]

    def _notify(self, done: int, total: int) -> None:
        if self.progress is not None:
            self.progress(done, total)

    @staticmethod
    def _unique(futures: Iterable[RunFuture]) -> list[RunFuture]:
        return list(dict.fromkeys(futures))

    def as_done(
        self, futures: Iterable[RunFuture], timeout: float | None = None
    ) -> Iterator[RunFuture]:
        """Yield unique futures as they resolve, firing progress.

        Already-resolved futures (store hits, serial runs) come first;
        pending misses follow in completion order.  The shared loop
        behind :meth:`as_resolved` and :meth:`run_many` (which differ
        only in error handling) -- and the primitive for consumers
        that chain per-run analyses and need the *future* (its
        ``request``, or its position in a batch) rather than just the
        artifact.
        """
        unique = self._unique(futures)
        total = len(unique)
        done = 0
        pending: dict[Future, RunFuture] = {}
        for future in unique:
            if future.done():
                done += 1
                self._notify(done, total)
                yield future
            else:
                pending[future._future] = future
        for resolved in as_completed(pending, timeout=timeout):
            done += 1
            self._notify(done, total)
            yield pending[resolved]

    def as_resolved(
        self, futures: Iterable[RunFuture], timeout: float | None = None
    ) -> Iterator[RunArtifact]:
        """Yield artifacts in *completion* order as workers finish.

        Already-resolved futures (store hits, serial runs) come first;
        pending misses follow as they land, while later misses keep
        executing -- the streaming primitive behind CLI progress and
        barrier-free dependent analyses.  Duplicate futures yield
        once.  A failed run raises at its position in the stream.
        """
        for future in self.as_done(futures, timeout=timeout):
            yield future.result()

    # -- batch conveniences ------------------------------------------------

    def run(
        self,
        request: RunRequest,
        use_store: bool | None = None,
        detail: str | None = None,
    ) -> RunArtifact:
        """Resolve one request (store lookup, else simulate + record)."""
        return self.submit(request, use_store=use_store).result()

    def run_many(
        self,
        requests: Sequence[RunRequest],
        use_store: bool | None = None,
        detail: str | None = None,
    ) -> list[RunArtifact]:
        """Resolve a batch of requests, preserving order.

        A thin wrapper over :meth:`submit_many`: duplicate
        fingerprints simulate once, misses run in parallel when
        ``jobs > 1`` and stream into the store as they complete.  When
        a run fails, every surviving completion is still persisted
        (and counted toward progress) before the first error
        re-raises.  ``use_store=False`` skips the lookup (every
        request simulates) but still records results; ``None`` defers
        to the orchestrator's default.  ``detail`` is accepted for
        service-client parity and ignored in-process.
        """
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


def grid_requests(
    configs: Iterable[ExperimentConfig],
    policies_for: Callable[[ExperimentConfig], list[PlacementPolicy]],
    seeds: Sequence[int] | None = None,
    options: EngineOptions | None = None,
    pack: TracePack | None = None,
) -> list[RunRequest]:
    """Cross a config iterable with per-config policies and seeds.

    Parameters
    ----------
    configs:
        The configurations to run.
    policies_for:
        Callable ``config -> list[PlacementPolicy]`` building *fresh*
        policy instances per config (policies carry cross-slot state,
        so sharing instances across parallel requests is unsafe).
    seeds:
        Seed overrides; ``None`` keeps each config's own seed.
    options:
        Engine flags applied to every request.
    pack:
        Workload pack applied to every request (``None`` = synthetic
        default).
    """
    options = options or EngineOptions()
    requests = []
    for config in configs:
        for seed in seeds if seeds is not None else [None]:
            for policy in policies_for(config):
                requests.append(
                    RunRequest(
                        config=config,
                        policy=policy,
                        seed=seed,
                        options=options,
                        pack=pack,
                    )
                )
    return requests
