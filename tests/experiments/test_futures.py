"""Futures-based orchestration: submit, as_resolved, progress, errors."""

import time

import pytest

from repro.baselines import EnerAwarePolicy, NetAwarePolicy, PriAwarePolicy
from repro.experiments.orchestrator import (
    Orchestrator,
    ResultStore,
    RunFuture,
    RunRequest,
    run_meta,
)
from repro.experiments.runner import default_policies
from repro.sim.config import scaled_config
from repro.sim.state import PlacementPolicy
from repro.workload.packs import RecordedTraceSource, TracePack

import numpy as np


def tiny(horizon: int = 2, seed: int = 0):
    return scaled_config("tiny", seed=seed).with_horizon(horizon)


def request(policy_index: int = 1, **kwargs):
    return RunRequest(
        config=kwargs.pop("config", tiny()),
        policy=kwargs.pop("policy", None)
        or default_policies()[policy_index],
        **kwargs,
    )


class StalledPolicy(PriAwarePolicy):
    """Sleeps every slot: a deliberately slow worker (picklable)."""

    name = "Stalled"

    def place(self, observation):
        time.sleep(1.5)
        return super().place(observation)


class ExplodingPolicy(PlacementPolicy):
    """Raises on first placement; picklable for pool workers."""

    name = "Exploding"

    def place(self, observation):
        raise RuntimeError("boom")


class TestSubmit:
    def test_serial_submit_returns_resolved_future(self):
        future = Orchestrator().submit(request())
        assert isinstance(future, RunFuture)
        assert future.done()
        artifact = future.result()
        assert artifact.source == "computed"
        assert artifact.fingerprint == future.fingerprint

    def test_cache_hit_resolves_immediately(self):
        orchestrator = Orchestrator()
        orchestrator.run(request())
        future = orchestrator.submit(request())
        assert future.done()
        assert future.result().source == "memory"
        assert future.exception() is None

    def test_submit_records_into_store(self, tmp_path):
        store = ResultStore(tmp_path)
        future = Orchestrator(store=store).submit(request())
        assert future.fingerprint in store

    def test_parallel_submit_streams_into_store_before_done(self, tmp_path):
        store = ResultStore(tmp_path)
        with Orchestrator(store=store, jobs=2) as orchestrator:
            future = orchestrator.submit(request())
            artifact = future.result()
        # Persistence callbacks run before the future resolves.
        assert artifact.fingerprint in store
        retry = Orchestrator(store=ResultStore(tmp_path)).run(request())
        assert retry.source == "disk"

    def test_inflight_deduplication(self):
        with Orchestrator(jobs=2) as orchestrator:
            first = orchestrator.submit(request())
            second = orchestrator.submit(request())
            assert first.result().result is second.result().result
        assert orchestrator.store.stats()["writes"] == 1

    def test_submit_many_shares_duplicate_futures(self):
        orchestrator = Orchestrator()
        futures = orchestrator.submit_many([request(), request()])
        assert futures[0] is futures[1]
        assert orchestrator.store.stats()["writes"] == 1


class TestAsResolved:
    def test_yields_in_completion_order_while_misses_execute(self):
        """The stalled-worker guarantee: fast artifacts stream out
        while a slow run is still executing; nothing waits for the
        whole batch."""
        slow = request(policy=StalledPolicy())
        fast = request(1)
        with Orchestrator(jobs=2) as orchestrator:
            futures = orchestrator.submit_many([slow, fast])
            stream = orchestrator.as_resolved(futures)
            first = next(stream)
            # The fast run resolved first -- and the stalled one is
            # genuinely still executing at this moment.
            assert first.fingerprint == futures[1].fingerprint
            assert not futures[0].done()
            rest = list(stream)
        assert [artifact.fingerprint for artifact in rest] == [
            futures[0].fingerprint
        ]

    def test_cache_hits_yield_before_pending_misses(self):
        with Orchestrator(jobs=2) as orchestrator:
            orchestrator.run(request(1))
            futures = orchestrator.submit_many(
                [request(policy=StalledPolicy()), request(1)]
            )
            first = next(orchestrator.as_resolved(futures))
            assert first.source == "memory"
            futures[0].result()  # drain

    def test_duplicates_yield_once(self):
        orchestrator = Orchestrator()
        futures = orchestrator.submit_many([request(), request()])
        artifacts = list(orchestrator.as_resolved(futures))
        assert len(artifacts) == 1

    def test_failed_run_raises_in_stream(self):
        with Orchestrator(jobs=2) as orchestrator:
            futures = orchestrator.submit_many(
                [request(policy=ExplodingPolicy())]
            )
            with pytest.raises(RuntimeError, match="boom"):
                list(orchestrator.as_resolved(futures))


class TestRunManyWrapper:
    def test_results_identical_to_serial_reference(self):
        """The futures-backed run_many stays byte-identical."""
        requests = [request(index) for index in range(3)]
        serial = [
            Orchestrator().run(req).result for req in requests
        ]
        with Orchestrator(jobs=2) as orchestrator:
            batch = orchestrator.run_many(
                [request(index) for index in range(3)]
            )
        for reference, artifact in zip(serial, batch):
            assert artifact.result.policy_name == reference.policy_name
            assert artifact.result.slots == reference.slots
            assert (
                artifact.result.to_dict() == reference.to_dict()
            )

    def test_order_preserved_despite_completion_order(self):
        slow_first = [request(policy=StalledPolicy()), request(1)]
        with Orchestrator(jobs=2) as orchestrator:
            artifacts = orchestrator.run_many(slow_first)
        assert artifacts[0].result.policy_name == "Stalled"
        assert artifacts[1].result.policy_name == "Ener-aware"

    def test_run_delegates_to_submit(self):
        artifact = Orchestrator().run(request())
        assert artifact.source == "computed"


class TestProgress:
    def test_progress_streams_per_completion(self):
        calls = []
        orchestrator = Orchestrator(progress=lambda d, t: calls.append((d, t)))
        orchestrator.run_many([request(1), request(2), request(3)])
        assert calls == [(1, 3), (2, 3), (3, 3)]

    def test_progress_counts_unique_runs(self):
        calls = []
        orchestrator = Orchestrator(progress=lambda d, t: calls.append((d, t)))
        orchestrator.run_many([request(1), request(1), request(2)])
        assert calls == [(1, 2), (2, 2)]

    def test_progress_fires_while_stalled_worker_runs(self):
        snapshots = []
        with Orchestrator(jobs=2) as orchestrator:
            slow = request(policy=StalledPolicy())
            fast = request(1)
            futures = orchestrator.submit_many([slow, fast])
            orchestrator.progress = lambda done, total: snapshots.append(
                (done, total, futures[0].done())
            )
            orchestrator.run_many([slow, fast])
        # The first progress tick arrived before the stalled run ended.
        assert snapshots[0][:2] == (1, 2)
        assert snapshots[0][2] is False
        assert snapshots[-1][:2] == (2, 2)

    def test_with_jobs_carries_progress(self):
        callback = lambda done, total: None  # noqa: E731
        orchestrator = Orchestrator(jobs=1, progress=callback)
        assert orchestrator.with_jobs(3).progress is callback


class TestRunMeta:
    def test_synthetic_run_has_no_labels(self):
        assert run_meta(request()) == {}

    def test_pack_run_records_pack_name(self):
        rng = np.random.default_rng(3)
        pack = TracePack(
            name="My Recorded Pack!",
            source=RecordedTraceSource(
                utilization=rng.uniform(0.1, 0.8, size=(3, 60)),
                steps_per_slot=30,
            ),
        )
        meta = run_meta(request(pack=pack))
        assert list(meta) == ["pack"]
        assert meta["pack"]["name"] == "My Recorded Pack!"
        assert meta["pack"]["sha256"] == pack.sha256
        assert meta["pack"]["version"] == pack.version

    def test_meta_travels_to_disk_documents(self, tmp_path):
        store = ResultStore(tmp_path)
        Orchestrator(store=store, meta={"daemon": "d1"}).run(request())
        ((_, document),) = list(store.documents())
        assert document["meta"] == {"daemon": "d1"}


class TestLifecycle:
    def test_close_is_idempotent(self):
        orchestrator = Orchestrator(jobs=2)
        orchestrator.run_many([request(1), request(2)])
        orchestrator.close()
        orchestrator.close()

    def test_context_manager_closes_pool(self):
        with Orchestrator(jobs=2) as orchestrator:
            orchestrator.run_many([request(1), request(2)])
        assert orchestrator._pool is None

    def test_pool_survives_across_batches(self):
        with Orchestrator(jobs=2) as orchestrator:
            orchestrator.run_many([request(1)])
            pool = orchestrator._pool
            orchestrator.run_many([request(2)])
            assert orchestrator._pool is pool
