"""Shared fixtures for the experiment-service tests."""

from __future__ import annotations

import pytest

from repro.experiments.orchestrator import (
    Orchestrator,
    ResultStore,
    RunRequest,
)
from repro.experiments.runner import default_policies
from repro.service import ExperimentDaemon, ServiceClient
from repro.sim.config import scaled_config


@pytest.fixture
def tiny_config():
    return scaled_config("tiny", seed=0).with_horizon(2)


@pytest.fixture
def tiny_requests(tiny_config):
    """The four-method grid at tiny scale (one cheap run each)."""
    return [
        RunRequest(config=tiny_config, policy=policy)
        for policy in default_policies()
    ]


@pytest.fixture
def daemon_factory(tmp_path):
    """Build daemons on ephemeral ports; every one is closed at teardown."""
    daemons: list[ExperimentDaemon] = []
    roots = iter(range(1000))

    def build(
        jobs: int = 2,
        backend: str = "segment",
        store_root=None,
        **daemon_kwargs,
    ) -> ExperimentDaemon:
        if store_root is None:
            store_root = tmp_path / f"store-{next(roots)}"
        store = ResultStore(store_root, backend=backend)
        daemon = ExperimentDaemon(
            Orchestrator(store=store, jobs=jobs), **daemon_kwargs
        )
        daemons.append(daemon)
        return daemon.start()

    yield build
    for daemon in daemons:
        daemon.close()


@pytest.fixture
def daemon(daemon_factory):
    return daemon_factory()


@pytest.fixture
def client(daemon):
    with ServiceClient(daemon.url) as client:
        yield client
