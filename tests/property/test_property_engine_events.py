"""Property tests: event-driver equivalence and weighted percentiles.

The discrete-event driver's contract is *byte-identical* slot-boundary
ledgers against the slot-stepped reference loop -- for any seed and
any workload pack kind (synthetic generator, recorded matrix, bare
trace library).  Hypothesis sweeps that product at tiny scale; each
example runs both drivers end to end and compares the serialized
ledgers, which covers battery state, cost ledgers and migration counts
in one equality.

``weighted_percentile`` backs the per-request latency accessors: its
pin is bit-exact agreement with ``np.percentile`` over the expanded
(``np.repeat``) sample array, for any weights.
"""

from __future__ import annotations

import json

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import EnerAwarePolicy
from repro.sim.config import EngineCoreConfig, scaled_config
from repro.sim.engine import SimulationEngine
from repro.sim.metrics import weighted_percentile
from repro.workload.packs import LibraryWorkload, RecordedTraceSource, TracePack
from repro.workload.recorded import RecordedTraceLibrary

#: Slots per example; long enough for arrivals, departures, tariff
#: edges and migrations to all occur, short enough for ~10 examples.
HORIZON = 6

PACK_KINDS = ("synthetic", "recorded", "library")


def _recorded_matrix(seed: int) -> np.ndarray:
    rng = np.random.default_rng([seed, 0xAB])
    return rng.uniform(0.1, 0.8, size=(3, 60))


def _engine_kwargs(kind: str, seed: int) -> dict:
    if kind == "synthetic":
        return {}
    if kind == "recorded":
        return {
            "workload": TracePack(
                name="prop-recorded",
                source=RecordedTraceSource(
                    utilization=_recorded_matrix(seed), steps_per_slot=30
                ),
            )
        }
    return {
        "workload": LibraryWorkload(
            RecordedTraceLibrary(_recorded_matrix(seed), steps_per_slot=30)
        )
    }


class TestEventDriverEquivalence:
    @given(
        seed=st.integers(0, 4),
        pack_kind=st.sampled_from(PACK_KINDS),
    )
    @settings(max_examples=12, deadline=None)
    def test_slot_ledgers_byte_identical(self, seed, pack_kind):
        config = scaled_config("tiny", seed=seed).with_horizon(HORIZON)
        kwargs = _engine_kwargs(pack_kind, seed)
        slot_run = SimulationEngine(
            config, EnerAwarePolicy(), **kwargs
        ).run()
        event_run = SimulationEngine(
            config,
            EnerAwarePolicy(),
            engine=EngineCoreConfig(kind="event"),
            **kwargs,
        ).run()
        slot_bytes = json.dumps(
            [record.to_dict() for record in slot_run.slots], sort_keys=True
        )
        event_bytes = json.dumps(
            [record.to_dict() for record in event_run.slots], sort_keys=True
        )
        assert event_bytes == slot_bytes
        # The ledgers' equality pins the derived aggregates too; spot
        # checks keep the failure message close to the physics.
        assert event_run.total_grid_cost_eur() == (
            slot_run.total_grid_cost_eur()
        )
        assert event_run.total_migrations() == slot_run.total_migrations()


class TestWeightedPercentile:
    @given(
        values=st.lists(
            st.floats(0.0, 1e3, allow_nan=False), min_size=1, max_size=30
        ),
        counts=st.data(),
        percentile=st.sampled_from((0.0, 12.5, 50.0, 75.0, 99.0, 99.9, 100.0)),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_numpy_on_expanded_samples(
        self, values, counts, percentile
    ):
        weights = counts.draw(
            st.lists(
                st.integers(1, 50),
                min_size=len(values),
                max_size=len(values),
            )
        )
        values = np.array(values)
        weights = np.array(weights)
        expanded = np.repeat(values, weights)
        assert weighted_percentile(values, weights, percentile) == (
            float(np.percentile(expanded, percentile))
        )

    def test_zero_weights_are_dropped(self):
        values = np.array([1.0, 5.0, 9.0])
        counts = np.array([3, 0, 2])
        expanded = np.repeat(values, counts)
        assert weighted_percentile(values, counts, 50.0) == (
            float(np.percentile(expanded, 50.0))
        )

    def test_all_zero_weights_raise(self):
        import pytest

        with pytest.raises(ValueError):
            weighted_percentile(
                np.array([1.0]), np.array([0]), 50.0
            )
