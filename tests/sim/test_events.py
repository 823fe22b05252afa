"""Event-driven engine core: heap ordering, equivalence, validation."""

from __future__ import annotations

import json

import pytest

from repro.baselines import EnerAwarePolicy
from repro.sim.config import EngineCoreConfig, scaled_config
from repro.sim.engine import SimulationEngine
from repro.sim.events import (
    ARRIVAL,
    BATTERY,
    DEPARTURE,
    MEASURE,
    MIGRATION,
    REQUEST,
    TARIFF,
    EventCore,
    EventHeap,
)
from repro.workload.arrivals import (
    EVENT_ARRIVAL,
    EVENT_DEPARTURE,
    VMPopulation,
)
from repro.workload.packs import default_pack


@pytest.fixture(scope="module")
def config():
    return scaled_config("tiny").with_horizon(8)


@pytest.fixture(scope="module")
def slot_result(config):
    return SimulationEngine(config, EnerAwarePolicy()).run()


@pytest.fixture(scope="module")
def event_engine(config):
    return SimulationEngine(
        config, EnerAwarePolicy(), engine=EngineCoreConfig(kind="event")
    )


@pytest.fixture(scope="module")
def event_result(event_engine):
    return event_engine.run()


def slot_dicts(result) -> list[dict]:
    return [record.to_dict() for record in result.slots]


class TestEventHeap:
    def test_orders_by_time(self):
        heap = EventHeap()
        heap.push(2.0, MEASURE, "late")
        heap.push(0.5, REQUEST, "early")
        heap.push(1.0, MEASURE, "middle")
        assert [heap.pop()[2] for _ in range(3)] == [
            "early", "middle", "late",
        ]

    def test_same_time_drains_in_lifecycle_order(self):
        heap = EventHeap()
        for kind in (REQUEST, MEASURE, ARRIVAL, DEPARTURE):
            heap.push(3.0, kind, kind)
        drained = [heap.pop()[1] for _ in range(4)]
        assert drained == [DEPARTURE, ARRIVAL, MEASURE, REQUEST]

    def test_same_time_same_kind_keeps_push_order(self):
        heap = EventHeap()
        for label in ("a", "b", "c"):
            heap.push(1.0, MIGRATION, label)
        assert [heap.pop()[2] for _ in range(3)] == ["a", "b", "c"]

    def test_len_peek_and_bool(self):
        heap = EventHeap()
        assert not heap and len(heap) == 0
        heap.push(4.0, TARIFF)
        heap.push(1.5, BATTERY)
        assert heap and len(heap) == 2
        assert heap.peek_time() == 1.5


class TestEngineCoreConfig:
    def test_defaults(self):
        core = EngineCoreConfig()
        assert core.kind == "slot"

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="kind"):
            EngineCoreConfig(kind="warp")


class TestPopulationEvents:
    def test_events_cover_the_population(self, config):
        population = VMPopulation.generate(
            config.arrival_model, config.horizon_slots, seed=config.seed
        )
        events = population.events()
        arrivals = [e for e in events if e[1] == EVENT_ARRIVAL]
        departures = [e for e in events if e[1] == EVENT_DEPARTURE]
        assert len(arrivals) == len(population.vms)
        assert len(departures) == sum(
            1
            for vm in population.vms
            if vm.departure_slot < population.horizon_slots
        )
        slots = [e[0] for e in events]
        assert slots == sorted(slots)

    def test_alive_replay_matches_alive_query(self, config):
        """The incremental alive dict reproduces ``alive(slot)`` exactly."""
        population = VMPopulation.generate(
            config.arrival_model, config.horizon_slots, seed=config.seed
        )
        alive: dict[int, object] = {}
        by_slot: dict[int, list] = {
            slot: [] for slot in range(config.horizon_slots)
        }
        for slot, kind, vm in population.events():
            by_slot[slot].append((kind, vm))
        for slot in range(config.horizon_slots):
            for kind, vm in sorted(by_slot[slot], key=lambda e: e[0]):
                if kind == EVENT_DEPARTURE:
                    del alive[vm.vm_id]
                else:
                    alive[vm.vm_id] = vm
            assert list(alive.values()) == population.alive(slot)


class TestSlotBoundaryEquivalence:
    def test_all_four_policies_byte_identical(self):
        from repro.experiments.runner import default_policies
        from repro.sim.engine import run_policies

        config = scaled_config("tiny").with_horizon(4)
        slot_runs = run_policies(config, default_policies())
        event_runs = run_policies(
            config,
            default_policies(),
            engine=EngineCoreConfig(kind="event"),
        )
        for slot_run, event_run in zip(slot_runs, event_runs):
            assert json.dumps(slot_dicts(event_run)) == json.dumps(
                slot_dicts(slot_run)
            ), slot_run.policy_name

    def test_slot_ledgers_byte_identical(self, slot_result, event_result):
        slot_bytes = json.dumps(slot_dicts(slot_result), sort_keys=True)
        event_bytes = json.dumps(slot_dicts(event_result), sort_keys=True)
        assert slot_bytes == event_bytes

    def test_event_counts_match_population(
        self, config, event_engine, event_result
    ):
        core = EventCore(
            SimulationEngine(
                config,
                EnerAwarePolicy(),
                engine=EngineCoreConfig(kind="event"),
            )
        )
        result = core.run()
        population = core.engine.kernel.population
        assert core.event_counts["arrival"] == len(population.vms)
        assert core.event_counts["measure"] == config.horizon_slots
        assert core.event_counts["departure"] == sum(
            1
            for vm in population.vms
            if vm.departure_slot < population.horizon_slots
        )
        assert core.event_counts["migration"] == result.total_migrations()
        assert core.event_counts["request"] == len(result.requests)

    def test_request_ledger_is_deterministic(self, config, event_result):
        again = SimulationEngine(
            config, EnerAwarePolicy(), engine=EngineCoreConfig(kind="event")
        ).run()
        assert again.requests == event_result.requests

    def test_request_rows_reference_the_run(self, config, event_result):
        assert event_result.requests
        for slot, dc_index, latency_s, count in event_result.requests:
            assert 0 <= slot < config.horizon_slots
            assert 0 <= dc_index < config.n_dcs
            assert latency_s >= 0.0
            assert count > 0


class TestPercentileAccessors:
    def test_slot_engine_degrades_to_none(self, slot_result):
        assert slot_result.requests is None
        assert slot_result.total_requests() is None
        assert slot_result.p50_request_s() is None
        assert slot_result.p99_request_s() is None
        assert slot_result.p999_request_s() is None

    def test_event_engine_percentiles_are_ordered(self, event_result):
        p50 = event_result.p50_request_s()
        p99 = event_result.p99_request_s()
        p999 = event_result.p999_request_s()
        assert p50 <= p99 <= p999
        assert event_result.total_requests() > 0

    def test_round_trip_preserves_the_ledger(self, event_result):
        from repro.sim.results import RunResult

        back = RunResult.from_dict(
            json.loads(json.dumps(event_result.to_dict()))
        )
        assert back.requests == event_result.requests
        assert back.p99_request_s() == event_result.p99_request_s()

    def test_slot_engine_dump_has_no_requests_key(self, slot_result):
        assert "requests" not in slot_result.to_dict()

    def test_headline_carries_request_percentiles(
        self, slot_result, event_result
    ):
        event_headline = event_result.headline()
        assert event_headline["total_requests"] == (
            event_result.total_requests()
        )
        assert event_headline["p99.9_request_s"] == (
            event_result.p999_request_s()
        )
        slot_headline = slot_result.headline()
        assert slot_headline["total_requests"] is None
        assert slot_headline["p50_request_s"] is None


class TestValidation:
    def test_policy_requiring_slot_engine_is_rejected(self, config):
        class SlotOnlyPolicy(EnerAwarePolicy):
            requires_slot_engine = True

        with pytest.raises(ValueError, match="requires the slot engine"):
            SimulationEngine(
                config,
                SlotOnlyPolicy(),
                engine=EngineCoreConfig(kind="event"),
            )

    def test_workload_without_event_support_is_rejected(self, config):
        class NoEventWorkload:
            supports_event_core = False

            def __init__(self, inner):
                self._inner = inner

            def configure(self, config):
                return self._inner.configure(config)

            def build_traces(self, config):
                return self._inner.build_traces(config)

            def build_volumes(self, config):
                return self._inner.build_volumes(config)

            def descriptor(self):
                return self._inner.descriptor()

        with pytest.raises(ValueError, match="does not support the event"):
            SimulationEngine(
                config,
                EnerAwarePolicy(),
                workload=NoEventWorkload(default_pack()),
                engine=EngineCoreConfig(kind="event"),
            )

    def test_slot_engine_accepts_both(self, config):
        class SlotOnlyPolicy(EnerAwarePolicy):
            requires_slot_engine = True

        engine = SimulationEngine(config, SlotOnlyPolicy())
        assert engine.engine_config.kind == "slot"
