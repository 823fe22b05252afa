"""Discrete-event simulation driver.

The :class:`EventCore` advances the shared
:class:`~repro.sim.kernel.SlotKernel` from a typed event heap instead
of a ``for slot in range(...)`` loop -- the EventHeap idiom of the
massive-MIMO slicing simulator referenced in SNIPPETS.md: every state
change is a ``(time, kind, payload)`` tuple popped in time order
against incremental state.

Event taxonomy (the kind value doubles as the same-time priority, so
simultaneous events drain in lifecycle order):

==============  =====================================================
``DEPARTURE``   a VM leaves the population (boundary ``t = slot``)
``ARRIVAL``     a VM joins the population (after same-slot departures)
``MEASURE``     slot boundary: observe -> place -> kernel physics step
``MIGRATION``   one executed inter-DC move (trace event)
``TARIFF``      a site crossed its peak/off-peak price edge
``BATTERY``     a battery reversed direction (charge <-> discharge)
``REQUEST``     an aggregated batch of simulated user requests landing
                mid-slot at one DC (``t = slot + 0.5``)
==============  =====================================================

Slot-boundary equivalence contract: the MEASURE handler runs *exactly*
the slot driver's per-slot sequence -- the same kernel ``observe`` and
``step`` calls over the same alive-VM list (the incremental alive dict
replays arrivals/departures in vm_id order, which is
:meth:`~repro.workload.arrivals.VMPopulation.alive`'s ordering) -- so
``result.slots`` is byte-identical to the reference slot engine's.
The trace events (migration, tariff, battery, request) are *derived
from* the physics, never feed back into it; only the per-request
latency ledger (:attr:`~repro.sim.results.RunResult.requests`) and the
event counters depend on them.

Per-request latencies: each slot the driver draws one Poisson request
count per destination DC (``receiving_vms *``
:data:`REQUESTS_PER_VM_HOUR`), from a dedicated
``default_rng([seed, slot, salt])`` stream so request sampling can
never perturb the workload/physics streams, and ledgers the batch at
the DC's Eq. 1 latency.  Millions of simulated requests cost one
ledger row per (slot, DC) -- the p50/p99/p99.9 accessors on
:class:`~repro.sim.results.RunResult` expand the weights exactly.
"""

from __future__ import annotations

import heapq
import itertools

import numpy as np

from repro.sim.config import build_datacenters
from repro.sim.results import RunResult
from repro.units import SECONDS_PER_HOUR
from repro.workload.arrivals import EVENT_ARRIVAL

#: Event kinds, in same-time drain order.
DEPARTURE = 0
ARRIVAL = 1
MEASURE = 2
MIGRATION = 3
TARIFF = 4
BATTERY = 5
REQUEST = 6

KIND_NAMES = {
    DEPARTURE: "departure",
    ARRIVAL: "arrival",
    MEASURE: "measure",
    MIGRATION: "migration",
    TARIFF: "tariff",
    BATTERY: "battery",
    REQUEST: "request",
}

#: Mean simulated user requests per receiving VM per hour-slot: the
#: intensity of the event driver's Poisson request stream.  Only the
#: request ledger depends on it -- slot physics never does.
REQUESTS_PER_VM_HOUR = 120.0

#: Third word of the request-stream seed sequence -- keeps the request
#: Poisson draws on their own stream, disjoint from the workload
#: streams derived from ``config.seed`` alone.
_REQUEST_SALT = 0xE7


class EventHeap:
    """A time-ordered heap of ``(time, kind, payload)`` events.

    Ties break by kind (lifecycle order above), then by push order --
    the monotone sequence number makes the drain order total and
    deterministic without ever comparing payloads.
    """

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, int, object]] = []
        self._seq = itertools.count()

    def push(self, time: float, kind: int, payload: object = None) -> None:
        """Schedule an event at ``time`` (in slots)."""
        heapq.heappush(self._heap, (time, kind, next(self._seq), payload))

    def pop(self) -> tuple[float, int, object]:
        """Remove and return the earliest event."""
        time, kind, _, payload = heapq.heappop(self._heap)
        return time, kind, payload

    def peek_time(self) -> float:
        """Time of the earliest event (heap must be non-empty)."""
        return self._heap[0][0]

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)


class EventCore:
    """Drains the event heap against the engine's slot kernel.

    Built by :meth:`SimulationEngine.run` when the engine config says
    ``kind="event"``; holds no physics of its own.
    """

    def __init__(self, engine) -> None:
        self.engine = engine
        self.heap = EventHeap()
        #: Drained events per kind name (observability; tests assert
        #: the lifecycle counts match the population).
        self.event_counts: dict[str, int] = {
            name: 0 for name in KIND_NAMES.values()
        }
        self._alive: dict[int, object] = {}
        self._previous_assignment: dict[int, int] = {}
        #: Per-DC peak-tariff flag and battery direction of the
        #: previous slot, for edge detection.
        self._was_peak: list[bool | None] = []
        self._battery_direction: list[int] = []

    # -- schedule ------------------------------------------------------

    def _schedule_initial(self) -> None:
        config = self.engine.config
        for slot, kind, vm in self.engine.kernel.population.events():
            self.heap.push(
                float(slot),
                ARRIVAL if kind == EVENT_ARRIVAL else DEPARTURE,
                vm,
            )
        for slot in range(config.horizon_slots):
            self.heap.push(float(slot), MEASURE, slot)

    # -- handlers ------------------------------------------------------

    def _handle_measure(self, slot: int, dcs, result: RunResult) -> None:
        engine = self.engine
        kernel = engine.kernel
        vms = list(self._alive.values())
        observation = kernel.observe(
            slot,
            vms,
            self._previous_assignment,
            dcs,
            clairvoyant=engine.clairvoyant,
        )
        placement = engine.policy.place(observation)
        placement.validate(observation)

        record = kernel.step(slot, vms, placement, dcs)
        result.slots.append(record)
        self._previous_assignment = dict(placement.assignment)
        kernel._evict_cache(slot)

        for move in placement.moves:
            self.heap.push(float(slot), MIGRATION, move)
        self._schedule_tariff_edges(slot, dcs)
        self._schedule_battery_edges(slot, record)
        self._schedule_requests(slot, record)

    def _schedule_tariff_edges(self, slot: int, dcs) -> None:
        mid_slot_s = (slot + 0.5) * SECONDS_PER_HOUR
        for dc in dcs:
            peak = bool(dc.spec.tariff.is_peak(mid_slot_s))
            if self._was_peak[dc.index] is not None and (
                peak != self._was_peak[dc.index]
            ):
                self.heap.push(float(slot), TARIFF, (dc.index, peak))
            self._was_peak[dc.index] = peak

    def _schedule_battery_edges(self, slot: int, record) -> None:
        for dc_index, dc_record in enumerate(record.dc_records):
            delta = dc_record.green.soc_end - dc_record.green.soc_start
            direction = (delta > 0.0) - (delta < 0.0)
            if direction != 0 and direction != self._battery_direction[dc_index]:
                self.heap.push(float(slot), BATTERY, (dc_index, direction))
            if direction != 0:
                self._battery_direction[dc_index] = direction

    def _schedule_requests(self, slot: int, record) -> None:
        rng = np.random.default_rng(
            [self.engine.config.seed, slot, _REQUEST_SALT]
        )
        for dc_index, dc_record in enumerate(record.dc_records):
            if dc_record.receiving_vms == 0:
                continue
            count = int(
                rng.poisson(dc_record.receiving_vms * REQUESTS_PER_VM_HOUR)
            )
            if count == 0:
                continue
            self.heap.push(
                slot + 0.5,
                REQUEST,
                (slot, dc_index, dc_record.response_latency_s, count),
            )

    # -- drive ---------------------------------------------------------

    def run(self) -> RunResult:
        """Drain the heap over the horizon and return the ledger."""
        engine = self.engine
        config = engine.config
        engine.policy.reset()
        dcs = build_datacenters(config)
        self._was_peak = [None] * config.n_dcs
        self._battery_direction = [0] * config.n_dcs
        result = RunResult(
            policy_name=engine.policy.name,
            config_name=config.name,
            requests=[],
        )
        self._schedule_initial()

        while self.heap:
            _, kind, payload = self.heap.pop()
            self.event_counts[KIND_NAMES[kind]] += 1
            if kind == DEPARTURE:
                del self._alive[payload.vm_id]
            elif kind == ARRIVAL:
                self._alive[payload.vm_id] = payload
            elif kind == MEASURE:
                self._handle_measure(payload, dcs, result)
            elif kind == REQUEST:
                slot, dc_index, latency_s, count = payload
                result.requests.append([slot, dc_index, latency_s, count])
            # MIGRATION / TARIFF / BATTERY are pure trace events: the
            # counter above is their whole effect.

        return result
