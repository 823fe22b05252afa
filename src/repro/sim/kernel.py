"""Driver-agnostic per-slot simulation kernel.

The :class:`SlotKernel` owns everything a simulation *driver* needs to
advance one hour-slot of the paper's protocol, independent of how the
driver schedules those slots:

* workload access -- realized demand matrices and data-volume matrices,
  with the per-slot row cache and the optional shared
  :class:`~repro.workload.materialize.WorkloadMaterialization`;
* the per-slot physics -- the fleet-batched CSR kernel for every DC's
  IT power, PUE, the green controller pass, and the Eq. 1
  response-latency evaluation;
* the accounting -- assembling the :class:`~repro.sim.results.SlotRecord`
  ledger entry for a slot.

Two drivers consume it: the slot-stepped reference loop in
:class:`~repro.sim.engine.SimulationEngine` (the default) and the
discrete-event :class:`~repro.sim.events.EventCore`.  Both call the
same :meth:`observe` / :meth:`step` pair per slot, so their
slot-boundary ledgers are byte-identical by construction -- the kernel
is the single place slot physics happens.

Each hot path has one implementation here.  The reference loops it
replaced live in ``tests/oracles/`` as test oracles; the equivalence
tests and benchmarks compare these methods (addressed as
``engine.kernel._fleet_it_power`` and so on) against them bit for bit.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

from repro.core.green import GreenController
from repro.datacenter.pue import fleet_pue
from repro.sim.config import ExperimentConfig
from repro.sim.results import DCSlotRecord, SlotRecord
from repro.sim.state import FleetPlacement, SlotObservation
from repro.units import SECONDS_PER_HOUR
from repro.workload.arrivals import VMPopulation
from repro.workload.materialize import assemble_demand
from repro.workload.vm import VirtualMachine


class SlotKernel:
    """Per-slot physics and accounting, shared by every driver.

    Parameters
    ----------
    config:
        The (already workload-configured) experiment configuration.
    population:
        The realized VM population over the horizon.
    traces:
        Demand-trace source (``slot_demand`` / ``slot_demand_many``).
    volumes:
        Data-volume process (``volumes(vms, slot)``).
    latency_model:
        The Eq. 1 latency model of the fleet.
    green:
        The green controller stepping batteries/tariffs inside a slot.
    materialization:
        Optional shared workload materialization (see the engine).
    """

    def __init__(
        self,
        config: ExperimentConfig,
        *,
        population: VMPopulation,
        traces,
        volumes,
        latency_model,
        green: GreenController,
        materialization=None,
    ) -> None:
        self.config = config
        self.population = population
        self.traces = traces
        self.volumes = volumes
        self.latency_model = latency_model
        self.green = green
        self._materialization = materialization
        self._demand_cache: dict[tuple[int, int], np.ndarray] = {}
        #: Per-slot buckets of cache keys so eviction touches only the
        #: keys it removes (O(evicted)), not every live key each slot.
        self._demand_cache_slots: dict[int, list[tuple[int, int]]] = {}
        #: Per-ServerModel (capacity, idle, peak) level arrays, keyed
        #: by object id; the value keeps the model alive so ids stay
        #: unique.  Server models are fixed per spec, so the fleet
        #: kernel gathers per-server coefficients without rebuilding
        #: these arrays every slot.
        self._level_cache: dict[int, tuple] = {}

    def _level_arrays(self, model) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Cached per-level (capacity, idle W, peak W) arrays of a model."""
        cached = self._level_cache.get(id(model))
        if cached is None or cached[0] is not model:
            cached = (
                model,
                np.array(
                    [model.capacity(index) for index in range(len(model.levels))]
                ),
                np.array([spec.idle_watts for spec in model.levels]),
                np.array([spec.peak_watts for spec in model.levels]),
            )
            self._level_cache[id(model)] = cached
        return cached[1], cached[2], cached[3]

    # -- workload access ------------------------------------------------

    def _demand(self, vms: list[VirtualMachine], slot: int) -> np.ndarray:
        if not vms:
            return np.zeros((0, self.config.steps_per_slot))
        if self._materialization is not None:
            matrix = self._materialization.demand(vms, slot)
            if matrix is not None:
                return matrix
        cached = [self._demand_cache.get((vm.vm_id, slot)) for vm in vms]
        matrix = assemble_demand(self.traces, vms, slot, cached)
        # Freeze so cached row views cannot be corrupted downstream --
        # nothing in the engine or the policies writes to demand
        # matrices, and the materialization path serves frozen arrays
        # already.
        matrix.flags.writeable = False
        for index, row in enumerate(cached):
            if row is None:
                key = (vms[index].vm_id, slot)
                self._demand_cache[key] = matrix[index]
                self._demand_cache_slots.setdefault(slot, []).append(key)
        return matrix

    def _slot_volumes(self, vms: list[VirtualMachine], slot: int):
        """The slot's volume matrix, via the shared materialization
        cache when one is installed (with per-run fallback)."""
        if self._materialization is not None:
            matrix = self._materialization.volume_matrix(vms, slot)
            if matrix is not None:
                return matrix
        return self.volumes.volumes(vms, slot)

    def _evict_cache(self, older_than_slot: int) -> None:
        for slot in [s for s in self._demand_cache_slots if s < older_than_slot]:
            for key in self._demand_cache_slots.pop(slot):
                del self._demand_cache[key]

    # -- per-slot physics -------------------------------------------------

    def _fleet_it_power(
        self,
        placement: FleetPlacement,
        vm_rows: dict[int, int],
        demand_now: np.ndarray,
    ) -> tuple[np.ndarray, list[int]]:
        """IT power traces (W) of *every* DC from one CSR product.

        Builds a single server-by-VM-row membership matrix over the
        whole placement -- block rows per DC, in DC index order --
        instead of rebuilding one matrix per DC per slot, and computes
        all per-server aggregates and power draws in one pass.
        Returns the ``(n_dcs, steps)`` power matrix and the per-DC
        active-server counts.

        Bit-identity with the per-server loop oracle: a CSR row's
        product terms accumulate in stored-column order, which is the
        loop's VM order, regardless of which other rows share the
        matrix; the per-server power expression is elementwise; and
        each DC's final reduction is ``sum(axis=0)`` over its
        *contiguous block* of per-server rows, accumulating
        sequentially exactly like the loop's ``power +=``.
        """
        steps = self.config.steps_per_slot
        allocations = placement.allocations
        actives = [allocation.active_servers for allocation in allocations]
        counts = [len(allocation.server_vms) for allocation in allocations]
        power = np.zeros((self.config.n_dcs, steps))
        if sum(counts) == 0:
            return power, actives

        row_of_vm = np.array(
            [
                vm_rows[vm_id]
                for allocation in allocations
                for vms in allocation.server_vms
                for vm_id in vms
            ],
            dtype=int,
        )
        indptr = np.concatenate(
            (
                [0],
                np.cumsum(
                    [
                        len(vms)
                        for allocation in allocations
                        for vms in allocation.server_vms
                    ]
                ),
            )
        )
        membership = sparse.csr_matrix(
            (np.ones(row_of_vm.size), row_of_vm, indptr),
            shape=(sum(counts), demand_now.shape[0]),
        )
        aggregate = membership @ demand_now

        cap_rows, idle_rows, peak_rows = [], [], []
        for allocation in allocations:
            if not allocation.server_vms:
                continue
            levels = np.asarray(allocation.frequencies, dtype=int)
            level_caps, level_idle, level_peak = self._level_arrays(
                allocation.model
            )
            cap_rows.append(level_caps[levels])
            idle_rows.append(level_idle[levels])
            peak_rows.append(level_peak[levels])
        caps = np.concatenate(cap_rows)
        idle = np.concatenate(idle_rows)
        peaks = np.concatenate(peak_rows)
        # clip(x, 0, 1) reduced to the saturation bound with buffer
        # reuse.  The lower clip is dropped: aggregates are sums of
        # non-negative demand over positive capacities, so utilization
        # can only differ from clip's by the sign of a zero -- and
        # ``idle + span * u`` maps both zeros to the same bits.
        utilization = np.divide(aggregate, caps[:, None], out=aggregate)
        np.minimum(utilization, 1.0, out=utilization)
        per_server = np.multiply(
            utilization, (peaks - idle)[:, None], out=utilization
        )
        per_server += idle[:, None]

        bounds = np.concatenate(([0], np.cumsum(counts)))
        for dc_index in range(self.config.n_dcs):
            block = per_server[bounds[dc_index] : bounds[dc_index + 1]]
            if block.shape[0]:
                power[dc_index] = block.sum(axis=0)
        return power, actives

    def _response_latencies(
        self,
        placement: FleetPlacement,
        vms: list[VirtualMachine],
        volumes_now: np.ndarray,
        slot: int,
    ) -> list[tuple[float, int]]:
        """Eq. 1 latency and receiving-VM count per destination DC.

        One stable argsort yields each DC's member indices (ascending,
        matching the loop oracle's ``np.nonzero``), replacing its
        2 x n_dcs ``np.nonzero`` scans; each pair volume is then the
        oracle's own ``volumes[np.ix_(src, dst)].sum()`` --
        bit-identical by construction, with one fused gather+sum per
        pair.

        Deliberately *not* ``np.add.reduceat``: reduceat accumulates
        strictly left-to-right while ndarray ``.sum()`` reduces
        pairwise, so their float64 results differ in the last ulps for
        any realistic block -- it cannot satisfy the bit-identity
        contract (see test_reduceat_is_not_bit_identical).
        """
        n_dcs = self.config.n_dcs
        dc_of = np.array([placement.assignment[vm.vm_id] for vm in vms], dtype=int)
        n_vms = dc_of.size
        received = volumes_now.sum(axis=0)  # MB flowing into each VM
        if n_vms == 0:
            member_counts = np.zeros(n_dcs, dtype=int)
            receiving_counts = np.zeros(n_dcs, dtype=int)
            pair_volumes = np.zeros((n_dcs, n_dcs))
        else:
            member_counts = np.bincount(dc_of, minlength=n_dcs)
            receiving_counts = np.bincount(
                dc_of[received > 0.0], minlength=n_dcs
            )
            order = np.argsort(dc_of, kind="stable")
            bounds = np.concatenate(([0], np.cumsum(member_counts)))
            groups = [
                order[bounds[dc] : bounds[dc + 1]] for dc in range(n_dcs)
            ]
            pair_volumes = np.zeros((n_dcs, n_dcs))
            for src in range(n_dcs):
                if member_counts[src] == 0:
                    continue
                for dst in range(n_dcs):
                    if member_counts[dst] == 0:
                        continue
                    pair_volumes[src, dst] = volumes_now[
                        np.ix_(groups[src], groups[dst])
                    ].sum()

        results: list[tuple[float, int]] = []
        for dst in range(n_dcs):
            if member_counts[dst] == 0:
                results.append((0.0, 0))
                continue
            volumes_from = {
                src: float(pair_volumes[src, dst])
                for src in range(n_dcs)
                if pair_volumes[src, dst] > 0.0
            }
            latency = self.latency_model.destination_latency(
                dst, volumes_from, slot
            ).total_s
            results.append((latency, int(receiving_counts[dst])))
        return results

    def _slot_physics(
        self,
        slot: int,
        placement: FleetPlacement,
        vm_rows: dict[int, int],
        demand_now: np.ndarray,
        dcs: list,
        times: np.ndarray,
    ) -> tuple[np.ndarray, list[int], list]:
        """Every DC's IT power trace, active servers and green ledger.

        Fleet-batched: one CSR product for all DCs' IT power, one PUE
        broadcast, one green-controller kernel stepping every battery
        as struct-of-arrays.
        """
        it_matrix, actives = self._fleet_it_power(
            placement, vm_rows, demand_now
        )
        facility_matrix = it_matrix * fleet_pue(
            [dc.spec.pue_model for dc in dcs], times
        )
        greens = self.green.run_slot_fleet(dcs, slot, facility_matrix)
        return it_matrix, actives, greens

    # -- driver interface -------------------------------------------------

    def observe(
        self,
        slot: int,
        vms: list[VirtualMachine],
        previous_assignment: dict[int, int],
        dcs: list,
        clairvoyant: bool = False,
    ) -> SlotObservation:
        """Assemble the policy-facing observation for ``slot``.

        Carries the *previous* slot's realized traces and volumes
        (Section IV-A's last-interval protocol) unless ``clairvoyant``,
        and the previous assignment restricted to still-alive VMs.
        """
        observed_slot = slot if clairvoyant else max(slot - 1, 0)
        return SlotObservation(
            slot=slot,
            vms=vms,
            demand_traces=self._demand(vms, observed_slot),
            volumes=self._slot_volumes(vms, observed_slot),
            previous_assignment={
                vm.vm_id: previous_assignment[vm.vm_id]
                for vm in vms
                if vm.vm_id in previous_assignment
            },
            dcs=dcs,
            latency_model=self.latency_model,
            latency_constraint_s=self.config.latency_constraint_s,
        )

    def step(
        self,
        slot: int,
        vms: list[VirtualMachine],
        placement: FleetPlacement,
        dcs: list,
    ) -> SlotRecord:
        """Advance one slot of physics and return its ledger entry.

        Replays ``placement`` against the realized current-slot traces:
        IT power at the chosen DVFS levels, times the time-varying PUE,
        through the green controller (renewables, battery, grid, cost),
        plus the Eq. 1 response latencies.  Mutates the battery state
        held in ``dcs`` and the per-DC history -- drivers call this
        exactly once per slot, in slot order.
        """
        config = self.config
        vm_rows = {vm.vm_id: row for row, vm in enumerate(vms)}
        demand_now = self._demand(vms, slot)
        volumes_now = self._slot_volumes(vms, slot)
        latencies = self._response_latencies(
            placement, vms, volumes_now.volumes, slot
        )

        slot_record = SlotRecord(
            slot=slot,
            n_vms=len(vms),
            migrations=len(placement.moves),
            migration_volume_mb=sum(move.image_mb for move in placement.moves),
        )

        times = slot * SECONDS_PER_HOUR + (
            (np.arange(config.steps_per_slot) + 0.5)
            * (SECONDS_PER_HOUR / config.steps_per_slot)
        )
        step_s = SECONDS_PER_HOUR / config.steps_per_slot
        it_traces, actives, greens = self._slot_physics(
            slot, placement, vm_rows, demand_now, dcs, times
        )
        for dc in dcs:
            green = greens[dc.index]
            dc.record_slot(slot, green.facility_energy, green.pv_generated)
            latency, receiving = latencies[dc.index]
            slot_record.dc_records.append(
                DCSlotRecord(
                    green=green,
                    it_energy_joules=float(
                        it_traces[dc.index].sum() * step_s
                    ),
                    active_servers=actives[dc.index],
                    response_latency_s=latency,
                    receiving_vms=receiving,
                )
            )
        return slot_record
