"""Loop oracles for the slot kernel's hot paths.

Each function takes the :class:`~repro.sim.kernel.SlotKernel` it
reads (config, traces, latency model, green controller) as its first
argument, so :class:`LoopKernel` can adopt them as methods and
:func:`loop_engine` can run whole simulations on the reference loops.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

from repro.sim.engine import SimulationEngine
from repro.sim.kernel import SlotKernel
from tests.oracles.datacorr import volumes_loop


def demand_row(kernel: SlotKernel, vm, slot: int) -> np.ndarray:
    """One VM's demand row, cached per ``(vm_id, slot)`` in the
    kernel's own demand cache (so ``_evict_cache`` applies)."""
    key = (vm.vm_id, slot)
    row = kernel._demand_cache.get(key)
    if row is None:
        row = kernel.traces.slot_demand(vm, slot)
        kernel._demand_cache[key] = row
        kernel._demand_cache_slots.setdefault(slot, []).append(key)
    return row


def demand_rows(kernel: SlotKernel, vms: list, slot: int) -> np.ndarray:
    """The slot's demand matrix stacked from per-VM ``slot_demand`` rows."""
    if not vms:
        return np.zeros((0, kernel.config.steps_per_slot))
    return np.stack([demand_row(kernel, vm, slot) for vm in vms])


def dc_it_power_loop(
    kernel: SlotKernel, placement, dc_index: int, vm_rows, demand_now
) -> tuple[np.ndarray, int]:
    """IT power trace (W) and active servers of one DC: per-server and
    per-VM Python loops."""
    allocation = placement.allocations[dc_index]
    power = np.zeros(kernel.config.steps_per_slot)
    model = allocation.model
    for server_vms, level in zip(allocation.server_vms, allocation.frequencies):
        aggregate = np.zeros(kernel.config.steps_per_slot)
        for vm_id in server_vms:
            aggregate += demand_now[vm_rows[vm_id]]
        power += model.power_trace(level, aggregate)
    return power, allocation.active_servers


def dc_it_power_grouped(
    kernel: SlotKernel, placement, dc_index: int, vm_rows, demand_now
) -> tuple[np.ndarray, int]:
    """One DC's IT power from its own CSR server-by-VM-row product.

    The middle reference between the loops and the fleet-wide CSR
    product: the per-server aggregation is one segment-sum, whose
    terms accumulate in stored-column order (the loop's VM order).
    """
    allocation = placement.allocations[dc_index]
    n_servers = len(allocation.server_vms)
    if n_servers == 0:
        return np.zeros(kernel.config.steps_per_slot), allocation.active_servers
    model = allocation.model
    row_of_vm = np.array(
        [vm_rows[vm_id] for vms in allocation.server_vms for vm_id in vms],
        dtype=int,
    )
    indptr = np.concatenate(
        ([0], np.cumsum([len(vms) for vms in allocation.server_vms]))
    )
    membership = sparse.csr_matrix(
        (np.ones(row_of_vm.size), row_of_vm, indptr),
        shape=(n_servers, demand_now.shape[0]),
    )
    aggregate = membership @ demand_now
    levels = np.asarray(allocation.frequencies, dtype=int)
    level_caps = np.array(
        [model.capacity(index) for index in range(len(model.levels))]
    )
    level_idle = np.array([spec.idle_watts for spec in model.levels])
    level_peak = np.array([spec.peak_watts for spec in model.levels])
    utilization = np.clip(aggregate / level_caps[levels, None], 0.0, 1.0)
    per_server = (
        level_idle[levels, None]
        + (level_peak[levels, None] - level_idle[levels, None]) * utilization
    )
    return per_server.sum(axis=0), allocation.active_servers


def response_latencies_loop(
    kernel: SlotKernel, placement, vms: list, volumes_now, slot: int
) -> list[tuple[float, int]]:
    """Eq. 1 latency and receiving-VM count per destination DC, from
    per-source/per-destination ``np.nonzero`` scans and dict loops."""
    n_dcs = kernel.config.n_dcs
    dc_of = np.array([placement.assignment[vm.vm_id] for vm in vms], dtype=int)
    results: list[tuple[float, int]] = []
    received = volumes_now.sum(axis=0)  # MB flowing into each VM
    for dst in range(n_dcs):
        members = np.nonzero(dc_of == dst)[0]
        if members.size == 0:
            results.append((0.0, 0))
            continue
        volumes_from = {}
        for src in range(n_dcs):
            senders = np.nonzero(dc_of == src)[0]
            if senders.size == 0:
                continue
            volume = float(volumes_now[np.ix_(senders, members)].sum())
            if volume > 0.0:
                volumes_from[src] = volume
        latency = kernel.latency_model.destination_latency(
            dst, volumes_from, slot
        ).total_s
        receiving = int(np.count_nonzero(received[members] > 0.0))
        results.append((latency, receiving))
    return results


def slot_physics_loop(
    kernel: SlotKernel, slot: int, placement, vm_rows, demand_now, dcs, times
) -> tuple[list, list[int], list]:
    """Per-DC slot physics: loop IT power, the DC's own PUE and one
    scalar :meth:`~repro.core.green.GreenController.run_slot` each."""
    it_traces, actives, greens = [], [], []
    for dc in dcs:
        it_power, active = dc_it_power_loop(
            kernel, placement, dc.index, vm_rows, demand_now
        )
        facility_power = it_power * dc.spec.pue_model.pue(times)
        greens.append(kernel.green.run_slot(dc, slot, facility_power))
        actives.append(active)
        it_traces.append(it_power)
    return it_traces, actives, greens


class LoopKernel(SlotKernel):
    """A slot kernel running every hot path on its loop oracle."""

    _demand = demand_rows
    _response_latencies = response_latencies_loop
    _slot_physics = slot_physics_loop

    def _slot_volumes(self, vms, slot):
        return volumes_loop(self.volumes, vms, slot)


def loop_engine(config, policy, **options) -> SimulationEngine:
    """A :class:`SimulationEngine` whose kernel is a :class:`LoopKernel`.

    ``options`` are forwarded to the engine (``clairvoyant``,
    ``workload``, ``engine``); either driver then runs the loops.
    """
    engine = SimulationEngine(config, policy, **options)
    engine.kernel = LoopKernel(
        engine.config,
        population=engine.population,
        traces=engine.traces,
        volumes=engine.volumes,
        latency_model=engine.latency_model,
        green=engine.green,
    )
    return engine
