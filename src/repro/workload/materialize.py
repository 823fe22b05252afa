"""Content-keyed workload materializations shared across runs.

The paper's deliverables are sweeps: many policies (and engine-option
variants) evaluated over the *same* workload realization.  Every
:class:`~repro.sim.engine.SimulationEngine` historically rebuilt that
realization from scratch -- the VM population, the trace library, the
data-correlation process, and (the dominant cost) every realized
per-slot demand matrix and volume matrix.  Profiling a baseline-policy
run shows ~90% of its wall time is exactly this workload generation,
recomputed identically for every policy in a comparison.

This module factors the whole workload side of a run into one shared,
reusable unit:

* :func:`materialization_key` -- a deterministic SHA-256 over the
  *workload-relevant* request state: the pack's content hash plus the
  configured experiment's seed, horizon, slot resolution and arrival
  model.  Two runs share a key iff they realize bit-identical
  workloads.
* :class:`WorkloadMaterialization` -- population + trace library +
  volume process, plus a :class:`SlotDataCache` of *realized* per-slot
  demand and volume matrices (the arrays every run of the key would
  otherwise regenerate).  Served arrays are marked read-only: sharing
  is only sound because policies never write observations, and the
  flag turns any future violation into an immediate ``ValueError``
  instead of a silent cross-run corruption.
* :class:`MaterializationCache` -- a bounded per-process LRU of
  materializations, installed in orchestrator worker processes via the
  pool initializer (:func:`configure_process_cache`) and consulted by
  :func:`~repro.experiments.orchestrator.Orchestrator` submissions.

Correctness contract
--------------------

The cache is an *execution detail*: it never joins a
:class:`~repro.experiments.orchestrator.RunRequest` fingerprint, and a
cached run must be byte-identical to a from-scratch run.  That holds
because every shared component is a deterministic memo of the same
seeded draws the engine would perform itself: demand rows come from
the same ``slot_demand`` calls in the same order, volume matrices from
the same :class:`~repro.workload.datacorr.DataCorrelationProcess`
(whose per-pair RNG streams depend only on vm ids), and the population
from the same ``VMPopulation.generate``.
``tests/experiments/test_workload_cache.py`` asserts the equivalence
across pack kinds and execution paths.
"""

from __future__ import annotations

import dataclasses
import enum
import json
import threading
from typing import Callable

import numpy as np

from repro.workload.arrivals import VMPopulation
from repro.workload.packs import TracePack, default_pack, _hash_items

__all__ = [
    "DEFAULT_CACHE_MATERIALIZATIONS",
    "DEFAULT_SLOT_BUDGET_BYTES",
    "MaterializationCache",
    "SlotDataCache",
    "WorkloadMaterialization",
    "assemble_demand",
    "build_materialization",
    "configure_process_cache",
    "materialization_key",
    "process_cache",
]

#: Default number of materializations kept per process.  A sweep
#: touches few distinct workloads at a time (policies x options share
#: one), so a small LRU covers the working set while bounding memory.
DEFAULT_CACHE_MATERIALIZATIONS = 4

#: Default byte budget for one materialization's realized slot data.
#: Covers a full small-scale week (~85 MB of demand + volume
#: matrices); at paper scale the budget caps admission instead of
#: ballooning (see :class:`SlotDataCache`).
DEFAULT_SLOT_BUDGET_BYTES = 192 << 20


def _canonical_workload(value):
    """JSON-stable plain data for the workload-relevant config state.

    A local (dependency-free) subset of the orchestrator's
    ``canonical``: dataclasses, enums, dicts and scalars -- everything
    an :class:`~repro.workload.arrivals.ArrivalModel` can contain.
    Kept here because :mod:`repro.experiments.orchestrator` imports the
    engine (and hence this module); importing it back would cycle.
    """
    if isinstance(value, (bool, int, float, str)) or value is None:
        return value
    if isinstance(value, enum.Enum):
        return {"__enum__": type(value).__qualname__, "name": value.name}
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            "__class__": type(value).__qualname__,
            **{
                f.name: _canonical_workload(getattr(value, f.name))
                for f in dataclasses.fields(value)
            },
        }
    if isinstance(value, dict):
        return {
            str(_canonical_workload(key)): _canonical_workload(val)
            for key, val in value.items()
        }
    if isinstance(value, (list, tuple)):
        return [_canonical_workload(item) for item in value]
    raise TypeError(
        f"cannot canonicalize workload field {type(value).__name__}: {value!r}"
    )


def materialization_key(config, pack: TracePack | None) -> str:
    """SHA-256 key of the workload realization a request implies.

    ``config`` must be the experiment configuration *as the run
    resolves it* (seed override applied); the pack's ``configure``
    overrides (e.g. a scenario mix rewriting the arrival model) are
    applied here, so two packs that configure the same effective
    arrival model over the same traces still share a key only when
    their content hashes agree.

    The key hashes exactly what determines the realized workload:

    * the pack's content identity (schema, version, sha256 -- never
      the name), ``None`` resolving to the registered default pack;
    * ``config.seed`` (roots population, traces and volumes),
      ``horizon_slots`` (population extent), ``steps_per_slot``
      (trace resolution) and the configured arrival model.

    Fleet shape, tariffs, PUE, QoS and policy state deliberately stay
    out: they change the run, not its workload.
    """
    if pack is None:
        pack = default_pack()
    configured = pack.configure(config)
    arrival = json.dumps(
        _canonical_workload(configured.arrival_model), sort_keys=True
    )
    return _hash_items(
        "repro-workload-materialization",
        pack.content_descriptor()["schema"],
        pack.version,
        pack.sha256,
        int(configured.seed),
        int(configured.horizon_slots),
        int(configured.steps_per_slot),
        arrival,
    ).hexdigest()


def assemble_demand(traces, vms, slot: int, rows: list) -> np.ndarray:
    """The ``(len(vms), steps)`` demand matrix of ``vms`` in ``slot``.

    ``rows`` holds memoized rows, ``None`` where absent; the absent ones
    come from one batched ``traces.slot_demand_many`` call, so row ``i``
    is exactly ``traces.slot_demand(vms[i], slot)``.
    """
    missing = [index for index, row in enumerate(rows) if row is None]
    if len(missing) == len(vms):
        return traces.slot_demand_many(vms, slot)
    matrix = np.empty((len(vms), traces.steps_per_slot))
    for index, row in enumerate(rows):
        if row is not None:
            matrix[index] = row
    if missing:
        matrix[missing] = traces.slot_demand_many(
            [vms[index] for index in missing], slot
        )
    return matrix


def _freeze(array: np.ndarray) -> np.ndarray:
    """Mark a cached array read-only (the cross-run sharing tripwire)."""
    array.flags.writeable = False
    return array


class SlotDataCache:
    """Realized per-slot demand and volume matrices for one workload.

    Keys are ``(slot, vm-id tuple)``: the engine's demand and volume
    calls are exact functions of the slot and the ordered alive set,
    so whole-matrix memoization is sound (the volume process's
    per-slot jitter depends on matrix *position*, not VM identity --
    only exact-population hits may be served).

    Demand rows are additionally memoized per ``(vm_id, slot)`` as
    views into their matrices, preserving the engine's original
    incremental behavior: a cold run assembling slot ``s+1``'s matrix
    recomputes only the newly-arrived VMs' rows.

    Memory policy: admission-capped rather than evicted.  Runs replay
    slots in ascending order, so LRU eviction under a scan working set
    larger than the budget would evict precisely the entries the next
    run is about to need (classic scan thrash, zero reuse).  Instead
    the first ``budget_bytes`` of entries stay resident -- every later
    run gets a deterministic warm prefix -- and once the budget is
    full both lookup methods *decline* (return ``None``) so the engine
    falls back to its original per-run caches, preserving the
    pre-cache cold-run behavior exactly.
    """

    def __init__(self, budget_bytes: int = DEFAULT_SLOT_BUDGET_BYTES) -> None:
        self.budget_bytes = int(budget_bytes)
        self.bytes = 0
        self.hits = 0
        self.misses = 0
        self.declined = 0
        self._demand: dict[tuple, np.ndarray] = {}
        self._rows: dict[tuple[int, int], np.ndarray] = {}
        self._volumes: dict[tuple, object] = {}
        self._lock = threading.RLock()

    def demand_matrix(self, traces, vms, slot: int) -> np.ndarray | None:
        """The ``(len(vms), steps)`` demand matrix, memoized.

        Assembled by :func:`assemble_demand` from the per-row memo
        views (the engine's incremental behavior).  Returns ``None``
        when the byte budget cannot admit the matrix.
        """
        key = (slot, tuple(vm.vm_id for vm in vms))
        steps = traces.steps_per_slot
        with self._lock:
            matrix = self._demand.get(key)
            if matrix is not None:
                self.hits += 1
                return matrix
            estimate = len(vms) * steps * 8
            if self.bytes + estimate > self.budget_bytes:
                self.declined += 1
                return None
            self.misses += 1
            matrix = assemble_demand(
                traces, vms, slot,
                [self._rows.get((vm.vm_id, slot)) for vm in vms],
            )
            _freeze(matrix)
            self.bytes += matrix.nbytes
            self._demand[key] = matrix
            for index, vm in enumerate(vms):
                self._rows.setdefault((vm.vm_id, slot), matrix[index])
            return matrix

    def volume_matrix(self, process, vms, slot: int):
        """The slot's :class:`~repro.workload.datacorr.VolumeMatrix`,
        memoized; ``None`` when the byte budget cannot admit it."""
        key = (slot, tuple(vm.vm_id for vm in vms))
        with self._lock:
            cached = self._volumes.get(key)
            if cached is not None:
                self.hits += 1
                return cached
            estimate = len(vms) * len(vms) * 8
            if self.bytes + estimate > self.budget_bytes:
                self.declined += 1
                return None
            self.misses += 1
            matrix = process.volumes(list(vms), slot)
            _freeze(matrix.volumes)
            self.bytes += matrix.volumes.nbytes
            self._volumes[key] = matrix
            return matrix

    def stats(self) -> dict:
        """Counter snapshot: hit/miss/declined plus resident entries."""
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "declined": self.declined,
                "bytes": self.bytes,
                "demand_entries": len(self._demand),
                "volume_entries": len(self._volumes),
            }


class WorkloadMaterialization:
    """One workload realization, frozen for sharing across engines.

    Bundles the population, trace library and volume process a
    :class:`~repro.sim.engine.SimulationEngine` would build for the
    keyed ``(config, pack)`` pair, plus the
    :class:`SlotDataCache` of realized per-slot arrays.  All mutation
    funnels through :meth:`demand` and :meth:`volume_matrix`, which
    serialize under one lock -- engines sharing a materialization from
    several threads (a ``jobs=1`` daemon serving concurrent clients)
    interleave safely and deterministically.

    Attributes
    ----------
    key:
        The :func:`materialization_key` this realization answers to.
    config:
        The configured experiment (pack overrides applied) every
        consumer must simulate under.
    """

    def __init__(
        self,
        key: str,
        config,
        pack: TracePack,
        population: VMPopulation,
        traces,
        volumes,
        slot_budget_bytes: int = DEFAULT_SLOT_BUDGET_BYTES,
    ) -> None:
        self.key = key
        self.config = config
        self.pack = pack
        self.population = population
        self.traces = traces
        self.volumes = volumes
        self.slots = SlotDataCache(budget_bytes=slot_budget_bytes)

    def demand(self, vms, slot: int) -> np.ndarray | None:
        """Shared, read-only demand matrix for ``(vms, slot)``.

        ``None`` when the slot budget declines -- the engine then
        falls back to its own per-run demand cache.
        """
        if not vms:
            return np.zeros((0, self.config.steps_per_slot))
        return self.slots.demand_matrix(self.traces, vms, slot)

    def volume_matrix(self, vms, slot: int):
        """Shared, read-only volume matrix for ``(vms, slot)``, or
        ``None`` when the slot budget declines."""
        return self.slots.volume_matrix(self.volumes, vms, slot)

    def approx_bytes(self) -> int:
        """Rough resident size: realized slot data + generator caches."""
        total = self.slots.bytes
        approx = getattr(self.volumes, "approx_cache_bytes", None)
        if approx is not None:
            total += approx()
        return total

    def stats(self) -> dict:
        """The slot cache's counters with ``bytes`` widened to
        :meth:`approx_bytes` (realized arrays + generator caches)."""
        stats = self.slots.stats()
        stats["bytes"] = self.approx_bytes()
        return stats


def build_materialization(
    config,
    pack: TracePack | None,
    slot_budget_bytes: int = DEFAULT_SLOT_BUDGET_BYTES,
    key: str | None = None,
) -> WorkloadMaterialization:
    """Materialize the workload for ``(config, pack)``.

    Builds exactly what :class:`~repro.sim.engine.SimulationEngine`
    builds for itself -- same construction order, same seed
    derivations -- so an engine running from this materialization is
    bit-identical to one building its own.
    """
    if pack is None:
        pack = default_pack()
    if key is None:
        key = materialization_key(config, pack)
    configured = pack.configure(config)
    population = VMPopulation.generate(
        configured.arrival_model,
        configured.horizon_slots,
        seed=configured.seed,
    )
    traces = pack.build_traces(configured)
    volumes = pack.build_volumes(configured)
    return WorkloadMaterialization(
        key=key,
        config=configured,
        pack=pack,
        population=population,
        traces=traces,
        volumes=volumes,
        slot_budget_bytes=slot_budget_bytes,
    )


class MaterializationCache:
    """Bounded per-process LRU of :class:`WorkloadMaterialization`.

    ``get`` moves hits to the back and evicts from the front when the
    entry cap is exceeded -- sweeps alternating between a few
    workloads keep them all warm; a stream of distinct workloads
    cannot grow the process beyond ``size`` materializations.
    """

    def __init__(
        self,
        size: int = DEFAULT_CACHE_MATERIALIZATIONS,
        slot_budget_bytes: int = DEFAULT_SLOT_BUDGET_BYTES,
    ) -> None:
        self.size = max(1, int(size))
        self.slot_budget_bytes = int(slot_budget_bytes)
        self.hits = 0
        self.misses = 0
        self._entries: dict[str, WorkloadMaterialization] = {}
        self._lock = threading.RLock()

    def get(
        self,
        key: str,
        build: Callable[[], WorkloadMaterialization],
    ) -> WorkloadMaterialization:
        """The cached materialization for ``key``, building on miss."""
        with self._lock:
            entry = self._entries.pop(key, None)
            if entry is not None:
                self.hits += 1
                self._entries[key] = entry  # refresh LRU position
                return entry
            self.misses += 1
        # Build outside the lock: materialization is seconds of work
        # and concurrent callers for *different* keys must not
        # serialize.  A duplicate concurrent build of the same key is
        # benign (deterministic; last insert wins).
        entry = build()
        if entry.key != key:
            raise ValueError(
                f"materialization key mismatch: built {entry.key[:12]} "
                f"for requested {key[:12]}"
            )
        with self._lock:
            self._entries[key] = entry
            while len(self._entries) > self.size:
                self._entries.pop(next(iter(self._entries)))
        return entry

    def materialize(
        self, config, pack: TracePack | None
    ) -> WorkloadMaterialization:
        """Key + get + build in one call (the engine-facing entry)."""
        key = materialization_key(config, pack)
        return self.get(
            key,
            lambda: build_materialization(
                config,
                pack,
                slot_budget_bytes=self.slot_budget_bytes,
                key=key,
            ),
        )

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def keys(self) -> list[str]:
        """Resident materialization keys, oldest (next to evict) first."""
        with self._lock:
            return list(self._entries)

    def stats(self) -> dict:
        """Aggregate counters over the cache and its materializations."""
        with self._lock:
            entries = list(self._entries.values())
            stats = {
                "hits": self.hits,
                "misses": self.misses,
                "entries": len(entries),
            }
        slot_hits = slot_misses = total_bytes = 0
        for entry in entries:
            slot = entry.stats()
            slot_hits += slot["hits"]
            slot_misses += slot["misses"]
            total_bytes += slot["bytes"]
        stats["slot_hits"] = slot_hits
        stats["slot_misses"] = slot_misses
        stats["bytes"] = total_bytes
        return stats


# -- the per-process cache ----------------------------------------------
#
# Worker processes get theirs installed by the orchestrator pool's
# initializer (configure_process_cache); the parent process (serial
# orchestrators, the jobs=1 daemon) lazily creates one on first use.

_PROCESS_CACHE: MaterializationCache | None = None
_PROCESS_CACHE_LOCK = threading.Lock()


def configure_process_cache(
    size: int = DEFAULT_CACHE_MATERIALIZATIONS,
    slot_budget_bytes: int = DEFAULT_SLOT_BUDGET_BYTES,
) -> MaterializationCache:
    """(Re)install this process's materialization cache.

    The orchestrator's worker initializer; also the test hook for
    shrinking caps.  Replaces any existing cache (dropping its
    entries), so counters restart from zero.
    """
    global _PROCESS_CACHE
    with _PROCESS_CACHE_LOCK:
        _PROCESS_CACHE = MaterializationCache(
            size=size, slot_budget_bytes=slot_budget_bytes
        )
        return _PROCESS_CACHE


def process_cache() -> MaterializationCache:
    """This process's materialization cache (created on first use)."""
    global _PROCESS_CACHE
    with _PROCESS_CACHE_LOCK:
        if _PROCESS_CACHE is None:
            _PROCESS_CACHE = MaterializationCache()
        return _PROCESS_CACHE
