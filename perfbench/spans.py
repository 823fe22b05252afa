"""In-memory span recorder and the wrappers that attribute time to layers.

Spans are recorded from *outside* the program: :func:`install` replaces
public entry points of ``repro.*`` modules with thin wrappers that open
a span (name, start, end, parent) around each call, and the returned
:class:`Patcher`'s ``restore`` puts the originals back.  Parents come from a per-thread stack, so
spans opened by daemon threads nest correctly.  Nothing is written
until the traced run ends.

A span's *self time* is its duration minus the part of its interval
covered by its children; per-layer seconds are self times summed by
span name, so they add up to the time covered by root spans.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from collections import defaultdict


class Tracer:
    """Spans plus named counters, kept in memory."""

    def __init__(self) -> None:
        #: ``[name, start, end, parent_index]`` per span, in open order.
        self.spans: list[list] = []
        self.counters: dict[str, float] = defaultdict(float)
        #: Lock-free counters for hot call sites (single-element lists).
        self._tallies: dict[str, list] = {}
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else -1
        with self._lock:
            index = len(self.spans)
            self.spans.append([name, time.perf_counter(), None, parent])
        stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack().pop()

    def count(self, name: str, amount: float = 1.0) -> None:
        with self._lock:
            self.counters[name] += amount

    def tally(self, name: str) -> list:
        """A ``[count]`` cell for a hot path, folded in by :meth:`totals`."""
        return self._tallies.setdefault(name, [0])

    def totals(self) -> dict[str, float]:
        totals = dict(self.counters)
        for name, cell in self._tallies.items():
            totals[name] = totals.get(name, 0.0) + cell[0]
        return totals

    def wrap(self, name: str, fn, after=None):
        """``fn`` inside a span; ``after(result, args)`` feeds counters."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
            if after is not None:
                after(result, args)
            return result

        return traced

    def export(self) -> dict:
        """Plain-data form (for writing spans out of a child process)."""
        return {"spans": self.spans, "counters": self.totals()}


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    end_so_far = float("-inf")
    for start, end in sorted(intervals):
        if end <= end_so_far:
            continue
        total += end - max(start, end_so_far)
        end_so_far = end
    return total


def self_times(spans: list[list]) -> dict[str, float]:
    """Seconds per span name, each span minus what its children cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for name, start, end, parent in spans:
        if parent >= 0 and end is not None:
            children[parent].append((start, end))
    totals: dict[str, float] = defaultdict(float)
    for index, (name, start, end, _parent) in enumerate(spans):
        if end is None:
            continue
        covered = _union_length(
            [
                (max(s, start), min(e, end))
                for s, e in children.get(index, ())
                if min(e, end) > max(s, start)
            ]
        )
        totals[name] += (end - start) - covered
    return dict(totals)


def root_coverage(spans: list[list]) -> float:
    """Seconds of wall time covered by at least one root span."""
    return _union_length(
        [(s[1], s[2]) for s in spans if s[3] < 0 and s[2] is not None]
    )


# -- the wrapped entry points --------------------------------------------


class Patcher:
    """Replaces attributes and remembers how to put them back."""

    def __init__(self) -> None:
        self._saved: list[tuple[object, str, object]] = []

    def set(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def method(self, tracer: Tracer, cls, attr: str, name: str, after=None):
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            wrapped = classmethod(tracer.wrap(name, raw.__func__, after))
        else:
            wrapped = tracer.wrap(name, raw, after)
        self.set(cls, attr, wrapped)

    def function(
        self, tracer: Tracer, module, attr: str, name: str, after=None,
        home: bool = True,
    ):
        """Wrap a module-level function at every ``repro`` import site.

        ``home=False`` leaves the defining module's own binding alone,
        so a recursive function opens one span per outside call rather
        than one per recursion step.
        """
        original = getattr(module, attr)
        wrapped = tracer.wrap(name, original, after)
        for mod_name, mod in list(sys.modules.items()):
            if (
                mod is not None
                and mod_name.split(".")[0] == "repro"
                and mod.__dict__.get(attr) is original
                and (home or mod is not module)
            ):
                self.set(mod, attr, wrapped)

    def restore(self) -> None:
        for owner, attr, value in reversed(self._saved):
            setattr(owner, attr, value)
        self._saved.clear()


def install(tracer: Tracer) -> Patcher:
    """Wrap every layer entry point the benchmark attributes time to."""
    from repro.baselines.ener_aware import EnerAwarePolicy
    from repro.baselines.net_aware import NetAwarePolicy
    from repro.baselines.pri_aware import PriAwarePolicy
    from repro.core import capacity, correlation, kmeans, migration
    from repro.core import controller
    from repro.core.forces import ForceDirectedEmbedding
    from repro.core.green import GreenController
    from repro.experiments.orchestrator import Orchestrator
    from repro.service import codec, protocol
    from repro.service.client import ServiceClient
    from repro.service.server import ExperimentDaemon
    from repro.sim.engine import SimulationEngine
    from repro.sim.kernel import SlotKernel
    from repro.store.core import ResultStore
    from repro.suite import ledger, outputs, spec
    from repro.workload.arrivals import VMPopulation
    from repro.workload.datacorr import DataCorrelationProcess
    from repro.workload.materialize import MaterializationCache
    from repro.workload.traces import TraceLibrary

    patch = Patcher()
    count = tracer.count

    # -- repro.core: the Proposed controller's phases.
    def after_place(placement, _args):
        diag = placement.diagnostics
        if "embedding_iterations" not in diag:
            return
        count("place_calls")
        count("forces.iters", diag["embedding_iterations"])
        count("forces.converged", bool(diag["embedding_converged"]))
        count("migration.moves", len(placement.moves))
        count("migration.rejected", len(diag["rejected_migrations"]))

    patch.method(tracer, controller.ProposedPolicy, "place", "core.controller", after_place)
    for attr in ("attraction_matrix", "repulsion_matrix"):
        patch.function(tracer, correlation, attr, "core.correlation")
    patch.method(tracer, ForceDirectedEmbedding, "run", "core.forces")
    patch.function(tracer, capacity, "compute_capacity_caps", "core.capacity")
    patch.function(tracer, kmeans, "warm_start_centroids", "core.kmeans")
    patch.function(
        tracer, kmeans, "constrained_kmeans", "core.kmeans",
        lambda result, _a: count("kmeans.iters", result.iterations),
    )
    patch.function(tracer, migration, "revise_migrations", "core.migration")
    patch.function(tracer, controller, "allocate_correlation_aware", "core.local")
    init = controller.ProposedPolicy.__dict__["__init__"]

    def traced_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        self.local_allocator = tracer.wrap("core.local", self.local_allocator)

    patch.set(controller.ProposedPolicy, "__init__", traced_init)
    patch.method(tracer, GreenController, "run_slot_fleet", "core.green")

    # -- repro.baselines.
    for cls in (EnerAwarePolicy, PriAwarePolicy, NetAwarePolicy):
        patch.method(tracer, cls, "place", "baselines.place")

    # -- repro.workload.
    patch.method(tracer, DataCorrelationProcess, "volumes", "workload.datacorr")
    pair_base_mb = DataCorrelationProcess.__dict__["pair_base_mb"]
    pair_calls = tracer.tally("datacorr.pair_calls")
    new_pairs = tracer.tally("datacorr.new_pairs")

    def counted_pair_base_mb(self, src, dst):
        # Counted, not spanned: ~10^5 calls per simulated day would
        # cost more than they measure.  Time lands in workload.datacorr.
        before = len(self._base_cache)
        value = pair_base_mb(self, src, dst)
        pair_calls[0] += 1
        new_pairs[0] += len(self._base_cache) - before
        return value

    patch.set(DataCorrelationProcess, "pair_base_mb", counted_pair_base_mb)
    patch.method(
        tracer, TraceLibrary, "slot_demand_many", "workload.traces",
        lambda _r, args: count("traces.rows", len(args[1])),
    )
    patch.method(tracer, VMPopulation, "generate", "workload.arrivals")
    get = MaterializationCache.__dict__["get"]

    def counted_get(self, key, build):
        hits = self.hits
        try:
            return get(self, key, build)
        finally:
            count("materialize.lookups")
            count("materialize.hits", self.hits - hits)

    patch.set(
        MaterializationCache, "get",
        tracer.wrap("workload.materialize", counted_get),
    )

    # -- repro.sim.
    patch.method(tracer, SimulationEngine, "run", "sim.engine")
    patch.method(tracer, SlotKernel, "observe", "sim.kernel.observe")
    patch.method(tracer, SlotKernel, "step", "sim.kernel.step")
    patch.method(tracer, SlotKernel, "_fleet_it_power", "sim.kernel.it_power")
    patch.method(tracer, SlotKernel, "_response_latencies", "sim.kernel.latency")

    # -- repro.experiments, repro.store, repro.suite.
    patch.method(tracer, Orchestrator, "submit", "experiments.orchestrator")
    patch.method(tracer, ResultStore, "put", "store.put")
    patch.method(
        tracer, ResultStore, "fetch", "store.fetch",
        lambda _r, _a: count("store.fetch.calls"),
    )
    patch.function(tracer, spec, "load_suite", "suite.spec")
    patch.method(
        tracer, ledger.CampaignLedger, "append", "suite.ledger",
        lambda _r, _a: count("ledger.records"),
    )
    patch.method(
        tracer, ledger.CampaignLedger, "append_many", "suite.ledger",
        lambda _r, args: count("ledger.records", len(args[1])),
    )
    patch.function(tracer, outputs, "generate_outputs", "suite.outputs")

    # -- repro.service: both ends of the wire plus the codec.
    patch.method(tracer, ServiceClient, "run_many", "service.client")
    for attr in list(vars(ExperimentDaemon)):
        if attr.startswith("handle_"):
            patch.method(tracer, ExperimentDaemon, attr, "service.server")
    patch.function(tracer, codec, "encode", "service.codec.encode", home=False)
    patch.function(tracer, codec, "decode", "service.codec.decode", home=False)
    for attr in list(vars(protocol)):
        if attr.startswith(("encode_", "decode_")) and callable(
            getattr(protocol, attr)
        ):
            kind = "encode" if attr.startswith("encode_") else "decode"
            patch.function(tracer, protocol, attr, f"service.codec.{kind}")
    return patch
