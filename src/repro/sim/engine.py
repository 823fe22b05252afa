"""Hour-slotted simulation engine.

Each slot the engine (Section IV-A's protocol):

1. updates the alive VM set (Poisson arrivals / exponential departures);
2. assembles the :class:`~repro.sim.state.SlotObservation` -- the
   *previous* slot's demand traces and data volumes plus the live DC
   states -- and asks the policy for a placement;
3. replays the placement against the *realized* current-slot traces:
   per-server power at the chosen DVFS level, times the site's
   time-varying PUE, gives each DC's facility power;
4. runs the green controller over the slot (renewables, battery, grid,
   cost);
5. evaluates the response-time model: current-slot data volumes are
   aggregated per DC pair and Eq. 1 gives each destination DC's
   worst-case latency, sampled once per receiving VM.

The engine owns all mutation (battery state, forecaster history);
policies only read the observation.

Since the event-core refactor the per-slot physics and accounting live
in the driver-agnostic :class:`~repro.sim.kernel.SlotKernel`; this
module builds the run (workload, kernel, driver choice) and holds the
*slot driver* -- the reference slot-stepped loop.  A second driver,
the discrete-event :class:`~repro.sim.events.EventCore`, advances the same kernel from a
typed event heap (``--engine event``); its slot-boundary ledgers are
byte-identical to the slot driver's because both call the identical
``observe``/``step`` kernel pair per slot.

The per-slot physics runs fleet-batched: one CSR membership product
over the *whole* placement for every DC's IT power
(:meth:`~repro.sim.kernel.SlotKernel._fleet_it_power`), one batched
PUE broadcast, and one struct-of-arrays green-controller pass stepping
every battery at once
(:meth:`~repro.core.green.GreenController.run_slot_fleet`).  The
reference loops these replaced live in ``tests/oracles/``; the oracle
tests assert full-run ledgers bit-identical to them.
"""

from __future__ import annotations

from repro.core.green import GreenController
from repro.sim.config import (
    EngineCoreConfig,
    ExperimentConfig,
    build_datacenters,
    build_latency_model,
)
from repro.sim.kernel import SlotKernel
from repro.sim.results import RunResult
from repro.sim.state import PlacementPolicy
from repro.units import SECONDS_PER_HOUR
from repro.workload.arrivals import VMPopulation
from repro.workload.materialize import materialization_key
from repro.workload.packs import WorkloadProvider, default_pack

#: Version of the simulated model's semantics (physics and policies).
#: Part of every run fingerprint, so a bump makes warm stores miss
#: instead of serving ledgers of the old model.  Bump it whenever a
#: change alters any simulated number, and record the new version's
#: golden ledgers under ``tests/golden/``.
MODEL_VERSION = 1


class SimulationEngine:
    """Runs one policy over one configuration.

    Parameters
    ----------
    config:
        The experiment configuration (fleet, horizon, workload).
    policy:
        The placement policy under test.  Every placement it returns
        is validated against its observation.
    workload:
        The :class:`~repro.workload.packs.WorkloadProvider` supplying
        traces and data volumes -- typically a named, content-hashed
        :class:`~repro.workload.packs.TracePack`.  Defaults to the
        synthetic pack, which reproduces the engine's historical
        workload bit-for-bit.  The provider may also rewrite the
        config (``configure``), e.g. a scenario pack overriding the
        arrival model's archetype mix.
    clairvoyant:
        When True the observation carries the *current* slot's traces
        and volumes instead of the previous slot's -- a perfect
        load/communication forecast.  The paper's controllers plan on
        last-interval data (Section IV-A); the clairvoyant mode bounds
        what better forecasting could buy.
    materialization:
        Optional pre-built
        :class:`~repro.workload.materialize.WorkloadMaterialization`
        supplying the population, traces and volumes (plus a shared
        per-slot array cache) instead of building them here.  Its
        :func:`~repro.workload.materialize.materialization_key` must
        match this ``config`` -- configs differing only in
        workload-irrelevant fields (fleet specs, tariffs, QoS) share
        materializations; it already carries its pack, so ``workload``
        must not also be passed.
        Purely an execution detail: runs are bit-identical with or
        without it.
    engine:
        The :class:`~repro.sim.config.EngineCoreConfig` selecting the
        driver: ``kind="slot"`` (default) steps the kernel slot by
        slot; ``kind="event"`` drains a typed event heap
        (:class:`~repro.sim.events.EventCore`) and additionally samples
        per-request latencies.  Slot-boundary ledgers are byte-identical
        either way.  Rejected with ``ValueError`` for policies that
        declare ``requires_slot_engine`` or workloads that declare
        ``supports_event_core = False``.
    """

    def __init__(
        self,
        config: ExperimentConfig,
        policy: PlacementPolicy,
        clairvoyant: bool = False,
        workload: WorkloadProvider | None = None,
        materialization=None,
        engine: EngineCoreConfig | None = None,
    ) -> None:
        if materialization is not None:
            if workload is not None:
                raise ValueError(
                    "materialization already carries its workload"
                )
            # The sharing contract is the key, not config equality:
            # configs differing only in workload-irrelevant fields
            # (fleet specs, tariffs, QoS -- a battery sweep) share one
            # materialization.  The engine keeps ITS config for the
            # physics and only adopts the pack's configure overrides.
            if (
                materialization_key(config, materialization.pack)
                != materialization.key
            ):
                raise ValueError(
                    "materialization was built for a different workload "
                    "(materialization key mismatch)"
                )
            workload = materialization.pack
        elif workload is None:
            workload = default_pack()
        config = workload.configure(config)
        if engine is None:
            engine = EngineCoreConfig()
        if engine.kind == "event":
            if getattr(policy, "requires_slot_engine", False):
                raise ValueError(
                    f"policy {policy.name!r} requires the slot engine "
                    "(requires_slot_engine is set); rerun with "
                    "--engine slot"
                )
            if not getattr(workload, "supports_event_core", True):
                raise ValueError(
                    "workload "
                    f"{workload.descriptor().get('name', '?')!r} does "
                    "not support the event core yet; rerun with "
                    "--engine slot"
                )
        self.config = config
        self.policy = policy
        self.clairvoyant = clairvoyant
        self.engine_config = engine

        if materialization is not None:
            population = materialization.population
            traces = materialization.traces
            volumes = materialization.volumes
        else:
            population = VMPopulation.generate(
                config.arrival_model, config.horizon_slots, seed=config.seed
            )
            traces = workload.build_traces(config)
            volumes = workload.build_volumes(config)
        self.kernel = SlotKernel(
            config,
            population=population,
            traces=traces,
            volumes=volumes,
            latency_model=build_latency_model(config),
            green=GreenController(
                step_s=SECONDS_PER_HOUR / config.steps_per_slot
            ),
            materialization=materialization,
        )
        self.population = population
        self.traces = traces
        self.volumes = volumes
        self.latency_model = self.kernel.latency_model
        self.green = self.kernel.green

    # -- main loop ---------------------------------------------------------

    def run(self) -> RunResult:
        """Simulate the full horizon and return the result ledger."""
        if self.engine_config.kind == "event":
            from repro.sim.events import EventCore

            return EventCore(self).run()
        return self._run_slot_driver()

    def _run_slot_driver(self) -> RunResult:
        """The reference driver: one kernel observe/step pair per slot."""
        config = self.config
        kernel = self.kernel
        self.policy.reset()
        dcs = build_datacenters(config)
        result = RunResult(policy_name=self.policy.name, config_name=config.name)
        previous_assignment: dict[int, int] = {}

        for slot in range(config.horizon_slots):
            vms = self.population.alive(slot)
            observation = kernel.observe(
                slot,
                vms,
                previous_assignment,
                dcs,
                clairvoyant=self.clairvoyant,
            )
            placement = self.policy.place(observation)
            placement.validate(observation)

            result.slots.append(kernel.step(slot, vms, placement, dcs))
            previous_assignment = dict(placement.assignment)
            kernel._evict_cache(slot)

        return result


def run_policies(
    config: ExperimentConfig,
    policies: list[PlacementPolicy],
    clairvoyant: bool = False,
    workload: WorkloadProvider | None = None,
    engine: EngineCoreConfig | None = None,
) -> list[RunResult]:
    """Run several policies over the *same* workload realization.

    Every engine derives its stochastic streams from ``config.seed``,
    so policies see identical VMs, traces, volumes, weather and BER --
    the paper's comparison protocol.  The engine options
    (``clairvoyant``, ``workload``, ``engine``) are forwarded to every
    :class:`SimulationEngine` constructed.
    """
    return [
        SimulationEngine(
            config,
            policy,
            clairvoyant=clairvoyant,
            workload=workload,
            engine=engine,
        ).run()
        for policy in policies
    ]
