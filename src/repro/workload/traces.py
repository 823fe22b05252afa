"""Synthetic CPU utilization traces.

The paper samples "the VMs' utilization of a real DC every 5 seconds for
one day" and extends it "to 7 days by adding statistical variance with
the same mean as the original traces" (Section V-A).  The real trace is
not public, so this module synthesizes an equivalent library:

* each :class:`~repro.workload.vm.AppType` has a diurnal *profile* (mean
  utilization as a function of local hour) and a noise model;
* day 0 of each VM is the archetype profile plus AR(1) noise;
* days 1..6 replay day 0's hourly means and add fresh variance with the
  same mean -- exactly the extension step the paper applies to its
  measured day;
* traces are generated *per (vm, slot)* from a deterministic seed, so
  the library needs O(steps_per_slot) memory regardless of horizon.

Trace values are utilization fractions in [0, 1]; multiply by
``vm.cores`` to obtain the demand in core units (see
:meth:`TraceLibrary.slot_demand`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.signal import lfilter, lfiltic

from repro.seeding import rng_for

from repro.workload.vm import AppType, VirtualMachine

#: Number of slots (hours) per day.
SLOTS_PER_DAY = 24


@dataclass(frozen=True)
class ApplicationProfile:
    """Diurnal shape and noise parameters for one archetype.

    Attributes
    ----------
    base:
        Utilization floor (fraction of peak).
    amplitude:
        Peak-to-floor swing of the diurnal wave.
    peak_hour:
        Local hour of maximum utilization.
    noise_sigma:
        Standard deviation of the AR(1) noise process.
    noise_rho:
        AR(1) coefficient; low values give the fast-changing loads of
        scale-out applications, high values give the slow drift of HPC.
    """

    base: float
    amplitude: float
    peak_hour: float
    noise_sigma: float
    noise_rho: float


#: Archetype profiles.  Scale-out (WEB) peaks in the afternoon with
#: fast-changing noise; BATCH (MapReduce-style) peaks overnight; HPC runs
#: hot and flat.  Parameters are chosen so same-type VMs have strongly
#: coincident peaks (high repulsion) while different types interleave.
PROFILES: dict[AppType, ApplicationProfile] = {
    AppType.WEB: ApplicationProfile(
        base=0.15, amplitude=0.55, peak_hour=15.0, noise_sigma=0.10, noise_rho=0.55
    ),
    AppType.BATCH: ApplicationProfile(
        base=0.20, amplitude=0.45, peak_hour=2.0, noise_sigma=0.07, noise_rho=0.85
    ),
    AppType.HPC: ApplicationProfile(
        base=0.60, amplitude=0.20, peak_hour=9.0, noise_sigma=0.03, noise_rho=0.95
    ),
}


def diurnal_mean(profile: ApplicationProfile, hour: np.ndarray | float) -> np.ndarray:
    """Mean utilization of ``profile`` at local ``hour`` (0-24, wraps).

    The shape is a raised cosine centered on ``peak_hour`` -- smooth,
    periodic and strictly inside (0, 1) for the profiles above.
    """
    phase = 2.0 * np.pi * (np.asarray(hour, dtype=float) - profile.peak_hour) / 24.0
    return profile.base + profile.amplitude * 0.5 * (1.0 + np.cos(phase))


class TraceLibrary:
    """Deterministic per-(vm, slot) utilization trace generator.

    Parameters
    ----------
    steps_per_slot:
        Samples per one-hour slot.  The paper's 5 s sampling gives 720;
        scaled experiments use 60 (one-minute sampling).
    extension_sigma:
        Extra same-mean variance injected on days 1..6, reproducing the
        paper's one-day-to-one-week extension.
    seed:
        Library-wide randomness root, mixed with each VM's own seed.
    """

    def __init__(
        self,
        steps_per_slot: int = 720,
        extension_sigma: float = 0.05,
        seed: int = 0,
    ) -> None:
        if steps_per_slot < 1:
            raise ValueError("steps_per_slot must be >= 1")
        self.steps_per_slot = steps_per_slot
        self.extension_sigma = extension_sigma
        self.seed = seed

    def _rng(self, vm: VirtualMachine, slot: int) -> np.random.Generator:
        """RNG for a (vm, slot) cell, stable across calls."""
        return rng_for(self.seed, vm.seed, vm.vm_id, slot)

    def _day_zero_rng(self, vm: VirtualMachine, hour: int) -> np.random.Generator:
        """RNG used by every day for day-0's hour-level realization."""
        return rng_for(self.seed, vm.seed, vm.vm_id, "day0", hour)

    def _hour_of_day(self, vm: VirtualMachine, slot: int) -> float:
        return (slot + vm.phase_hours) % SLOTS_PER_DAY

    def slot_mean(self, vm: VirtualMachine, slot: int) -> float:
        """Mean utilization (fraction) of ``vm`` during ``slot``.

        Day 0 realizes the archetype mean plus a per-hour offset; later
        days replay day 0's value (same mean), matching the extension
        rule.  Used by forecasts and by tests as the trace ground truth.
        """
        profile = PROFILES[vm.app_type]
        hour = self._hour_of_day(vm, slot)
        base = float(diurnal_mean(profile, hour))
        day0 = self._day_zero_rng(vm, int(hour))
        offset = float(day0.normal(0.0, profile.noise_sigma * 0.5))
        return float(np.clip(base + offset, 0.02, 0.98))

    def slot_trace(self, vm: VirtualMachine, slot: int) -> np.ndarray:
        """Utilization fractions for ``vm`` over ``slot``.

        Returns an array of shape ``(steps_per_slot,)`` with values in
        [0, 1].  Days after the first add fresh same-mean variance
        (``extension_sigma``), the paper's week-extension rule.
        """
        profile = PROFILES[vm.app_type]
        mean = self.slot_mean(vm, slot)
        rng = self._rng(vm, slot)

        sigma = profile.noise_sigma
        if slot >= SLOTS_PER_DAY:
            sigma = float(np.hypot(sigma, self.extension_sigma))

        # AR(1) noise around the hour mean; stationary marginal sigma.
        # y[n] = rho * y[n-1] + eps[n], run as an IIR filter.
        rho = profile.noise_rho
        innovations = rng.normal(0.0, sigma * np.sqrt(1.0 - rho**2), self.steps_per_slot)
        level = rng.normal(0.0, sigma)
        zi = lfiltic([1.0], [1.0, -rho], [level])
        noise, _ = lfilter([1.0], [1.0, -rho], innovations, zi=zi)

        return np.clip(mean + noise, 0.0, 1.0)

    def slot_demand(self, vm: VirtualMachine, slot: int) -> np.ndarray:
        """CPU demand in core units for ``vm`` over ``slot``."""
        return self.slot_trace(vm, slot) * vm.cores

    def demand_matrix(
        self, vms: list[VirtualMachine], slot: int
    ) -> np.ndarray:
        """Stacked demand traces: shape ``(len(vms), steps_per_slot)``.

        Row order matches ``vms``.  This is the array the correlation
        metrics and the power model consume.
        """
        if not vms:
            return np.zeros((0, self.steps_per_slot))
        return np.stack([self.slot_demand(vm, slot) for vm in vms])

    def slot_demand_many(
        self, vms: list[VirtualMachine], slot: int
    ) -> np.ndarray:
        """Batched :meth:`slot_demand` filling one matrix in place.

        Synthetic traces are RNG-per-(vm, slot), so the rows themselves
        cannot be batched across VMs without changing the streams;
        this fast path only removes the intermediate row list and the
        ``np.stack`` copy.  Rows are bit-identical to the loop path.
        """
        matrix = np.empty((len(vms), self.steps_per_slot))
        for index, vm in enumerate(vms):
            matrix[index] = self.slot_demand(vm, slot)
        return matrix
