"""Rule-based green controller (Section IV-B.3).

After the VMs are allocated at slot T, each DC's green controller runs
at fine granularity (the paper: every 5 seconds) during [T, T+1) and
decides, step by step, how to source the facility's power:

* renewable surplus powers the DC and the excess charges the battery;
* under deficit during **high-price** periods: all renewables feed the
  load, the battery discharges (respecting depth of discharge) and the
  grid covers the remainder;
* under deficit during **low-price** periods: the grid covers the load
  *and* charges the battery (cheap-energy arbitrage); the battery is
  not discharged.

The controller sees *real* generation and *real* load -- it is exactly
the low-complexity compensator for forecast error the paper argues for.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.datacenter.battery import BatteryArray
from repro.datacenter.datacenter import Datacenter
from repro.datacenter.pv import fleet_power_watts
from repro.units import JOULES_PER_KWH, SECONDS_PER_HOUR


@dataclass
class GreenSlotResult:
    """Energy ledger of one DC for one slot (all Joules).

    ``facility_energy = pv_used + battery_discharged + grid_to_load``
    holds up to float rounding; ``grid_energy`` additionally includes
    the grid energy that went into charging the battery.
    """

    facility_energy: float
    pv_generated: float
    pv_used: float
    pv_stored: float
    pv_curtailed: float
    battery_discharged: float
    grid_to_load: float
    grid_to_battery: float
    grid_energy: float
    grid_cost_eur: float
    soc_start: float
    soc_end: float

    def sanity_check(self, tolerance: float = 1e-6) -> None:
        """Raise if the ledger violates conservation."""
        supplied = self.pv_used + self.battery_discharged + self.grid_to_load
        scale = max(self.facility_energy, 1.0)
        if abs(supplied - self.facility_energy) > tolerance * scale:
            raise AssertionError(
                f"energy not conserved: supplied {supplied} != "
                f"consumed {self.facility_energy}"
            )
        pv_split = self.pv_used + self.pv_stored + self.pv_curtailed
        if abs(pv_split - self.pv_generated) > tolerance * max(self.pv_generated, 1.0):
            raise AssertionError("PV split does not add up")


class GreenController:
    """Per-DC online energy-source manager.

    Parameters
    ----------
    step_s:
        Control period (paper: 5 seconds; scaled experiments use 60).
    grid_charge_fraction:
        Fraction of the battery's C-rate limit used when charging from
        the grid during low-price periods (1.0 = charge as fast as the
        battery allows).
    """

    def __init__(self, step_s: float = 5.0, grid_charge_fraction: float = 0.5) -> None:
        if step_s <= 0:
            raise ValueError("step_s must be positive")
        if not 0.0 <= grid_charge_fraction <= 1.0:
            raise ValueError("grid_charge_fraction must be in [0, 1]")
        self.step_s = step_s
        self.grid_charge_fraction = grid_charge_fraction
        #: Fleet width up to which :meth:`run_slot_fleet` replays the
        #: battery recurrence as per-DC scalar loops instead of the
        #: struct-of-arrays step loop; both are bit-identical, the
        #: scalar replay just dodges per-step array dispatch on narrow
        #: fleets (the paper's is 3 DCs).  Tests pin this to 0 to
        #: exercise the array path on small fleets.
        self.scalar_replay_max_dcs = 8

    def run_slot(
        self,
        dc: Datacenter,
        slot: int,
        facility_power_w: np.ndarray,
        slot_duration_s: float = SECONDS_PER_HOUR,
    ) -> GreenSlotResult:
        """Source one slot's facility power; mutates the DC's battery.

        Parameters
        ----------
        dc:
            The data center (provides PV, battery, tariff).
        slot:
            Slot index; step times are ``slot * slot_duration_s + k*dt``.
        facility_power_w:
            Facility power (IT * PUE) per control step, any length; the
            step duration is ``slot_duration_s / len(facility_power_w)``.
        slot_duration_s:
            Slot length in seconds.
        """
        facility_power_w = np.asarray(facility_power_w, dtype=float)
        if facility_power_w.ndim != 1 or facility_power_w.size == 0:
            raise ValueError("facility_power_w must be a non-empty 1-D array")
        if np.any(facility_power_w < 0):
            raise ValueError("facility power must be non-negative")

        steps = facility_power_w.size
        dt = slot_duration_s / steps
        times = slot * slot_duration_s + (np.arange(steps) + 0.5) * dt
        pv_power = np.asarray(dc.pv.power_watts(times), dtype=float)
        tariff = dc.spec.tariff
        battery = dc.battery

        soc_start = battery.soc_joules
        pv_used = pv_stored = pv_curtailed = 0.0
        battery_discharged = grid_to_load = grid_to_battery = 0.0
        grid_cost = 0.0

        for k in range(steps):
            load_j = facility_power_w[k] * dt
            pv_j = float(pv_power[k]) * dt
            time_s = float(times[k])
            grid_j = 0.0

            if pv_j >= load_j:
                pv_used += load_j
                surplus = pv_j - load_j
                stored = battery.charge(surplus, dt)
                pv_stored += stored
                pv_curtailed += surplus - stored
            else:
                pv_used += pv_j
                deficit = load_j - pv_j
                if tariff.is_peak(time_s):
                    delivered = battery.discharge(deficit, dt)
                    battery_discharged += delivered
                    grid_to_load += deficit - delivered
                    grid_j = deficit - delivered
                else:
                    offer = battery.max_charge_joules(dt) * self.grid_charge_fraction
                    charged = battery.charge(offer, dt)
                    grid_to_battery += charged
                    grid_to_load += deficit
                    grid_j = deficit + charged
            if grid_j:
                grid_cost += tariff.cost_of(grid_j, time_s)

        facility_energy = float(facility_power_w.sum() * dt)
        pv_generated = float(pv_power.sum() * dt)
        result = GreenSlotResult(
            facility_energy=facility_energy,
            pv_generated=pv_generated,
            pv_used=pv_used,
            pv_stored=pv_stored,
            pv_curtailed=pv_curtailed,
            battery_discharged=battery_discharged,
            grid_to_load=grid_to_load,
            grid_to_battery=grid_to_battery,
            grid_energy=grid_to_load + grid_to_battery,
            grid_cost_eur=grid_cost,
            soc_start=soc_start,
            soc_end=battery.soc_joules,
        )
        result.sanity_check()
        return result

    def _steps_scalar_replay(
        self,
        batteries: BatteryArray,
        surplus: np.ndarray,
        peak: np.ndarray,
        offer_surplus: np.ndarray,
        request: np.ndarray,
        charged: np.ndarray,
        delivered: np.ndarray,
        dt: float,
    ) -> None:
        """Battery recurrence via per-DC scalar replay (narrow fleets).

        The recurrence never couples the DCs -- each battery's step
        only reads its own column of the precomputed branch masks and
        offers -- so on a narrow fleet it is cheaper to replay the
        scalar :class:`~repro.datacenter.battery.Battery` arithmetic
        directly on Python floats (the exact expressions of the
        reference loop, hence bit-identical by construction) than to
        pay per-step array dispatch.  All the *slot-level* work --
        batched PV/tariff/PUE evaluation, branch masks, ledger
        reductions -- stays batched in :meth:`run_slot_fleet`;
        only the SoC recursion itself runs as ``n_dcs`` float loops.
        Mutates ``batteries`` and fills the ``charged`` /
        ``delivered`` ledger columns.
        """
        fraction = self.grid_charge_fraction
        steps = peak.shape[0]
        for d in range(len(batteries)):
            capacity = float(batteries.capacity_joules[d])
            floor = capacity * (1.0 - float(batteries.dod[d]))
            charge_eff = float(batteries.charge_efficiency[d])
            discharge_eff = float(batteries.discharge_efficiency[d])
            rate_limit = (
                float(batteries.max_c_rate[d]) * capacity * dt / 3600.0
            )
            rate_discharge = rate_limit * discharge_eff
            soc = float(batteries.soc_joules[d])
            surplus_col = surplus[:, d].tolist()
            peak_col = peak[:, d].tolist()
            offer_col = offer_surplus[:, d].tolist()
            request_col = request[:, d].tolist()
            charged_col = charged[:, d]
            delivered_col = delivered[:, d]
            for k in range(steps):
                if surplus_col[k]:
                    max_charge = min((capacity - soc) / charge_eff, rate_limit)
                    accepted = min(offer_col[k], max_charge)
                elif peak_col[k]:
                    usable = max(soc - floor, 0.0) * discharge_eff
                    deliverable = min(
                        request_col[k], min(usable, rate_discharge)
                    )
                    if deliverable:
                        soc -= deliverable / discharge_eff
                        delivered_col[k] = deliverable
                    continue
                else:
                    max_charge = min((capacity - soc) / charge_eff, rate_limit)
                    accepted = min(max_charge * fraction, max_charge)
                if accepted:
                    soc += accepted * charge_eff
                    charged_col[k] = accepted
            batteries.soc_joules[d] = soc

    def run_slot_fleet(
        self,
        dcs: list[Datacenter],
        slot: int,
        facility_power_w: np.ndarray,
        slot_duration_s: float = SECONDS_PER_HOUR,
    ) -> list[GreenSlotResult]:
        """Source one slot's power for the *whole fleet* in one batch.

        ``facility_power_w`` has shape ``(len(dcs), steps)`` -- row
        ``i`` is exactly what :meth:`run_slot` would receive for
        ``dcs[i]``.  Every DC's battery is mutated, and the returned
        ledgers are **bit-identical** to per-DC :meth:`run_slot` calls:

        * the only sequential dependence is the battery recurrence, so
          the kernel loops over *steps* only, holding SoC and the
          per-step charge/discharge amounts as struct-of-arrays
          (:class:`~repro.datacenter.battery.BatteryArray`, whose batch
          ops replay the scalar expressions elementwise);
        * everything time-indexed -- PV power, peak windows, prices,
          branch masks, charge offers under surplus -- is evaluated
          once for the whole slot via the batched
          PV/PUE/tariff helpers, in ``(steps, n_dcs)`` layout so each
          step reads one contiguous row;
        * per-DC ledger accumulators reduce the recorded per-step
          contributions with ``sum(axis=0)`` over the C-contiguous
          ``(steps, n_dcs)`` arrays, which accumulates rows
          sequentially -- the scalar loop's step-order reduction.
          Steps a branch does not touch contribute exactly ``+0.0``,
          which is the identity the scalar accumulators never see;
        * fleets up to :attr:`scalar_replay_max_dcs` DCs replay the
          SoC recursion itself as per-DC Python-float loops
          (:meth:`_steps_scalar_replay`) -- bit-identical by
          construction and cheaper than per-step array dispatch at
          the paper's fleet width; everything slot-level stays
          batched either way.
        """
        facility_power_w = np.asarray(facility_power_w, dtype=float)
        if facility_power_w.ndim != 2 or facility_power_w.shape[1] == 0:
            raise ValueError(
                "facility_power_w must be a non-empty (n_dcs, steps) array"
            )
        if facility_power_w.shape[0] != len(dcs):
            raise ValueError("facility_power_w rows must match the fleet")
        if np.any(facility_power_w < 0):
            raise ValueError("facility power must be non-negative")
        if not dcs:
            return []

        n_dcs, steps = facility_power_w.shape
        dt = slot_duration_s / steps
        times = slot * slot_duration_s + (np.arange(steps) + 0.5) * dt
        pv_power = fleet_power_watts([dc.pv for dc in dcs], times)

        # (steps, n_dcs) layout: per-step rows are contiguous views.
        load = np.ascontiguousarray(facility_power_w.T) * dt
        pv = np.ascontiguousarray(pv_power.T) * dt
        peak = np.stack(
            [dc.spec.tariff.is_peak(times) for dc in dcs], axis=1
        )
        price = np.stack(
            [dc.spec.tariff.price_per_kwh(times) for dc in dcs], axis=1
        )
        surplus = pv >= load
        deficit = load - pv
        deficit_peak = ~surplus & peak
        deficit_off = ~surplus & ~peak
        request = np.where(deficit_peak, deficit, 0.0)
        #: Charge offers that need no SoC: the PV surplus (branch A).
        offer_surplus = np.where(surplus, pv - load, 0.0)

        batteries = BatteryArray.from_batteries([dc.battery for dc in dcs])
        soc_start = batteries.soc_joules.copy()
        charged = np.zeros((steps, n_dcs))
        delivered = np.zeros((steps, n_dcs))
        if n_dcs <= self.scalar_replay_max_dcs:
            self._steps_scalar_replay(
                batteries, surplus, peak, offer_surplus, request,
                charged, delivered, dt,
            )
        else:
            #: Grid-charge scaling (branch C): C-rate cap times the
            #: configured fraction where off-peak deficit, else 0.
            offer_fraction = np.where(
                deficit_off, self.grid_charge_fraction, 0.0
            )
            #: Per-step short circuits: skip the battery ops entirely
            #: on steps where no DC charges / discharges (the skipped
            #: scalar ops would all be SoC-preserving no-ops).
            any_offer = (surplus | deficit_off).any(axis=1).tolist()
            any_request = deficit_peak.any(axis=1).tolist()
            charge = batteries.charge
            discharge = batteries.discharge
            max_charge_joules = batteries.max_charge_joules
            for (
                do_offer, do_request, offer_row, fraction_row,
                request_row, charged_row, delivered_row,
            ) in zip(
                any_offer, any_request, offer_surplus, offer_fraction,
                request, charged, delivered,
            ):
                if do_offer:
                    max_charge = max_charge_joules(dt)
                    offer = offer_row + fraction_row * max_charge
                    charge(
                        offer, dt, max_joules=max_charge, out=charged_row,
                        check=False,
                    )
                if do_request:
                    discharge(request_row, dt, out=delivered_row, check=False)
        batteries.store_to([dc.battery for dc in dcs])

        pv_used = np.where(surplus, load, pv).sum(axis=0)
        pv_stored = np.where(surplus, charged, 0.0).sum(axis=0)
        pv_curtailed = np.where(surplus, offer_surplus - charged, 0.0).sum(axis=0)
        battery_discharged = delivered.sum(axis=0)
        grid_to_load_steps = np.where(
            deficit_peak,
            deficit - delivered,
            np.where(deficit_off, deficit, 0.0),
        )
        grid_to_battery_steps = np.where(deficit_off, charged, 0.0)
        grid_steps = grid_to_load_steps + grid_to_battery_steps
        grid_to_load = grid_to_load_steps.sum(axis=0)
        grid_to_battery = grid_to_battery_steps.sum(axis=0)
        grid_cost = (grid_steps / JOULES_PER_KWH * price).sum(axis=0)

        facility_energy = facility_power_w.sum(axis=1)
        pv_generated = pv_power.sum(axis=1)
        results = []
        for d in range(n_dcs):
            result = GreenSlotResult(
                facility_energy=float(facility_energy[d] * dt),
                pv_generated=float(pv_generated[d] * dt),
                pv_used=float(pv_used[d]),
                pv_stored=float(pv_stored[d]),
                pv_curtailed=float(pv_curtailed[d]),
                battery_discharged=float(battery_discharged[d]),
                grid_to_load=float(grid_to_load[d]),
                grid_to_battery=float(grid_to_battery[d]),
                grid_energy=float(grid_to_load[d] + grid_to_battery[d]),
                grid_cost_eur=float(grid_cost[d]),
                soc_start=float(soc_start[d]),
                soc_end=float(batteries.soc_joules[d]),
            )
            result.sanity_check()
            results.append(result)
        return results
