"""Per-pair loop oracle for :meth:`DataCorrelationProcess.volumes`."""

from __future__ import annotations

import numpy as np

from repro.workload.datacorr import DataCorrelationProcess, VolumeMatrix


def volumes_loop(
    process: DataCorrelationProcess, vms: list, slot: int
) -> VolumeMatrix:
    """The slot's directed volume matrix, one ordered pair at a time.

    Draws through the process's own ``pair_base_mb`` (filling its
    per-pair cache exactly as the batched path does), its scalar
    ``_modulation`` and its single batched jitter draw.
    """
    n = len(vms)
    matrix = np.zeros((n, n))
    jitter = process._slot_jitter(n, slot)
    modulus = process.PHASE_MODULUS
    for a, src in enumerate(vms):
        for b, dst in enumerate(vms):
            if a == b:
                continue
            base = process.pair_base_mb(src, dst)
            if base == 0.0:
                continue
            phase = ((src.vm_id * 31 + dst.vm_id * 17) % modulus) / modulus
            matrix[a, b] = base * process._modulation(slot, phase) * jitter[a, b]
    return VolumeMatrix(vm_ids=[vm.vm_id for vm in vms], volumes=matrix)
