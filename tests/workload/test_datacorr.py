"""Data correlation process: structure, statistics, VolumeMatrix."""

import numpy as np
import pytest

from tests.conftest import make_vm
from tests.oracles.datacorr import volumes_loop
from repro.workload.datacorr import (
    MEAN_VOLUME_MB,
    DataCorrelationProcess,
    VolumeMatrix,
)


@pytest.fixture
def process() -> DataCorrelationProcess:
    return DataCorrelationProcess(seed=17)


class TestVolumeMatrix:
    def test_shape_validation(self):
        with pytest.raises(ValueError, match="shape"):
            VolumeMatrix(vm_ids=[1, 2], volumes=np.zeros((3, 3)))

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            VolumeMatrix(vm_ids=[1, 2], volumes=np.array([[0.0, -1.0], [0.0, 0.0]]))

    def test_volume_lookup_by_id(self):
        matrix = VolumeMatrix(
            vm_ids=[10, 20], volumes=np.array([[0.0, 3.0], [7.0, 0.0]])
        )
        assert matrix.volume(10, 20) == 3.0
        assert matrix.volume(20, 10) == 7.0

    def test_pair_volume_is_bidirectional(self):
        matrix = VolumeMatrix(
            vm_ids=[10, 20], volumes=np.array([[0.0, 3.0], [7.0, 0.0]])
        )
        assert matrix.pair_volume(10, 20) == 10.0

    def test_symmetric(self):
        matrix = VolumeMatrix(
            vm_ids=[10, 20], volumes=np.array([[0.0, 3.0], [7.0, 0.0]])
        )
        sym = matrix.symmetric()
        assert sym[0, 1] == sym[1, 0] == 10.0

    def test_total(self):
        matrix = VolumeMatrix(
            vm_ids=[10, 20], volumes=np.array([[0.0, 3.0], [7.0, 0.0]])
        )
        assert matrix.total_mb() == 10.0


class TestPairBases:
    def test_intra_service_always_communicates(self, process):
        a = make_vm(vm_id=0, service_id=3)
        b = make_vm(vm_id=1, service_id=3)
        assert process.pair_base_mb(a, b) > 0.0

    def test_self_pair_zero(self, process):
        a = make_vm(vm_id=0)
        assert process.pair_base_mb(a, a) == 0.0

    def test_bidirectional_asymmetry(self, process):
        a = make_vm(vm_id=0, service_id=3)
        b = make_vm(vm_id=1, service_id=3)
        assert process.pair_base_mb(a, b) != process.pair_base_mb(b, a)

    def test_base_cached(self, process):
        a = make_vm(vm_id=0, service_id=3)
        b = make_vm(vm_id=1, service_id=3)
        assert process.pair_base_mb(a, b) == process.pair_base_mb(a, b)

    def test_cross_service_mostly_silent(self, process):
        bases = [
            process.pair_base_mb(
                make_vm(vm_id=i, service_id=0), make_vm(vm_id=1000 + i, service_id=1)
            )
            for i in range(200)
        ]
        silent_fraction = sum(1 for base in bases if base == 0.0) / len(bases)
        assert silent_fraction > 0.9

    def test_cross_service_scaled_down(self):
        loud = DataCorrelationProcess(
            background_fraction=1.0, background_scale=0.1, seed=5
        )
        intra = [
            loud.pair_base_mb(
                make_vm(vm_id=2 * i, service_id=7),
                make_vm(vm_id=2 * i + 1, service_id=7),
            )
            for i in range(300)
        ]
        cross = [
            loud.pair_base_mb(
                make_vm(vm_id=10_000 + 2 * i, service_id=0),
                make_vm(vm_id=10_001 + 2 * i, service_id=1),
            )
            for i in range(300)
        ]
        assert np.mean(cross) < np.mean(intra)

    def test_lognormal_mean_near_10mb(self):
        """Intra-service base volumes average to the paper's 10 MB."""
        process = DataCorrelationProcess(seed=23)
        bases = [
            process.pair_base_mb(
                make_vm(vm_id=2 * i, service_id=i),
                make_vm(vm_id=2 * i + 1, service_id=i),
            )
            for i in range(4000)
        ]
        # Heavy-tailed: compare the median of batch means, loosely.
        assert np.mean(bases) == pytest.approx(MEAN_VOLUME_MB, rel=0.5)

    def test_dense_mode_all_pairs(self):
        dense = DataCorrelationProcess(dense=True, seed=3)
        a = make_vm(vm_id=0, service_id=0)
        b = make_vm(vm_id=1, service_id=99)
        assert dense.pair_base_mb(a, b) > 0.0


class TestVolumesMatrixGeneration:
    def test_alignment_and_diagonal(self, process, six_vms):
        matrix = process.volumes(six_vms, 4)
        assert matrix.vm_ids == [vm.vm_id for vm in six_vms]
        assert np.all(np.diag(matrix.volumes) == 0.0)

    def test_deterministic(self, six_vms):
        a = DataCorrelationProcess(seed=17).volumes(six_vms, 4)
        b = DataCorrelationProcess(seed=17).volumes(six_vms, 4)
        assert np.array_equal(a.volumes, b.volumes)

    def test_varies_over_slots(self, process, six_vms):
        a = process.volumes(six_vms, 4)
        b = process.volumes(six_vms, 5)
        assert not np.array_equal(a.volumes, b.volumes)

    def test_nonnegative(self, process, six_vms):
        matrix = process.volumes(six_vms, 4)
        assert np.all(matrix.volumes >= 0.0)

    def test_validation(self):
        with pytest.raises(ValueError, match="background_fraction"):
            DataCorrelationProcess(background_fraction=1.5)
        with pytest.raises(ValueError, match="background_scale"):
            DataCorrelationProcess(background_scale=-0.1)


class TestVolumeMatrixEdgeCases:
    def test_single_vm_population(self, process):
        matrix = process.volumes([make_vm(vm_id=3)], 0)
        assert matrix.vm_ids == [3]
        assert matrix.volumes.shape == (1, 1)
        assert matrix.total_mb() == 0.0
        assert matrix.pair_volume(3, 3) == 0.0

    def test_empty_pair_set(self, process):
        matrix = process.volumes([], 0)
        assert matrix.vm_ids == []
        assert matrix.volumes.shape == (0, 0)
        assert matrix.total_mb() == 0.0
        assert matrix.symmetric().shape == (0, 0)

    def test_directed_volumes_asymmetric(self, process, six_vms):
        matrix = process.volumes(six_vms, 2)
        a, b = six_vms[0].vm_id, six_vms[1].vm_id
        assert matrix.volume(a, b) != matrix.volume(b, a)

    def test_pair_volume_symmetric(self, process, six_vms):
        matrix = process.volumes(six_vms, 2)
        for a in six_vms:
            for b in six_vms:
                assert matrix.pair_volume(a.vm_id, b.vm_id) == (
                    matrix.pair_volume(b.vm_id, a.vm_id)
                )


def make_population(n: int) -> list:
    """Mixed-service population with non-contiguous vm ids."""
    return [
        make_vm(vm_id=3 + 7 * i, service_id=i // 4, seed=i) for i in range(n)
    ]


class TestVectorizedEquivalence:
    """The batched path must be bit-identical to the loop oracle."""

    @pytest.mark.parametrize("n", [1, 2, 50, 200])
    def test_bit_identical_across_sizes(self, n):
        vms = make_population(n)
        loop = DataCorrelationProcess(seed=17)
        process = DataCorrelationProcess(seed=17)
        for slot in (0, 7):
            reference = volumes_loop(loop, vms, slot)
            batched = process.volumes(vms, slot)
            assert batched.vm_ids == reference.vm_ids
            assert np.array_equal(batched.volumes, reference.volumes)

    def test_bit_identical_dense(self):
        vms = make_population(12)
        loop = DataCorrelationProcess(dense=True, seed=5)
        process = DataCorrelationProcess(dense=True, seed=5)
        assert np.array_equal(
            process.volumes(vms, 3).volumes, volumes_loop(loop, vms, 3).volumes
        )

    def test_population_change_invalidates_nothing(self):
        """Shrinking/growing the alive set keeps results loop-identical."""
        process = DataCorrelationProcess(seed=9)
        loop = DataCorrelationProcess(seed=9)
        full = make_population(10)
        for vms in (full, full[:6], full[2:9], full):
            assert np.array_equal(
                process.volumes(vms, 4).volumes,
                volumes_loop(loop, vms, 4).volumes,
            )

    def test_population_cache_bounded(self):
        process = DataCorrelationProcess(seed=9)
        for start in range(process.POPULATION_CACHE_SIZE + 4):
            process.volumes(make_population(12)[start % 6 :], 0)
        assert len(process._population_cache) <= process.POPULATION_CACHE_SIZE
