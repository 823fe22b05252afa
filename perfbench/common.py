"""Shared pieces of the benchmark: inputs, output digests, statistics,
child processes and the scratch directory inside the checkout."""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import pathlib
import pickle
import resource
import shutil
import subprocess
import sys
import time

import numpy as np

#: The checkout root (this directory's parent); the program is ``src/``.
ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = pathlib.Path(__file__).resolve().parent
PINS = HERE / "pins.json"

#: Each benchmark seed scans ``seed * SEED_STRIDE + k`` for config seeds;
#: the reference profiles are medians over config seeds ``0 .. SEED_STRIDE-1``.
SEED_STRIDE = 1000


# -- inputs --------------------------------------------------------------


def live_counts(config) -> list[int]:
    """Live VMs per slot, sorted: the size of one run's population."""
    from repro.workload.arrivals import VMPopulation

    population = VMPopulation.generate(
        config.arrival_model, config.horizon_slots, seed=config.seed
    )
    return sorted(len(population.alive(t)) for t in range(config.horizon_slots))


def reference_profile(scale: str, horizon: int) -> list[int]:
    """Slot-wise median (rounded down) of the sorted live-VM counts over
    config seeds ``0 .. SEED_STRIDE-1``: the run size that
    :func:`sized_config` holds every benchmark seed to."""
    from repro.sim.config import scaled_config

    counts = [
        live_counts(scaled_config(scale, seed=k).with_horizon(horizon))
        for k in range(SEED_STRIDE)
    ]
    return np.median(np.array(counts), axis=0).astype(int).tolist()


def sized_config(scale: str, horizon: int, seed: int, profile: tuple, tol: float = 0.03):
    """The first config drawn from ``seed`` whose sorted live-VM counts
    stay within ``tol`` (mean absolute deviation) of ``profile``.

    The seed decides every VM, trace and volume; only configs whose
    size lands in the band are kept, so run-to-run spread reflects the
    program, not how many VMs a seed happened to draw.
    """
    from repro.sim.config import scaled_config

    mean = sum(profile) / len(profile)
    for k in range(SEED_STRIDE):
        config = scaled_config(scale, seed=seed * SEED_STRIDE + k).with_horizon(horizon)
        counts = live_counts(config)
        deviation = sum(abs(a - b) for a, b in zip(counts, profile)) / len(profile)
        if deviation <= tol * mean:
            return config
    raise RuntimeError(f"no {scale}/{horizon} config near the reference size for seed {seed}")


# -- output checks -------------------------------------------------------


def ledger_digest(result) -> str:
    """Canonical sha256 of a run's slot ledgers."""
    payload = json.dumps(
        [slot.to_dict() for slot in result.slots],
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode()).hexdigest()


def decoded_digest(result) -> str:
    """Digest of a decoded ledger, for comparing two decodes of one run.

    Served artifacts and store documents decode through the same
    ``RunResult.from_dict``, so equal ledgers pickle identically; this is
    ten times cheaper than :func:`ledger_digest` for checking every
    served artifact.
    """
    return hashlib.sha256(pickle.dumps(result.slots, protocol=5)).hexdigest()


def combined_digest(labelled: dict[str, str]) -> str:
    """One digest over several runs' ledger digests, keyed by label."""
    text = "\n".join(f"{label}:{labelled[label]}" for label in sorted(labelled))
    return hashlib.sha256(text.encode()).hexdigest()


def audit_failures(result, config) -> list[str]:
    from repro.sim.audit import audit_run

    return audit_run(result, config).violations


class Pins:
    """Pinned ledger digests per workload and benchmark seed, and the
    reference live-VM profiles the workloads size their configs to.

    Both derive from the model: a declared change to the population,
    arrivals or physics re-records them (``run.py --record-profiles``,
    then ``--record-pins`` per workload and pinned seed).
    """

    def __init__(self, path: pathlib.Path, record: bool = False) -> None:
        self.path = path
        self.record = record
        table = json.loads(path.read_text()) if path.exists() else {}
        self.digests: dict = table.get("digests", {})
        self.profiles: dict = table.get("profiles", {})

    def save(self) -> None:
        table = {"digests": self.digests, "profiles": self.profiles}
        self.path.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n")

    def profile(self, scale: str, horizon: int) -> tuple:
        key = f"{scale}/{horizon}"
        if key not in self.profiles:
            raise RuntimeError(f"no reference profile {key} in {self.path}; "
                               "record it with run.py --record-profiles")
        return tuple(self.profiles[key])

    def check(self, workload: str, seed: int, digest: str) -> bool:
        """True when ``digest`` matches the pin (or no pin exists)."""
        if self.record:
            self.digests.setdefault(workload, {})[str(seed)] = digest
            self.save()
            return True
        pinned = self.digests.get(workload, {}).get(str(seed))
        if pinned is not None and pinned != digest:
            print(
                f"digest mismatch: {workload} seed {seed}: {digest} != pinned {pinned}",
                file=sys.stderr,
            )
            return False
        return True


@contextlib.contextmanager
def timed_place(steps: list[float]):
    """Append the host time of every ``ProposedPolicy.place`` call, the
    online controller's hourly decision, to ``steps``."""
    from repro.core.controller import ProposedPolicy

    place = ProposedPolicy.place

    def timed(self, observation):
        start = time.perf_counter()
        try:
            return place(self, observation)
        finally:
            steps.append(time.perf_counter() - start)

    ProposedPolicy.place = timed
    try:
        yield steps
    finally:
        ProposedPolicy.place = place


# -- statistics ----------------------------------------------------------


def median(values) -> float:
    return float(np.median(values))


def percentile(values, q: float) -> float:
    return float(np.percentile(values, q))


def own_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def proc_peak_rss_mb(pid: int) -> float:
    """Peak resident set (VmHWM) of a live process."""
    for line in pathlib.Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


# -- processes and scratch space -----------------------------------------


class Workdir:
    """A scratch directory inside the checkout, removed on exit."""

    def __init__(self, label: str) -> None:
        self.path = ROOT / ".perfbench_work" / f"{label}-{os.getpid()}"
        shutil.rmtree(self.path, ignore_errors=True)
        self.path.mkdir(parents=True)
        self._count = 0

    def fresh(self, stem: str) -> pathlib.Path:
        self._count += 1
        path = self.path / f"{stem}{self._count}"
        path.mkdir()
        return path

    def cleanup(self) -> None:
        shutil.rmtree(self.path, ignore_errors=True)
        try:
            self.path.parent.rmdir()
        except OSError:
            pass


def child_env(workdir: Workdir) -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC)
    env["TMPDIR"] = str(workdir.path)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def run_child(args: list[str], workdir: Workdir, timeout: float = 170.0) -> tuple[float, float, str]:
    """Run a Python child to completion.

    Returns ``(wall seconds from spawn to exit, peak RSS MB, stdout)``;
    raises on a non-zero exit.
    """
    out_path = workdir.path / "child.out"
    err_path = workdir.path / "child.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, *args], cwd=ROOT, env=child_env(workdir),
            stdout=out, stderr=err,
        )
        deadline = start + timeout
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if time.perf_counter() > deadline:
                proc.kill()
                os.wait4(proc.pid, 0)
                proc.returncode = -9
                raise RuntimeError(f"child timed out: {args}")
            time.sleep(0.002)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise RuntimeError(
            f"child {args} exited {proc.returncode}: {err_path.read_text()[-2000:]}"
        )
    return wall, usage.ru_maxrss / 1024.0, out_path.read_text()
