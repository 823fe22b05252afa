"""The three workloads, each in a timed and a traced form.

Every workload reports the same end-to-end metrics (see ``run.py``);
what its *unit of work* and *step* are differs:

=================  ==========================  ===========================
workload           unit of work (``wall_s``)   step (``step_*_ms``)
=================  ==========================  ===========================
proposed-run       one ``SimulationEngine.run``  ``ProposedPolicy.place``
paper-suite-cold   one ``suite run`` process     ``ProposedPolicy.place``
service-warm       the first ``run_many(grid)``  one warm ``run_many(grid)``
                   on a fresh daemon (store
                   reads)
=================  ==========================  ===========================
"""

from __future__ import annotations

import json
import pathlib
import signal
import subprocess
import sys
import time
import urllib.request
from dataclasses import dataclass

from common import (
    HERE,
    Workdir,
    audit_failures,
    child_env,
    combined_digest,
    decoded_digest,
    ledger_digest,
    median,
    own_peak_rss_mb,
    percentile,
    proc_peak_rss_mb,
    run_child,
    sized_config,
    timed_place,
)
from spans import Tracer, install

PROBE = str(HERE / "probe.py")


@dataclass(frozen=True)
class Sizes:
    """How much work each workload does."""

    #: Fresh-interpreter set-ups per run; ``setup_s`` is their median.
    setup_reps: int = 3
    #: Units of work per timed run, at least (more while time remains).
    min_units: int = 3
    proposed_horizon: int = 48
    suite_horizon: int = 24
    #: Hold the simulated run size to the reference live-VM profile
    #: (``pins.json``) rather than to whatever the seed draws.
    sized: bool = True
    service_seeds: int = 8  # x 4 policies = the warm grid
    #: Fresh daemons whose first call is timed (``service-warm``'s
    #: ``wall_s``): one per set-up, then respawns over the last store;
    #: each serves an equal share of the warm window.
    cold_reps: int = 7
    #: None: ``tiny``'s default one-day horizon, the artifacts of the
    #: shipped ``examples/suites/mini.toml``.
    service_horizon: int | None = None
    #: run_many calls in each pass of the traced service run.
    traced_batches: int = 40


#: The benchmark's sizes, and the seconds-long smoke sizes of ``--quick``.
FULL = Sizes()
QUICK = Sizes(
    setup_reps=1, min_units=1, proposed_horizon=4, suite_horizon=3, sized=False, cold_reps=1,
    service_seeds=1, service_horizon=2, traced_batches=2,
)
SIZES = FULL
#: The (scale, horizon) pairs whose reference profiles ``pins.json`` keeps.
PROFILED = [("small", FULL.proposed_horizon), ("small", FULL.suite_horizon)]
#: The pins and profiles in use (``run.py`` sets them from ``--pins``).
PINS = None


def small_config(horizon: int, seed: int):
    if not SIZES.sized:
        from repro.sim.config import scaled_config

        return scaled_config("small", seed=seed).with_horizon(horizon)
    return sized_config("small", horizon, seed, PINS.profile("small", horizon))


class Outcome:
    """What one workload run produced: counts, metrics, notes."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.metrics: dict[str, tuple[float, str]] = {}
        self.notes: list[str] = []
        self.digest: str | None = None

    def fail(self, count: int, why: str) -> None:
        self.failed += count
        self.notes.append(f"FAILED: {why}")


def step_metrics(outcome: Outcome, steps_s: list[float], tail: float) -> None:
    """Median and tail step latency.

    ``tail`` is fixed per workload (p90, p75, p95) rather than derived
    from each run's sample count, so every run reports the same
    percentile; each leaves at least ten samples beyond it at the
    workload's usual sample count.  The run prints how many did.
    """
    ms = [s * 1000.0 for s in steps_s]
    outcome.metrics["step_p50_ms"] = (percentile(ms, 50.0), "ms")
    outcome.metrics["step_tail_ms"] = (percentile(ms, tail), "ms")
    beyond = sum(1 for v in ms if v > outcome.metrics["step_tail_ms"][0])
    outcome.notes.append(
        f"step_tail_ms is p{tail:g} of {len(ms)} steps ({beyond} beyond it)"
    )


def setup_probes(workdir: Workdir, argv) -> list[dict]:
    """Run the set-up probe ``setup_reps`` times in fresh interpreters."""
    results = []
    for _rep in range(SIZES.setup_reps):
        _wall, _rss, out = run_child([PROBE, *argv()], workdir)
        results.append(json.loads(out.splitlines()[-1]))
    return results


def proposed_policy():
    from repro.core.controller import ProposedPolicy
    from repro.core.forces import ForceParameters

    return ProposedPolicy(force_params=ForceParameters(alpha=0.5))


# -- proposed-run --------------------------------------------------------


def proposed_inputs(seed: int):
    return small_config(SIZES.proposed_horizon, seed)


def _proposed_once(config):
    from repro.sim.engine import SimulationEngine

    engine = SimulationEngine(config, proposed_policy())
    start = time.perf_counter()
    result = engine.run()
    return result, time.perf_counter() - start


def _check_run(outcome: Outcome, result, config, digests: set, units: int) -> None:
    violations = audit_failures(result, config)
    if violations:
        outcome.fail(units, f"audit: {violations[:3]}")
    digests.add(ledger_digest(result))


def proposed_run(seed: int, seconds: float, workdir: Workdir) -> Outcome:
    outcome = Outcome()
    config = proposed_inputs(seed)
    outcome.notes.append(f"config seed {config.seed}, horizon {config.horizon_slots}")
    setups = setup_probes(
        workdir,
        lambda: ["engine", "--config-seed", str(config.seed),
                 "--horizon", str(config.horizon_slots)],
    )
    outcome.metrics["setup_s"] = (median([s["setup_s"] for s in setups]), "s")

    walls, steps, digests = [], [], set()
    start = time.perf_counter()
    while len(walls) < SIZES.min_units or time.perf_counter() - start < seconds:
        with timed_place(steps):
            result, wall = _proposed_once(config)
        walls.append(wall)
        outcome.attempted += config.horizon_slots
        _check_run(outcome, result, config, digests, config.horizon_slots)
    _finish_digests(outcome, digests, outcome.attempted)
    outcome.metrics["wall_s"] = (median(walls), "s")
    step_metrics(outcome, steps, tail=90.0)  # >= 144 steps: 14 beyond
    outcome.metrics["throughput_per_s"] = (outcome.attempted / sum(walls), "1/s")
    outcome.metrics["peak_rss_mb"] = (own_peak_rss_mb(), "MB")
    return outcome


def _finish_digests(outcome: Outcome, digests: set, units: int) -> None:
    """Repeated units must agree; the agreed digest goes to the pins."""
    if len(digests) != 1:
        outcome.fail(units, f"repeated runs disagree: {sorted(digests)}")
    outcome.digest = sorted(digests)[0]


def proposed_traced(seed: int, workdir: Workdir) -> tuple[Outcome, dict]:
    outcome = Outcome()
    config = proposed_inputs(seed)
    digests: set = set()
    start = time.perf_counter()
    result, _wall = _proposed_once(config)
    untraced = time.perf_counter() - start
    _check_run(outcome, result, config, digests, config.horizon_slots)
    tracer = Tracer()
    patch = install(tracer)
    try:
        start = time.perf_counter()
        result, _wall = _proposed_once(config)
        traced = time.perf_counter() - start
    finally:
        patch.restore()
    outcome.attempted = 2 * config.horizon_slots
    _check_run(outcome, result, config, digests, config.horizon_slots)
    _finish_digests(outcome, digests, outcome.attempted)
    return outcome, {"tracer": tracer, "wall": traced, "untraced": untraced}


# -- paper-suite-cold ----------------------------------------------------

SUITE_POLICIES = ["Proposed", "Ener-aware", "Pri-aware", "Net-aware"]


def suite_toml(config_seed: int) -> str:
    return f"""[suite]
name = "bench-paper"
description = "Reduced paper suite: Figs. 1-6, Table I and CSV export"

[matrix]
scale = "small"
horizon = {SIZES.suite_horizon}
packs = ["synthetic"]
policies = {json.dumps(SUITE_POLICIES)}
seeds = [{config_seed}]
alphas = [0.5]
engines = ["slot"]
vectorized = [true]
qos = [0.98]

[outputs]
figures = [1, 2, 3, 4, 5, 6]
tables = [1]
export = true
"""


def suite_inputs(seed: int) -> str:
    return suite_toml(small_config(SIZES.suite_horizon, seed).seed)


def _suite_dirs(workdir: Workdir, toml: str) -> tuple[pathlib.Path, pathlib.Path, pathlib.Path]:
    base = workdir.fresh("suite")
    spec = base / "suite.toml"
    spec.write_text(toml)
    (base / "store").mkdir()
    (base / "out").mkdir()
    return spec, base / "store", base / "out"


def check_suite(outcome: Outcome, spec: pathlib.Path, store_root: pathlib.Path,
                out_dir: pathlib.Path, digests: set) -> None:
    """Every run is in the store, passes the audit; every output exists."""
    from repro.store.core import ResultStore
    from repro.suite import load_suite

    store = ResultStore(store_root)
    per_run = {}
    for run in load_suite(spec).expand():
        fingerprint = run.fingerprint
        hit = store.fetch(fingerprint)
        if hit is None:
            outcome.fail(1, f"run {fingerprint[:12]} missing from the store")
            continue
        result = hit[0]
        violations = audit_failures(result, run.request.resolved_config())
        if violations:
            outcome.fail(1, f"audit of {result.policy_name}: {violations[:3]}")
        per_run[result.policy_name] = ledger_digest(result)
    written = [p for p in out_dir.rglob("*") if p.is_file()]
    if len(written) < 8:
        outcome.fail(1, f"only {len(written)} output files written")
    digests.add(combined_digest(per_run))


def paper_suite_cold(seed: int, seconds: float, workdir: Workdir) -> Outcome:
    outcome = Outcome()
    toml = suite_inputs(seed)
    setups = setup_probes(
        workdir,
        lambda: ["store", "--dir", str(workdir.fresh("setup")), "--toml", toml],
    )
    outcome.metrics["setup_s"] = (median([s["setup_s"] for s in setups]), "s")

    walls, steps, rss, digests = [], [], [], set()
    start = time.perf_counter()
    while len(walls) < SIZES.min_units or time.perf_counter() - start < seconds:
        spec, store_root, out_dir = _suite_dirs(workdir, toml)
        wall, peak, out = run_child(
            [PROBE, "suite", "--spec", str(spec), "--store", str(store_root),
             "--out", str(out_dir), "--steps", "1"],
            workdir,
        )
        payload = json.loads(out.splitlines()[-1])
        walls.append(wall)
        rss.append(peak)
        steps.extend(payload["steps"])
        outcome.attempted += len(SUITE_POLICIES)
        check_suite(outcome, spec, store_root, out_dir, digests)
    _finish_digests(outcome, digests, outcome.attempted)
    outcome.metrics["wall_s"] = (median(walls), "s")
    step_metrics(outcome, steps, tail=75.0)  # >= 72 steps: 18 beyond
    outcome.metrics["throughput_per_s"] = (outcome.attempted / sum(walls), "1/s")
    outcome.metrics["peak_rss_mb"] = (max(rss), "MB")
    return outcome


def suite_traced(seed: int, workdir: Workdir) -> tuple[Outcome, dict]:
    outcome = Outcome()
    toml = suite_inputs(seed)
    digests: set = set()
    payloads = {}
    store_bytes = 0
    for trace in (0, 1):
        spec, store_root, out_dir = _suite_dirs(workdir, toml)
        _wall, _rss, out = run_child(
            [PROBE, "suite", "--spec", str(spec), "--store", str(store_root),
             "--out", str(out_dir), "--trace", str(trace)],
            workdir,
        )
        payloads[trace] = json.loads(out.splitlines()[-1])
        outcome.attempted += len(SUITE_POLICIES)
        check_suite(outcome, spec, store_root, out_dir, digests)
        if trace:
            store_bytes = sum(
                p.stat().st_size for p in store_root.rglob("*")
                if p.is_file() and "campaigns" not in p.relative_to(store_root).parts
            )
    _finish_digests(outcome, digests, outcome.attempted)
    traced = payloads[1]
    return outcome, {
        "spans": traced["spans"],
        "counters": traced["counters"],
        "wall": traced["wall_s"],
        "untraced": payloads[0]["wall_s"],
        "store_bytes": store_bytes,
    }


# -- service-warm --------------------------------------------------------


def service_grid(seed: int) -> list:
    from repro.experiments.orchestrator import RunRequest
    from repro.experiments.runner import default_policies
    from repro.sim.config import scaled_config

    requests = []
    for k in range(SIZES.service_seeds):
        config = scaled_config("tiny", seed=seed * SIZES.service_seeds + k)
        if SIZES.service_horizon is not None:
            config = config.with_horizon(SIZES.service_horizon)
        requests.extend(RunRequest(config=config, policy=p) for p in default_policies())
    return requests


def populate(store_root: pathlib.Path, grid: list) -> None:
    from repro.experiments.orchestrator import Orchestrator
    from repro.store.core import ResultStore

    with Orchestrator(store=ResultStore(store_root), jobs=1) as orchestrator:
        orchestrator.run_many(grid)


class Daemon:
    """A ``repro serve`` subprocess over one store root."""

    def __init__(self, store_root: pathlib.Path, workdir: Workdir) -> None:
        self.log = store_root.parent / "serve.log"
        with open(self.log, "wb") as log:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", "--store", str(store_root),
                 "--port", "0"],
                cwd=store_root.parent, env=child_env(workdir),
                stdout=subprocess.DEVNULL, stderr=log,
            )
        try:
            self.url = self._wait_ready()
        except BaseException:
            self.stop()
            raise

    def _wait_ready(self, timeout: float = 60.0) -> str:
        deadline = time.perf_counter() + timeout
        while time.perf_counter() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(f"daemon exited: {self.log.read_text()[-2000:]}")
            for line in self.log.read_text().splitlines():
                if "listening on " in line:
                    url = line.split("listening on ")[1].split()[0]
                    try:
                        with urllib.request.urlopen(url + "/healthz", timeout=2.0) as reply:
                            if reply.status == 200:
                                return url
                    except OSError:
                        pass
            time.sleep(0.005)
        raise RuntimeError("daemon did not answer /healthz in time")

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=10.0)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()


def count_bad(fingerprints: list[str], expected: dict, artifacts: list) -> int:
    """Served artifacts whose fingerprint or decoded ledger is not the store's."""
    if len(artifacts) != len(fingerprints):
        return len(fingerprints)
    return sum(
        artifact.fingerprint != fingerprint
        or decoded_digest(artifact.result) != expected.get(fingerprint)
        for fingerprint, artifact in zip(fingerprints, artifacts)
    )


class Fetcher:
    """One client's ``run_many(grid, detail="full")`` calls, each timed
    and then checked against the store outside its timing."""

    def __init__(self, url: str, grid: list, expected: dict, outcome: Outcome) -> None:
        from repro.service.client import ServiceClient

        self.client = ServiceClient(url)
        self.grid = grid
        self.fingerprints = [request.fingerprint() for request in grid]
        self.expected = expected
        self.outcome = outcome

    def fetch(self) -> float:
        """One call; returns its latency."""
        start = time.perf_counter()
        artifacts = self.client.run_many(self.grid, detail="full")
        latency = time.perf_counter() - start
        self.outcome.attempted += len(self.grid)
        bad = count_bad(self.fingerprints, self.expected, artifacts)
        if bad:
            self.outcome.fail(bad, f"{bad} served artifacts differ from the store")
        return latency

    def close(self) -> None:
        self.client.close()


def stored_digests(outcome: Outcome, grid: list, store_root: pathlib.Path,
                   digests: set) -> dict[str, str]:
    """Audit the grid's stored runs; their decoded digests by fingerprint."""
    from repro.store.core import ResultStore

    store = ResultStore(store_root)
    expected = {}
    per_run = {}
    for request in grid:
        fingerprint = request.fingerprint()
        hit = store.fetch(fingerprint)
        if hit is None:
            outcome.fail(1, f"grid run {fingerprint[:12]} missing from the store")
            continue
        violations = audit_failures(hit[0], request.resolved_config())
        if violations:
            outcome.fail(1, f"audit of {fingerprint[:12]}: {violations[:3]}")
        per_run[fingerprint] = ledger_digest(hit[0])
        expected[fingerprint] = decoded_digest(hit[0])
    digests.add(combined_digest(per_run))
    return expected


def service_warm(seed: int, seconds: float, workdir: Workdir) -> Outcome:
    """Each set-up fills a fresh store and spawns a daemon over it; more
    daemons are then spawned over the last store.  Each daemon's first
    ``run_many`` reads every run from the store (the unit, ``wall_s``);
    it then serves warm calls (the steps) from its response cache for
    its share of ``seconds``.  Interleaving the two kinds of call lets
    both medians see the same stretches of host load."""
    outcome = Outcome()
    grid = service_grid(seed)
    setup_walls, cold, warm = [], [], []
    daemon = fetcher = None
    digests: set = set()
    expected: dict = {}
    try:
        reps = max(SIZES.setup_reps, SIZES.cold_reps)
        for rep in range(reps):
            if fetcher is not None:
                fetcher.close()
                daemon.stop()
            if rep < SIZES.setup_reps:
                store_root = workdir.fresh("service") / "store"
                start = time.perf_counter()
                populate(store_root, grid)
                daemon = Daemon(store_root, workdir)
                setup_walls.append(time.perf_counter() - start)
            else:
                daemon = Daemon(store_root, workdir)
            if not expected:
                expected = stored_digests(outcome, grid, store_root, digests)
            fetcher = Fetcher(daemon.url, grid, expected, outcome)
            cold.append(fetcher.fetch())
            while sum(warm) < seconds * (rep + 1) / reps:
                warm.append(fetcher.fetch())
        while len(warm) < SIZES.min_units:
            warm.append(fetcher.fetch())
        outcome.metrics["peak_rss_mb"] = (proc_peak_rss_mb(daemon.proc.pid), "MB")
    finally:
        if fetcher is not None:
            fetcher.close()
        if daemon is not None:
            daemon.stop()
    _finish_digests(outcome, digests, outcome.attempted)
    outcome.metrics["setup_s"] = (median(setup_walls), "s")
    outcome.metrics["wall_s"] = (median(cold), "s")
    # About one warm call in ten pauses for the client's garbage
    # collector; p95 sits inside those calls rather than between modes.
    step_metrics(outcome, warm, tail=95.0)  # ~200 steps: 10 beyond
    outcome.metrics["throughput_per_s"] = (len(warm) * len(grid) / sum(warm), "1/s")
    outcome.notes.append(
        f"{len(warm) * len(grid)} warm artifacts over {len(warm)} run_many calls "
        f"taking {sum(warm):.2f}s; cold first calls {[round(c, 3) for c in cold]}s"
    )
    return outcome


def service_traced(seed: int, workdir: Workdir) -> tuple[Outcome, dict]:
    """The daemon in-process, so daemon-side store and codec calls are spanned."""
    from repro.experiments.orchestrator import Orchestrator
    from repro.service import ExperimentDaemon
    from repro.store.core import ResultStore

    outcome = Outcome()
    batches = SIZES.traced_batches
    grid = service_grid(seed)
    store_root = workdir.fresh("service") / "store"
    populate(store_root, grid)
    digests: set = set()
    expected = stored_digests(outcome, grid, store_root, digests)
    daemon = ExperimentDaemon(Orchestrator(store=ResultStore(store_root), jobs=1)).start()
    fetcher = None
    try:
        fetcher = Fetcher(daemon.url, grid, expected, outcome)
        fetcher.fetch()  # prime the response cache
        untraced = sum(fetcher.fetch() for _ in range(batches))
        bytes_before = daemon.wire_counters["bytes_out"]
        tracer = Tracer()
        patch = install(tracer)
        # The handler class is built per daemon; span whole requests too.
        handler = daemon._server.RequestHandlerClass
        for attr in ("do_GET", "do_POST"):
            patch.method(tracer, handler, attr, "service.server")
        try:
            traced = sum(fetcher.fetch() for _ in range(batches))
        finally:
            patch.restore()
        wire_bytes = daemon.wire_counters["bytes_out"] - bytes_before
    finally:
        if fetcher is not None:
            fetcher.close()
        daemon.close()
    _finish_digests(outcome, digests, outcome.attempted)
    return outcome, {
        "tracer": tracer,
        "wall": traced,
        "untraced": untraced,
        "wire_bytes_per_artifact": wire_bytes / (batches * len(grid)),
    }
