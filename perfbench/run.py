"""The repository benchmark: one command, three workloads.

    python3 perfbench/run.py --workload proposed-run --seed 0 --seconds 20 --trace 0

Workloads (see ``workloads.py`` and ``README.md``):

* ``proposed-run``     -- one small-scale Proposed run through the slot driver;
* ``paper-suite-cold`` -- a reduced paper suite regenerated into an empty store;
* ``service-warm``     -- one client fetching a warm grid from ``repro serve``.

With ``--trace 0`` the run is timed and prints the end-to-end metrics;
with ``--trace 1`` it runs the workload once plain and once with spans
around every layer's entry points, and prints the per-layer metrics.
Every run checks its outputs (ledger digests against ``pins.json``,
the physical audit, served artifacts against the store); the last
stdout line is the JSON result, and any failed check exits 1.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import re
import subprocess
import sys
import tempfile
import traceback

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from common import (  # noqa: E402
    PINS, ROOT, SRC, Pins, Workdir, child_env, median, reference_profile, run_child,
)
from spans import root_coverage, self_times  # noqa: E402

#: Workload and metric names live in BENCHMARK.json, next to this directory.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]
#: Per-layer metrics: (name, unit).  Names ending ``.s`` are self time.
LAYER_METRICS = [(metric["name"], metric["unit"]) for metric in SPEC["per_layer"]]


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_values(spans: list, counters: dict, wall: float, untraced: float,
                 extra: dict) -> dict[str, float]:
    """Per-layer metric values from one traced run's spans and counters."""
    seconds = self_times(spans)
    values = {name: seconds.get(name[:-2], 0.0) for name, unit in LAYER_METRICS
              if name.endswith(".s")}
    c = counters.get
    places = c("place_calls", 0.0)
    moves = c("migration.moves", 0.0)
    values.update({
        "core.forces.iters_per_slot": _ratio(c("forces.iters", 0.0), places),
        "core.forces.converged_frac": _ratio(c("forces.converged", 0.0), places),
        "core.kmeans.iters_per_slot": _ratio(c("kmeans.iters", 0.0), places),
        "core.migration.accepted_frac": _ratio(moves, moves + c("migration.rejected", 0.0)),
        "workload.datacorr.pair_calls": c("datacorr.pair_calls", 0.0),
        "workload.datacorr.new_pair_frac": _ratio(
            c("datacorr.new_pairs", 0.0), c("datacorr.pair_calls", 0.0)),
        "workload.traces.rows": c("traces.rows", 0.0),
        "workload.materialize.hit_frac": _ratio(
            c("materialize.hits", 0.0), c("materialize.lookups", 0.0)),
        "store.fetch.calls": c("store.fetch.calls", 0.0),
        "suite.ledger.records": c("ledger.records", 0.0),
        "trace.coverage_frac": root_coverage(spans) / wall,
        "trace.overhead_frac": wall / untraced - 1.0,
        "store.put_bytes": 0.0,
        "service.wire_bytes_per_artifact": 0.0,
    })
    values.update(extra)
    return values


def import_profile(workdir: Workdir, top: int = 8) -> list[str]:
    """The heaviest third-party imports ``import repro.cli`` pulls in,
    each with the ``repro`` module that imports it (``-X importtime``)."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import repro.cli"],
        env=child_env(workdir), capture_output=True, text=True, timeout=120,
    )
    rows = []  # (depth, cumulative us, name); a module prints after its imports
    for line in proc.stderr.splitlines():
        match = re.match(r"import time:\s+\d+ \|\s+(\d+) \|( *)(\S+)$", line)
        if match:
            rows.append(((len(match[2]) - 1) // 2, int(match[1]), match[3]))
    heavy = []
    for index, (depth, cumulative, name) in enumerate(rows):
        parent = next((r[2] for r in rows[index + 1:] if r[0] < depth), "")
        if not name.startswith("repro") and parent.startswith("repro"):
            heavy.append((cumulative, name, parent))
    total = next((r[1] for r in rows if r[2] == "repro.cli"), 0)
    lines = [f"import repro.cli takes {total / 1e6:.3f}s (-X importtime); heaviest imports:"]
    lines += [f"  {name:<28} {cumulative / 1e6:.3f}s  via {parent}"
              for cumulative, name, parent in sorted(heavy, reverse=True)[:top]]
    return lines


def run_traced(workload: str, seed: int, workdir: Workdir):
    imports = [
        json.loads(run_child([workloads.PROBE, "import"], workdir)[2].splitlines()[-1])
        for _ in range(workloads.SIZES.setup_reps)
    ]
    extra = {"cli.import_s": median([p["import_s"] for p in imports])}
    notes = []
    if workload == "proposed-run":
        outcome, data = workloads.proposed_traced(seed, workdir)
        spans, counters = data["tracer"].spans, data["tracer"].totals()
    elif workload == "paper-suite-cold":
        outcome, data = workloads.suite_traced(seed, workdir)
        spans, counters = data["spans"], data["counters"]
        extra["store.put_bytes"] = float(data["store_bytes"])
        notes.extend(import_profile(workdir))
    else:
        outcome, data = workloads.service_traced(seed, workdir)
        spans, counters = data["tracer"].spans, data["tracer"].totals()
        extra["service.wire_bytes_per_artifact"] = data["wire_bytes_per_artifact"]
        notes.append("service threads overlap: layer seconds are busy time per "
                     "thread and may sum past the covered wall time")
    values = layer_values(spans, counters, data["wall"], data["untraced"], extra)
    covered = values["trace.coverage_frac"] * data["wall"]
    layer_sum = sum(self_times(spans).values())
    notes.append(f"traced wall {data['wall']:.3f}s (untraced {data['untraced']:.3f}s); "
                 f"root spans cover {covered:.3f}s; layer self times sum to {layer_sum:.3f}s")
    outcome.notes.extend(notes)
    outcome.metrics = {name: (values[name], unit) for name, unit in LAYER_METRICS}
    return outcome


def run_timed(workload: str, seed: int, seconds: float, workdir: Workdir):
    return {
        "proposed-run": workloads.proposed_run,
        "paper-suite-cold": workloads.paper_suite_cold,
        "service-warm": workloads.service_warm,
    }[workload](seed, seconds, workdir)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pins", type=pathlib.Path, default=PINS,
                        help="pinned ledger digests (default: perfbench/pins.json)")
    parser.add_argument("--record-pins", action="store_true",
                        help="write this run's digests into --pins instead of checking")
    parser.add_argument("--record-profiles", action="store_true",
                        help="re-derive the reference live-VM profiles into --pins and exit")
    parser.add_argument("--quick", action="store_true",
                        help="seconds-long smoke sizes (the benchmark's own tests)")
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: the program's sources are missing ({SRC})", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    pins = Pins(args.pins, record=args.record_pins)
    if args.record_profiles:
        for scale, horizon in workloads.PROFILED:
            pins.profiles[f"{scale}/{horizon}"] = reference_profile(scale, horizon)
        pins.save()
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    workloads.PINS = pins
    if args.quick:
        workloads.SIZES = workloads.QUICK
    pin_key = args.workload + ("/quick" if args.quick else "")
    workdir = Workdir(args.workload)
    tempfile.tempdir = str(workdir.path)
    os.environ["TMPDIR"] = str(workdir.path)
    try:
        if args.trace:
            outcome = run_traced(args.workload, args.seed, workdir)
        else:
            outcome = run_timed(args.workload, args.seed, args.seconds, workdir)
        if not pins.check(pin_key, args.seed, outcome.digest):
            outcome.fail(outcome.attempted, "ledger digest differs from the pinned one")
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        workdir.cleanup()

    for note in outcome.notes:
        print(note)
    for name, (value, unit) in outcome.metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in outcome.metrics.items()},
    }))
    return 0 if outcome.failed == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
