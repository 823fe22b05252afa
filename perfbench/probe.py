"""Child-process entry points: work measured in a fresh interpreter.

Run as ``python perfbench/probe.py <kind> ...`` with ``PYTHONPATH=src``;
prints one JSON object on stdout.

``engine``  -- import plus engine build for the ``proposed-run`` set-up;
``store``   -- ``import repro.cli`` plus a temporary store and suite spec,
               the ``paper-suite-cold`` set-up;
``import``  -- ``import repro.cli`` alone (``cli.import_s``);
``suite``   -- the CLI's ``suite run`` called in-process with the
               arguments ``python -m repro suite run`` would get, timing
               each ``ProposedPolicy.place`` (``--steps 1``) or recording
               spans (``--trace 1``, the traced ``paper-suite-cold``).
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import pathlib  # noqa: E402


def engine(args) -> dict:
    from repro.core.controller import ProposedPolicy
    from repro.core.forces import ForceParameters
    from repro.sim.config import scaled_config
    from repro.sim.engine import SimulationEngine

    imported = time.perf_counter()
    config = scaled_config(args.scale, seed=args.config_seed).with_horizon(args.horizon)
    SimulationEngine(config, ProposedPolicy(force_params=ForceParameters(alpha=0.5)))
    built = time.perf_counter()
    return {"import_s": imported - _T0, "setup_s": built - _T0}


def store(args) -> dict:
    import repro.cli  # noqa: F401
    from repro.store.core import ResultStore
    from repro.suite import load_suite

    imported = time.perf_counter()
    work = pathlib.Path(args.dir)
    (work / "store").mkdir(parents=True)
    (work / "out").mkdir()
    spec_path = work / "suite.toml"
    spec_path.write_text(args.toml)
    ResultStore(work / "store")
    runs = load_suite(spec_path).expand()
    done = time.perf_counter()
    return {"import_s": imported - _T0, "setup_s": done - _T0, "runs": len(runs)}


def import_cli(args) -> dict:
    import repro.cli  # noqa: F401

    return {"import_s": time.perf_counter() - _T0}


def suite(args) -> dict:
    span_import = time.perf_counter()
    import repro.cli

    imported = time.perf_counter()
    from common import timed_place

    steps: list[float] = []
    tracer = None
    if args.trace:
        from spans import Tracer, install

        tracer = Tracer()
        install(tracer)
        tracer.spans.append(["cli.import", span_import, imported, -1])
    argv = ["suite", "run", args.spec, "--store", args.store, "--out", args.out]
    main = repro.cli.main if tracer is None else tracer.wrap("cli.main", repro.cli.main)
    with timed_place(steps) if args.steps else contextlib.nullcontext():
        code = main(argv)
    wall = time.perf_counter() - _T0
    payload = {
        "wall_s": wall, "exit": code, "import_s": imported - span_import,
        "steps": steps,
    }
    if tracer is not None:
        payload.update(tracer.export())
    return payload


def main() -> int:
    parser = argparse.ArgumentParser()
    sub = parser.add_subparsers(dest="kind", required=True)
    p = sub.add_parser("engine")
    p.add_argument("--scale", default="small")
    p.add_argument("--config-seed", type=int, required=True)
    p.add_argument("--horizon", type=int, required=True)
    p = sub.add_parser("store")
    p.add_argument("--dir", required=True)
    p.add_argument("--toml", required=True)
    p = sub.add_parser("suite")
    p.add_argument("--spec", required=True)
    p.add_argument("--store", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--trace", type=int, default=0)
    p.add_argument("--steps", type=int, default=0)
    sub.add_parser("import")
    args = parser.parse_args()
    payload = {
        "engine": engine, "store": store, "import": import_cli, "suite": suite,
    }[args.kind](args)
    # The CLI prints its own report on stdout; ours is the last line.
    print(json.dumps(payload))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
