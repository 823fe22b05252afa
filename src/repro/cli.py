"""Command-line interface: ``python -m repro <command>``.

Commands
--------

* ``table1``     -- print the Table I fleet specification
* ``compare``    -- run the four-method comparison and print the table
* ``figures``    -- regenerate every figure report (Figs. 1-6)
* ``alpha``      -- sweep Eq. 5's alpha and print the Pareto front
* ``bound``      -- compare each policy's cost against the LP oracle
* ``sweep``      -- sensitivity sweeps (battery / qos / pv)
* ``scenarios``  -- workload-mix scenario study (scale-out/mixed/hpc)
* ``export``     -- dump every figure's data as CSV
* ``packs``      -- list the registered workload trace packs
* ``serve``      -- run the shared experiment daemon (HTTP front-end
  over one orchestrator + store; see ``--service`` below)
* ``suite``      -- declarative experiment suites: ``run SUITE.toml``
  expands a ``[matrix]`` into a ledgered campaign and regenerates the
  declared figures/tables from the store, ``resume`` continues an
  interrupted campaign without re-executing store-verified work,
  ``status`` renders per-campaign ledger progress
* ``store``      -- result-store maintenance: ``ls``/``gc``/``migrate``
  /``compact`` documents by pack name, version, sha prefix and --
  for ``gc`` -- age/retention policy (``--older-than``,
  ``--keep-latest``)

All commands accept ``--scale {small,tiny}``, ``--horizon N`` and
``--seed N``; runs are deterministic per seed.  Execution goes through
the experiment orchestrator: ``--jobs N`` fans uncached runs out over
N worker processes, ``--store DIR`` persists results on disk keyed by
request fingerprint (warm reruns skip simulation entirely),
``--store-backend {auto,json,segment}`` picks the on-disk
layout for new roots (warm roots auto-detect), ``--no-cache`` forces
recomputation, and ``--seeds N`` replicates the comparison over N
seeds with mean / 95 % CI reporting.  Sweeps stream ``completed/total``
run counts to stderr as workers finish (``--progress`` forces it on,
``--no-progress`` off; the default follows whether stderr is a TTY).

Engine selection: ``--engine {slot,event}`` picks the simulation
driver -- the slot-stepped reference loop (default) or the
discrete-event core, which produces byte-identical slot ledgers plus a
per-request latency tail (p50/p99/p99.9).  The engine mode joins the
run fingerprint, so the two drivers cache as distinct artifacts.

Workload selection: ``--pack NAME`` runs a registered trace pack (see
``packs``) and ``--pack-csv PATH`` builds a recorded pack from a
utilization CSV on the fly.  Pack identity is a content hash folded
into the run fingerprint, so recorded-CSV experiments resolve from a
warm ``--store`` exactly like synthetic ones.

Remote execution: ``--service URL`` resolves every run against a
shared ``repro serve`` daemon instead of in-process -- same analysis
code, same artifacts, one store and worker pool shared by all clients.
Naming several members (``--service URL1,URL2,...`` or ``@FILE``)
routes each fingerprint to exactly one daemon of a fleet sharing a
store root, scaling cold-miss execution across hosts (``repro fleet
status`` probes the members).  ``--service`` excludes ``--store`` (the
store is the daemon's), and connection failures exit with a clean
error message.
"""

from __future__ import annotations

import argparse
import os
import pathlib
import sys

import numpy as np

from repro.analysis.lower_bound import comparison_bounds
from repro.analysis.pareto import alpha_sweep, pareto_front
from repro.analysis.sensitivity import (
    format_rows,
    sweep_battery_scale,
    sweep_pv_scale,
    sweep_qos,
)
from repro.experiments.figures import (
    all_figure_reports,
    render,
    table1_rows,
)
from repro.experiments.export import export_all
from repro.experiments.orchestrator import (
    EngineOptions,
    Orchestrator,
    ResultStore,
)
from repro.experiments.runner import (
    run_comparison,
    run_replicated_comparison,
)
from repro.experiments.scenarios import format_outcomes, run_scenarios
from repro.reporting import bar_chart, histogram, series_panel
from repro.service import (
    ExperimentDaemon,
    FleetClient,
    ServiceClient,
    ServiceError,
    parse_fleet_spec,
)
from repro.service.client import ServiceRunError
from repro.sim.config import (
    EngineCoreConfig,
    ExperimentConfig,
    paper_config,
    scaled_config,
)
from repro.sim.metrics import format_comparison, format_replicated_comparison
from repro.store import (
    KNOWN_FORMATS,
    STORE_ENV_VAR,
    SegmentBackend,
    collect_garbage,
    list_documents,
    migrate_store,
    open_backend,
    parse_age,
)
from repro.suite import (
    CampaignDriver,
    CampaignError,
    LedgerError,
    OutputError,
    SuiteSpecError,
    campaign_status,
    generate_outputs,
    load_suite,
)
from repro.workload.packs import TracePack, available_packs, get_pack


def _config_from(args: argparse.Namespace) -> ExperimentConfig:
    if args.scale == "paper":
        config = paper_config(seed=args.seed)
    else:
        config = scaled_config(args.scale, seed=args.seed)
    if args.horizon:
        config = config.with_horizon(args.horizon)
    return config


def _progress_printer():
    """A ``(done, total)`` callback streaming run counts to stderr."""

    def report(done: int, total: int) -> None:
        end = "\n" if done >= total else ""
        print(
            f"\r  [{done}/{total}] runs complete",
            end=end,
            file=sys.stderr,
            flush=True,
        )

    return report


def _orchestrator_from(args: argparse.Namespace):
    """Build the execution backend the command's flags describe.

    ``--service URL`` swaps the in-process orchestrator for a
    :class:`~repro.service.client.ServiceClient` against a running
    ``repro serve`` daemon -- same futures surface, so every command
    works unchanged.  Naming several members (``URL1,URL2,...`` or a
    fleet file) builds a
    :class:`~repro.service.fleet.FleetClient` instead, fanning miss
    execution out across the fleet.  The two execution backends are
    mutually exclusive with ``--store`` (the store lives daemon-side).
    """
    show_progress = (
        args.progress if args.progress is not None else sys.stderr.isatty()
    )
    progress = _progress_printer() if show_progress else None
    if args.service:
        if args.store:
            raise SystemExit(
                "error: --service and --store are mutually exclusive "
                "(the result store belongs to the daemon; pass --store "
                "to 'repro serve' instead)"
            )
        if args.jobs != 1:
            raise SystemExit(
                "error: --jobs has no effect with --service (worker "
                "capacity is the daemon's; pass --jobs to 'repro serve')"
            )
        try:
            urls = parse_fleet_spec(args.service)
            if len(urls) > 1:
                client: ServiceClient | FleetClient = FleetClient(
                    urls,
                    use_store=not args.no_cache,
                    progress=progress,
                )
            else:
                client = ServiceClient(
                    urls[0],
                    use_store=not args.no_cache,
                    progress=progress,
                )
            client.ping()
        except ServiceError as error:
            raise SystemExit(f"error: {error}") from None
        return client
    return Orchestrator(
        store=_open_store(args),
        jobs=args.jobs,
        use_store=not args.no_cache,
        progress=progress,
        workload_cache=args.workload_cache,
    )


def _open_store(args: argparse.Namespace) -> ResultStore:
    """The result store the command's flags describe (memory if none).

    An explicit ``--store-backend`` applies whether the root came from
    the flag or from ``$REPRO_RESULT_STORE``.
    """
    root = args.store or os.environ.get(STORE_ENV_VAR)
    if not root:
        return ResultStore()
    path = pathlib.Path(root)
    if path.exists() and not path.is_dir():
        raise SystemExit(f"error: store root {root!r} is not a directory")
    try:
        return ResultStore(path, backend=args.store_backend)
    except ValueError as error:
        raise SystemExit(f"error: {error}") from None


def _pack_from(
    args: argparse.Namespace, config: ExperimentConfig
) -> TracePack | None:
    """The workload pack the command's flags select (None = default)."""
    if args.pack and args.pack_csv:
        raise SystemExit("error: --pack and --pack-csv are mutually exclusive")
    if args.pack_csv:
        path = pathlib.Path(args.pack_csv)
        if not path.is_file():
            raise SystemExit(f"error: --pack-csv {args.pack_csv!r} not found")
        try:
            return TracePack.from_csv(
                path, steps_per_slot=config.steps_per_slot
            )
        except ValueError as error:
            raise SystemExit(f"error: {error}") from None
    if args.pack:
        try:
            return get_pack(args.pack)
        except KeyError as error:
            raise SystemExit(f"error: {error.args[0]}") from None
    return None


def _options_from(
    args: argparse.Namespace, pack: TracePack | None
) -> EngineOptions:
    """The engine options the command's flags describe.

    Validates ``--engine event`` against the selected pack up front so
    unsupported combinations fail with a flag-level message instead of
    a mid-run engine error (the engine's own check stays authoritative
    for policies and non-CLI callers).
    """
    engine = EngineCoreConfig(kind=args.engine)
    if (
        engine.kind == "event"
        and pack is not None
        and not getattr(pack, "supports_event_core", True)
    ):
        raise SystemExit(
            f"error: pack {pack.name!r} does not support --engine event "
            "yet; rerun with --engine slot"
        )
    return EngineOptions(engine=engine)


def _comparison_from(args: argparse.Namespace) -> list:
    config = _config_from(args)
    pack = _pack_from(args, config)
    return run_comparison(
        config,
        alpha=args.alpha,
        use_cache=not args.no_cache,
        orchestrator=_orchestrator_from(args),
        pack=pack,
        options=_options_from(args, pack),
    )


def cmd_table1(args: argparse.Namespace) -> int:
    """Print the Table I fleet specification."""
    report = table1_rows(_config_from(args))
    print("Table I: DCs number of servers and energy sources")
    for row in report["measured"]:
        print(
            f"  {row['dc']} {row['site']:<10} servers={row['servers']:<6} "
            f"PV={row['pv_kwp']:.1f} kWp  battery={row['battery_kwh']:.1f} kWh"
        )
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    """Run the four-method comparison and print the summary table.

    With ``--seeds N > 1`` the comparison replicates over seeds
    ``seed .. seed+N-1`` and reports mean / 95 % CI per metric.
    """
    config = _config_from(args)
    if args.seeds > 1:
        pack = _pack_from(args, config)
        replicates = run_replicated_comparison(
            config,
            alpha=args.alpha,
            seeds=tuple(range(args.seed, args.seed + args.seeds)),
            orchestrator=_orchestrator_from(args),
            pack=pack,
            options=_options_from(args, pack),
        )
        print(format_replicated_comparison(replicates))
        return 0
    results = _comparison_from(args)
    print(format_comparison(results))
    print()
    print("normalized operational cost:")
    print(
        bar_chart(
            {
                result.policy_name: result.total_grid_cost_eur()
                for result in results
            },
            fmt="{:.2f}",
        )
    )
    return 0


def cmd_figures(args: argparse.Namespace) -> int:
    """Regenerate every figure report (Figs. 1-6) plus ASCII panels."""
    results = _comparison_from(args)
    for report in all_figure_reports(results):
        print(render(report))
        print()
    print("hourly energy (GJ) per method:")
    print(
        series_panel(
            {
                result.policy_name: result.hourly_energy_joules() / 1e9
                for result in results
            }
        )
    )
    print()
    print("response-time distribution (Proposed, seconds):")
    proposed = results[0]
    print(histogram(proposed.response_samples()))
    return 0


def cmd_alpha(args: argparse.Namespace) -> int:
    """Sweep Eq. 5's alpha and mark the Pareto-efficient settings."""
    config = _config_from(args)
    alphas = tuple(float(a) for a in args.alphas.split(","))
    pack = _pack_from(args, config)
    points = alpha_sweep(
        config,
        alphas,
        orchestrator=_orchestrator_from(args),
        pack=pack,
        options=_options_from(args, pack),
    )
    front = {point.alpha for point in pareto_front(points)}
    print(
        f"{'alpha':>6} {'cost EUR':>10} {'energy GJ':>10} "
        f"{'p99 RT s':>9}  Pareto"
    )
    for point in points:
        marker = "*" if point.alpha in front else ""
        print(
            f"{point.alpha:>6.2f} {point.cost_eur:>10.2f} "
            f"{point.energy_gj:>10.3f} {point.response_p99_s:>9.4f}  {marker}"
        )
    return 0


def cmd_bound(args: argparse.Namespace) -> int:
    """Compare each policy's realized cost against the LP oracle."""
    config = _config_from(args)
    pack = _pack_from(args, config)
    bounds = comparison_bounds(
        config,
        alpha=args.alpha,
        orchestrator=_orchestrator_from(args),
        pack=pack,
        options=_options_from(args, pack),
    )
    print(
        f"{'policy':<12} {'cost EUR':>10} {'LP bound':>10} {'gap %':>7}"
    )
    for result, bound in bounds:
        print(
            f"{result.policy_name:<12} {bound.actual_cost_eur:>10.2f} "
            f"{bound.total_cost_eur:>10.2f} {bound.gap_pct:>7.1f}"
        )
    print(
        "\n(gap = how far the realized sourcing cost sits above the"
        " perfect-knowledge offline optimum for the same placement)"
    )
    return 0


def cmd_scenarios(args: argparse.Namespace) -> int:
    """Run the workload-mix scenario study."""
    config = _config_from(args)
    pack = _pack_from(args, config)
    outcomes = run_scenarios(
        config,
        alpha=args.alpha,
        orchestrator=_orchestrator_from(args),
        pack=pack,
        options=_options_from(args, pack),
    )
    print(format_outcomes(outcomes))
    return 0


def cmd_export(args: argparse.Namespace) -> int:
    """Write every figure's data series to CSV files."""
    results = _comparison_from(args)
    written = export_all(results, args.directory)
    for path in written:
        print(f"wrote {path}")
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    """Run a sensitivity sweep (battery / qos / pv)."""
    config = _config_from(args)
    sweeps = {
        "battery": sweep_battery_scale,
        "qos": sweep_qos,
        "pv": sweep_pv_scale,
    }
    pack = _pack_from(args, config)
    rows = sweeps[args.parameter](
        config,
        orchestrator=_orchestrator_from(args),
        pack=pack,
        options=_options_from(args, pack),
    )
    print(format_rows(rows))
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """Run the shared experiment daemon until interrupted."""
    store = _open_store(args)
    if store.root is None:
        print(
            "warning: no --store root; serving from a memory-only store "
            "(results vanish with the daemon)",
            file=sys.stderr,
        )
    orchestrator = Orchestrator(
        store=store, jobs=args.jobs, workload_cache=args.workload_cache
    )
    daemon = ExperimentDaemon(
        orchestrator,
        host=args.host,
        port=args.port,
        max_body_bytes=args.max_body_mb << 20,
        daemon_id=args.daemon_id,
    )
    print(
        f"repro service listening on {daemon.url} "
        f"(id={daemon.daemon_id}, jobs={orchestrator.jobs}, store="
        f"{store.root if store.root else 'memory-only'})",
        file=sys.stderr,
    )
    try:
        daemon.serve_forever()
    except KeyboardInterrupt:
        print("\nshutting down", file=sys.stderr)
    finally:
        daemon.close()
    return 0


def _workload_cache_cell(stats: dict | None) -> str:
    """Compact per-member workload-cache column for ``fleet status``.

    ``hits/lookups @ MiB`` for an enabled cache, ``off`` when the
    member disabled it, ``-`` for old daemons that don't report one.
    """
    if not stats:
        return "-"
    if not stats.get("enabled"):
        return "off"
    hits = stats.get("hits", 0)
    lookups = hits + stats.get("misses", 0)
    mib = stats.get("bytes", 0) / (1 << 20)
    return f"{hits}/{lookups} @ {mib:.0f}MiB"


def _engine_modes_cell(counts: dict | None) -> str:
    """Compact per-member engine-mode column for ``fleet status``.

    ``slot:N,event:M`` (only modes actually seen, slot first), or
    ``-`` for old daemons that don't report the counts or members
    that haven't decoded a submission yet.
    """
    if not counts:
        return "-"
    order = {"slot": 0, "event": 1}
    modes = sorted(counts, key=lambda mode: (order.get(mode, 99), mode))
    return ",".join(f"{mode}:{counts[mode]}" for mode in modes)


def cmd_fleet_status(args: argparse.Namespace) -> int:
    """Probe every fleet member; exit 0 only when all are alive."""
    fleet = FleetClient(parse_fleet_spec(args.service))
    payload = fleet.status()["fleet"]
    print(
        f"{'member':<28} {'state':<6} {'daemon-id':<20} "
        f"{'jobs':>4} {'inflight':>8} {'queued':>6} {'wl-cache':>14} "
        f"{'engines':>14}"
    )
    for member in payload["members"]:
        if member["alive"]:
            print(
                f"{member['url']:<28} {'up':<6} "
                f"{member['daemon_id'] or '-':<20} "
                f"{member['jobs'] or 0:>4} {member['inflight'] or 0:>8} "
                f"{member['queue_depth'] or 0:>6} "
                f"{_workload_cache_cell(member.get('workload_cache')):>14} "
                f"{_engine_modes_cell(member.get('engine_modes')):>14}"
            )
        else:
            print(
                f"{member['url']:<28} {'down':<6} "
                f"{member['error'] or 'unreachable'}"
            )
    print(f"{payload['alive']}/{payload['total']} members alive")
    fleet.close()
    return 0 if payload["alive"] == payload["total"] else 1


def cmd_packs(args: argparse.Namespace) -> int:
    """List the registered workload trace packs."""
    print(f"{'name':<22} {'kind':<10} {'ver':>3}  sha256")
    for name, pack in available_packs().items():
        print(
            f"{name:<22} {pack.kind:<10} {pack.version:>3}  "
            f"{pack.sha256[:16]}"
        )
    return 0


def _suite_ledger_root(args: argparse.Namespace) -> pathlib.Path:
    """Where this suite campaign's ledger lives.

    Defaults to the store root (the manifest sits next to the
    documents it audits); ``--service`` runs have no local store, so
    they name a ledger root explicitly with ``--ledger``.
    """
    root = args.ledger or args.store or os.environ.get(STORE_ENV_VAR)
    if not root:
        raise SystemExit(
            "error: suite campaigns need a ledger root: pass --store DIR "
            "(in-process) or --ledger DIR (with --service)"
        )
    return pathlib.Path(root)


def _load_suite_or_exit(path: str):
    try:
        return load_suite(path)
    except SuiteSpecError as error:
        raise SystemExit(f"error: {error}") from None


def _run_suite(args: argparse.Namespace, resume: bool) -> int:
    spec = _load_suite_or_exit(args.spec)
    consumer = _orchestrator_from(args)
    driver = CampaignDriver(
        spec,
        consumer,
        _suite_ledger_root(args),
        echo=lambda line: print(line, file=sys.stderr),
    )
    try:
        report = driver.run(resume=resume)
    except (CampaignError, LedgerError) as error:
        raise SystemExit(f"error: {error}") from None
    print(report.summary())
    if spec.has_outputs and not args.no_outputs:
        out_dir = pathlib.Path(args.out or f"reports/suites/{spec.name}")
        try:
            written = generate_outputs(spec, consumer, out_dir)
        except OutputError as error:
            raise SystemExit(f"error: {error}") from None
        print(f"wrote {len(written)} output file(s) under {out_dir}")
    return 0


def cmd_suite_run(args: argparse.Namespace) -> int:
    """Execute a suite spec as a fresh campaign (plus its outputs)."""
    return _run_suite(args, resume=False)


def cmd_suite_resume(args: argparse.Namespace) -> int:
    """Continue an interrupted campaign, skipping store-verified work."""
    return _run_suite(args, resume=True)


def cmd_suite_status(args: argparse.Namespace) -> int:
    """Render per-campaign ledger progress (one line per campaign)."""
    spec = _load_suite_or_exit(args.spec) if args.spec else None
    root = _suite_ledger_root(args)
    try:
        states = campaign_status(root, spec)
    except LedgerError as error:
        raise SystemExit(f"error: {error}") from None
    if not states:
        print(f"no campaign ledgers under {root}")
        return 1
    print(
        f"{'campaign':<28} {'done':>6} {'total':>6} {'failed':>6}  state"
    )
    all_complete = True
    for state in states:
        counts = state.counts()
        if state.complete:
            label = "complete"
        elif counts["failed"]:
            label = "failed"
            all_complete = False
        else:
            label = "in progress"
            all_complete = False
        if state.torn_tail:
            label += " (torn tail)"
        print(
            f"{state.campaign_id or '?':<28} {counts['done']:>6} "
            f"{counts['total']:>6} {counts['failed']:>6}  {label}"
        )
    return 0 if all_complete else 1


def _store_backend_from(args: argparse.Namespace):
    """Open the backend the ``repro store`` flags point at."""
    root = args.store or os.environ.get(STORE_ENV_VAR)
    if not root:
        raise SystemExit(
            "error: no store root (pass --store DIR or set "
            f"${STORE_ENV_VAR})"
        )
    path = pathlib.Path(root)
    if not path.is_dir():
        raise SystemExit(f"error: store root {root!r} is not a directory")
    try:
        return open_backend(path, args.store_backend)
    except ValueError as error:
        raise SystemExit(f"error: {error}") from None


def _store_filters(args: argparse.Namespace) -> dict:
    return {
        "pack": args.pack,
        "pack_version": args.pack_version,
        "sha": args.sha,
        "fingerprint": args.fingerprint,
        "campaign": args.campaign,
    }


def cmd_store_ls(args: argparse.Namespace) -> int:
    """List store documents (filtered by pack name/version/sha)."""
    backend = _store_backend_from(args)
    rows = list_documents(backend, **_store_filters(args))
    print(
        f"{'fingerprint':<14} {'policy':<12} {'pack':<22} {'ver':>3}  "
        f"{'pack sha256':<14} campaign"
    )
    for info in rows:
        print(
            f"{info.fingerprint[:12]:<14} {info.policy or '-':<12} "
            f"{info.pack_name or '-':<22} "
            f"{info.pack_version if info.pack_version is not None else '-':>3}  "
            f"{(info.pack_sha256 or '-')[:12]:<14} "
            f"{info.campaign or '-'}"
        )
    print(f"{len(rows)} document(s) [{backend.format} backend]")
    return 0


def cmd_store_gc(args: argparse.Namespace) -> int:
    """Garbage-collect store documents matching the filters.

    Retention flags count as filters: ``--older-than 30d`` collects
    only documents at least that old, ``--keep-latest N`` spares the
    N newest documents of every pack name.
    """
    filters = _store_filters(args)
    if args.older_than is not None:
        try:
            filters["older_than"] = parse_age(args.older_than)
        except ValueError as error:
            raise SystemExit(f"error: {error}") from None
    filters["keep_latest"] = args.keep_latest
    if not args.all and not any(v is not None for v in filters.values()):
        raise SystemExit(
            "error: refusing to gc everything; pass a filter "
            "(--pack/--pack-version/--sha/--fingerprint/--campaign/"
            "--older-than/--keep-latest) or --all"
        )
    backend = _store_backend_from(args)
    doomed = collect_garbage(backend, dry_run=args.dry_run, **filters)
    verb = "would delete" if args.dry_run else "deleted"
    print(f"{verb} {len(doomed)} document(s)")
    return 0


def cmd_store_migrate(args: argparse.Namespace) -> int:
    """Convert a store root into another backend layout."""
    root = args.store or os.environ.get(STORE_ENV_VAR)
    if not root:
        raise SystemExit(
            "error: no source store root (pass --store DIR or set "
            f"${STORE_ENV_VAR})"
        )
    if not pathlib.Path(root).is_dir():
        raise SystemExit(f"error: store root {root!r} is not a directory")
    try:
        report = migrate_store(
            root, args.dest, to=args.to, source_backend=args.store_backend
        )
    except ValueError as error:
        raise SystemExit(f"error: {error}") from None
    print(
        f"migrated {report.migrated} document(s) to {args.to} backend "
        f"at {args.dest}"
    )
    if not report.verified:
        print(
            f"error: {len(report.mismatched)} document(s) did not "
            "round-trip bit-identically:",
            file=sys.stderr,
        )
        for fingerprint in report.mismatched[:10]:
            print(f"  {fingerprint}", file=sys.stderr)
        return 1
    print("verified: every document round-tripped bit-identically")
    return 0


def cmd_store_compact(args: argparse.Namespace) -> int:
    """Compact a segment store (reclaim tombstoned/duplicate records)."""
    backend = _store_backend_from(args)
    if not isinstance(backend, SegmentBackend):
        raise SystemExit(
            f"error: compact applies to segment stores; this root holds "
            f"a {backend.format!r} store"
        )
    kept = backend.compact()
    print(f"compacted to {kept} live document(s)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The repro argument parser with all subcommands."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of Pahlevan et al., DATE 2016.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    def add_common(sub: argparse.ArgumentParser) -> None:
        sub.add_argument(
            "--scale",
            choices=("tiny", "small", "paper"),
            default="small",
            help="fleet scale (paper = literal Table I; slow)",
        )
        sub.add_argument("--horizon", type=int, default=None)
        sub.add_argument("--seed", type=int, default=0)
        sub.add_argument("--alpha", type=float, default=0.5)
        sub.add_argument(
            "--jobs",
            type=int,
            default=1,
            help="worker processes for uncached runs (1 = serial)",
        )
        sub.add_argument(
            "--seeds",
            type=int,
            default=1,
            help="replicate over N seeds and report mean/CI (compare)",
        )
        sub.add_argument(
            "--no-cache",
            action="store_true",
            help="recompute even when the result store has the runs",
        )
        sub.add_argument(
            "--store",
            default=None,
            metavar="DIR",
            help="persistent result-store root (default: $REPRO_RESULT_STORE)",
        )
        sub.add_argument(
            "--store-backend",
            default="auto",
            choices=("auto", *KNOWN_FORMATS),
            help="store layout for new roots (warm roots auto-detect)",
        )
        sub.add_argument(
            "--progress",
            action=argparse.BooleanOptionalAction,
            default=None,
            help="stream completed/total run counts to stderr "
            "(default: on when stderr is a TTY)",
        )
        sub.add_argument(
            "--pack",
            default=None,
            metavar="NAME",
            help="registered workload trace pack (see the packs command)",
        )
        sub.add_argument(
            "--pack-csv",
            default=None,
            metavar="PATH",
            help="build a recorded trace pack from a utilization CSV",
        )
        sub.add_argument(
            "--service",
            default=None,
            metavar="URLS",
            help="resolve runs against 'repro serve' daemon(s) instead of "
            "in-process: one URL, URL1,URL2,... for a fleet, or @FILE "
            "with one URL per line (mutually exclusive with --store)",
        )
        sub.add_argument(
            "--engine",
            choices=("slot", "event"),
            default="slot",
            help="simulation driver: the slot-stepped reference loop or "
            "the discrete-event core (byte-identical slot ledgers plus "
            "per-request latency percentiles)",
        )
        sub.add_argument(
            "--workload-cache",
            type=int,
            default=None,
            metavar="N",
            help="workload materializations kept warm per process "
            "(0 disables the cache and its shared-memory fan-out; "
            "default: $REPRO_WORKLOAD_CACHE or 4); results are "
            "byte-identical either way",
        )

    table1 = subparsers.add_parser("table1", help="print Table I")
    add_common(table1)
    table1.set_defaults(func=cmd_table1)

    compare = subparsers.add_parser("compare", help="four-method comparison")
    add_common(compare)
    compare.set_defaults(func=cmd_compare)

    figures = subparsers.add_parser("figures", help="regenerate Figs. 1-6")
    add_common(figures)
    figures.set_defaults(func=cmd_figures)

    alpha = subparsers.add_parser("alpha", help="Eq. 5 alpha Pareto sweep")
    add_common(alpha)
    alpha.add_argument(
        "--alphas", default="0.1,0.3,0.5,0.7,0.9", help="comma-separated"
    )
    alpha.set_defaults(func=cmd_alpha)

    bound = subparsers.add_parser("bound", help="LP cost lower bound")
    add_common(bound)
    bound.set_defaults(func=cmd_bound)

    sweep = subparsers.add_parser("sweep", help="sensitivity sweeps")
    add_common(sweep)
    sweep.add_argument("parameter", choices=("battery", "qos", "pv"))
    sweep.set_defaults(func=cmd_sweep)

    scenarios = subparsers.add_parser(
        "scenarios", help="workload-mix scenario study"
    )
    add_common(scenarios)
    scenarios.set_defaults(func=cmd_scenarios)

    export = subparsers.add_parser(
        "export", help="write figure data to CSV files"
    )
    add_common(export)
    export.add_argument("directory", help="output directory for the CSVs")
    export.set_defaults(func=cmd_export)

    packs = subparsers.add_parser(
        "packs", help="list registered workload trace packs"
    )
    packs.set_defaults(func=cmd_packs)

    serve = subparsers.add_parser(
        "serve", help="run the shared experiment daemon"
    )
    serve.add_argument(
        "--host", default="127.0.0.1", help="bind address"
    )
    serve.add_argument(
        "--port", type=int, default=8123, help="bind port (0 = ephemeral)"
    )
    serve.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes for cache misses (1 = serial)",
    )
    serve.add_argument(
        "--store",
        default=None,
        metavar="DIR",
        help="persistent result-store root (default: $REPRO_RESULT_STORE; "
        "unset = memory-only)",
    )
    serve.add_argument(
        "--store-backend",
        default="auto",
        choices=("auto", *KNOWN_FORMATS),
        help="store layout for new roots (warm roots auto-detect)",
    )
    serve.add_argument(
        "--max-body-mb",
        type=int,
        default=64,
        metavar="MB",
        help="reject request bodies larger than this with HTTP 413 "
        "(encoded recorded-trace packs are the big legitimate payload)",
    )
    serve.add_argument(
        "--daemon-id",
        default=None,
        metavar="ID",
        help="stable member identity for fleet provenance (default: the "
        "bound host:port); echoed in /healthz and /stats and stamped "
        "into every stored artifact's meta",
    )
    serve.add_argument(
        "--workload-cache",
        type=int,
        default=None,
        metavar="N",
        help="workload materializations kept warm per process across "
        "client requests (0 disables; default: $REPRO_WORKLOAD_CACHE "
        "or 4); counters surface in /stats as 'workload_cache'",
    )
    serve.set_defaults(func=cmd_serve)

    fleet = subparsers.add_parser(
        "fleet", help="fleet introspection (status)"
    )
    fleet_sub = fleet.add_subparsers(dest="fleet_command", required=True)
    fleet_status = fleet_sub.add_parser(
        "status", help="probe every member; exit 0 when all are alive"
    )
    fleet_status.add_argument(
        "--service",
        required=True,
        metavar="URLS",
        help="fleet members: URL1,URL2,... or @FILE with one URL per line",
    )
    fleet_status.set_defaults(func=cmd_fleet_status)

    suite = subparsers.add_parser(
        "suite",
        help="declarative experiment suites (run/resume/status)",
    )
    suite_sub = suite.add_subparsers(dest="suite_command", required=True)

    def add_suite_common(sub: argparse.ArgumentParser) -> None:
        sub.add_argument(
            "--store",
            default=None,
            metavar="DIR",
            help="persistent result-store root (default: "
            "$REPRO_RESULT_STORE); the campaign ledger lives in its "
            "campaigns/ subdirectory",
        )
        sub.add_argument(
            "--store-backend",
            default="auto",
            choices=("auto", *KNOWN_FORMATS),
            help="store layout for new roots (warm roots auto-detect)",
        )
        sub.add_argument(
            "--service",
            default=None,
            metavar="URLS",
            help="execute through 'repro serve' daemon(s): one URL, "
            "URL1,URL2,... for a fleet, or @FILE (mutually exclusive "
            "with --store; pair with --ledger)",
        )
        sub.add_argument(
            "--ledger",
            default=None,
            metavar="DIR",
            help="campaign-ledger root override (required with "
            "--service, where no local store root exists)",
        )
        sub.add_argument(
            "--jobs",
            type=int,
            default=1,
            help="worker processes for uncached runs (1 = serial)",
        )
        sub.add_argument(
            "--no-cache",
            action="store_true",
            help="recompute even when the result store has the runs",
        )
        sub.add_argument(
            "--progress",
            action=argparse.BooleanOptionalAction,
            default=None,
            help="stream completed/total run counts to stderr "
            "(default: on when stderr is a TTY)",
        )
        sub.add_argument(
            "--workload-cache",
            type=int,
            default=None,
            metavar="N",
            help="workload materializations kept warm per process",
        )
        sub.add_argument(
            "--out",
            default=None,
            metavar="DIR",
            help="output directory for declared figures/tables "
            "(default: reports/suites/<suite-name>)",
        )
        sub.add_argument(
            "--no-outputs",
            action="store_true",
            help="run the campaign but skip the output stage",
        )

    suite_run = suite_sub.add_parser(
        "run", help="execute a suite spec as a campaign"
    )
    suite_run.add_argument("spec", help="suite spec (TOML)")
    add_suite_common(suite_run)
    suite_run.set_defaults(func=cmd_suite_run)

    suite_resume = suite_sub.add_parser(
        "resume",
        help="continue an interrupted campaign (skips store-verified "
        "fingerprints; zero re-execution)",
    )
    suite_resume.add_argument("spec", help="suite spec (TOML)")
    add_suite_common(suite_resume)
    suite_resume.set_defaults(func=cmd_suite_resume)

    suite_status = suite_sub.add_parser(
        "status", help="render per-campaign ledger progress"
    )
    suite_status.add_argument(
        "spec", nargs="?", default=None,
        help="suite spec (TOML); omit to list every campaign",
    )
    suite_status.add_argument(
        "--store", default=None, metavar="DIR",
        help="store root whose campaigns/ directory holds the ledgers",
    )
    suite_status.add_argument(
        "--ledger", default=None, metavar="DIR",
        help="campaign-ledger root override",
    )
    suite_status.set_defaults(func=cmd_suite_status)

    store = subparsers.add_parser(
        "store", help="result-store maintenance (ls/gc/migrate/compact)"
    )
    store_sub = store.add_subparsers(dest="store_command", required=True)

    def add_store_common(sub: argparse.ArgumentParser) -> None:
        sub.add_argument(
            "--store",
            default=None,
            metavar="DIR",
            help="store root (default: $REPRO_RESULT_STORE)",
        )
        sub.add_argument(
            "--store-backend",
            default="auto",
            choices=("auto", *KNOWN_FORMATS),
            help="backend layout (default: auto-detect)",
        )

    def add_store_filters(sub: argparse.ArgumentParser) -> None:
        sub.add_argument(
            "--pack", default=None, metavar="NAME",
            help="match documents whose workload pack has this name",
        )
        sub.add_argument(
            "--pack-version", type=int, default=None, metavar="N",
            help="match documents with this pack version",
        )
        sub.add_argument(
            "--sha", default=None, metavar="PREFIX",
            help="match documents whose pack content sha256 starts with this",
        )
        sub.add_argument(
            "--fingerprint", default=None, metavar="PREFIX",
            help="match documents whose run fingerprint starts with this",
        )
        sub.add_argument(
            "--campaign", default=None, metavar="ID",
            help="match documents stamped with this suite campaign id "
            "(in-process suite runs stamp it into the meta envelope)",
        )

    store_ls = store_sub.add_parser("ls", help="list store documents")
    add_store_common(store_ls)
    add_store_filters(store_ls)
    store_ls.set_defaults(func=cmd_store_ls)

    store_gc = store_sub.add_parser(
        "gc", help="garbage-collect store documents"
    )
    add_store_common(store_gc)
    add_store_filters(store_gc)
    store_gc.add_argument(
        "--older-than", default=None, metavar="AGE",
        help="only collect documents at least this old (e.g. 30d, 12h)",
    )
    store_gc.add_argument(
        "--keep-latest", type=int, default=None, metavar="N",
        help="spare the N newest documents of every pack name",
    )
    store_gc.add_argument(
        "--all", action="store_true",
        help="allow collecting with no filters (deletes everything)",
    )
    store_gc.add_argument(
        "--dry-run", action="store_true",
        help="report what would be deleted without deleting",
    )
    store_gc.set_defaults(func=cmd_store_gc)

    store_migrate = store_sub.add_parser(
        "migrate", help="convert a store root to another backend layout"
    )
    add_store_common(store_migrate)
    store_migrate.add_argument(
        "--dest", required=True, metavar="DIR",
        help="destination store root (created if missing)",
    )
    store_migrate.add_argument(
        "--to", default="segment", choices=KNOWN_FORMATS,
        help="destination backend layout (default: segment)",
    )
    store_migrate.set_defaults(func=cmd_store_migrate)

    store_compact = store_sub.add_parser(
        "compact", help="compact a segment store"
    )
    add_store_common(store_compact)
    store_compact.set_defaults(func=cmd_store_compact)

    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code.

    Service-layer failures (daemon unreachable mid-command, a run that
    failed daemon-side) exit with a clean nonzero status and message
    instead of a traceback.
    """
    args = build_parser().parse_args(argv)
    if getattr(args, "seeds", 1) > 1 and args.func is not cmd_compare:
        raise SystemExit(
            "error: --seeds replication applies to the compare command only"
        )
    try:
        return args.func(args)
    except ServiceError as error:
        raise SystemExit(f"error: {error}") from None
    except ServiceRunError as error:
        raise SystemExit(f"error: run failed on the service: {error}") from None


if __name__ == "__main__":
    raise SystemExit(main())
