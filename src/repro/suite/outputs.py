"""The output stage: regenerate a suite's declared figures/tables.

Outputs are rebuilt **purely from the store** -- the stage resolves
every comparison fingerprint through the consumer's ``lookup`` (a
warm-only read; nothing executes here) and fails loudly if a cell is
incomplete.  That separation is the point of the suite layer: runs
are expensive and campaign-managed, outputs are cheap derived views
that any later session (or the nightly CI job) can regenerate from
stored artifacts alone.

Layout, under ``--out DIR`` (default ``reports/suites/<suite>``)::

    <out>/<cell>/fig1.txt ... fig6.txt   # rendered figure reports
    <out>/<cell>/table1.txt              # Table I fleet spec
    <out>/<cell>/fig1_cost.csv ...       # export_all CSV series
    <out>/MANIFEST.json                  # what was written, from which
                                         # fingerprints

with one ``<cell>`` directory per (pack x engine x qos)
combination in the suite matrix.
"""

from __future__ import annotations

import json
import pathlib

from repro.experiments.export import export_all
from repro.experiments.figures import (
    fig1_operational_cost,
    fig2_energy,
    fig3_response_time,
    fig4_totals,
    fig5_cost_performance,
    fig6_energy_performance,
    render,
    table1_rows,
)
from repro.suite.spec import SuiteCell, SuiteSpec

__all__ = ["OutputError", "generate_outputs"]

_FIGURES = {
    1: fig1_operational_cost,
    2: fig2_energy,
    3: fig3_response_time,
    4: fig4_totals,
    5: fig5_cost_performance,
    6: fig6_energy_performance,
}


class OutputError(RuntimeError):
    """A declared output cannot be regenerated from the store."""


def _render_table1(report: dict) -> str:
    lines = [f"== {report['id']} =="]
    for block in ("measured", "paper"):
        lines.append(f"  [{block}]")
        for row in report.get(block, ()):
            cells = " ".join(
                f"{key}={value}" for key, value in row.items() if key != "dc"
            )
            lines.append(f"    {row.get('dc', '?')}: {cells}")
    return "\n".join(lines)


def _cell_results(cell: SuiteCell, consumer) -> list:
    """The four comparison results for one cell, store-only."""
    results = []
    for run in cell.runs:
        future = consumer.lookup(run.request, run.fingerprint)
        if future is None:
            raise OutputError(
                f"output cell {cell.key!r} is incomplete: "
                f"{run.labels['policy']} run "
                f"{run.fingerprint[:12]}... is not in the store "
                f"(run the campaign first)"
            )
        results.append(future.result().result)
    return results


def generate_outputs(
    spec: SuiteSpec,
    consumer,
    directory: str | pathlib.Path,
) -> list[str]:
    """Write every declared output; returns written paths (relative).

    ``consumer`` is anything with the orchestrator's ``lookup``
    surface -- the in-process orchestrator reads its store directly,
    ``ServiceClient``/``FleetClient`` read the daemon's store over the
    wire.  Raises :class:`OutputError` on any store miss rather than
    executing: the output stage never simulates.
    """
    directory = pathlib.Path(directory)
    written: list[str] = []
    manifest: dict = {
        "suite": spec.name,
        "suite_sha": spec.sha256,
        "campaign": spec.campaign_id,
        "cells": {},
    }
    for cell in spec.output_cells():
        cell_dir = directory / cell.key
        cell_dir.mkdir(parents=True, exist_ok=True)
        results = _cell_results(cell, consumer)
        cell_written: list[str] = []

        for number in spec.figures:
            report = _FIGURES[number](results)
            path = cell_dir / f"fig{number}.txt"
            path.write_text(render(report) + "\n")
            cell_written.append(str(path.relative_to(directory)))
        for number in spec.tables:
            path = cell_dir / f"table{number}.txt"
            path.write_text(_render_table1(table1_rows(cell.config)) + "\n")
            cell_written.append(str(path.relative_to(directory)))
        if spec.export:
            for path in export_all(results, cell_dir):
                cell_written.append(
                    str(pathlib.Path(path).relative_to(directory))
                )

        manifest["cells"][cell.key] = {
            "fingerprints": cell.fingerprints(),
            "files": cell_written,
        }
        written.extend(cell_written)

    if written:
        manifest_path = directory / "MANIFEST.json"
        manifest_path.write_text(
            json.dumps(manifest, indent=2, sort_keys=True) + "\n"
        )
        written.append(str(manifest_path.relative_to(directory)))
    return written
