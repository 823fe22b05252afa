"""The benchmark's own tests (about a minute).

    python3 -m pytest -q perfbench/bench_selftest.py

Named ``bench_*`` so the repository's tier-1 ``pytest`` run does not
collect it.  Every workload runs end to end at ``--quick`` sizes, timed
and traced, and must print every metric ``BENCHMARK.json`` names; the
self-time arithmetic is checked on a synthetic span tree; a corrupted
pinned digest must make the command fail.
"""

from __future__ import annotations

import json
import pathlib
import subprocess
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from spans import Tracer, root_coverage, self_times  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*args: str) -> tuple[int, dict | None, str]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--seconds", "1", *args],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc.returncode, result, proc.stdout + proc.stderr


@pytest.fixture
def pins(tmp_path):
    return tmp_path / "pins.json"


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_workload_prints_every_metric(workload, trace, pins):
    code, result, output = bench("--workload", workload, "--trace", trace,
                                 "--quick", "--pins", str(pins))
    assert code == 0, output
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    if trace == "0":
        assert all(v["value"] > 0 for v in result["metrics"].values()), result
    else:
        assert 0.5 < result["metrics"]["trace.coverage_frac"]["value"] <= 1.0


def test_corrupted_pin_fails_the_run(pins):
    args = ("--workload", "proposed-run", "--quick", "--pins", str(pins))
    code, _result, output = bench(*args, "--record-pins")
    assert code == 0, output
    table = json.loads(pins.read_text())
    (digest,) = table["digests"]["proposed-run/quick"].values()
    code, result, _output = bench(*args)
    assert code == 0 and result["correct"]

    table["digests"]["proposed-run/quick"]["0"] = ("0" if digest[0] != "0" else "1") + digest[1:]
    pins.write_text(json.dumps(table))
    code, result, output = bench(*args)
    assert code == 1
    assert not result["correct"] and result["failed"] == result["attempted"]
    assert "digest mismatch" in output


def test_refuses_without_the_program(tmp_path):
    # A directory holding only BENCHMARK.json and this directory.
    lone = tmp_path / "checkout"
    (lone / "perfbench").mkdir(parents=True)
    (lone / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    for path in HERE.iterdir():
        if path.is_file():
            (lone / "perfbench" / path.name).write_bytes(path.read_bytes())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "proposed-run",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=lone, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""


def test_self_times_on_a_synthetic_tree():
    spans = [
        ["root", 0.0, 10.0, -1],
        ["a", 1.0, 4.0, 0],
        ["b", 5.0, 9.0, 0],
        ["a", 6.0, 7.0, 2],  # a nested inside b: same name, own self time
        ["c", 6.5, 6.8, 3],
        ["late", 12.0, 13.0, -1],
    ]
    seconds = self_times(spans)
    assert seconds == pytest.approx(
        {"root": 3.0, "a": 3.0 + 0.7, "b": 3.0, "c": 0.3, "late": 1.0}
    )
    assert root_coverage(spans) == pytest.approx(11.0)
    # Self times account for exactly the time root spans cover.
    assert sum(seconds.values()) == pytest.approx(root_coverage(spans))


def test_overlapping_children_count_once():
    # Children from two threads under one parent overlap; the parent's
    # self time subtracts their union, not their sum.
    spans = [["p", 0.0, 10.0, -1], ["x", 2.0, 6.0, 0], ["x", 4.0, 8.0, 0]]
    assert self_times(spans)["p"] == pytest.approx(4.0)


def test_tracer_nests_by_thread_and_wraps():
    tracer = Tracer()

    def inner():
        return 7

    outer = tracer.wrap("outer", lambda: tracer.wrap("inner", inner)())
    assert outer() == 7
    (o_name, o_start, o_end, o_parent), (i_name, i_start, i_end, i_parent) = tracer.spans
    assert (o_name, o_parent, i_name, i_parent) == ("outer", -1, "inner", 0)
    assert o_start <= i_start <= i_end <= o_end
    cell = tracer.tally("hot")
    cell[0] += 3
    tracer.count("cold", 2)
    assert tracer.totals() == {"hot": 3, "cold": 2.0}
