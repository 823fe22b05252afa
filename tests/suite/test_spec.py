"""Suite spec parsing: the matrix contract and its failure modes.

Every rejection must point at ``file:line: [section].key`` -- an
operator fixing a 40-line suite file should never have to bisect it.
"""

from __future__ import annotations

import pathlib
import re

import pytest

from repro.suite import (
    COMPARISON_POLICIES,
    SuiteSpecError,
    load_suite,
    parse_suite,
)

MINI = """
[suite]
name = "mini"
description = "four-method comparison at tiny scale"

[matrix]
scale = "tiny"
horizon = 2
packs = ["synthetic"]
policies = ["Proposed", "Ener-aware", "Pri-aware", "Net-aware"]
seeds = [0]
alphas = [0.5]
engines = ["slot"]
vectorized = [true]
qos = [0.98]

[outputs]
figures = [1, 2]
tables = [1]
export = true
"""


def _error(text: str) -> str:
    with pytest.raises(SuiteSpecError) as excinfo:
        parse_suite(text, "suite.toml")
    return str(excinfo.value)


def _line_of(text: str, needle: str) -> int:
    for number, line in enumerate(text.splitlines(), start=1):
        if needle in line:
            return number
    raise AssertionError(f"{needle!r} not in text")


class TestParseHappyPath:
    def test_mini_round_trip(self):
        spec = parse_suite(MINI, "mini.toml")
        assert spec.name == "mini"
        assert spec.scale == "tiny"
        assert spec.horizon == 2
        assert spec.policies == COMPARISON_POLICIES
        assert spec.figures == (1, 2)
        assert spec.tables == (1,)
        assert spec.export is True
        assert spec.has_outputs

    def test_defaults_fill_unset_axes(self):
        spec = parse_suite(
            '[suite]\nname = "d"\n[matrix]\nscale = "tiny"\n'
        )
        assert spec.packs == ("synthetic",)
        assert spec.policies == COMPARISON_POLICIES
        assert spec.seeds == (0,)
        assert spec.alphas == (0.5,)
        assert spec.engines == ("slot",)
        assert spec.qos == (0.98,)
        assert not spec.has_outputs

    def test_campaign_id_tracks_content(self):
        a = parse_suite(MINI, "a.toml")
        b = parse_suite(MINI + "\n# trailing comment\n", "a.toml")
        assert a.campaign_id.startswith("mini-")
        assert a.campaign_id == f"mini-{a.sha256[:10]}"
        # Any byte change (even a comment) is a new campaign: the
        # ledger must never mix two grid definitions.
        assert a.campaign_id != b.campaign_id

    def test_load_suite_reads_the_file(self, tmp_path):
        path = tmp_path / "s.toml"
        path.write_text(MINI)
        spec = load_suite(path)
        assert spec.name == "mini"
        assert spec.path == str(path)


class TestRetiredVectorizedAxis:
    """``vectorized`` named an engine implementation that is gone: the
    key still parses when it asks for the one that is left."""

    def test_true_is_accepted_and_ignored(self):
        without = MINI.replace("vectorized = [true]\n", "")
        assert "vectorized" not in without
        kept = parse_suite(MINI, "a.toml").expand()
        dropped = parse_suite(without, "a.toml").expand()
        assert [r.fingerprint for r in kept] == [
            r.fingerprint for r in dropped
        ]

    @pytest.mark.parametrize("value", ["[false]", "[true, false]"])
    def test_false_is_refused_with_position(self, value):
        text = MINI.replace("vectorized = [true]", f"vectorized = {value}")
        message = _error(text)
        line = _line_of(text, "vectorized =")
        assert message.startswith(f"suite.toml:{line}: [matrix].vectorized:")
        assert "tests/oracles/" in message


@pytest.mark.parametrize(
    "path",
    sorted(
        (pathlib.Path(__file__).parents[2] / "examples" / "suites").glob(
            "*.toml"
        )
    ),
    ids=lambda path: path.name,
)
def test_example_suites_load_and_expand(path):
    spec = load_suite(path)
    runs = spec.expand()
    assert runs
    assert len({run.fingerprint for run in runs}) == len(runs)
    assert len(spec.output_cells()) == (
        len(spec.packs) * len(spec.qos) * len(spec.engines)
        if spec.has_outputs
        else 0
    )


class TestExpansion:
    def test_expansion_is_deterministic(self):
        a = parse_suite(MINI, "a.toml").expand()
        b = parse_suite(MINI, "a.toml").expand()
        assert [r.fingerprint for r in a] == [r.fingerprint for r in b]

    def test_grid_size_and_labels(self):
        text = MINI.replace("seeds = [0]", "seeds = [0, 1, 2]")
        runs = parse_suite(text, "s.toml").expand()
        assert len(runs) == 12  # 4 policies x 3 seeds
        assert len({r.fingerprint for r in runs}) == 12
        labels = runs[0].labels
        assert set(labels) == {
            "pack", "policy", "seed", "alpha", "engine", "qos",
        }

    def test_baseline_policies_dedup_across_alphas(self):
        text = MINI.replace("alphas = [0.5]", "alphas = [0.3, 0.7]")
        runs = parse_suite(text, "s.toml").expand()
        # Proposed varies with alpha (2 runs); the three baselines
        # ignore it, so each plans once -- 5 runs, not 8.
        assert len(runs) == 5
        proposed = [r for r in runs if r.labels["policy"] == "Proposed"]
        assert {r.labels["alpha"] for r in proposed} == {0.3, 0.7}

    def test_output_cells_cover_the_comparison(self, mini_spec):
        cells = mini_spec.output_cells()
        assert [cell.key for cell in cells] == ["synthetic-slot"]
        assert tuple(cells[0].fingerprints()) == COMPARISON_POLICIES
        expanded = {r.fingerprint for r in mini_spec.expand()}
        assert set(cells[0].fingerprints().values()) <= expanded

    def test_no_outputs_means_no_cells(self, mini_no_outputs):
        assert mini_no_outputs.output_cells() == []


class TestFailureModes:
    """One test per rejection class, all asserting file:line:key."""

    def test_invalid_toml_syntax(self):
        message = _error("[suite\nname=")
        assert message.startswith("suite.toml: invalid TOML")

    def test_unknown_top_level_table(self):
        text = MINI + "\n[grid]\nrows = 3\n"
        message = _error(text)
        assert "[grid]" in message and "unknown table" in message
        assert f"suite.toml:{_line_of(text, '[grid]')}:" in message

    def test_missing_suite_table(self):
        message = _error('[matrix]\nscale = "tiny"\n')
        assert "missing required [suite] table" in message

    def test_missing_name(self):
        message = _error("[suite]\ndescription = \"x\"\n[matrix]\n")
        assert "[suite].name" in message
        assert "required string is missing" in message

    def test_name_rejects_path_hostile_labels(self):
        message = _error('[suite]\nname = "a/b"\n[matrix]\n')
        assert "[suite].name" in message and "'a/b'" in message

    def test_unknown_matrix_key_points_at_its_line(self):
        text = MINI.replace("seeds = [0]", "seeds = [0]\nseedz = [1]")
        message = _error(text)
        assert "[matrix].seedz" in message and "unknown key" in message
        assert f"suite.toml:{_line_of(text, 'seedz')}:" in message

    def test_unknown_scale(self):
        message = _error('[suite]\nname="s"\n[matrix]\nscale = "huge"\n')
        assert "[matrix].scale" in message and "'huge'" in message

    def test_bad_horizon(self):
        message = _error('[suite]\nname="s"\n[matrix]\nhorizon = 0\n')
        assert "[matrix].horizon" in message
        assert "positive integer" in message

    def test_unknown_pack(self):
        text = MINI.replace('packs = ["synthetic"]', 'packs = ["nope"]')
        message = _error(text)
        assert "[matrix].packs" in message and "unknown pack" in message
        assert f"suite.toml:{_line_of(text, 'packs')}:" in message

    def test_misspelled_policy(self):
        text = MINI.replace('"Ener-aware"', '"Enr-aware"')
        message = _error(text)
        assert "[matrix].policies" in message
        assert "unknown policy" in message

    def test_axis_must_be_a_list(self):
        text = MINI.replace("seeds = [0]", "seeds = 0")
        message = _error(text)
        assert "[matrix].seeds" in message and "expected a list" in message

    def test_axis_must_not_be_empty(self):
        text = MINI.replace("seeds = [0]", "seeds = []")
        message = _error(text)
        assert "[matrix].seeds" in message and "not be empty" in message

    def test_heterogeneous_axis_values(self):
        text = MINI.replace("seeds = [0]", 'seeds = [0, "one"]')
        message = _error(text)
        assert "[matrix].seeds" in message and "'one'" in message

    def test_bool_does_not_sneak_in_as_int(self):
        text = MINI.replace("seeds = [0]", "seeds = [true]")
        message = _error(text)
        assert "[matrix].seeds" in message and "True" in message

    def test_negative_seed(self):
        text = MINI.replace("seeds = [0]", "seeds = [-1]")
        message = _error(text)
        assert "[matrix].seeds" in message and ">= 0" in message

    def test_alpha_out_of_range(self):
        text = MINI.replace("alphas = [0.5]", "alphas = [1.5]")
        message = _error(text)
        assert "[matrix].alphas" in message and "out of [0, 1]" in message

    def test_qos_out_of_range(self):
        text = MINI.replace("qos = [0.98]", "qos = [1.0]")
        message = _error(text)
        assert "[matrix].qos" in message and "out of (0, 1)" in message

    def test_duplicate_axis_entries(self):
        text = MINI.replace("seeds = [0]", "seeds = [0, 0]")
        message = _error(text)
        assert "[matrix].seeds" in message and "duplicate" in message

    def test_unknown_engine(self):
        text = MINI.replace('engines = ["slot"]', 'engines = ["warp"]')
        message = _error(text)
        assert "[matrix].engines" in message and "unknown engine" in message

    def test_unknown_figure(self):
        text = MINI.replace("figures = [1, 2]", "figures = [7]")
        message = _error(text)
        assert "[outputs].figures" in message and "unknown figure" in message

    def test_unknown_output_key(self):
        text = MINI.replace("export = true", "export = true\ncsv = true")
        message = _error(text)
        assert "[outputs].csv" in message and "unknown key" in message

    def test_outputs_require_full_comparison(self):
        text = MINI.replace(
            'policies = ["Proposed", "Ener-aware", "Pri-aware", "Net-aware"]',
            'policies = ["Proposed"]',
        )
        message = _error(text)
        assert "[matrix].policies" in message
        assert "full four-policy comparison" in message

    def test_every_error_carries_position(self):
        """The file:line: prefix is structural, not incidental."""
        broken = [
            MINI + "\n[grid]\nrows = 3\n",
            MINI.replace("seeds = [0]", "seeds = [0]\nseedz = [1]"),
            MINI.replace('packs = ["synthetic"]', 'packs = ["nope"]'),
            MINI.replace("alphas = [0.5]", "alphas = [2.0]"),
        ]
        for text in broken:
            message = _error(text)
            assert re.match(r"^suite\.toml:\d+: \[", message), message
