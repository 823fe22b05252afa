"""Shared fixtures for the suite/campaign tests."""

from __future__ import annotations

import pytest

from repro.suite import parse_suite

#: A tiny four-policy suite (~2 s of simulation): the same shape as
#: examples/suites/mini.toml, inlined so tests control the sha.
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
qos = [0.98]

[outputs]
figures = [1, 2]
tables = [1]
export = true
"""


@pytest.fixture
def mini_spec():
    return parse_suite(MINI, "mini.toml")


@pytest.fixture
def mini_no_outputs():
    text = MINI.split("[outputs]")[0]
    return parse_suite(text, "mini.toml")
