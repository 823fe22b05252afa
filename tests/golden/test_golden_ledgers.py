"""Golden ledgers: the simulated numbers are pinned per model version.

``ledgers.json`` maps each :data:`~repro.sim.engine.MODEL_VERSION` to
canonical sha256 digests of the tiny-scale four-policy runs (seeds 0
and 1, full 24-slot horizon): the slot ledger of both drivers and the
event driver's request ledger.  A change to physics or policy output
fails here until ``MODEL_VERSION`` is bumped and the new version's
digests are recorded with::

    PYTHONPATH=src python -m tests.golden.test_golden_ledgers

Recording never overwrites an existing version's digests, so a change
that alters numbers cannot pass without a bump -- and a bumped version
makes every warm store miss instead of serving the old model's runs.
"""

from __future__ import annotations

import hashlib
import json
import pathlib

import pytest

from repro.experiments.runner import default_policies
from repro.sim.config import EngineCoreConfig, scaled_config
from repro.sim.engine import MODEL_VERSION, SimulationEngine

GOLDEN = pathlib.Path(__file__).with_name("ledgers.json")
SEEDS = (0, 1)
POLICIES = [policy.name for policy in default_policies()]


def digest(rows: list) -> str:
    """sha256 of ``rows`` as canonical JSON (sorted keys, no spaces)."""
    payload = json.dumps(rows, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()


def run(seed: int, policy_name: str, kind: str):
    policy = next(p for p in default_policies() if p.name == policy_name)
    config = scaled_config("tiny", seed=seed)
    return SimulationEngine(
        config, policy, engine=EngineCoreConfig(kind=kind)
    ).run()


def ledger_digests(seed: int, policy_name: str) -> dict:
    """Both drivers' digests for one run; their slot ledgers must agree."""
    slot = run(seed, policy_name, "slot")
    event = run(seed, policy_name, "event")
    slots = digest([record.to_dict() for record in slot.slots])
    assert digest([record.to_dict() for record in event.slots]) == slots
    return {"slots": slots, "requests": digest(event.requests)}


@pytest.mark.parametrize("policy_name", POLICIES)
@pytest.mark.parametrize("seed", SEEDS)
def test_ledgers_match_model_version(seed, policy_name):
    golden = json.loads(GOLDEN.read_text())
    assert str(MODEL_VERSION) in golden, (
        f"no golden ledgers for MODEL_VERSION {MODEL_VERSION}; record "
        "them (see this module's docstring)"
    )
    expected = golden[str(MODEL_VERSION)][f"seed{seed}"][policy_name]
    assert ledger_digests(seed, policy_name) == expected, (
        "simulated numbers changed: bump MODEL_VERSION and record the "
        "new version's golden ledgers"
    )


def record() -> None:
    """Add the current MODEL_VERSION's digests to ``ledgers.json``."""
    golden = json.loads(GOLDEN.read_text())
    version = str(MODEL_VERSION)
    if version in golden:
        raise SystemExit(
            f"ledgers.json already pins MODEL_VERSION {version}; bump "
            "MODEL_VERSION in repro/sim/engine.py before recording"
        )
    golden[version] = {
        f"seed{seed}": {
            name: ledger_digests(seed, name) for name in POLICIES
        }
        for seed in SEEDS
    }
    GOLDEN.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
    print(f"recorded golden ledgers for MODEL_VERSION {version}")


if __name__ == "__main__":
    record()
