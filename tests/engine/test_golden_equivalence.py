"""Engine-vs-legacy golden equivalence.

The JSON files under ``tests/golden/`` were generated by the
pre-engine, hand-rolled simulation loops (see that package's
docstring).  These tests prove — not assert — that the engine-hosted
replay, reaction, what-if, cable-impact and testbed scenarios
reproduce those results *bit-identically* for fixed seeds: the
comparison is on the canonical JSON text, so every float must match to
the last bit.  Every run of this suite (tier-1, on each supported
Python) is therefore also a run-to-run determinism check: two runs that
both equal the committed capture equal each other.
"""

import pathlib

import pytest

from tests.golden.scenarios import SCENARIOS, canonical_json

GOLDEN_DIR = pathlib.Path(__file__).resolve().parent.parent / "golden"


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_engine_matches_legacy_golden(name):
    got = canonical_json(SCENARIOS[name]())
    want = (GOLDEN_DIR / f"{name}.json").read_text()
    assert got == want, (
        f"engine-hosted {name!r} diverged from the legacy-captured golden; "
        "if the change is intentional, regenerate via "
        "tests/golden/generate_goldens.py and explain why in the commit"
    )
