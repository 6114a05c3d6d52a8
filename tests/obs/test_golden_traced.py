"""Tracing must never change simulation results.

The determinism contract of :mod:`repro.obs` (the tracer only reads;
it draws no randomness and attaches through the observer hook) is
proved here the same way the engine migration was: every committed
golden scenario runs with tracing *on* and its canonical JSON must be
byte-identical to the committed golden — the exact file the untraced
suite (tests/engine/test_golden_equivalence.py) compares against.

The second half pins the other direction: the sim-time side of the
trace itself is deterministic, so two traced runs of the same seeded
scenario produce byte-identical span trees and wall-stripped Chrome
traces (what ``tests/test_golden_toggle.py`` compares across processes).
"""

import json
import pathlib

import pytest

from repro.obs import Tracer, span_tree_json, strip_wall, chrome_trace, tracing
from tests.golden.scenarios import SCENARIOS, canonical_json

GOLDEN_DIR = pathlib.Path(__file__).resolve().parent.parent / "golden"


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_goldens_byte_identical_with_tracing_on(name):
    tracer = Tracer()
    with tracing(tracer):
        got = canonical_json(SCENARIOS[name]())
    want = (GOLDEN_DIR / f"{name}.json").read_text()
    assert got == want, (
        f"tracing changed the results of {name!r} — the tracer must be "
        "a pure readout (no randomness, no state mutation)"
    )
    # and the run actually was traced: spans opened, engine observed
    assert tracer.spans, f"{name!r} ran without opening a single span"
    assert tracer.events, f"{name!r} ran without the engine being observed"


def test_traced_testbed_span_tree_is_deterministic(monkeypatch):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")

    def traced() -> Tracer:
        tracer = Tracer()
        with tracing(tracer):
            SCENARIOS["testbed"]()
        return tracer

    a, b = traced(), traced()
    assert span_tree_json(a) == span_tree_json(b)
    stripped_a = json.dumps(strip_wall(chrome_trace(a)), sort_keys=True)
    stripped_b = json.dumps(strip_wall(chrome_trace(b)), sort_keys=True)
    assert stripped_a == stripped_b
