"""The benchmark's own tests: metric contract, oracles and span folding.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCH = ROOT / "perfbench"
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
from spans import Recorder  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(workload: str, trace: int, *extra: str) -> tuple[int, dict]:
    proc = subprocess.run(
        [
            sys.executable, str(BENCH / "run.py"),
            "--workload", workload, "--seed", "3", "--seconds", "0",
            "--trace", str(trace), "--size", "tiny", *extra,
        ],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    return proc.returncode, json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_emits_every_metric(workload: str, trace: int) -> None:
    code, result = run_bench(workload, trace)
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    for name, metric in result["metrics"].items():
        assert NAME.match(name), name
        assert isinstance(metric["value"], float), name
    if trace:
        # the span tree explains the timed region
        assert 0.9 <= result["metrics"]["trace.coverage_frac"]["value"] <= 1.0 + 1e-9
    else:
        for name, metric in result["metrics"].items():
            assert metric["value"] > 0, name


def test_fails_without_the_program(tmp_path: Path) -> None:
    """A directory with only BENCHMARK.json and the benchmark's files."""
    import shutil

    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [*SPEC["command"], "--workload", "te-backbone", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_end_to_end_needs_every_instance_and_scales_by_host_speed() -> None:
    from run import CALIBRATION_REF_S, end_to_end
    from workloads import INSTANCES

    def one(instance: int, wall: float, calibration: float) -> dict:
        return {
            "instance": instance, "wall_s": wall, "setup_s": 1.0, "rss_mb": 10.0,
            "units_per_s": 1.0 / wall, "calibration_s": calibration,
        }

    calm = [one(i, 2.0 + i, CALIBRATION_REF_S) for i in range(INSTANCES)]
    values, slowdown = end_to_end(calm)
    assert slowdown == 1.0
    assert values["wall_s"] == pytest.approx(2.0 + (INSTANCES - 1) / 2)
    # the same passes on a host running twice as slow read the same
    slow = [
        {**p, "wall_s": 2 * p["wall_s"], "setup_s": 2.0,
         "units_per_s": p["units_per_s"] / 2, "calibration_s": 2 * CALIBRATION_REF_S}
        for p in calm
    ]
    assert end_to_end(slow)[0] == pytest.approx(values)
    with pytest.raises(AssertionError):
        end_to_end(calm[1:])


# -- oracles reject corrupted results -------------------------------------


def _line_solution(flow: float, allocated: float):
    from repro.net.demands import Demand
    from repro.net.topology import Topology
    from repro.te.solution import FlowAssignment, TeSolution

    topology = Topology("line")
    topology.add_link("A", "B", 10.0, link_id="ab")
    demand = Demand("A", "B", 20.0)
    solution = TeSolution(
        topology, [FlowAssignment(demand, allocated, {"ab": flow})]
    )
    return topology, solution


def test_te_oracle_accepts_a_feasible_flow() -> None:
    topology, solution = _line_solution(10.0, 10.0)
    assert checks.flow_violations(topology, solution) == []


def test_te_oracle_rejects_an_over_capacity_flow() -> None:
    topology, solution = _line_solution(15.0, 15.0)
    problems = checks.flow_violations(topology, solution)
    assert len(problems) == 1 and "over capacity" in problems[0]


def test_te_oracle_rejects_broken_conservation() -> None:
    topology, solution = _line_solution(5.0, 8.0)
    assert any("conservation" in p for p in checks.flow_violations(topology, solution))


def test_te_oracle_rejects_a_real_solution_on_a_shrunk_link() -> None:
    from repro.net import abilene, gravity_demands
    from repro.seeds import component_rng
    from repro.te.lp import MultiCommodityLp

    topology = abilene()
    demands = gravity_demands(topology, 2000.0, component_rng(1, "test"))
    solution = MultiCommodityLp(topology, demands).max_throughput().solution
    assert checks.flow_violations(topology, solution) == []
    busiest = max(topology.links, key=lambda l: solution.link_flow(l.link_id))
    shrunk = topology.copy("shrunk")
    shrunk.replace_link(busiest.link_id, capacity_gbps=busiest.capacity_gbps / 2)
    problems = checks.flow_violations(shrunk, solution)
    assert problems and all("over capacity" in p for p in problems)


def test_journal_oracle_rejects_a_truncated_journal(tmp_path: Path) -> None:
    from repro.sim.reactive import reactive_replay
    from workloads import ControlLoop

    workload = ControlLoop()
    inputs = workload.make_inputs(3, "tiny", tmp_path)
    reactive_replay(
        inputs["controller"], inputs["traces"], inputs["demands"],
        te_interval_s=workload.TE_INTERVAL_S, mode="reactive",
        journal_dir=str(inputs["journal"]),
    )
    assert checks.journal_mismatch(inputs["controller"], inputs["journal"]) is None
    # tear the tail of the last segment that holds frames: the last
    # round's frame no longer parses, so recovery rolls that round back
    segments = sorted(
        (p for p in inputs["journal"].glob("wal-*.jsonl") if p.stat().st_size),
        key=lambda p: int(p.stem.split("-")[1]),
    )
    raw = segments[-1].read_bytes()
    segments[-1].write_bytes(raw[: len(raw) - 7])
    assert checks.journal_mismatch(inputs["controller"], inputs["journal"]) is not None


def test_study_oracle_rejects_a_fraction_out_of_range() -> None:
    from repro.telemetry import BackboneConfig, BackboneDataset

    dataset = BackboneDataset(BackboneConfig(n_cables=2, years=0.01, seed=5))
    summaries = dataset.summaries(workers=1, cache=False)
    good = {"frac_hdr_below_2db": 0.5, "frac_at_least_175": 1.0}
    assert checks.check_study(dataset, summaries, good).failed == 0
    bad = checks.check_study(dataset, summaries, {**good, "frac_at_least_175": 1.5})
    assert bad.failed == 1
    short = checks.check_study(dataset, summaries[:-1], good)
    assert short.failed == short.attempted == 2


# -- span folding ---------------------------------------------------------


def _spin(seconds: float) -> None:
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def test_self_times_plus_children_add_up_to_each_parent() -> None:
    recorder = Recorder()
    leaf = recorder.wrap("leaf", lambda: _spin(0.002))

    def middle() -> None:
        _spin(0.001)
        leaf()
        leaf()

    mid = recorder.wrap("middle", middle)

    def top() -> None:
        mid()
        leaf()
        _spin(0.001)

    recorder.wrap("top", top)()
    own = recorder.self_times()
    for span in recorder.spans:
        children = [c for c in recorder.spans if c.parent_id == span.span_id]
        total = own[span.span_id] + sum(c.duration for c in children)
        assert total == pytest.approx(span.duration, abs=1e-12)
    folded = recorder.fold()
    assert folded["leaf"]["calls"] == 3
    assert sum(row["self_s"] for row in folded.values()) == pytest.approx(
        recorder.spans[0].duration, abs=1e-12
    )


def test_busy_time_counts_recursive_calls_once() -> None:
    recorder = Recorder()

    def outer(depth: int) -> None:
        _spin(0.001)
        if depth:
            wrapped(depth - 1)

    wrapped = recorder.wrap("lp", outer)
    wrapped(2)
    folded = recorder.fold()
    assert folded["lp"]["calls"] == 3
    assert folded["lp"]["busy_s"] == pytest.approx(recorder.spans[0].duration)
    assert recorder.durations("lp") == [recorder.spans[0].duration]
