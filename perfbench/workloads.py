"""The three benchmark workloads: inputs, timed body, correctness checks.

Every workload draws all of its inputs from the ``--seed`` argument and
hands the program only generated inputs.  Each module-level ``repro``
import happens in :meth:`Workload.import_modules`, which the worker
times as set-up; the timed body then calls straight into public
functions of the program.

``full`` is the benchmark size; ``tiny`` exists for the benchmark's
own smoke test and exercises the same code paths in well under a
second of work.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import checks
from spans import Recorder

#: input instances per seed; every round of a run passes over each
#: instance once, so a run's timings average over the same inputs
INSTANCES = 4


def instance_seed(seed: int, instance: int) -> int:
    """The seed one instance's inputs are drawn from (distinct per pair)."""
    return seed * INSTANCES + instance % INSTANCES


@dataclass
class Capture:
    """Results the wrappers hand over for checks after the timed region."""

    summaries: list[tuple[Any, list]] = field(default_factory=list)
    #: (objective method, MultiCommodityLp, LpOutcome) per objective call
    te_outcomes: list[tuple[str, Any, Any]] = field(default_factory=list)
    #: (snr_by_link passed to step, state after step) per round
    rounds: list[tuple[dict, Any]] = field(default_factory=list)


@dataclass
class Outcome:
    """What one timed pass produced, before checking."""

    units: float
    ops_ms: list[float]
    value: Any = None
    extra: dict[str, float] = field(default_factory=dict)


class Workload:
    name = ""
    #: modules imported during set-up (numpy, scipy and networkx come
    #: in through them)
    modules: tuple[str, ...] = ()
    #: what ``Outcome.units`` counts (the unit of ``work_per_s``), the
    #: workload-specific name of ``work_per_s``, and what one operation is
    unit_label = ""
    rate_name = ""
    op_name = ""

    def import_modules(self) -> None:
        for module in self.modules:
            importlib.import_module(module)

    def make_inputs(self, seed: int, size: str, workdir: Path) -> Any:
        raise NotImplementedError

    def run(self, inputs: Any, capture: Capture, recorder: Recorder) -> Outcome:
        raise NotImplementedError

    def check(self, inputs: Any, outcome: Outcome, capture: Capture) -> checks.Verdict:
        raise NotImplementedError


# -- telemetry-study ------------------------------------------------------


class TelemetryStudy(Workload):
    """The registered ``study`` experiment at the paper's wavelength count.

    56 cables give about 2,200 wavelengths; 0.15 years (55 days) of
    15-minute samples keep one pass near two seconds of work.  The summary
    cache is off, and the pass runs serially (``workers=1``).
    """

    name = "telemetry-study"
    modules = (
        "repro.experiments.registry",
        "repro.telemetry",
        "repro.analysis.figures",
    )
    unit_label = "wavelength-days"
    rate_name = "wavelength_days_per_s"
    op_name = "cable"
    SIZES = {"full": (56, 0.15), "tiny": (3, 0.02)}

    def make_inputs(self, seed: int, size: str, workdir: Path) -> Any:
        from repro.experiments.registry import ExecutionContext, get_experiment

        cables, years = self.SIZES[size]
        return {
            "experiment": get_experiment("study"),
            "context": ExecutionContext(workers=1, cache=False),
            "params": {"cables": cables, "years": years, "seed": seed},
        }

    def run(self, inputs: Any, capture: Capture, recorder: Recorder) -> Outcome:
        metrics = inputs["experiment"].run(inputs["context"], **inputs["params"])
        dataset, summaries = capture.summaries[-1]
        timebase = dataset.config.timebase()
        days = timebase.n_samples * timebase.interval_s / 86_400.0
        # one operation is one cable: synthesis of cable i starts where
        # cable i-1's summaries end, and the last one ends with summaries()
        starts = [s.start for s in recorder.spans if s.name == "telemetry.synthesize"]
        end = next(
            s.end for s in reversed(recorder.spans) if s.name == "telemetry.summaries"
        )
        bounds = starts + [end]
        ops = [1e3 * (b - a) for a, b in zip(bounds, bounds[1:])]
        return Outcome(units=len(summaries) * days, ops_ms=ops, value=metrics)

    def check(self, inputs: Any, outcome: Outcome, capture: Capture) -> checks.Verdict:
        dataset, summaries = capture.summaries[-1]
        return checks.check_study(dataset, summaries, outcome.value)


# -- te-backbone ----------------------------------------------------------


class TeBackbone(Workload):
    """Cold TE on ``us_backbone_like`` at paper scale.

    One pass is the ``throughput`` experiment's static-vs-augmented
    comparison at one demand scale, with the augmented side solved by
    the controller's default objective: ``max_throughput`` on G, then
    ``min_penalty_at_max_throughput`` on G' (Algorithm 1 with
    traffic-disruption penalties from the static solution), whose first
    phase is the augmented ``max_throughput``.  Every real link operates
    at the experiment's default ``snr_db`` of 16 dB.  Consecutive
    instance seeds alternate between demand scales 1 and 2, so a run
    covers both.
    """

    name = "te-backbone"
    modules = (
        "repro.net",
        "repro.core.augmentation",
        "repro.core.penalties",
        "repro.te.lp",
    )
    unit_label = "LP solves"
    rate_name = "te_solves_per_s"
    op_name = "solve"
    #: the ``throughput`` experiment's default operating SNR, on every link
    SNR_DB = 16.0
    #: (topology function in repro.net, offered Gbps, demand scales)
    SIZES = {
        "full": ("us_backbone_like", 6000.0, (1.0, 2.0)),
        "tiny": ("figure7_topology", 200.0, (1.0, 2.0)),
    }

    def make_inputs(self, seed: int, size: str, workdir: Path) -> Any:
        import repro.net as net
        from repro.optics.modulation import DEFAULT_MODULATIONS
        from repro.seeds import component_rng

        topology_fn, offered, scales = self.SIZES[size]
        topology = getattr(net, topology_fn)()
        demands = net.scale_demands(
            net.gravity_demands(
                topology, offered, component_rng(seed, "perfbench.te.demands")
            ),
            scales[seed % len(scales)],
        )
        # SNR headroom, stamped the way simulate_throughput_gains does
        headroom = topology.copy(f"{topology.name}-snr")
        for link in list(headroom.real_links()):
            gain = DEFAULT_MODULATIONS.headroom_above(link.capacity_gbps, self.SNR_DB)
            if gain > 0:
                headroom.replace_link(link.link_id, headroom_gbps=gain)
        return {"topology": topology, "demands": demands, "headroom": headroom}

    def run(self, inputs: Any, capture: Capture, recorder: Recorder) -> Outcome:
        from repro.core.augmentation import augment_topology
        from repro.core.penalties import TrafficDisruptionPenalty
        from repro.te.lp import MultiCommodityLp

        static = MultiCommodityLp(inputs["topology"], inputs["demands"]).max_throughput()
        traffic = {
            link.link_id: static.solution.link_flow(link.link_id)
            for link in inputs["topology"].links
        }
        augmented = augment_topology(
            inputs["headroom"],
            penalty_policy=TrafficDisruptionPenalty(),
            current_traffic=traffic,
        )
        MultiCommodityLp(augmented.topology, inputs["demands"]).min_penalty_at_max_throughput()
        ops = [1e3 * d for d in recorder.durations("te.lp.solve")]
        return Outcome(units=len(ops), ops_ms=ops)

    def check(self, inputs: Any, outcome: Outcome, capture: Capture) -> checks.Verdict:
        verdict = checks.Verdict(attempted=len(capture.te_outcomes))
        static = capture.te_outcomes[0][2].objective_value
        for problem in checks.te_problems(capture.te_outcomes, static_gbps=static):
            verdict.fail(problem)
        return verdict


# -- control-loop ---------------------------------------------------------


class ControlLoop(Workload):
    """``reactive_replay`` on Abilene under the run policy, journal on.

    One synthetic cable per duplex link pair.  Each baseline sits
    0.8-1.4 dB above a ladder rung, so noise alone never crosses a
    threshold, and a fixed number of cable-wide dips (down to
    4.0-5.5 dB, below the 100 Gbps rung) start *between* 4-hour TE
    rounds, one per equal slice of the horizon.  Every dip therefore
    forces at least one emergency round, and the rounds in between
    replay from the TE memo.
    """

    name = "control-loop"
    modules = (
        "repro.core.controller",
        "repro.core.policies",
        "repro.net",
        "repro.optics.impairments",
        "repro.recovery",
        "repro.sim.reactive",
        "repro.state.serialize",
        "repro.telemetry.timebase",
        "repro.telemetry.traces",
    )
    unit_label = "rounds"
    rate_name = "rounds_per_s"
    op_name = "round"
    #: (days, dips, offered Gbps)
    SIZES = {"full": (30.0, 4, 1500.0), "tiny": (2.0, 1, 400.0)}
    TE_INTERVAL_S = 4 * 3600.0

    def make_inputs(self, seed: int, size: str, workdir: Path) -> Any:
        import numpy as np

        from repro.core.controller import DynamicCapacityController
        from repro.core.policies import run_policy
        from repro.net import abilene, gravity_demands
        from repro.optics.impairments import AmplifierDegradation
        from repro.seeds import component_rng
        from repro.telemetry.timebase import Timebase
        from repro.telemetry.traces import NoiseModel, synthesize_cable_traces

        days, n_dips, offered = self.SIZES[size]
        topology = abilene()
        timebase = Timebase.from_duration(days=days)
        rng = component_rng(seed, "perfbench.control.telemetry")
        cables: dict[tuple[str, str], list[str]] = {}
        for link in topology.real_links():
            cables.setdefault(tuple(sorted((link.src, link.dst))), []).append(
                link.link_id
            )
        grid = self.TE_INTERVAL_S
        window = int(timebase.duration_s // grid) // n_dips
        dipped = rng.permutation(len(cables))[:n_dips].tolist()
        dips = {}
        for j, cable in enumerate(dipped):
            slot = j * window + int(rng.integers(1, max(window - 2, 2)))
            start = (slot + float(rng.uniform(0.25, 0.75))) * grid
            dips[cable] = (start, float(rng.uniform(4.0, 8.0)) * 3600.0,
                           float(rng.uniform(4.0, 5.5)))
        noise = NoiseModel(sigma_db=0.08, wander_amplitude_db=0.0)
        traces = {}
        for index, (pair, link_ids) in enumerate(sorted(cables.items())):
            rung = (12.5, 14.5)[int(rng.integers(0, 2))]
            base = rung + float(rng.uniform(0.8, 1.4))
            events = []
            if index in dips:
                start, duration, floor_db = dips[index]
                events.append(AmplifierDegradation(start, duration, base - floor_db))
            cable_traces = synthesize_cable_traces(
                f"{pair[0]}-{pair[1]}",
                np.full(len(link_ids), base),
                timebase,
                events,
                {},
                noise,
                rng,
            )
            traces.update(zip(link_ids, cable_traces))
        demands = gravity_demands(
            topology, offered, component_rng(seed, "perfbench.control.demands")
        )
        controller = DynamicCapacityController(
            topology, policy=run_policy(), seed=seed
        )
        journal = workdir / "journal"
        return {
            "controller": controller,
            "traces": traces,
            "demands": demands,
            "journal": journal,
            "n_samples": timebase.n_samples,
        }

    def run(self, inputs: Any, capture: Capture, recorder: Recorder) -> Outcome:
        from repro.sim.reactive import reactive_replay

        result = reactive_replay(
            inputs["controller"],
            inputs["traces"],
            inputs["demands"],
            te_interval_s=self.TE_INTERVAL_S,
            mode="reactive",
            journal_dir=str(inputs["journal"]),
        )
        ops = [1e3 * d for d in recorder.durations("controller.step")]
        return Outcome(
            units=float(result.total_rounds),
            ops_ms=ops,
            value=result,
            extra={"samples": float(inputs["n_samples"])},
        )

    def check(self, inputs: Any, outcome: Outcome, capture: Capture) -> checks.Verdict:
        return checks.check_control_loop(
            inputs["controller"],
            inputs["journal"],
            capture.rounds,
            capture.te_outcomes,
            outcome.value,
        )


WORKLOADS: dict[str, Workload] = {
    w.name: w for w in (TelemetryStudy(), TeBackbone(), ControlLoop())
}

