"""Which public calls the benchmark wraps, and how spans become metrics.

Two sets of wrappers exist.  *Probes* are installed in every run: a
handful of calls per pass that give per-operation latencies and hand
results to the correctness checks.  *Layer wrappers* are installed only
in traced passes; their spans give the per-layer table.

The layer -> end-to-end map (which workload metric each layer metric
should move) lives in README.md next to this file.
"""

from __future__ import annotations

import os
import statistics
import sys
from pathlib import Path
from typing import Any

from spans import Recorder, patch_function, patch_method
from workloads import Capture

#: per-layer metric name -> unit, in report order
PER_LAYER: dict[str, str] = {
    "setup.import_s": "s",
    "setup.inputs_s": "s",
    "telemetry.synthesize.busy_s": "s",
    "telemetry.samples": "count",
    "telemetry.summarize.busy_s": "s",
    "telemetry.summarize.calls": "count",
    "telemetry.episodes.busy_s": "s",
    "telemetry.episodes.count": "count",
    "telemetry.hdr.busy_s": "s",
    "analysis.figures.busy_s": "s",
    "core.augment.busy_s": "s",
    "core.augment.fake_links": "count",
    "te.lp.assemble_s": "s",
    "te.lp.solve_s": "s",
    "te.lp.solves": "count",
    "te.lp.n_vars": "count",
    "te.cache.memo_hit_ratio": "ratio",
    "te.cache.memo_hits": "count",
    "te.cache.memo_misses": "count",
    "te.cache.structure_hit_ratio": "ratio",
    "te.cache.replay_s": "s",
    "core.translate.busy_s": "s",
    "controller.step.self_s": "s",
    "controller.rounds": "count",
    "bvt.reconfigure.busy_s": "s",
    "bvt.reconfigure.calls": "count",
    "state.commit.busy_s": "s",
    "state.commits": "count",
    "recovery.journal.busy_s": "s",
    "recovery.journal.fsyncs": "count",
    "recovery.journal.bytes": "bytes",
    "engine.dispatch.self_s": "s",
    "engine.events": "count",
    "sim.on_sample.self_s": "s",
    "bench.unattributed_s": "s",
    "trace.coverage_frac": "ratio",
    "trace.overhead_frac": "ratio",
}


def install(recorder: Recorder, capture: Capture, *, traced: bool) -> None:
    """Wrap the probes, and with ``traced`` every layer of the table.

    Only modules the workload has already imported are touched, so a
    wrapper never adds an import (and its time) to a workload that does
    not use that layer.
    """
    probes = [
        ("repro.telemetry.traces", "synthesize_cable_traces", "telemetry.synthesize",
         {"count": lambda a, k, r: sum(len(t) for t in r)}),
        ("repro.telemetry.dataset", "BackboneDataset.summaries", "telemetry.summaries",
         {"on_result": lambda a, k, r: capture.summaries.append((a[0], r))}),
        ("repro.te.lp", "linprog", "te.lp.solve",
         {"count": lambda a, k, r: len(a[0])}),
        *(
            ("repro.te.lp", f"MultiCommodityLp.{method}", "te.lp",
             {"on_result": lambda a, k, r, m=method: capture.te_outcomes.append((m, a[0], r))})
            for method in ("max_throughput", "min_penalty_at_max_throughput")
        ),
        ("repro.core.controller", "DynamicCapacityController.step", "controller.step",
         {"on_result": lambda a, k, r: capture.rounds.append((dict(a[1]), a[0].state))}),
    ]
    layers = [
        ("repro.telemetry.stats", "summarize_trace", "telemetry.summarize", {}),
        ("repro.telemetry.stats", "threshold_episodes", "telemetry.episodes",
         {"count": lambda a, k, r: len(r)}),
        ("repro.telemetry.hdr", "highest_density_region", "telemetry.hdr", {}),
        *(
            ("repro.analysis.figures", name, "analysis.figures", {})
            for name in ("fig2a_snr_variation", "fig2b_feasible_capacity", "fig4c_failure_snr")
        ),
        ("repro.core.augmentation", "augment_topology", "core.augment",
         {"count": lambda a, k, r: r.n_fake_links}),
        ("repro.core.translation", "translate", "core.translate", {}),
        ("repro.sim.reactive", "reactive_replay", "sim.reactive", {}),
        ("repro.sim.reactive", "_ReactionScenario.on_sample", "sim.on_sample", {}),
        ("repro.te.lp", "MultiCommodityLp.__init__", "te.lp.build", {}),
        ("repro.te.incremental", "CachedTeAlgorithm.__call__", "te.cache", {}),
        ("repro.bvt.transceiver", "Bvt.change_modulation", "bvt.reconfigure", {}),
        ("repro.state.store", "StateStore.commit", "state.commit", {}),
        *(
            ("repro.recovery.journal", f"StateJournal.{name}", "recovery.journal", {})
            for name in ("start", "append_transition", "commit_round", "maybe_checkpoint", "close")
        ),
        ("repro.engine.kernel", "Engine.run", "engine.dispatch",
         {"count": lambda a, k, r: r.n_events}),
    ]
    for module_name, target, span, hooks in probes + (layers if traced else []):
        module = sys.modules.get(module_name)
        if module is None:
            continue
        if "." in target:
            cls_name, method = target.split(".")
            patch_method(recorder, getattr(module, cls_name), method, span, **hooks)
        else:
            patch_function(recorder, module, target, span, **hooks)
    if traced and "repro.recovery.journal" in sys.modules:
        # the journal's durability calls; looked up as os.fsync at call time
        os.fsync = recorder.wrap("recovery.fsync", os.fsync)


def layer_metrics(
    recorder: Recorder, root: Any, *, import_s: float, inputs_s: float, workdir: Path
) -> dict[str, float]:
    """Fold one traced pass into the per-layer table."""
    from repro.obs import metrics

    every = recorder.fold()
    work = recorder.fold(within=root)

    def get(table: dict, name: str, key: str) -> float:
        return table.get(name, {}).get(key, 0.0)

    counters = metrics.REGISTRY.counters()
    summaries = metrics.REGISTRY.summaries()
    hits = counters.get("te.cache.memo_hit", 0.0)
    misses = counters.get("te.cache.memo_miss", 0.0)
    s_hits = counters.get("te.cache.structure_hit", 0.0)
    s_misses = counters.get("te.cache.structure_miss", 0.0)
    replay = summaries.get("te.cache.replay")
    solves = [s for s in recorder.spans if s.name == "te.lp.solve"]
    journal_bytes = sum(
        p.stat().st_size for p in (workdir / "journal").glob("*") if p.is_file()
    )
    own = recorder.self_times()
    attributed = sum(
        row["self_s"] for name, row in work.items() if name != root.name
    )
    out = {
        "setup.import_s": import_s,
        "setup.inputs_s": inputs_s,
        "telemetry.synthesize.busy_s": get(every, "telemetry.synthesize", "busy_s"),
        "telemetry.samples": get(every, "telemetry.synthesize", "count"),
        "telemetry.summarize.busy_s": get(work, "telemetry.summarize", "busy_s"),
        "telemetry.summarize.calls": get(work, "telemetry.summarize", "calls"),
        "telemetry.episodes.busy_s": get(work, "telemetry.episodes", "busy_s"),
        "telemetry.episodes.count": get(work, "telemetry.episodes", "count"),
        "telemetry.hdr.busy_s": get(work, "telemetry.hdr", "busy_s"),
        "analysis.figures.busy_s": get(work, "analysis.figures", "busy_s"),
        "core.augment.busy_s": get(work, "core.augment", "busy_s"),
        "core.augment.fake_links": get(work, "core.augment", "count"),
        "te.lp.assemble_s": get(work, "te.lp", "self_s") + get(work, "te.lp.build", "self_s"),
        "te.lp.solve_s": get(work, "te.lp.solve", "busy_s"),
        "te.lp.solves": get(work, "te.lp.solve", "calls"),
        "te.lp.n_vars": max((s.count for s in solves), default=0.0),
        "te.cache.memo_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "te.cache.memo_hits": hits,
        "te.cache.memo_misses": misses,
        "te.cache.structure_hit_ratio": (
            s_hits / (s_hits + s_misses) if s_hits + s_misses else 0.0
        ),
        "te.cache.replay_s": replay.total_s if replay is not None else 0.0,
        "core.translate.busy_s": get(work, "core.translate", "busy_s"),
        "controller.step.self_s": get(work, "controller.step", "self_s"),
        "controller.rounds": counters.get("controller.rounds", 0.0),
        "bvt.reconfigure.busy_s": get(work, "bvt.reconfigure", "busy_s"),
        "bvt.reconfigure.calls": get(work, "bvt.reconfigure", "calls"),
        "state.commit.busy_s": get(work, "state.commit", "busy_s"),
        "state.commits": get(work, "state.commit", "calls"),
        "recovery.journal.busy_s": get(every, "recovery.journal", "busy_s"),
        "recovery.journal.fsyncs": get(every, "recovery.fsync", "calls"),
        "recovery.journal.bytes": float(journal_bytes),
        "engine.dispatch.self_s": get(work, "engine.dispatch", "self_s"),
        "engine.events": get(work, "engine.dispatch", "count"),
        "sim.on_sample.self_s": get(work, "sim.on_sample", "self_s"),
        "bench.unattributed_s": own[root.span_id],
        "trace.coverage_frac": attributed / root.duration if root.duration else 0.0,
    }
    return out


def median_table(rows: list[dict[str, float]]) -> dict[str, float]:
    """Per-key median over traced passes."""
    return {
        key: statistics.median(row[key] for row in rows)
        for key in rows[0]
    }
