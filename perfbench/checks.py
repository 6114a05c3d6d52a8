"""Correctness oracles the benchmark applies after every timed pass.

Each oracle is computed here, independently of the program's own
audits, and returns a :class:`Verdict`: how many operations were
attempted, which failed, and why.  A failed operation counts in the
run's ``failed`` total and makes the benchmark exit non-zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Sequence

#: absolute slack (Gbps) for LP solutions; the program's own EPSILON
FLOW_ATOL = 1e-6
#: relative tolerance of the objective comparisons
REL_TOL = 1e-9
#: phase 2 of min_penalty_at_max_throughput may give up this share of
#: T* by construction (``slack = max(1e-7 * max(T*, 1), 1e-9)``)
TWO_PHASE_SLACK = 1e-7


@dataclass
class Verdict:
    attempted: int
    problems: list[str] = field(default_factory=list)
    #: operations with at least one problem
    failed: int = 0

    def fail(self, message: str, *, ops: int = 1) -> None:
        self.problems.append(message)
        self.failed = min(self.failed + ops, self.attempted)


# -- TE -------------------------------------------------------------------


def flow_violations(topology: Any, solution: Any) -> list[str]:
    """Feasibility of one TE solution against ``topology``.

    Checks, per demand, non-negative flows on existing links, flow
    conservation (out minus in is +t at the source, -t at the sink, 0
    elsewhere) and ``0 <= t <= volume``; per link, that the summed flow
    stays within capacity.
    """
    links = {link.link_id: link for link in topology.links}
    problems: list[str] = []
    load: dict[str, float] = {}
    for k, assignment in enumerate(solution.assignments):
        demand = assignment.demand
        t = assignment.allocated_gbps
        scale = max(demand.volume_gbps, 1.0)
        if t < -FLOW_ATOL or t > demand.volume_gbps + FLOW_ATOL * scale:
            problems.append(
                f"demand {k} {demand.src}->{demand.dst}: allocation {t} "
                f"outside [0, {demand.volume_gbps}]"
            )
        net: dict[str, float] = {}
        for link_id, flow in assignment.edge_flows.items():
            link = links.get(link_id)
            if link is None:
                problems.append(f"demand {k}: flow on unknown link {link_id}")
                continue
            if flow < -FLOW_ATOL:
                problems.append(f"demand {k}: negative flow {flow} on {link_id}")
            load[link_id] = load.get(link_id, 0.0) + flow
            net[link.src] = net.get(link.src, 0.0) + flow
            net[link.dst] = net.get(link.dst, 0.0) - flow
        for node in set(net) | {demand.src, demand.dst}:
            expected = t if node == demand.src else -t if node == demand.dst else 0.0
            if abs(net.get(node, 0.0) - expected) > FLOW_ATOL * scale * 10:
                problems.append(
                    f"demand {k}: conservation broken at {node} "
                    f"(net {net.get(node, 0.0)}, expected {expected})"
                )
    for link_id, flow in sorted(load.items()):
        capacity = links[link_id].capacity_gbps
        if flow > capacity * (1 + REL_TOL) + FLOW_ATOL * max(len(solution.assignments), 1):
            problems.append(
                f"link {link_id}: over capacity ({flow} > {capacity})"
            )
    return problems


def te_problems(
    outcomes: Sequence[tuple[str, Any, Any]], *, static_gbps: float | None = None
) -> list[str]:
    """Problems with a sequence of captured TE objective calls.

    Every solution must be feasible on the topology it was solved on
    (``solution.topology``: a cached LP is rebound to later rounds'
    topologies, so ``lp.topology`` may have moved on).  Each
    ``min_penalty_at_max_throughput`` result must keep the maximum
    throughput ``T*`` of its first phase (the ``max_throughput`` call on
    the same LP just before it) to ``REL_TOL``, beyond the slack phase 2
    gives up by construction; with ``static_gbps`` that ``T*`` must also
    reach the static network's throughput.
    """
    problems = []
    for method, _, outcome in outcomes:
        topology = outcome.solution.topology
        violations = flow_violations(topology, outcome.solution)
        if violations:
            problems.append(
                f"{method} on {topology.name}: {violations[0]} "
                f"(+{len(violations) - 1} more)"
            )
    for (m1, lp1, phase1), (m2, lp2, two_phase) in zip(outcomes, outcomes[1:]):
        if m2 != "min_penalty_at_max_throughput":
            continue
        if m1 != "max_throughput" or lp1 is not lp2:
            problems.append("two-phase result without its max_throughput phase")
            continue
        t_star = phase1.objective_value
        achieved = two_phase.solution.total_allocated_gbps
        floor = t_star - max(TWO_PHASE_SLACK * max(t_star, 1.0), 1e-9)
        if not floor * (1 - REL_TOL) <= achieved <= t_star * (1 + REL_TOL) + FLOW_ATOL:
            problems.append(
                f"two-phase throughput {achieved} differs from max_throughput "
                f"{t_star} beyond the program's phase-2 slack"
            )
        if static_gbps is not None and t_star < static_gbps * (1 - REL_TOL):
            problems.append(f"augmented throughput {t_star} < static {static_gbps}")
    return problems


# -- telemetry study ------------------------------------------------------


def check_study(dataset: Any, summaries: Sequence[Any], metrics: dict) -> Verdict:
    """One summary per wavelength, every fraction in [0, 1].

    An operation is a cable; a cable fails when any of its summaries
    is malformed.
    """
    specs = dataset.cable_specs()
    verdict = Verdict(attempted=len(specs))
    n_links = dataset.n_links()
    if len(summaries) != n_links:
        verdict.fail(f"{len(summaries)} summaries for {n_links} links", ops=len(specs))
    for key in ("frac_hdr_below_2db", "frac_at_least_175", "frac_rescuable"):
        value = metrics.get(key)
        if value is not None and not 0.0 <= value <= 1.0:
            verdict.fail(f"{key} = {value} outside [0, 1]")
    by_cable: dict[str, list[Any]] = {}
    for summary in summaries:
        by_cable.setdefault(summary.cable_name, []).append(summary)
    for spec in specs:
        rows = by_cable.get(spec.name, [])
        bad = [s.link_id for s in rows if not _summary_ok(s)]
        if len(rows) != spec.n_wavelengths or bad:
            verdict.fail(
                f"cable {spec.name}: {len(rows)}/{spec.n_wavelengths} summaries, "
                f"malformed: {bad[:3]}"
            )
    return verdict


def _summary_ok(summary: Any) -> bool:
    hdr = summary.hdr
    if not (math.isfinite(hdr.low) and hdr.low <= hdr.high):
        return False
    if summary.range_db < 0 or summary.feasible_capacity_gbps < 0:
        return False
    return all(
        stats.n_episodes == len(stats.durations_h) >= 0
        and all(d > 0 for d in stats.durations_h)
        for stats in summary.failures_by_capacity
    )


# -- control loop ---------------------------------------------------------


def check_control_loop(
    controller: Any,
    journal: Path,
    rounds: Sequence[tuple[dict, Any]],
    outcomes: Sequence[tuple[str, Any, Any]],
    result: Any,
) -> Verdict:
    """Journal recovery, BER feasibility, TE solutions, an emergency round.

    An operation is a round.  A round fails when a link ends it above
    the capacity its input SNR supports, or when a TE solve it ran
    fails :func:`te_problems`; a journal that does not recover the
    controller's final state fails the last round.
    """
    verdict = Verdict(attempted=max(len(rounds), 1))
    if len(rounds) != result.total_rounds:
        verdict.fail(f"{len(rounds)} step calls for {result.total_rounds} rounds")
    table = controller.table
    for index, (snrs, state) in enumerate(rounds):
        over = [
            link_id
            for link_id, snr in snrs.items()
            if state.links[link_id].capacity_gbps
            > table.feasible_capacity(snr) + 1e-9
        ]
        if over:
            verdict.fail(f"round {index}: BER-infeasible links {over[:3]}")
    if result.n_emergency_rounds < 1:
        verdict.fail("no emergency round: the dips never crossed a threshold")
    for problem in te_problems(outcomes):
        verdict.fail(problem)
    problem = journal_mismatch(controller, journal)
    if problem:
        verdict.fail(problem)
    return verdict


def journal_mismatch(controller: Any, journal: Path) -> str | None:
    """Why ``recover(journal)`` does not reproduce the controller, if so."""
    from repro.recovery import RecoveryError, recover
    from repro.state.serialize import state_to_payload

    try:
        recovered = recover(journal)
    except RecoveryError as exc:
        return f"journal does not recover: {exc}"
    if recovered.n_rounds != controller.rounds_completed:
        return (
            f"journal recovers {recovered.n_rounds} rounds, "
            f"controller completed {controller.rounds_completed}"
        )
    got = state_to_payload(recovered.state)
    want = state_to_payload(controller.state)
    if got["version"] != want["version"] or got["links"] != want["links"]:
        return (
            f"recovered state v{got['version']} differs from the "
            f"controller's final state v{want['version']}"
        )
    return None
