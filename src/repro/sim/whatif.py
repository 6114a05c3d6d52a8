"""What-if: replay a ticket corpus against a dynamic-capacity network.

The question an operator asks after reading the paper: *"had we
deployed this last quarter, which of our tickets would have mattered
less?"*  This module answers it by replaying each ticket's outage as a
cable event on the real topology and solving the TE twice — binary
rule vs. dynamic flap — exactly like
:mod:`repro.sim.network_availability`, but driven by a ticket corpus
and reporting per-ticket verdicts.

The corpus replays on the event engine: a
:class:`~repro.engine.TicketOutageSource` puts every ticket's outage
window on the timeline at its open time, and the verdict handler
publishes a ``ticket.verdict`` notification per ticket.  Verdicts are
reported in corpus order regardless of outage chronology, so the
report is identical whether a corpus arrives sorted or not.

The scenario solves themselves are independent of the timeline: the
distinct ``(cable, binary?)`` scenarios a corpus needs are known up
front, so they are batch-solved — optionally fanned out over the
shared :mod:`repro.parallel` pool with per-worker TE structure caches
(:mod:`repro.te.incremental`) — before the engine replays the
verdicts.  Values are identical for any worker count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.engine import Engine, Event, TicketOutageSource
from repro.net.srlg import SrlgMap
from repro.net.topology import Topology
from repro.net.demands import Demand
from repro.obs import trace as _trace
from repro.state import NetworkState
from repro.te.incremental import batch_throughput
from repro.tickets.model import Ticket


@dataclass(frozen=True)
class TicketVerdict:
    """What one historical ticket would have cost, both ways."""

    ticket: Ticket
    binary_loss_gbps: float
    dynamic_loss_gbps: float

    @property
    def rescued_gbps(self) -> float:
        return self.binary_loss_gbps - self.dynamic_loss_gbps

    @property
    def rescued_gbps_hours(self) -> float:
        """Traffic-volume-time saved over the ticket's duration."""
        return self.rescued_gbps * self.ticket.duration_hours

    @property
    def fully_mitigated(self) -> bool:
        return self.binary_loss_gbps > 1e-3 and self.dynamic_loss_gbps <= 1e-3


@dataclass(frozen=True)
class WhatIfReport:
    """Aggregate of a corpus replay."""

    verdicts: tuple[TicketVerdict, ...]

    @property
    def n_tickets(self) -> int:
        return len(self.verdicts)

    @property
    def n_impactful(self) -> int:
        return sum(1 for v in self.verdicts if v.binary_loss_gbps > 1e-3)

    @property
    def n_fully_mitigated(self) -> int:
        return sum(1 for v in self.verdicts if v.fully_mitigated)

    @property
    def total_rescued_gbps_hours(self) -> float:
        return sum(v.rescued_gbps_hours for v in self.verdicts)


def replay_tickets(
    topology: Topology,
    demands: Sequence[Demand],
    tickets: Sequence[Ticket],
    srlgs: SrlgMap,
    *,
    fallback_capacity_gbps: float = 50.0,
    workers: int | None = None,
) -> WhatIfReport:
    """Judge every ticket's outage under binary vs. dynamic operation.

    Ticket elements must name cables of ``srlgs``; fiber cuts stay
    binary in both worlds (no light, nothing to adapt), every other
    category flaps to ``fallback_capacity_gbps`` in the dynamic world.

    ``workers`` spreads the independent scenario solves over the shared
    pool (``None`` defers to ``REPRO_WORKERS``); the report is
    byte-identical for every worker count.
    """
    if not tickets:
        raise ValueError("no tickets to replay")
    for ticket in tickets:
        if ticket.element not in srlgs.groups:
            raise KeyError(
                f"ticket {ticket.ticket_id} names unknown cable "
                f"{ticket.element!r}"
            )

    # the distinct (cable, binary?) scenarios are known up front: each
    # ticket needs the binary world, non-cut tickets the flapped one too.
    # Collect them in corpus order (first-need order) and batch-solve —
    # the baseline rides along as the first scenario.
    needed: list[tuple[str, bool]] = []
    seen: set[tuple[str, bool]] = set()
    for ticket in tickets:
        keys = [(ticket.element, True)]
        if not ticket.is_binary_failure:
            keys.append((ticket.element, False))
        for key in keys:
            if key not in seen:
                seen.add(key)
                needed.append(key)
    # every scenario is a copy-on-write fork of one base snapshot; the
    # forks materialize worker-side with the exact link ordering the
    # old per-scenario topology surgery produced (state.to_topology
    # uses the same copy/remove/replace primitives)
    base = NetworkState.from_topology(topology, label="whatif.base")
    scenarios: list[NetworkState] = [base] + [
        base.darken(sorted(srlgs.links_of(cable)), label=f"fail:{cable}")
        if binary
        else base.flap(
            sorted(srlgs.links_of(cable)),
            fallback_capacity_gbps,
            label=f"degrade:{cable}",
        )
        for cable, binary in needed
    ]
    values = batch_throughput(scenarios, demands, workers=workers)
    baseline = values[0]
    scenario_cache = dict(zip(needed, values[1:]))

    def throughput(cable: str, binary: bool) -> float:
        return scenario_cache[(cable, binary)]

    verdicts: dict[int, TicketVerdict] = {}
    engine = Engine()

    def on_outage(event: Event) -> None:
        index, ticket = event.payload
        binary_tp = throughput(ticket.element, binary=True)
        if ticket.is_binary_failure:
            dynamic_tp = binary_tp  # a cut is a cut in both worlds
        else:
            dynamic_tp = throughput(ticket.element, binary=False)
        verdict = TicketVerdict(
            ticket=ticket,
            binary_loss_gbps=max(baseline - binary_tp, 0.0),
            dynamic_loss_gbps=max(baseline - dynamic_tp, 0.0),
        )
        verdicts[index] = verdict
        engine.publish("ticket.verdict", verdict)

    engine.subscribe(TicketOutageSource.KIND, on_outage)
    engine.add_source(TicketOutageSource(tickets))
    _trace.observe_engine(engine)
    with _trace.span("sim.whatif", n_tickets=len(tickets)):
        engine.run()
    return WhatIfReport(
        verdicts=tuple(verdicts[i] for i in range(len(tickets)))
    )
