"""The common TE solution object and its invariant checks.

Every TE algorithm in :mod:`repro.te` returns a :class:`TeSolution`:
per-demand edge flows plus the allocated volume.  The solution knows how
to audit itself (flow conservation, capacity, non-negativity), which the
property-based tests lean on heavily.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

from repro.net.demands import Demand
from repro.net.topology import Topology

#: numerical slack for LP solutions
EPSILON = 1e-6


class TeSolverError(RuntimeError):
    """A TE solve failed (injected fault or a genuine solver error).

    The hardened controller catches exactly this type: wrap a real
    backend failure in it when graceful degradation (retry, then hold
    the last solution) is the desired response.
    """


@dataclass(frozen=True)
class FlowAssignment:
    """How one demand is routed: flow per link id, plus the total."""

    demand: Demand
    allocated_gbps: float
    edge_flows: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.allocated_gbps < -EPSILON:
            raise ValueError("allocated volume must be non-negative")

    @property
    def satisfaction(self) -> float:
        """Fraction of the demand that was allocated (1.0 when satisfied)."""
        if self.demand.volume_gbps == 0:
            return 1.0
        return self.allocated_gbps / self.demand.volume_gbps


class TeSolution:
    """A complete flow assignment over a topology."""

    def __init__(
        self,
        topology: Topology,
        assignments: Sequence[FlowAssignment],
    ):
        self.topology = topology
        self.assignments = tuple(assignments)
        self._link_flow: dict[str, float] = {}
        for assignment in self.assignments:
            for link_id, flow in assignment.edge_flows.items():
                self._link_flow[link_id] = self._link_flow.get(link_id, 0.0) + flow

    # -- aggregate metrics ------------------------------------------------

    @property
    def total_allocated_gbps(self) -> float:
        return sum(a.allocated_gbps for a in self.assignments)

    @property
    def total_demand_gbps(self) -> float:
        return sum(a.demand.volume_gbps for a in self.assignments)

    @property
    def overall_satisfaction(self) -> float:
        if self.total_demand_gbps == 0:
            return 1.0
        return self.total_allocated_gbps / self.total_demand_gbps

    def link_flow(self, link_id: str) -> float:
        return self._link_flow.get(link_id, 0.0)

    def utilization(self, link_id: str) -> float:
        link = self.topology.link(link_id)
        return self.link_flow(link_id) / link.capacity_gbps

    @property
    def max_utilization(self) -> float:
        if not self._link_flow:
            return 0.0
        return max(self.utilization(i) for i in self._link_flow)

    @property
    def penalty_cost(self) -> float:
        """Total penalty incurred: sum over links of penalty * flow.

        For an augmented topology this is the disruption cost of the
        capacity upgrades the solution implies.
        """
        return sum(
            self.topology.link(i).penalty * flow
            for i, flow in self._link_flow.items()
        )

    def flow_on_fake_links(self) -> dict[str, float]:
        """Flow riding on augmentation links (> EPSILON only)."""
        return {
            i: f
            for i, f in self._link_flow.items()
            if f > EPSILON and self.topology.link(i).is_fake
        }

    # -- invariant checks -------------------------------------------------

    def violations(
        self,
        *,
        tolerance: float = 1e-4,
        capacities: Mapping[str, float] | None = None,
    ) -> list[str]:
        """Audit the solution; returns human-readable violations.

        Checks, per the LP's constraints:

        * no negative edge flow;
        * no link carries more than its capacity: the topology's, or
          ``capacities`` (link id -> Gbps, links it omits count as 0)
          when given, e.g. the capacities actually committed after a
          reconfiguration;
        * every demand's allocation lies in ``[0, volume]``;
        * per-commodity flow conservation at every node (source emits
          exactly the allocated volume, sink absorbs it, others balance).
        """
        problems = []
        for link_id, flow in self._link_flow.items():
            if flow < -tolerance:
                problems.append(f"negative flow {flow:.4f} on {link_id}")
            if capacities is None:
                capacity = self.topology.link(link_id).capacity_gbps
            else:
                capacity = capacities.get(link_id, 0.0)
            if flow > capacity + tolerance:
                problems.append(
                    f"link {link_id} overloaded: {flow:.4f} > {capacity:.4f}"
                )
        for idx, assignment in enumerate(self.assignments):
            demand = assignment.demand
            allocated = assignment.allocated_gbps
            if not -tolerance <= allocated <= demand.volume_gbps + tolerance:
                problems.append(
                    f"demand {idx} ({demand.src}->{demand.dst}): allocated "
                    f"{allocated:.4f} outside "
                    f"[0, {demand.volume_gbps:.4f}]"
                )
            problems.extend(self._conservation_violations(idx, assignment, tolerance))
        return problems

    def _conservation_violations(
        self, idx: int, assignment: FlowAssignment, tolerance: float
    ) -> list[str]:
        problems = []
        balance: dict[str, float] = {}
        for link_id, flow in assignment.edge_flows.items():
            link = self.topology.link(link_id)
            balance[link.src] = balance.get(link.src, 0.0) + flow
            balance[link.dst] = balance.get(link.dst, 0.0) - flow
        demand = assignment.demand
        for node, net_out in balance.items():
            if node == demand.src:
                expected = assignment.allocated_gbps
            elif node == demand.dst:
                expected = -assignment.allocated_gbps
            else:
                expected = 0.0
            if abs(net_out - expected) > tolerance:
                problems.append(
                    f"demand {idx} ({demand.src}->{demand.dst}): node {node} "
                    f"imbalance {net_out:.4f}, expected {expected:.4f}"
                )
        return problems

    def is_valid(self, *, tolerance: float = 1e-4) -> bool:
        return not self.violations(tolerance=tolerance)

    def __repr__(self) -> str:
        return (
            f"TeSolution(demands={len(self.assignments)}, "
            f"allocated={self.total_allocated_gbps:.1f} Gbps, "
            f"penalty={self.penalty_cost:.1f})"
        )


def empty_solution(topology: Topology, demands: Sequence[Demand]) -> TeSolution:
    """An all-zero allocation (the degenerate fallback)."""
    return TeSolution(
        topology,
        [FlowAssignment(d, 0.0, {}) for d in demands],
    )
