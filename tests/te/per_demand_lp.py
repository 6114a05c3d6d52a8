"""The per-demand node-arc LP, frozen as the differential oracle.

:class:`PerDemandLp` is the formulation :class:`repro.te.lp.
MultiCommodityLp` used before it aggregated flow by source node: one
flow variable per (demand, link), conservation per (demand, node).  It
is kept here, outside the package, only so tests can check that the
source-aggregated LP reaches the same optimum on every objective.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

from repro.net.demands import Demand
from repro.net.topology import Topology
from repro.te.lp import LpOutcome
from repro.te.solution import EPSILON, FlowAssignment, TeSolution


class PerDemandLp:
    """One flow block per demand; the same four objectives."""

    def __init__(self, topology: Topology, demands: Sequence[Demand]):
        self.topology = topology
        self.demands = tuple(demands)
        self.links = list(topology.links)
        self.nodes = list(topology.nodes)
        node_index = {n: i for i, n in enumerate(self.nodes)}
        self.n_links = len(self.links)
        self.n_demands = len(self.demands)
        self.n_flow_vars = self.n_demands * self.n_links
        self.n_vars = self.n_flow_vars + self.n_demands
        self.volumes = np.array([d.volume_gbps for d in self.demands])
        self.capacities = np.array([l.capacity_gbps for l in self.links])

        n_k, n_e, n_n = self.n_demands, self.n_links, len(self.nodes)
        link_src = np.array([node_index[l.src] for l in self.links], dtype=np.int64)
        link_dst = np.array([node_index[l.dst] for l in self.links], dtype=np.int64)
        d_src = np.array([node_index[d.src] for d in self.demands], dtype=np.int64)
        d_dst = np.array([node_index[d.dst] for d in self.demands], dtype=np.int64)
        k = np.arange(n_k, dtype=np.int64)
        e = np.arange(n_e, dtype=np.int64)
        flow_cols = (k[:, None] * n_e + e[None, :]).ravel()
        rows = np.concatenate(
            [
                (k[:, None] * n_n + link_src[None, :]).ravel(),
                (k[:, None] * n_n + link_dst[None, :]).ravel(),
                k * n_n + d_src,
                k * n_n + d_dst,
            ]
        )
        cols = np.concatenate(
            [flow_cols, flow_cols, self.n_flow_vars + k, self.n_flow_vars + k]
        )
        vals = np.concatenate(
            [np.ones(n_k * n_e), -np.ones(n_k * n_e), -np.ones(n_k), np.ones(n_k)]
        )
        self.conservation = sparse.csr_matrix(
            (vals, (rows, cols)), shape=(n_k * n_n, self.n_vars)
        )
        self.capacity = sparse.csr_matrix(
            (np.ones(n_k * n_e), (np.tile(e, n_k), flow_cols)),
            shape=(n_e, self.n_vars),
        )
        self.penalty = np.zeros(self.n_vars)
        self.penalty[: self.n_flow_vars] = np.tile(
            [l.penalty for l in self.links], n_k
        )

    def _bounds(self, cap_throughput: bool = True) -> list:
        upper = self.volumes if cap_throughput else [None] * self.n_demands
        return [(0.0, None)] * self.n_flow_vars + [(0.0, u) for u in upper]

    def _solve(self, c, a_ub, b_ub, a_eq, b_eq, bounds):
        result = linprog(
            c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq,
            bounds=bounds, method="highs",
        )
        if not result.success:
            raise RuntimeError(f"LP failed: {result.message}")
        return result

    def _extract(self, x: np.ndarray) -> TeSolution:
        flows = x[: self.n_flow_vars].reshape(self.n_demands, self.n_links)
        t_vals = x[self.n_flow_vars : self.n_vars]
        return TeSolution(
            self.topology,
            [
                FlowAssignment(
                    demand,
                    max(float(t_vals[k]), 0.0),
                    {
                        self.links[e].link_id: float(flows[k, e])
                        for e in np.flatnonzero(flows[k] > EPSILON)
                    },
                )
                for k, demand in enumerate(self.demands)
            ],
        )

    def _with_extra_column(self, matrix, column):
        return sparse.hstack(
            [matrix, sparse.csr_matrix(np.reshape(column, (-1, 1)))], format="csr"
        )

    def max_throughput(self) -> LpOutcome:
        c = np.zeros(self.n_vars)
        c[: self.n_flow_vars] = 1e-9
        c[self.n_flow_vars :] = -1.0
        result = self._solve(
            c, self.capacity, self.capacities, self.conservation,
            np.zeros(self.conservation.shape[0]), self._bounds(),
        )
        solution = self._extract(result.x)
        return LpOutcome(solution, solution.total_allocated_gbps, "optimal", x=result.x)

    def min_penalty_at_max_throughput(self) -> LpOutcome:
        t_star = self.max_throughput().objective_value
        extra = np.zeros((1, self.n_vars))
        extra[0, self.n_flow_vars :] = -1.0
        slack = max(1e-7 * max(t_star, 1.0), 1e-9)
        c = self.penalty.copy()
        c[: self.n_flow_vars] += 1e-9
        peak = float(self.penalty.max())
        if 0.0 < peak < 1.0:
            c /= peak + 1e-9  # as in MultiCommodityLp: lift costs above HiGHS's tolerance
        result = self._solve(
            c,
            sparse.vstack([self.capacity, sparse.csr_matrix(extra)], format="csr"),
            np.concatenate([self.capacities, [-(t_star - slack)]]),
            self.conservation,
            np.zeros(self.conservation.shape[0]),
            self._bounds(),
        )
        solution = self._extract(result.x)
        return LpOutcome(solution, solution.penalty_cost, "optimal", x=result.x)

    def min_max_utilization(self) -> LpOutcome:
        mu = self.n_vars
        n_rows = self.conservation.shape[0]
        k = np.arange(self.n_demands)
        pin = sparse.csr_matrix(
            (np.ones(self.n_demands), (k, self.n_flow_vars + k)),
            shape=(self.n_demands, mu + 1),
        )
        a_eq = sparse.vstack(
            [self._with_extra_column(self.conservation, np.zeros(n_rows)), pin],
            format="csr",
        )
        c = np.zeros(mu + 1)
        c[: self.n_flow_vars] = 1e-9
        c[mu] = 1.0
        result = self._solve(
            c,
            self._with_extra_column(self.capacity, -self.capacities),
            np.zeros(self.n_links),
            a_eq,
            np.concatenate([np.zeros(n_rows), self.volumes]),
            self._bounds(cap_throughput=False) + [(0.0, None)],
        )
        solution = self._extract(result.x[: self.n_vars])
        return LpOutcome(solution, float(result.x[mu]), "optimal", x=result.x)

    def max_concurrent_flow(self, *, cap_at_one: bool = True) -> LpOutcome:
        lam = self.n_vars
        n_rows = self.conservation.shape[0]
        k = np.arange(self.n_demands)
        tie = sparse.csr_matrix(
            (
                np.concatenate([np.ones(self.n_demands), -self.volumes]),
                (
                    np.concatenate([k, k]),
                    np.concatenate([self.n_flow_vars + k, np.full(self.n_demands, lam)]),
                ),
            ),
            shape=(self.n_demands, lam + 1),
        )
        a_eq = sparse.vstack(
            [self._with_extra_column(self.conservation, np.zeros(n_rows)), tie],
            format="csr",
        )
        c = np.zeros(lam + 1)
        c[: self.n_flow_vars] = 1e-9
        c[lam] = -1.0
        result = self._solve(
            c,
            self._with_extra_column(self.capacity, np.zeros(self.n_links)),
            self.capacities,
            a_eq,
            np.zeros(a_eq.shape[0]),
            self._bounds(cap_throughput=False) + [(0.0, 1.0 if cap_at_one else None)],
        )
        solution = self._extract(result.x[: self.n_vars])
        return LpOutcome(
            solution, float(result.x[lam]), "optimal",
            concurrency=float(result.x[lam]), x=result.x,
        )
