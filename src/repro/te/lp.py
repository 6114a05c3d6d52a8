"""Edge-based multicommodity flow LPs on scipy's HiGHS backend.

This is the workhorse the SWAN/B4-style controllers and the Theorem-1
machinery sit on.  The formulation is the node-arc one, aggregated by
source node:

* variables ``x[s, e]`` — flow on link ``e`` that originates at source
  node ``s`` (one flow block per distinct demand source, not per
  demand) — plus one throughput variable ``t[k]`` per demand;
* conservation, one row per (source, node): source ``s`` emits
  ``sum_{k: src_k = s} t[k]``, each demand's sink absorbs its own
  ``t[k]``, every other node balances;
* capacity: total flow on a link never exceeds its capacity;
* demand: ``t[k] <= volume[k]``.

Why aggregating by source is exact: summing a per-demand node-arc
solution over the demands of each source gives a feasible aggregated
solution with the same ``t`` and the same per-link totals.  Conversely
a single-source flow to many sinks decomposes (flow decomposition
theorem) into per-sink path flows plus circulations; giving each
demand its sink's path flow is feasible for the per-demand program and
never raises a link total.  Every objective below depends only on
``t`` and the per-link totals, and never improves when a link total
grows (link penalties and the 1e-9 cycle-suppression cost are
non-negative and per link, not per demand), so both programs have the
same optimum.  Max concurrent flow ties ``t[k] = lambda *
volume[k]`` per demand and min-max-utilisation pins ``t[k] =
volume[k]``, both on the per-demand ``t`` that aggregation keeps, so
they stay exact too.  On the 21-node / 420-demand backbone this cuts
the flow variables from one block per demand to one per source node,
about 17x fewer.

:meth:`MultiCommodityLp._extract` splits each source's flow back into
per-demand edge flows with
:func:`repro.te.decompose.split_source_flows`, so every solution has the
per-demand shape the rest of the package reads.

Four objectives are exposed:

* **max throughput** — maximise ``sum_k t[k]``;
* **min-penalty at max throughput** — the two-phase program behind
  Theorem 1: first find the maximum throughput ``T*``, then minimise
  ``sum_e penalty[e] * flow[e]`` subject to throughput ``>= T*``.
  This is exactly "min-cost max-flow" generalised to many commodities;
* **min max utilisation** — serve every demand in full with the hottest
  link as cool as possible;
* **max concurrent flow** — maximise ``lambda`` with every commodity
  served ``lambda * volume`` (the classic fairness LP).

Matrices are assembled sparse once per instance and reused in CSR form
by every objective.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

from repro.net.demands import Demand
from repro.net.topology import Topology
from repro.obs import metrics as _metrics
from repro.te.decompose import split_source_flows
from repro.te.solution import EPSILON, FlowAssignment, TeSolution


@dataclass(frozen=True)
class LpOutcome:
    """A solved LP: the TE solution plus solver metadata."""

    solution: TeSolution
    objective_value: float
    status: str
    #: for max_concurrent_flow: the common satisfaction fraction
    concurrency: float | None = None
    #: the raw solver vector (excluded from equality; the incremental
    #: layer memoizes the extracted ``solution.assignments`` instead,
    #: so a memo hit re-runs neither the solve nor the extraction)
    x: np.ndarray | None = field(default=None, compare=False, repr=False)


def _with_column(matrix: sparse.csr_matrix, column: np.ndarray) -> sparse.csr_matrix:
    """``matrix`` with one extra trailing column (zeros are not stored)."""
    return sparse.hstack(
        [matrix, sparse.csr_matrix(column.reshape(-1, 1))], format="csr"
    )


class MultiCommodityLp:
    """Shared LP scaffolding for one (topology, demands) instance."""

    def __init__(self, topology: Topology, demands: Sequence[Demand]):
        if not demands:
            raise ValueError("need at least one demand")
        for d in demands:
            for node in (d.src, d.dst):
                if not topology.has_node(node):
                    raise KeyError(f"demand endpoint {node!r} not in topology")
        self.topology = topology
        self.demands = tuple(demands)
        self.links = list(topology.links)
        self.nodes = list(topology.nodes)
        self._node_index = {n: i for i, n in enumerate(self.nodes)}
        self.n_links = len(self.links)
        self.n_demands = len(self.demands)
        # per-link and per-demand index arrays: all constraint blocks are
        # assembled from these with numpy broadcasting
        self._link_src = np.fromiter(
            (self._node_index[l.src] for l in self.links),
            dtype=np.int64,
            count=self.n_links,
        )
        self._link_dst = np.fromiter(
            (self._node_index[l.dst] for l in self.links),
            dtype=np.int64,
            count=self.n_links,
        )
        self._link_ids = [l.link_id for l in self.links]
        self._demand_src = np.fromiter(
            (self._node_index[d.src] for d in self.demands),
            dtype=np.int64,
            count=self.n_demands,
        )
        self._demand_dst = np.fromiter(
            (self._node_index[d.dst] for d in self.demands),
            dtype=np.int64,
            count=self.n_demands,
        )
        # one flow block per distinct source node, in node order;
        # _demand_block maps each demand to its source's block
        source_nodes, demand_block = np.unique(self._demand_src, return_inverse=True)
        self._demand_block = demand_block.ravel()
        self.n_sources = len(source_nodes)
        # x variables: source-major layout x[s, e] at s * n_links + e;
        # the t variables fill the tail
        self.n_flow_vars = self.n_sources * self.n_links
        # constraint blocks are identical across the solve methods (and
        # across both phases of the Theorem-1 program), so build each once
        self._conservation_cache: tuple[sparse.csr_matrix, np.ndarray] | None = None
        self._capacity_cache: tuple[sparse.csr_matrix, np.ndarray] | None = None
        self._penalty_cache: np.ndarray | None = None

    def rebind(self, topology: Topology) -> None:
        """Re-point this assembled LP at a structurally identical topology.

        The caller (see :mod:`repro.te.incremental`) guarantees
        ``topology`` has the same nodes and the same links — ids,
        endpoints, insertion order — as the instance was built from;
        only per-link capacities and penalties may differ.  The capacity
        RHS is rewritten in place (O(n_links)) and the penalty vector is
        dropped for lazy rebuild; every assembled constraint block is
        reused as-is, so a rebound instance solves with
        matrices value-identical to fresh assembly.
        """
        self.topology = topology
        self.links = list(topology.links)
        if self._capacity_cache is not None:
            b_ub = self._capacity_cache[1]
            b_ub[:] = [l.capacity_gbps for l in self.links]
        self._penalty_cache = None

    @property
    def n_vars(self) -> int:
        return self.n_flow_vars + self.n_demands

    # -- constraint blocks --------------------------------------------------

    def _conservation(self) -> tuple[sparse.csr_matrix, np.ndarray]:
        """A_eq x = 0 rows: one per (source, node).

        Assembled once per instance, in the CSR form linprog consumes,
        from four coordinate blocks built with index arithmetic (+1 at
        each link's source row, -1 at its destination row within every
        source block; -1 tying t_k to its source's source row, +1 to its
        sink's row); every solve method reuses the cached matrix.
        """
        if self._conservation_cache is None:
            with _metrics.timer("lp.assemble.conservation"):
                n_s, n_e, n_k = self.n_sources, self.n_links, self.n_demands
                n_n = len(self.nodes)
                s = np.arange(n_s, dtype=np.int64)
                e = np.arange(n_e, dtype=np.int64)
                flow_cols = (s[:, None] * n_e + e[None, :]).ravel()
                out_rows = (s[:, None] * n_n + self._link_src[None, :]).ravel()
                in_rows = (s[:, None] * n_n + self._link_dst[None, :]).ravel()
                block_rows = self._demand_block * n_n
                t_cols = self.n_flow_vars + np.arange(n_k, dtype=np.int64)
                rows = np.concatenate(
                    [
                        out_rows,
                        in_rows,
                        block_rows + self._demand_src,
                        block_rows + self._demand_dst,
                    ]
                )
                cols = np.concatenate([flow_cols, flow_cols, t_cols, t_cols])
                vals = np.concatenate(
                    [
                        np.ones(n_s * n_e),
                        -np.ones(n_s * n_e),
                        -np.ones(n_k),
                        np.ones(n_k),
                    ]
                )
                a_eq = sparse.csr_matrix(
                    (vals, (rows, cols)), shape=(n_s * n_n, self.n_vars)
                )
                self._conservation_cache = (a_eq, np.zeros(n_s * n_n))
        return self._conservation_cache

    def _capacity(self) -> tuple[sparse.csr_matrix, np.ndarray]:
        """A_ub x <= cap rows: one per link, summed over source blocks."""
        if self._capacity_cache is None:
            with _metrics.timer("lp.assemble.capacity"):
                n_s, n_e = self.n_sources, self.n_links
                s = np.arange(n_s, dtype=np.int64)
                e = np.arange(n_e, dtype=np.int64)
                rows = np.tile(e, n_s)
                cols = (s[:, None] * n_e + e[None, :]).ravel()
                a_ub = sparse.csr_matrix(
                    (np.ones(n_s * n_e), (rows, cols)),
                    shape=(n_e, self.n_vars),
                )
                b_ub = np.array([l.capacity_gbps for l in self.links])
                self._capacity_cache = (a_ub, b_ub)
        return self._capacity_cache

    def _volumes(self) -> np.ndarray:
        return np.fromiter(
            (d.volume_gbps for d in self.demands), dtype=float, count=self.n_demands
        )

    def _bounds(self, *, cap_throughput: bool = True) -> np.ndarray:
        """``(n_vars, 2)`` lower/upper bounds: flows and t are >= 0."""
        bounds = np.zeros((self.n_vars, 2))
        bounds[:, 1] = np.inf
        if cap_throughput:
            bounds[self.n_flow_vars :, 1] = self._volumes()
        return bounds

    def _penalty_vector(self) -> np.ndarray:
        """Per-variable penalty costs (a fresh copy — callers mutate it)."""
        if self._penalty_cache is None:
            per_link = np.fromiter(
                (l.penalty for l in self.links), dtype=float, count=self.n_links
            )
            c = np.zeros(self.n_vars)
            c[: self.n_flow_vars] = np.tile(per_link, self.n_sources)
            self._penalty_cache = c
        return self._penalty_cache.copy()

    # -- solves -------------------------------------------------------------

    def _run(self, c, a_ub, b_ub, a_eq, b_eq, bounds):
        with _metrics.timer(
            "lp.solve", n_vars=len(c), n_demands=self.n_demands
        ):
            result = linprog(
                c,
                A_ub=a_ub,
                b_ub=b_ub,
                A_eq=a_eq,
                b_eq=b_eq,
                bounds=bounds,
                method="highs",
            )
        if not result.success:
            raise RuntimeError(f"LP failed: {result.message}")
        return result

    def _extract(self, x: np.ndarray) -> TeSolution:
        """Read a solver vector back into a TeSolution.

        Each source block is split into per-demand flows by
        :func:`~repro.te.decompose.split_source_flows` (deterministic,
        so a memo replay of the same vector is bit-identical); only the
        per-demand entries above EPSILON are touched in Python.
        """
        t_vals = np.asarray(x[self.n_flow_vars : self.n_flow_vars + self.n_demands])
        flows = split_source_flows(
            np.asarray(x[: self.n_flow_vars]).reshape(self.n_sources, self.n_links),
            np.maximum(t_vals, 0.0),
            demand_block=self._demand_block,
            demand_dst=self._demand_dst,
            link_src=self._link_src,
            link_dst=self._link_dst,
            n_nodes=len(self.nodes),
        )
        edge_flows: list[dict[str, float]] = [{} for _ in range(self.n_demands)]
        # one mask drops the near-zero flows; nonzero gives the surviving
        # (demand, link) pairs in row-major order, and one fancy-index
        # gather pulls their values — Python only touches the survivors
        mask = flows > EPSILON
        ks, es = np.nonzero(mask)
        link_ids = self._link_ids
        for k, e, value in zip(ks.tolist(), es.tolist(), flows[mask].tolist()):
            edge_flows[k][link_ids[e]] = value
        assignments = [
            FlowAssignment(
                demand=demand,
                allocated_gbps=max(float(t_vals[k]), 0.0),
                edge_flows=edge_flows[k],
            )
            for k, demand in enumerate(self.demands)
        ]
        return TeSolution(self.topology, assignments)

    def max_throughput(self, *, penalty_weight: float = 0.0) -> LpOutcome:
        """Maximise total allocated volume.

        ``penalty_weight`` > 0 folds the penalty into the objective as a
        soft cost (``max sum t - w * sum p*x``) — the single-shot
        approximation of the two-phase program.  Keep it well below
        1/max_path_length or it will start sacrificing throughput.
        """
        a_eq, b_eq = self._conservation()
        a_ub, b_ub = self._capacity()
        c = penalty_weight * self._penalty_vector()
        # tiny per-unit-flow cost keeps solutions off pointless cycles
        c[: self.n_flow_vars] += 1e-9
        c[self.n_flow_vars :] = -1.0  # linprog minimises; t vars fill the tail
        result = self._run(c, a_ub, b_ub, a_eq, b_eq, self._bounds())
        solution = self._extract(result.x)
        return LpOutcome(
            solution=solution,
            objective_value=solution.total_allocated_gbps,
            status="optimal",
            x=result.x,
        )

    def min_penalty_at_max_throughput(self) -> LpOutcome:
        """The Theorem-1 objective: min-cost among max-throughput flows.

        Phase 1 finds the maximum throughput ``T*``; phase 2 minimises
        the penalty subject to total throughput >= T* (less a numerical
        hair, so phase 2 stays feasible).
        """
        phase1 = self.max_throughput()
        t_star = phase1.objective_value

        a_eq, b_eq = self._conservation()
        a_ub, b_ub = self._capacity()
        # extra row: -sum_k t_k <= -(T* - eps)
        extra = np.zeros((1, self.n_vars))
        extra[0, self.n_flow_vars :] = -1.0
        slack = max(1e-7 * max(t_star, 1.0), 1e-9)
        a_ub_full = sparse.vstack([a_ub, sparse.csr_matrix(extra)], format="csr")
        b_ub_full = np.concatenate([b_ub, [-(t_star - slack)]])
        c = self._penalty_vector()
        peak = float(c.max())
        # tiny tie-break keeps flow off zero-penalty cycles
        c[: self.n_flow_vars] += 1e-9
        # HiGHS judges reduced costs against an absolute 1e-7, so costs
        # that small stop phase 2 at an arbitrary max-throughput point;
        # scaling them up to a peak cost of 1 keeps the argmin
        if 0.0 < peak < 1.0:
            c /= peak + 1e-9
        result = self._run(c, a_ub_full, b_ub_full, a_eq, b_eq, self._bounds())
        solution = self._extract(result.x)
        return LpOutcome(
            solution=solution,
            objective_value=solution.penalty_cost,
            status="optimal",
            x=result.x,
        )

    def min_max_utilization(self) -> LpOutcome:
        """Route ALL demand while minimising the maximum link utilisation.

        The classic load-balancing TE objective (B4/MPLS-TE flavour):
        every commodity is fully served (infeasible instances raise),
        and the objective spreads load so the hottest link is as cool
        as possible.  ``objective_value`` is the achieved MLU; values
        above 1.0 mean the demand does not fit and links would be
        oversubscribed proportionally.
        """
        mu = self.n_vars  # the MLU is one extra, last variable
        conservation, _ = self._conservation()
        capacity, cap_b = self._capacity()
        n_rows = conservation.shape[0]
        # pin every commodity at full demand: t_k = d_k
        pin = sparse.csr_matrix(
            (
                np.ones(self.n_demands),
                (np.arange(self.n_demands), self.n_flow_vars + np.arange(self.n_demands)),
            ),
            shape=(self.n_demands, mu + 1),
        )
        a_eq = sparse.vstack(
            [_with_column(conservation, np.zeros(n_rows)), pin],
            format="csr",
        )
        b_eq = np.concatenate([np.zeros(n_rows), self._volumes()])
        # capacity rows become: sum_s x_se - cap_e * mu <= 0
        a_ub = _with_column(capacity, -cap_b)
        b_ub = np.zeros(self.n_links)

        # mu free upward: report oversubscription
        bounds = np.vstack([self._bounds(cap_throughput=False), [[0.0, np.inf]]])
        c = np.zeros(mu + 1)
        c[: self.n_flow_vars] += 1e-9  # cycle suppression
        c[mu] = 1.0
        result = self._run(c, a_ub, b_ub, a_eq, b_eq, bounds)
        solution = self._extract(result.x[: self.n_vars])
        return LpOutcome(
            solution=solution,
            objective_value=float(result.x[mu]),
            status="optimal",
            x=result.x,
        )

    def max_concurrent_flow(self, *, cap_at_one: bool = True) -> LpOutcome:
        """Maximise the common satisfaction fraction ``lambda``.

        Every commodity is served exactly ``lambda * volume``; with
        ``cap_at_one`` the fraction saturates at full satisfaction
        (the variant TE controllers actually deploy).
        """
        # replace the per-commodity t_k with t_k = lambda * d_k by adding
        # equality rows t_k - d_k * lambda = 0 and one extra variable.
        lam = self.n_vars  # lambda is the last variable
        conservation, _ = self._conservation()
        capacity, b_ub = self._capacity()
        n_rows = conservation.shape[0]
        k = np.arange(self.n_demands)
        tie = sparse.csr_matrix(
            (
                np.concatenate([np.ones(self.n_demands), -self._volumes()]),
                (
                    np.concatenate([k, k]),
                    np.concatenate(
                        [self.n_flow_vars + k, np.full(self.n_demands, lam)]
                    ),
                ),
            ),
            shape=(self.n_demands, lam + 1),
        )
        a_eq = sparse.vstack(
            [_with_column(conservation, np.zeros(n_rows)), tie],
            format="csr",
        )
        b_eq = np.zeros(a_eq.shape[0])
        a_ub = _with_column(capacity, np.zeros(self.n_links))

        bounds = np.vstack(
            [
                self._bounds(cap_throughput=False),
                [[0.0, 1.0 if cap_at_one else np.inf]],
            ]
        )
        c = np.zeros(lam + 1)
        c[: self.n_flow_vars] += 1e-9  # cycle suppression, as above
        c[lam] = -1.0
        result = self._run(c, a_ub, b_ub, a_eq, b_eq, bounds)
        solution = self._extract(result.x[: self.n_vars])
        return LpOutcome(
            solution=solution,
            objective_value=float(result.x[lam]),
            status="optimal",
            concurrency=float(result.x[lam]),
            x=result.x,
        )
