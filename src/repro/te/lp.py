"""Edge-based multicommodity flow LPs on scipy's HiGHS backend.

This is the workhorse the SWAN/B4-style controllers and the Theorem-1
machinery sit on.  The formulation is the standard node-arc one:

* variables ``x[k, e]`` — flow of commodity ``k`` on link ``e`` — plus
  one throughput variable ``t[k]`` per commodity;
* conservation: at every node, commodity outflow minus inflow equals
  ``+t[k]`` at the source, ``-t[k]`` at the sink, 0 elsewhere;
* capacity: total flow on a link never exceeds its capacity;
* demand: ``t[k] <= volume[k]``.

Three objectives are exposed:

* **max throughput** — maximise ``sum_k t[k]``;
* **min-penalty at max throughput** — the two-phase program behind
  Theorem 1: first find the maximum throughput ``T*``, then minimise
  ``sum_e penalty[e] * flow[e]`` subject to throughput ``>= T*``.
  This is exactly "min-cost max-flow" generalised to many commodities;
* **max concurrent flow** — maximise ``lambda`` with every commodity
  served ``lambda * volume`` (the classic fairness LP).

Matrices are assembled sparse (COO) — an augmented 21-node backbone with
~420 commodities stays comfortably within HiGHS territory.
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
from repro.te.solution import EPSILON, FlowAssignment, TeSolution


@dataclass(frozen=True)
class LpOutcome:
    """A solved LP: the TE solution plus solver metadata."""

    solution: TeSolution
    objective_value: float
    status: str
    #: for max_concurrent_flow: the common satisfaction fraction
    concurrency: float | None = None
    #: the raw solver vector (excluded from equality: replaying it
    #: through :meth:`MultiCommodityLp._extract` is how the incremental
    #: layer memoizes exact solutions without re-solving)
    x: np.ndarray | None = field(default=None, compare=False, repr=False)


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
        self._link_index = {l.link_id: i for i, l in enumerate(self.links)}
        self._node_index = {n: i for i, n in enumerate(self.nodes)}
        self.n_links = len(self.links)
        self.n_demands = len(self.demands)
        # x variables: commodity-major layout; t variables appended
        self.n_flow_vars = self.n_demands * self.n_links
        # per-link index arrays: all constraint blocks are assembled from
        # these with numpy broadcasting instead of per-(k, e) Python loops
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
        # constraint blocks are identical across the solve methods (and
        # across both phases of the Theorem-1 program), so build each once
        self._conservation_cache: tuple[sparse.coo_matrix, np.ndarray] | None = None
        self._capacity_cache: tuple[sparse.coo_matrix, np.ndarray] | None = None
        self._penalty_cache: np.ndarray | None = None
        # the CSR conversions linprog needs are deterministic and as
        # reusable as the COO blocks themselves; cache them alongside
        self._conservation_csr: sparse.csr_matrix | None = None
        self._capacity_csr: sparse.csr_matrix | None = None

    def rebind(self, topology: Topology) -> None:
        """Re-point this assembled LP at a structurally identical topology.

        The caller (see :mod:`repro.te.incremental`) guarantees
        ``topology`` has the same nodes and the same links — ids,
        endpoints, insertion order — as the instance was built from;
        only per-link capacities and penalties may differ.  The capacity
        RHS is rewritten in place (O(n_links)) and the penalty vector is
        dropped for lazy rebuild; every assembled constraint block and
        its CSR form is reused as-is, so a rebound instance solves with
        matrices value-identical to fresh assembly.
        """
        self.topology = topology
        self.links = list(topology.links)
        if self._capacity_cache is not None:
            b_ub = self._capacity_cache[1]
            b_ub[:] = [l.capacity_gbps for l in self.links]
        self._penalty_cache = None

    # -- variable layout --------------------------------------------------

    def _x(self, k: int, e: int) -> int:
        return k * self.n_links + e

    def _t(self, k: int) -> int:
        return self.n_flow_vars + k

    @property
    def n_vars(self) -> int:
        return self.n_flow_vars + self.n_demands

    # -- constraint blocks --------------------------------------------------

    def _conservation(self) -> tuple[sparse.coo_matrix, np.ndarray]:
        """A_eq x = 0 rows: one per (commodity, node).

        Assembled once per instance as four COO blocks built with index
        arithmetic (+1 at each link's source row, -1 at its destination
        row, -/+1 tying t_k to its commodity's source/sink); every solve
        method reuses the cached matrix.
        """
        if self._conservation_cache is None:
            with _metrics.timer("lp.assemble.conservation"):
                n_k, n_e = self.n_demands, self.n_links
                n_n = len(self.nodes)
                k = np.arange(n_k, dtype=np.int64)
                e = np.arange(n_e, dtype=np.int64)
                flow_cols = (k[:, None] * n_e + e[None, :]).ravel()
                out_rows = (k[:, None] * n_n + self._link_src[None, :]).ravel()
                in_rows = (k[:, None] * n_n + self._link_dst[None, :]).ravel()
                d_src = np.fromiter(
                    (self._node_index[d.src] for d in self.demands),
                    dtype=np.int64,
                    count=n_k,
                )
                d_dst = np.fromiter(
                    (self._node_index[d.dst] for d in self.demands),
                    dtype=np.int64,
                    count=n_k,
                )
                rows = np.concatenate(
                    [out_rows, in_rows, k * n_n + d_src, k * n_n + d_dst]
                )
                cols = np.concatenate(
                    [flow_cols, flow_cols, self.n_flow_vars + k, self.n_flow_vars + k]
                )
                vals = np.concatenate(
                    [
                        np.ones(n_k * n_e),
                        -np.ones(n_k * n_e),
                        -np.ones(n_k),
                        np.ones(n_k),
                    ]
                )
                a_eq = sparse.coo_matrix(
                    (vals, (rows, cols)), shape=(n_k * n_n, self.n_vars)
                )
                self._conservation_cache = (a_eq, np.zeros(n_k * n_n))
        return self._conservation_cache

    def _capacity(self) -> tuple[sparse.coo_matrix, np.ndarray]:
        """A_ub x <= cap rows: one per link, summed over commodities."""
        if self._capacity_cache is None:
            with _metrics.timer("lp.assemble.capacity"):
                n_k, n_e = self.n_demands, self.n_links
                k = np.arange(n_k, dtype=np.int64)
                e = np.arange(n_e, dtype=np.int64)
                rows = np.tile(e, n_k)
                cols = (k[:, None] * n_e + e[None, :]).ravel()
                a_ub = sparse.coo_matrix(
                    (np.ones(n_k * n_e), (rows, cols)),
                    shape=(n_e, self.n_vars),
                )
                b_ub = np.array([l.capacity_gbps for l in self.links])
                self._capacity_cache = (a_ub, b_ub)
        return self._capacity_cache

    def _conservation_matrix(self) -> sparse.csr_matrix:
        """The conservation block in the CSR form linprog consumes."""
        if self._conservation_csr is None:
            self._conservation_csr = self._conservation()[0].tocsr()
        return self._conservation_csr

    def _capacity_matrix(self) -> sparse.csr_matrix:
        """The capacity block in the CSR form linprog consumes."""
        if self._capacity_csr is None:
            self._capacity_csr = self._capacity()[0].tocsr()
        return self._capacity_csr

    def _bounds(self, *, cap_throughput: bool = True) -> list[tuple[float, float | None]]:
        bounds: list[tuple[float, float | None]] = [
            (0.0, None) for _ in range(self.n_flow_vars)
        ]
        for demand in self.demands:
            upper = demand.volume_gbps if cap_throughput else None
            bounds.append((0.0, upper))
        return bounds

    def _penalty_vector(self) -> np.ndarray:
        """Per-variable penalty costs (a fresh copy — callers mutate it)."""
        if self._penalty_cache is None:
            per_link = np.fromiter(
                (l.penalty for l in self.links), dtype=float, count=self.n_links
            )
            c = np.zeros(self.n_vars)
            c[: self.n_flow_vars] = np.tile(per_link, self.n_demands)
            self._penalty_cache = c
        return self._penalty_cache.copy()

    # -- solves -------------------------------------------------------------

    def _run(self, c, a_ub, b_ub, a_eq, b_eq, bounds):
        with _metrics.timer(
            "lp.solve", n_vars=len(c), n_demands=self.n_demands
        ):
            result = linprog(
                c,
                A_ub=a_ub.tocsr(),
                b_ub=b_ub,
                A_eq=a_eq.tocsr(),
                b_eq=b_eq,
                bounds=bounds,
                method="highs",
            )
        if not result.success:
            raise RuntimeError(f"LP failed: {result.message}")
        return result

    def _extract(self, x: np.ndarray) -> TeSolution:
        """Read a solver vector back into a TeSolution.

        The flow block is scanned as one (n_demands, n_links) array; only
        the entries above EPSILON (a handful per commodity) are touched in
        Python.
        """
        flows = np.asarray(x[: self.n_flow_vars]).reshape(
            self.n_demands, self.n_links
        )
        t_vals = np.asarray(x[self.n_flow_vars : self.n_flow_vars + self.n_demands])
        edge_flows: list[dict[str, float]] = [{} for _ in range(self.n_demands)]
        # one mask drops the near-zero flows; nonzero gives the surviving
        # (commodity, link) pairs in row-major order, and one fancy-index
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
        b_eq = self._conservation()[1]
        b_ub = self._capacity()[1]
        c = penalty_weight * self._penalty_vector()
        # tiny per-unit-flow cost keeps solutions off pointless cycles
        c[: self.n_flow_vars] += 1e-9
        c[self.n_flow_vars :] = -1.0  # linprog minimises; t vars fill the tail
        result = self._run(
            c,
            self._capacity_matrix(),
            b_ub,
            self._conservation_matrix(),
            b_eq,
            self._bounds(),
        )
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

        b_eq = self._conservation()[1]
        b_ub = self._capacity()[1]
        # extra row: -sum_k t_k <= -(T* - eps)
        extra = sparse.coo_matrix(
            (
                -np.ones(self.n_demands),
                (
                    np.zeros(self.n_demands, dtype=np.int64),
                    self.n_flow_vars + np.arange(self.n_demands, dtype=np.int64),
                ),
            ),
            shape=(1, self.n_vars),
        )
        slack = max(1e-7 * max(t_star, 1.0), 1e-9)
        a_ub_full = sparse.vstack([self._capacity_matrix(), extra])
        b_ub_full = np.concatenate([b_ub, [-(t_star - slack)]])
        c = self._penalty_vector()
        # tiny tie-break keeps flow off zero-penalty cycles
        c[: self.n_flow_vars] += 1e-9
        result = self._run(
            c, a_ub_full, b_ub_full, self._conservation_matrix(), b_eq, self._bounds()
        )
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
        n = self.n_vars + 1  # mu (the MLU) is the last variable
        mu = self.n_vars

        a_eq_base, _ = self._conservation()
        a_eq_base = sparse.coo_matrix(
            (a_eq_base.data, (a_eq_base.row, a_eq_base.col)),
            shape=(a_eq_base.shape[0], n),
        )
        # pin every commodity at full demand: t_k = d_k
        k = np.arange(self.n_demands, dtype=np.int64)
        pin = sparse.coo_matrix(
            (np.ones(self.n_demands), (k, self.n_flow_vars + k)),
            shape=(self.n_demands, n),
        )
        a_eq = sparse.vstack([a_eq_base, pin])
        b_eq = np.concatenate(
            [
                np.zeros(a_eq_base.shape[0]),
                [d.volume_gbps for d in self.demands],
            ]
        )

        # capacity rows become: sum_k x_ke - cap_e * mu <= 0
        cap, cap_b = self._capacity()
        mu_col = sparse.coo_matrix(
            (-cap_b, (list(range(self.n_links)), [mu] * self.n_links)),
            shape=(self.n_links, n),
        )
        cap = sparse.coo_matrix(
            (cap.data, (cap.row, cap.col)), shape=(self.n_links, n)
        )
        a_ub = (cap + mu_col).tocoo()
        b_ub = np.zeros(self.n_links)

        bounds = self._bounds(cap_throughput=False)
        bounds.append((0.0, None))  # mu free upward: report oversubscription
        c = np.zeros(n)
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
        n = self.n_vars + 1  # lambda is the last variable
        lam = self.n_vars

        a_eq_base, _ = self._conservation()
        a_eq_base = sparse.coo_matrix(
            (a_eq_base.data, (a_eq_base.row, a_eq_base.col)),
            shape=(a_eq_base.shape[0], n),
        )
        k = np.arange(self.n_demands, dtype=np.int64)
        volumes = np.fromiter(
            (d.volume_gbps for d in self.demands), dtype=float, count=self.n_demands
        )
        tie = sparse.coo_matrix(
            (
                np.concatenate([np.ones(self.n_demands), -volumes]),
                (
                    np.concatenate([k, k]),
                    np.concatenate(
                        [self.n_flow_vars + k, np.full(self.n_demands, lam)]
                    ),
                ),
            ),
            shape=(self.n_demands, n),
        )
        a_eq = sparse.vstack([a_eq_base, tie])
        b_eq = np.zeros(a_eq.shape[0])

        a_ub, b_ub = self._capacity()
        a_ub = sparse.coo_matrix(
            (a_ub.data, (a_ub.row, a_ub.col)), shape=(self.n_links, n)
        )

        bounds = self._bounds(cap_throughput=False)
        bounds.append((0.0, 1.0 if cap_at_one else None))

        c = np.zeros(n)
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
