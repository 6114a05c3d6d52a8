"""Vectorized LP assembly must reproduce a loop-based assembly.

``_SeedAssembly`` below builds the source-aggregated constraint blocks
with a plain per-(source, link) Python loop.  The tests check the
vectorized builder structurally against it (identical dense constraint
matrices) and check all four objectives against the frozen per-demand
LP (:class:`tests.te.per_demand_lp.PerDemandLp`), plus the memoization
contract: the two-phase Theorem-1 program assembles
conservation/capacity exactly once.
"""

import numpy as np
import pytest
from scipy import sparse

from repro.net.demands import Demand, gravity_demands
from repro.net.topologies import abilene, figure7_topology, random_wan
from repro.net.topology import Topology
from repro.te.lp import MultiCommodityLp
from tests.te.per_demand_lp import PerDemandLp


class _SeedAssembly:
    """Loop-based source-aggregated constraint assembly, the oracle.

    Flow variable ``x[s, e]`` sits at ``s * n_links + e`` for the
    ``s``-th source node (in node order); ``t[k]`` follows all of them.
    """

    def __init__(self, lp: MultiCommodityLp):
        self.lp = lp
        self.nodes = list(lp.topology.nodes)
        self.sources = [n for n in self.nodes if any(d.src == n for d in lp.demands)]
        self.n_flow_vars = len(self.sources) * len(lp.links)
        self.n_vars = self.n_flow_vars + len(lp.demands)

    def _x(self, s: int, e: int) -> int:
        return s * len(self.lp.links) + e

    def _t(self, k: int) -> int:
        return self.n_flow_vars + k

    def conservation(self):
        lp, nodes = self.lp, self.nodes
        rows, cols, vals = [], [], []
        for s, source in enumerate(self.sources):
            base = s * len(nodes)
            for e, link in enumerate(lp.links):
                rows.append(base + nodes.index(link.src))
                cols.append(self._x(s, e))
                vals.append(1.0)
                rows.append(base + nodes.index(link.dst))
                cols.append(self._x(s, e))
                vals.append(-1.0)
            for k, demand in enumerate(lp.demands):
                if demand.src != source:
                    continue
                rows.append(base + nodes.index(demand.src))
                cols.append(self._t(k))
                vals.append(-1.0)
                rows.append(base + nodes.index(demand.dst))
                cols.append(self._t(k))
                vals.append(1.0)
        return sparse.coo_matrix(
            (vals, (rows, cols)),
            shape=(len(self.sources) * len(nodes), self.n_vars),
        )

    def capacity(self):
        lp = self.lp
        rows, cols, vals = [], [], []
        for e in range(len(lp.links)):
            for s in range(len(self.sources)):
                rows.append(e)
                cols.append(self._x(s, e))
                vals.append(1.0)
        return sparse.coo_matrix(
            (vals, (rows, cols)), shape=(len(lp.links), self.n_vars)
        )

    def penalty_vector(self):
        lp = self.lp
        c = np.zeros(self.n_vars)
        for e, link in enumerate(lp.links):
            if link.penalty:
                for s in range(len(self.sources)):
                    c[self._x(s, e)] = link.penalty
        return c


def _penalized_topology() -> Topology:
    topo = Topology()
    topo.add_link("A", "B", 100.0, link_id="free")
    topo.add_link("A", "B", 100.0, link_id="paid", penalty=10.0)
    topo.add_link("B", "C", 150.0, link_id="bc", penalty=2.5)
    topo.add_link("A", "C", 60.0, link_id="ac")
    return topo


def _instances():
    rng = np.random.default_rng(7)
    wan = random_wan(6, rng)
    return [
        (figure7_topology(), [Demand("A", "D", 300.0), Demand("C", "B", 120.0)]),
        (
            _penalized_topology(),
            [Demand("A", "C", 180.0), Demand("A", "B", 60.0)],
        ),
        (wan, gravity_demands(wan, 600.0, rng, sparsity=0.5)),
    ]


@pytest.mark.parametrize("topo,demands", _instances())
class TestMatricesMatchSeed:
    def test_conservation(self, topo, demands):
        lp = MultiCommodityLp(topo, demands)
        a_eq, b_eq = lp._conservation()
        seed = _SeedAssembly(lp).conservation()
        np.testing.assert_array_equal(a_eq.toarray(), seed.toarray())
        np.testing.assert_array_equal(b_eq, np.zeros(seed.shape[0]))

    def test_capacity(self, topo, demands):
        lp = MultiCommodityLp(topo, demands)
        a_ub, b_ub = lp._capacity()
        seed = _SeedAssembly(lp).capacity()
        np.testing.assert_array_equal(a_ub.toarray(), seed.toarray())
        np.testing.assert_array_equal(
            b_ub, np.array([l.capacity_gbps for l in lp.links])
        )

    def test_penalty_vector(self, topo, demands):
        lp = MultiCommodityLp(topo, demands)
        np.testing.assert_array_equal(
            lp._penalty_vector(), _SeedAssembly(lp).penalty_vector()
        )


@pytest.mark.parametrize("topo,demands", _instances())
class TestObjectivesMatchSeed:
    """All four objectives agree with the frozen per-demand LP to 1e-9."""

    def test_max_throughput(self, topo, demands):
        ours = MultiCommodityLp(topo, demands).max_throughput()
        seed = PerDemandLp(topo, demands).max_throughput()
        assert ours.objective_value == pytest.approx(
            seed.objective_value, rel=1e-9
        )

    def test_min_penalty_at_max_throughput(self, topo, demands):
        ours = MultiCommodityLp(topo, demands).min_penalty_at_max_throughput()
        seed = PerDemandLp(topo, demands).min_penalty_at_max_throughput()
        assert ours.objective_value == pytest.approx(
            seed.objective_value, rel=1e-9, abs=1e-9
        )
        assert ours.solution.total_allocated_gbps == pytest.approx(
            seed.solution.total_allocated_gbps, rel=1e-9
        )

    def test_min_max_utilization(self, topo, demands):
        scaled = [
            Demand(d.src, d.dst, 0.1 * d.volume_gbps) for d in demands
        ]  # keep every instance feasible at full service
        ours = MultiCommodityLp(topo, scaled).min_max_utilization()
        seed = PerDemandLp(topo, scaled).min_max_utilization()
        assert ours.objective_value == pytest.approx(
            seed.objective_value, rel=1e-9
        )

    def test_max_concurrent_flow(self, topo, demands):
        ours = MultiCommodityLp(topo, demands).max_concurrent_flow()
        seed = PerDemandLp(topo, demands).max_concurrent_flow()
        assert ours.objective_value == pytest.approx(
            seed.objective_value, rel=1e-9
        )


class TestMemoization:
    def test_blocks_assembled_once(self):
        lp = MultiCommodityLp(
            figure7_topology(), [Demand("A", "D", 300.0)]
        )
        a1, b1 = lp._conservation()
        a2, b2 = lp._conservation()
        assert a1 is a2 and b1 is b2
        c1, _ = lp._capacity()
        c2, _ = lp._capacity()
        assert c1 is c2

    def test_two_phase_assembles_once(self):
        from repro.obs import metrics

        with metrics.isolated() as reg:
            lp = MultiCommodityLp(
                _penalized_topology(), [Demand("A", "C", 180.0)]
            )
            lp.min_penalty_at_max_throughput()
        assert reg.get_summary("lp.assemble.conservation").count == 1
        assert reg.get_summary("lp.assemble.capacity").count == 1
        # ... and both phases actually solved
        assert reg.get_summary("lp.solve").count == 2

    def test_penalty_vector_returns_fresh_copy(self):
        lp = MultiCommodityLp(
            _penalized_topology(), [Demand("A", "C", 10.0)]
        )
        c = lp._penalty_vector()
        c[:] = -123.0
        assert not np.array_equal(lp._penalty_vector(), c)


class TestAbileneRegression:
    """A mid-size instance: results must stay consistent end-to-end."""

    def test_throughput_and_fairness_consistent(self):
        topo = abilene()
        demands = gravity_demands(topo, 5000.0, np.random.default_rng(0))
        lp = MultiCommodityLp(topo, demands)
        through = lp.max_throughput()
        fair = lp.max_concurrent_flow()
        assert through.solution.is_valid()
        assert fair.solution.is_valid()
        assert fair.solution.total_allocated_gbps <= through.objective_value + 1e-6
