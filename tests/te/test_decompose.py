"""Tests for flow decomposition (edge flows -> tunnels)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.demands import Demand, gravity_demands
from repro.net.topologies import abilene, figure7_topology, random_wan
from repro.net.topology import Topology
from repro.te.decompose import (
    decompose_assignment,
    decompose_solution,
    split_source_flows,
)
from repro.te.lp import MultiCommodityLp
from repro.te.solution import FlowAssignment


class TestSimpleCases:
    def test_single_path(self):
        topo = Topology()
        a = topo.add_link("A", "B", 100.0, link_id="ab")
        b = topo.add_link("B", "C", 100.0, link_id="bc")
        assignment = FlowAssignment(
            Demand("A", "C", 40.0), 40.0, {"ab": 40.0, "bc": 40.0}
        )
        dec = decompose_assignment(topo, assignment)
        assert len(dec.paths) == 1
        assert dec.paths[0].rate_gbps == pytest.approx(40.0)
        assert dec.paths[0].path.nodes == ("A", "B", "C")
        assert dec.cycle_flow_gbps == pytest.approx(0.0)

    def test_two_parallel_paths(self):
        topo = figure7_topology()
        lp = MultiCommodityLp(topo, [Demand("A", "D", 200.0)])
        solution = lp.max_throughput().solution
        dec = decompose_assignment(topo, solution.assignments[0])
        assert dec.total_rate_gbps == pytest.approx(200.0, abs=0.1)
        assert len(dec.paths) == 2  # A-B-D and A-C-D

    def test_zero_flow(self):
        topo = figure7_topology()
        assignment = FlowAssignment(Demand("A", "D", 10.0), 0.0, {})
        dec = decompose_assignment(topo, assignment)
        assert dec.paths == ()
        assert dec.total_rate_gbps == 0.0

    def test_paths_are_simple_and_connected(self):
        topo = abilene()
        demands = gravity_demands(topo, 2000.0, np.random.default_rng(0))
        solution = MultiCommodityLp(topo, demands).max_throughput().solution
        for dec in decompose_solution(solution).values():
            for pf in dec.paths:
                nodes = pf.path.nodes
                assert len(set(nodes)) == len(nodes)


class TestConservationProperty:
    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=400))
    def test_tunnel_rates_sum_to_allocation(self, seed):
        """Decomposition must account for (almost) all allocated flow."""
        rng = np.random.default_rng(seed)
        topo = random_wan(6, rng)
        demands = gravity_demands(topo, 700.0, rng, sparsity=0.6)
        solution = MultiCommodityLp(topo, demands).max_throughput().solution
        for i, dec in decompose_solution(solution).items():
            allocated = solution.assignments[i].allocated_gbps
            assert dec.total_rate_gbps == pytest.approx(allocated, abs=0.02)
            # LP cycle suppression: no stranded circulation
            assert dec.cycle_flow_gbps < 0.5

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=400))
    def test_tunnels_start_and_end_correctly(self, seed):
        rng = np.random.default_rng(seed)
        topo = random_wan(5, rng)
        demands = gravity_demands(topo, 400.0, rng, sparsity=0.5)
        solution = MultiCommodityLp(topo, demands).max_throughput().solution
        for i, dec in decompose_solution(solution).items():
            demand = solution.assignments[i].demand
            for pf in dec.paths:
                assert pf.path.src == demand.src
                assert pf.path.dst == demand.dst


def _split(links, flows, demands, n_nodes):
    """split_source_flows on one source block (node 0) given as lists."""
    src = np.array([u for u, _ in links])
    dst = np.array([v for _, v in links])
    return split_source_flows(
        np.array([flows], dtype=float),
        np.array([vol for _, vol in demands], dtype=float),
        demand_block=np.zeros(len(demands), dtype=np.int64),
        demand_dst=np.array([sink for sink, _ in demands]),
        link_src=src,
        link_dst=dst,
        n_nodes=n_nodes,
    )


class TestSplitSourceFlows:
    """Per-source flow blocks split into per-demand flows."""

    def test_tree_splits_by_sink(self):
        # 0 -> 1 carries both demands; 1 -> 2 and 1 -> 3 one each
        split = _split([(0, 1), (1, 2), (1, 3)], [30.0, 10.0, 20.0],
                       [(2, 10.0), (3, 20.0)], 4)
        np.testing.assert_allclose(split, [[10, 10, 0], [20, 0, 20]])

    def test_same_pair_splits_by_volume(self):
        split = _split([(0, 1), (1, 2)], [10.0, 10.0], [(2, 4.0), (2, 6.0)], 3)
        np.testing.assert_allclose(split, [[4, 4], [6, 6]])

    def test_cycle_on_the_way_stays_with_the_demand(self):
        split = _split([(0, 1), (1, 0), (1, 2)], [15.0, 5.0, 10.0],
                       [(2, 10.0)], 3)
        np.testing.assert_allclose(split, [[15, 5, 10]])

    def test_stranded_circulation_goes_to_one_demand(self):
        # 3 <-> 4 circulate 5 Gbps and reach no sink: neither dropped
        # nor spread, it all lands on the block's first demand
        links = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 3)]
        split = _split(links, [10.0, 10.0, 5.0, 5.0, 5.0],
                       [(2, 10.0), (1, 0.0), (2, 5.0)], 5)
        np.testing.assert_allclose(split.sum(axis=0), [10, 10, 5, 5, 5])
        np.testing.assert_allclose(split[0, 3:], [5, 5])
        np.testing.assert_allclose(split[1:, 3:], 0)
        np.testing.assert_allclose(split[1], 0)

    def test_dust_shares_fold_into_the_largest(self):
        # the 1e-7 Gbps demand's shares are dust: the other demand keeps
        # the whole link total
        split = _split([(0, 1), (1, 2)], [10.0, 10.0], [(2, 10.0 - 1e-7), (2, 1e-7)], 3)
        np.testing.assert_array_equal(split[1], [0.0, 0.0])
        np.testing.assert_allclose(split[0], [10.0, 10.0], rtol=0, atol=1e-12)

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=400))
    def test_lp_solutions_split_feasibly(self, seed):
        rng = np.random.default_rng(seed)
        topo = random_wan(7, rng)
        demands = gravity_demands(topo, 3000.0, rng)
        lp = MultiCommodityLp(topo, demands)
        outcome = lp.min_penalty_at_max_throughput()
        assert outcome.solution.violations(tolerance=1e-6) == []
        # splitting is deterministic: a replayed vector is bit-identical
        again = lp._extract(outcome.x)
        assert [a.edge_flows for a in again.assignments] == [
            a.edge_flows for a in outcome.solution.assignments
        ]
