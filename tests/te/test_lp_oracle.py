"""Differential oracle: the source-aggregated LP against the per-demand LP.

:class:`~repro.te.lp.MultiCommodityLp` carries one flow block per
source node; :class:`tests.te.per_demand_lp.PerDemandLp` is the frozen
per-demand formulation it replaced.  On hypothesis-drawn WANs, static
and augmented, every objective must reach the same optimum, and every
source-aggregated solution must be feasible once split per demand.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.augmentation import augment_topology
from repro.core.penalties import ConstantPenalty
from repro.net.demands import Demand, gravity_demands
from repro.net.topologies import abilene, figure7_topology, random_wan
from repro.te.lp import MultiCommodityLp
from tests.te.per_demand_lp import PerDemandLp

HEADROOM_STEPS = [25.0, 50.0, 100.0]
REL = 1e-9


def _instance(family: str, seed: int, augmented: bool, penalty: float):
    rng = np.random.default_rng(seed)
    if family == "random_wan":
        topo = random_wan(int(rng.integers(4, 9)), rng)
    elif family == "abilene":
        topo = abilene()
    else:
        topo = figure7_topology()
    for link in list(topo.links):
        if rng.random() < 0.6:
            topo.replace_link(
                link.link_id, headroom_gbps=float(rng.choice(HEADROOM_STEPS))
            )
    demands = gravity_demands(
        topo, float(rng.uniform(200.0, 5000.0)), rng, sparsity=0.4
    )
    if augmented:
        topo = augment_topology(
            topo, penalty_policy=ConstantPenalty(penalty)
        ).topology
    return topo, demands


def _agree(ours, reference):
    assert ours.objective_value == pytest.approx(
        reference.objective_value, rel=REL, abs=REL
    )
    assert ours.solution.total_allocated_gbps == pytest.approx(
        reference.solution.total_allocated_gbps, rel=REL, abs=REL
    )
    assert ours.solution.violations() == []


@settings(max_examples=20, deadline=None)
@given(
    family=st.sampled_from(["random_wan", "abilene", "figure7"]),
    seed=st.integers(min_value=0, max_value=10_000),
    augmented=st.booleans(),
    penalty=st.floats(min_value=0.0, max_value=200.0),
)
def test_objectives_match_per_demand_lp(family, seed, augmented, penalty):
    topo, demands = _instance(family, seed, augmented, penalty)
    ours, reference = MultiCommodityLp(topo, demands), PerDemandLp(topo, demands)
    assert ours.n_flow_vars <= reference.n_flow_vars

    _agree(ours.max_throughput(), reference.max_throughput())
    _agree(
        ours.min_penalty_at_max_throughput(),
        reference.min_penalty_at_max_throughput(),
    )
    fair = ours.max_concurrent_flow()
    _agree(fair, reference.max_concurrent_flow())
    # half the common fraction fits with room to spare, so every link
    # stays below capacity and the solution must audit clean
    fits = [
        Demand(d.src, d.dst, 0.5 * fair.objective_value * d.volume_gbps)
        for d in demands
    ]
    _agree(
        MultiCommodityLp(topo, fits).min_max_utilization(),
        PerDemandLp(topo, fits).min_max_utilization(),
    )


def test_split_keeps_per_link_totals():
    """Per-demand flows sum back to the LP's per-source aggregate."""
    topo = abilene()
    demands = gravity_demands(topo, 4000.0, np.random.default_rng(3))
    lp = MultiCommodityLp(topo, demands)
    outcome = lp.min_penalty_at_max_throughput()
    aggregate = outcome.x[: lp.n_flow_vars].reshape(lp.n_sources, lp.n_links)
    kept = np.where(aggregate > 1e-6, aggregate, 0.0).sum(axis=0)
    for e, link in enumerate(lp.links):
        assert outcome.solution.link_flow(link.link_id) == pytest.approx(
            kept[e], rel=1e-12, abs=1e-6
        )
