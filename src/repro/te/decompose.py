"""Flow decomposition: source flows -> demand flows -> path (tunnel) flows.

The LP allocators return per-edge flows, but SWAN and B4 program the
network as *tunnels* — explicit paths with rates.  The classical flow
decomposition theorem says any conservation-respecting edge flow of
value ``v`` splits into at most ``|E|`` simple paths (plus cycles,
which carry no value and are discarded).  This module performs that
decomposition so LP output can drive a tunnel-based data plane, and so
tests can check the two representations agree.

One step comes before it: the node-arc LP carries one flow block per
*source node*, and :func:`split_source_flows` splits each block into
the per-demand edge flows every :class:`TeSolution` holds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.net.paths import LinkPath
from repro.net.topology import Topology
from repro.te.solution import EPSILON, FlowAssignment, TeSolution


@dataclass(frozen=True)
class PathFlow:
    """One tunnel: a path and the rate assigned to it."""

    path: LinkPath
    rate_gbps: float

    def __post_init__(self) -> None:
        if self.rate_gbps <= 0:
            raise ValueError("a tunnel must carry positive rate")


@dataclass(frozen=True)
class Decomposition:
    """The tunnels of one demand, plus any cycle flow that was dropped."""

    paths: tuple[PathFlow, ...]
    cycle_flow_gbps: float

    @property
    def total_rate_gbps(self) -> float:
        return sum(p.rate_gbps for p in self.paths)


def decompose_assignment(
    topology: Topology, assignment: FlowAssignment
) -> Decomposition:
    """Split one demand's edge flows into simple tunnels.

    Repeatedly walks from the source along positive-residual edges to
    the sink (always taking the locally largest residual, which keeps
    the tunnel count small in practice), peels off the bottleneck rate,
    and stops when the source has no outgoing flow left.  Remaining
    flow is cyclic and reported, not silently dropped.
    """
    residual = {
        link_id: flow
        for link_id, flow in assignment.edge_flows.items()
        if flow > EPSILON
    }
    src, dst = assignment.demand.src, assignment.demand.dst
    paths: list[PathFlow] = []

    while True:
        path_links = _walk(topology, residual, src, dst)
        if path_links is None:
            break
        rate = min(residual[l.link_id] for l in path_links)
        for link in path_links:
            residual[link.link_id] -= rate
            if residual[link.link_id] <= EPSILON:
                del residual[link.link_id]
        paths.append(PathFlow(LinkPath(tuple(path_links)), rate))

    cycle_flow = sum(residual.values())
    return Decomposition(paths=tuple(paths), cycle_flow_gbps=cycle_flow)


def _walk(topology, residual, src, dst):
    """One simple src->dst path through the residual support, or None."""
    if not residual:
        return None
    path = []
    node = src
    visited = {src}
    while node != dst:
        candidates = [
            l
            for l in topology.out_links(node)
            if residual.get(l.link_id, 0.0) > EPSILON and l.dst not in visited
        ]
        if not candidates:
            if not path:
                return None
            # dead end: back up one hop and forbid re-entering it
            dead = path.pop()
            # removing from residual would lose flow accounting; instead
            # mark via visited (the dead node stays excluded)
            node = dead.src
            continue
        best = max(candidates, key=lambda l: residual[l.link_id])
        path.append(best)
        node = best.dst
        visited.add(node)
    return path if path else None


def decompose_solution(
    solution: TeSolution,
) -> dict[int, Decomposition]:
    """Decompose every assignment; keys are assignment indices."""
    return {
        i: decompose_assignment(solution.topology, a)
        for i, a in enumerate(solution.assignments)
    }


def split_source_flows(
    flows: np.ndarray,
    volumes: np.ndarray,
    *,
    demand_block: np.ndarray,
    demand_dst: np.ndarray,
    link_src: np.ndarray,
    link_dst: np.ndarray,
    n_nodes: int,
) -> np.ndarray:
    """Split per-source link flows into per-demand link flows.

    ``flows[b, e]`` is the flow on link ``e`` sourced at block ``b``'s
    node; ``volumes[k] >= 0`` is demand ``k``'s throughput, absorbed at
    node ``demand_dst[k]``; ``demand_block[k]`` is its source's block.
    Link endpoints and sinks are node indices below ``n_nodes``.
    Returns the ``(n_demands, n_links)`` per-demand flows.

    The split is proportional.  Within a block, flow leaving node ``v``
    takes each out-link, or is absorbed at ``v``, in proportion to the
    flow doing so; ``h[v, j]``, the chance that flow at ``v`` ends at
    sink ``j``, solves one small linear system, and sink ``j``'s share
    of link ``e`` is ``flows[b, e] * h[dst(e), j]``.  Because the block
    conserves flow, each share conserves flow too, with the source
    emitting and sink ``j`` absorbing what ends at ``j``.  Demands that
    share a (source, sink) pair split that sink's share by volume.

    Nothing is dropped.  Block flows at or below EPSILON count as zero,
    as they would per demand.  Per-demand shares at or below EPSILON
    and rounding error go to one demand on that link: the first one
    toward its likeliest sink.  A circulation that reaches no sink (a
    solver-tolerance cycle) goes whole to the block's first demand,
    which a circulation leaves balanced.  Each block's per-link total
    therefore equals its flow.  The computation is a fixed
    sequence of numpy operations, so a replayed vector splits
    bit-identically.
    """
    n_blocks, n_links = flows.shape
    n_demands = len(volumes)
    f = np.where(flows > EPSILON, flows, 0.0)
    absorb = np.bincount(
        demand_block * n_nodes + demand_dst,
        weights=volumes,
        minlength=n_blocks * n_nodes,
    ).reshape(n_blocks, n_nodes)
    # w[b, u, v]: block b's flow from u to v, parallel links summed
    cell = (link_src * n_nodes + link_dst)[None, :] + (
        np.arange(n_blocks)[:, None] * n_nodes * n_nodes
    )
    w = np.bincount(
        cell.ravel(), weights=f.ravel(), minlength=n_blocks * n_nodes * n_nodes
    ).reshape(n_blocks, n_nodes, n_nodes)
    out = w.sum(axis=2) + absorb
    # nodes with a positive-flow route to a sink; the others hold only
    # closed circulations, which would make the system singular
    live = absorb > 0
    positive = w > 0
    while True:
        grown = live | (positive & live[:, None, :]).any(axis=2)
        if np.array_equal(grown, live):
            break
        live = grown
    scale = np.where(live, 1.0 / np.where(out > 0, out, 1.0), 0.0)
    step = w * scale[:, :, None]
    ends = absorb * scale
    h = _absorption(step, ends)

    pair_volume = absorb[demand_block, demand_dst]
    fraction = np.divide(
        volumes,
        pair_volume,
        out=np.zeros(n_demands),
        where=pair_volume > 0,
    )
    split = (
        f[demand_block]
        * h[demand_block[:, None], link_dst[None, :], demand_dst[:, None]]
        * fraction[:, None]
    )
    split = np.where(split > EPSILON, split, 0.0)

    # what the shares miss of each block's flow goes to one demand: the
    # lowest-indexed demand to the link's likeliest sink, or the
    # block's first demand when no sink is reachable
    kept = np.bincount(
        (demand_block[:, None] * n_links + np.arange(n_links)).ravel(),
        weights=split.ravel(),
        minlength=n_blocks * n_links,
    ).reshape(n_blocks, n_links)
    index = np.arange(n_demands)
    pair_first = np.full((n_blocks, n_nodes), n_demands)
    np.minimum.at(pair_first, (demand_block, demand_dst), index)
    block_first = np.full(n_blocks, n_demands)
    np.minimum.at(block_first, demand_block, index)
    toward = h[:, link_dst, :]
    likeliest = toward.argmax(axis=2)
    reaches = toward.max(axis=2) > 0
    blocks = np.arange(n_blocks)[:, None]
    owner = np.where(reaches, pair_first[blocks, likeliest], block_first[:, None])
    split[owner, np.arange(n_links)[None, :]] += f - kept
    return split


def _absorption(step: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """Solve ``(I - step[b]) h[b] = diag(ends[b])`` for every block ``b``.

    ``step`` is substochastic and every row it leaves nonzero reaches a
    row with ``ends > 0``, so ``I - step`` is a nonsingular M-matrix and
    Gauss-Jordan elimination needs no pivoting (every pivot is
    positive).  Elementwise numpy operations instead of LAPACK keep the
    result bit-identical across CPUs, which the byte-compared goldens
    rely on.
    """
    n = step.shape[1]
    eye = np.eye(n)
    # [I - step | diag(ends)], reduced in place to [I | h]; columns left
    # of the pivot are already reduced and skipped
    aug = np.concatenate([eye - step, eye * ends[:, None, :]], axis=2)
    for v in range(n):
        row = aug[:, v, v:] / aug[:, v, v][:, None]
        factor = aug[:, :, v].copy()
        factor[:, v] = 0.0
        aug[:, :, v:] -= factor[:, :, None] * row[:, None, :]
        aug[:, v, v:] = row
    return aug[:, :, n:]
