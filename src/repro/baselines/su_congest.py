"""Su's concurrent (1+ε) algorithm, *distributed* on the simulator.

The paper's "Concurrent Result" section sketches Su's SPAA 2014
approach: sample edges so the minimum cut of the sampled graph drops to
one, find a bridge of the sampled graph (Thurimella), and output the
side it cuts off.  This module implements the whole pipeline as CONGEST
phases, with one twist that strengthens it for free: once the sampled
graph's spanning tree `T_H` is built, running the paper's own
Theorem 2.1 on the *original* graph with tree `T_H` returns
`min_v C_G(v↓)` — at least as good as the single bridge cut Su's
argument promises (the bridge edge is one of the candidates).

Phases per sampling rate:

1. ``su:sample`` — the smaller-id endpoint of every edge draws the
   binomial survival count and tells its neighbour (one message per
   edge; both ends then know the sampled weight);
2. ``su:bfs`` — BFS spanning tree of the *sampled* subgraph from the
   globally known minimum node id (skipped when the sample is
   disconnected — detected because the BFS does not span);
3. Theorem 2.1 on `G` with tree `T_H` (all Steps 1–5, measured).

The best candidate across a geometric rate schedule is returned.  Su's
analysis picks the rate near `Θ(log n/(ε²λ))`; sweeping all
O(log W) rates keeps the algorithm parameter-free at a polylog factor,
mirroring the paper's O~(·) accounting.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from ..errors import AlgorithmError
from ..congest.metrics import RunMetrics
from ..congest.network import CongestNetwork
from ..congest.node import Inbox, NodeContext, NodeProgram
from ..graphs.graph import WeightedGraph, node_order
from ..graphs.trees import RootedTree

DEFAULT_RATE_STEPS = 6


class EdgeSamplingPhase(NodeProgram):
    """Distributed Karger sampling: per-edge binomial survival.

    The smaller-id endpoint owns the coin flips (its private randomness,
    seeded deterministically per edge for reproducibility) and announces
    the surviving weight; afterwards both endpoints' memory maps
    ``su:skel`` hold ``{neighbour: surviving weight}`` (zero-weight
    entries omitted).
    """

    def __init__(self, probability: float, seed: int) -> None:
        if not 0.0 <= probability <= 1.0:
            raise AlgorithmError(f"probability must be in [0, 1], got {probability}")
        self.probability = probability
        self.seed = seed

    def on_start(self, ctx: NodeContext) -> None:
        ctx.memory["su:skel"] = {}
        for v in ctx.neighbors:
            if _owns_edge(ctx.node, v):
                kept = self._draw(ctx.node, v, ctx.edge_weight(v))
                if kept:
                    ctx.memory["su:skel"][v] = float(kept)
                ctx.send(v, "kept", kept)

    def on_round(self, ctx: NodeContext, inbox: Inbox) -> None:
        for src, msg in inbox:
            if msg.kind == "kept" and msg.payload[0]:
                ctx.memory["su:skel"][src] = float(msg.payload[0])

    def _draw(self, u, v, weight: float) -> int:
        units = int(round(weight))
        if abs(units - weight) > 1e-9 or units < 1:
            raise AlgorithmError(
                "distributed sampling needs positive integer weights"
            )
        rng = random.Random(f"{self.seed}:{u}:{v}")
        if self.probability >= 1.0:
            return units
        return sum(1 for _ in range(units) if rng.random() < self.probability)


class SkeletonBFSBuild(NodeProgram):
    """BFS tree over the sampled subgraph only (``su:skel`` edges)."""

    def __init__(self, root) -> None:
        self.root = root
        self._decided = False

    def on_start(self, ctx: NodeContext) -> None:
        ctx.memory["suT:children"] = []
        ctx.memory["suT:parent"] = None
        ctx.memory["suT:reached"] = False
        if ctx.node == self.root:
            self._decided = True
            ctx.memory["suT:reached"] = True
            for v in ctx.memory["su:skel"]:
                ctx.send(v, "sbfs")

    def on_round(self, ctx: NodeContext, inbox: Inbox) -> None:
        for src, msg in inbox:
            if msg.kind == "sadopt":
                ctx.memory["suT:children"].append(src)
        if self._decided:
            return
        offers = [src for src, msg in inbox if msg.kind == "sbfs"]
        if not offers:
            return
        parent = min(offers, key=node_order)
        self._decided = True
        ctx.memory["suT:parent"] = parent
        ctx.memory["suT:reached"] = True
        ctx.send(parent, "sadopt")
        for v in ctx.memory["su:skel"]:
            if v != parent:
                ctx.send(v, "sbfs")


@dataclass(frozen=True)
class SuCongestResult:
    """Outcome of the distributed Su pipeline."""

    value: float
    side: frozenset
    best_rate: float
    rates_tried: int
    metrics: RunMetrics


def su_minimum_cut_congest(
    graph: WeightedGraph,
    seed: int = 0,
    rate_steps: int = DEFAULT_RATE_STEPS,
    trials_per_rate: int = 2,
    network: Optional[CongestNetwork] = None,
) -> SuCongestResult:
    """The full distributed Su pipeline (see module docstring).

    Returns the best 1-respecting cut of `G` over spanning trees of
    sampled subgraphs at rates ``1, 1/2, …, 2^-(rate_steps-1)``.
    Always valid (every candidate is a real cut of `G`); approximates λ
    with the quality Su's sampling argument gives the swept rates.
    """
    from ..core.one_respect_congest import one_respecting_min_cut_congest

    graph.require_connected()
    if graph.number_of_nodes < 2:
        raise AlgorithmError("minimum cut requires at least two nodes")
    net = network if network is not None else CongestNetwork(graph)
    root = min(graph.nodes, key=node_order)

    best_value = float("inf")
    best_side: frozenset = frozenset()
    best_rate = 1.0
    tried = 0
    combined = RunMetrics()

    for step in range(rate_steps * trials_per_rate):
        probability = 2.0 ** (-(step // trials_per_rate))
        net.reset_memory()
        net.run_phase(
            f"su:sample[{step}]",
            lambda u: EdgeSamplingPhase(probability, seed + step),
        )
        net.run_phase(f"su:bfs[{step}]", lambda u: SkeletonBFSBuild(root))
        reached = [u for u in net.nodes if net.memory[u]["suT:reached"]]
        if len(reached) != net.size:
            # Sampled subgraph disconnected — rate too low; skip (the
            # schedule always contains p=1, which spans).
            combined.extend(_take_metrics(net))
            continue
        tree = RootedTree(
            root,
            {
                u: net.memory[u]["suT:parent"]
                for u in net.nodes
                if net.memory[u]["suT:parent"] is not None
            },
        )
        combined.extend(_take_metrics(net))
        outcome = one_respecting_min_cut_congest(graph, tree, network=net)
        combined.extend(_take_metrics(net))
        tried += 1
        if outcome.best_value < best_value - 1e-12:
            best_value = outcome.best_value
            best_side = frozenset(tree.subtree(outcome.best_node))
            best_rate = probability

    if not best_side:
        raise AlgorithmError("no sampling rate produced a spanning sample")
    return SuCongestResult(
        value=best_value,
        side=best_side,
        best_rate=best_rate,
        rates_tried=tried,
        metrics=combined,
    )


def _take_metrics(net: CongestNetwork) -> RunMetrics:
    taken = net.metrics
    net.metrics = RunMetrics()
    return taken


def _owns_edge(u, v) -> bool:
    return node_order(u) < node_order(v)
