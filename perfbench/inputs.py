"""Seeded input graphs.  The same seed always yields the same graphs.

Weights are small integers so every cut value is an exact float sum,
whatever order a solver adds the edges in: results can be compared
with the oracle and across backends for equality.
"""

from __future__ import annotations

import random

from repro.graphs import WeightedGraph
from repro.graphs.generators import connected_gnp_graph, grid_graph, random_regular_graph


def sparse_graph(n: int, rng: random.Random, degree: float = 4.0) -> WeightedGraph:
    """A connected random graph on ``0..n-1`` of average degree ``degree``.

    A random recursive tree (node ``i`` joins a uniform earlier node)
    keeps it connected without rejection sampling; uniform extra edges
    bring it to ``degree * n / 2`` edges.
    """
    edges = {(rng.randrange(i), i) for i in range(1, n)}
    target = min(int(degree * n / 2), n * (n - 1) // 2)
    while len(edges) < target:
        u, v = rng.sample(range(n), 2)
        edges.add((min(u, v), max(u, v)))
    return WeightedGraph([(u, v, float(rng.randint(1, 3))) for u, v in sorted(edges)])


def relabelled(graph: WeightedGraph, offset: int, rng: random.Random) -> WeightedGraph:
    """An isomorphic copy on nodes ``offset..offset+n-1``, randomly permuted.

    Its content hash is new (no cache can hold it), while its minimum
    cut value equals the original's, so one oracle value serves every
    copy.
    """
    nodes = graph.nodes
    targets = list(range(offset, offset + len(nodes)))
    rng.shuffle(targets)
    mapping = dict(zip(nodes, targets))
    edges = [(mapping[u], mapping[v], w) for u, v, w in graph.edge_list()]
    rng.shuffle(edges)
    return WeightedGraph(edges)


def congest_set(seed: int) -> list:
    """The CONGEST workload's graphs: ``(label, graph)`` with n from 144 to 196.

    Grids have a large diameter and few messages per round; G(n, p) and
    random regular graphs have a small diameter and many messages per
    round.  Sizes are fixed, only the random instances depend on the seed.
    """
    rng = random.Random(seed)

    def gnp(n, p):
        return connected_gnp_graph(n, p, seed=rng.randrange(1 << 30))

    def regular(n, d):
        return random_regular_graph(n, d, seed=rng.randrange(1 << 30))

    return [
        ("gnp144", gnp(144, 0.05)),
        ("grid12x12", grid_graph(12, 12)),
        ("regular196d3", regular(196, 3)),
        ("gnp196", gnp(196, 0.035)),
        ("regular196d4", regular(196, 4)),
        ("grid14x14", grid_graph(14, 14)),
    ]
