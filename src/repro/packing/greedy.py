"""Thorup's greedy tree packing [Combinatorica 2007] (system S7).

Generate trees ``T_1, T_2, …`` where ``T_i`` is the minimum spanning
tree with respect to the *relative loads* induced by ``T_1 … T_{i-1}``:
the load of edge ``e`` after ``i`` trees is ``use_i(e) / w(e)`` with
``use_i(e)`` the number of earlier trees containing ``e`` (weights act
as capacities).  Thorup's theorem (the form the paper uses): greedily
packing ``Θ(λ^7 log^3 n)`` trees guarantees that at least one tree
contains **exactly one edge** of some minimum cut — i.e. 1-respects it —
which reduces minimum cut to the 1-respecting problem of Theorem 2.1.

Ties in the MST computation are broken by the library's deterministic
edge order, making packings reproducible.
"""

from __future__ import annotations

import math
from collections.abc import Iterator, Mapping
from types import MappingProxyType

from ..errors import AlgorithmError
from ..graphs.graph import Edge, WeightedGraph, edge_key, node_order
from ..graphs.trees import RootedTree
from ..mst.kruskal import SortedEdges


class GreedyTreePacking:
    """Incrementally grown greedy packing with per-edge load tracking.

    Use :meth:`next_tree` (or iterate) to extend the packing lazily —
    the exact-min-cut driver consumes trees one at a time and usually
    stops long before any theoretical bound.

    Edges are numbered once (:class:`~repro.mst.kruskal.SortedEdges`)
    and a per-edge ``use`` list lives as long as the packing.  The graph
    must not change meanwhile: :meth:`next_tree` then raises.
    """

    def __init__(self, graph: WeightedGraph) -> None:
        graph.require_connected()
        if graph.number_of_nodes < 2:
            raise AlgorithmError("tree packing needs at least two nodes")
        self.graph = graph
        self.trees: list[RootedTree] = []
        self._version = graph._version
        self._root = min(graph.nodes, key=node_order)
        self._edges = SortedEdges(graph)
        self._use = [0] * len(self._edges.weight)

    @property
    def usage(self) -> Mapping[Edge, int]:
        """Read-only ``{edge_key(u, v): number of trees containing it}``."""
        nodes = self._edges.nodes
        return MappingProxyType({
            edge_key(nodes[a], nodes[b]): count
            for a, b, count in zip(self._edges.tail, self._edges.head, self._use)
        })

    def relative_load(self, u, v) -> float:
        """``use(e) / w(e)`` — the greedy packing's edge metric."""
        self._require_unchanged()
        return self.usage[edge_key(u, v)] / self.graph.weight(u, v)

    def next_tree(self) -> RootedTree:
        """Compute the next greedy tree and update loads."""
        self._require_unchanged()
        edges, use = self._edges, self._use
        loads = [count / w for count, w in zip(use, edges.weight)]
        tree, chosen = edges.spanning_tree(loads, self._root)
        for k in chosen:
            use[k] += 1
        self.trees.append(tree)
        return tree

    def _require_unchanged(self) -> None:
        if self.graph._version != self._version:
            raise AlgorithmError("graph changed while packing trees; start a new packing")

    def grow_to(self, count: int) -> list[RootedTree]:
        """Extend the packing to ``count`` trees; returns all trees."""
        while len(self.trees) < count:
            self.next_tree()
        return list(self.trees)

    def __iter__(self) -> Iterator[RootedTree]:
        while True:
            yield self.next_tree()


def greedy_tree_packing(graph: WeightedGraph, count: int) -> list[RootedTree]:
    """Convenience wrapper: the first ``count`` greedy packing trees."""
    if count < 1:
        raise AlgorithmError("tree count must be positive")
    return GreedyTreePacking(graph).grow_to(count)


def thorup_tree_bound(min_cut: float, n: int) -> int:
    """The theorem's tree count ``Θ(λ^7 log^3 n)`` with unit constants.

    Astronomical in practice — the packing experiments (E4) measure how
    many trees are *actually* needed, which is typically a handful.
    """
    lam = max(1.0, float(min_cut))
    logs = math.log2(max(2, n)) ** 3
    return int(math.ceil(lam ** 7 * logs))
