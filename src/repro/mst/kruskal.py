"""Centralized minimum spanning tree (Kruskal) with deterministic ties.

Thorup's greedy tree packing repeatedly computes MSTs with respect to
evolving load metrics, so the MST routine must be *deterministic* under
ties — we order edges lexicographically by ``(key, min endpoint, max
endpoint)``.  The same total order is used by the distributed Borůvka
implementation, which keeps the two in exact agreement (tested).  Trees
are built in int space on the graph's cached index (:class:`SortedEdges`).
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from typing import Optional

from ..graphs.graph import Node, WeightedGraph, node_order
from ..graphs.trees import RootedTree

EdgeKeyFn = Callable[[Node, Node, float], float]


def edge_total_order(u: Node, v: Node, key: float):
    """The library-wide deterministic edge order (ties by endpoints)."""
    lo, hi = (u, v) if node_order(u) <= node_order(v) else (v, u)
    return (key, node_order(lo), node_order(hi))


class SortedEdges:
    """A graph's undirected edges as flat int arrays, numbered once.

    The edges are its cached index's directed ids ``e < reverse_edge[e]``
    (:meth:`WeightedGraph.edges` order and orientation), stably sorted by
    the endpoint tie of :func:`edge_total_order`: edge ``k`` joins int
    nodes ``tail[k]``–``head[k]`` with weight ``weight[k]``.
    """

    def __init__(self, graph: WeightedGraph) -> None:
        index = graph.index()
        nodes, source, target = index.nodes, index.edge_source, index.adj_target
        ids = sorted(
            (e for e in range(len(target)) if e < index.reverse_edge[e]),
            key=lambda e: edge_total_order(nodes[source[e]], nodes[target[e]], 0),
        )
        self.nodes = nodes
        self.tail = [source[e] for e in ids]
        self.head = [target[e] for e in ids]
        self.weight = [index.adj_weight[e] for e in ids]

    def spanning_tree(self, keys: Sequence[float], root: Node) -> tuple[RootedTree, list[int]]:
        """Kruskal under ``keys[k]`` (one stable sort, a list union–find):
        the tree rooted at ``root`` and the chosen edge positions."""
        n, tail, head = len(self.nodes), self.tail, self.head
        link = list(range(n))
        chosen: list[int] = []
        for k in sorted(range(len(keys)), key=keys.__getitem__):
            a, b = tail[k], head[k]
            while link[a] != a:
                link[a] = link[link[a]]
                a = link[a]
            while link[b] != b:
                link[b] = link[link[b]]
                b = link[b]
            if a != b:
                link[a] = b
                chosen.append(k)
                if len(chosen) == n - 1:
                    break
        tree_edges = [(self.nodes[tail[k]], self.nodes[head[k]]) for k in chosen]
        return RootedTree.from_edges(root, tree_edges), chosen  # rejects a forest


def minimum_spanning_tree(
    graph: WeightedGraph,
    key: Optional[EdgeKeyFn] = None,
    root: Optional[Node] = None,
) -> RootedTree:
    """Kruskal MST under an arbitrary edge key (default: the weight).

    ``key(u, v, w)`` lets callers supply load-based metrics (tree
    packing) without mutating the graph.  The result is rooted at
    ``root`` (default: minimum node id).
    """
    graph.require_connected()
    edges = SortedEdges(graph)
    keys = edges.weight if key is None else [
        key(edges.nodes[a], edges.nodes[b], w)
        for a, b, w in zip(edges.tail, edges.head, edges.weight)
    ]
    chosen_root = root if root is not None else min(graph.nodes, key=node_order)
    return edges.spanning_tree(keys, chosen_root)[0]


def tree_weight(graph: WeightedGraph, tree: RootedTree) -> float:
    """Total graph weight of the tree's edges."""
    return sum(graph.weight(child, parent) for child, parent in tree.edges())
