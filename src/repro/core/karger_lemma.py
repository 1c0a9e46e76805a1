"""Karger's identity ``C(v↓) = δ↓(v) − 2·ρ↓(v)`` (Lemma 2.2 of the paper).

For a graph ``G`` with spanning tree ``T`` rooted at ``r``:

* ``δ(v)``  — weighted degree of ``v``,
* ``ρ(v)``  — total weight of edges whose endpoints' least common
  ancestor in ``T`` is ``v``,
* ``δ↓(v)`` / ``ρ↓(v)`` — the sums of ``δ`` / ``ρ`` over the descendant
  set ``v↓``.

Karger [JACM 2000, Lemma 5.9] observes that the cut separating ``v↓``
from the rest of the graph has weight exactly ``δ↓(v) − 2ρ↓(v)``: edges
with both endpoints inside ``v↓`` are counted twice by ``δ↓`` and their
LCA lies in ``v↓``, so subtracting ``2ρ↓`` leaves precisely the crossing
weight.

This module is the *centralized reference* for the distributed
algorithm: the distributed run must reproduce these numbers exactly at
every node (tested to equality, weights being integers or dyadics in the
test suite).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import AlgorithmError
from ..graphs.graph import Node, WeightedGraph
from ..graphs.trees import RootedTree


def weighted_degrees(graph: WeightedGraph) -> dict[Node, float]:
    """``δ(v)`` for every node."""
    return {u: graph.weighted_degree(u) for u in graph.nodes}


def lca_weights(graph: WeightedGraph, tree: RootedTree) -> dict[Node, float]:
    """``ρ(v)``: total weight of edges whose endpoint LCA is ``v``.

    Every graph edge contributes to exactly one node's ``ρ``; tree edges
    contribute to the parent endpoint (their LCA).  One offline (Tarjan)
    LCA pass over the postorder: a finished node links to its parent, so
    the union–find root of a finished node is its lowest ancestor still
    on the walk.  Sums run in :meth:`WeightedGraph.edges` order.
    """
    _require_spanning(graph, tree)
    index = graph.index()
    node_id, start, target = index.node_id, index.adj_start, index.adj_target
    reverse = index.reverse_edge
    link, up = list(range(len(index.nodes))), list(range(len(index.nodes)))
    for child, parent in tree.edges():
        up[node_id[child]] = node_id[parent]
    done = [False] * len(link)
    lca = [0] * len(target)
    for i in map(node_id.__getitem__, tree.postorder()):
        done[i] = True
        for e in range(start[i], start[i + 1]):
            r = target[e]
            if done[r]:
                while link[r] != r:
                    link[r] = link[link[r]]
                    r = link[r]
                lca[min(e, reverse[e])] = r
        link[i] = up[i]
    rho = [0.0] * len(link)
    for e, w in enumerate(index.adj_weight):
        if e < reverse[e]:
            rho[lca[e]] += w
    return dict(zip(index.nodes, rho))


def subtree_sums(tree: RootedTree, values: dict[Node, float]) -> dict[Node, float]:
    """``f↓(v) = Σ_{u ∈ v↓} f(u)`` for every ``v``, one postorder sweep."""
    totals = dict(values)
    for u in tree.postorder():
        parent = tree.parent(u)
        if parent is not None:
            totals[parent] += totals[u]
    return totals


@dataclass(frozen=True)
class KargerQuantities:
    """All per-node quantities of Lemma 2.2 for one ``(G, T)`` pair."""

    delta: dict[Node, float]
    rho: dict[Node, float]
    delta_down: dict[Node, float]
    rho_down: dict[Node, float]
    cut_below: dict[Node, float]


def compute_karger_quantities(graph: WeightedGraph, tree: RootedTree) -> KargerQuantities:
    """Evaluate δ, ρ, δ↓, ρ↓ and ``C(v↓)`` for every node.

    ``C(r↓)`` for the root is 0 by the identity (the "cut" is the whole
    vertex set); callers minimising over 1-respecting cuts must exclude
    the root, as :func:`repro.core.one_respect_reference` does.
    """
    rho = lca_weights(graph, tree)  # checks that the tree spans the graph
    delta = weighted_degrees(graph)
    delta_down = subtree_sums(tree, delta)
    rho_down = subtree_sums(tree, rho)
    cut_below = {
        v: delta_down[v] - 2.0 * rho_down[v] for v in graph.nodes
    }
    return KargerQuantities(delta, rho, delta_down, rho_down, cut_below)


def _require_spanning(graph: WeightedGraph, tree: RootedTree) -> None:
    if set(tree.nodes) != set(graph.nodes):
        raise AlgorithmError(
            "tree must span the graph: node sets differ "
            f"({len(tree)} tree vs {graph.number_of_nodes} graph nodes)"
        )
    for child, parent in tree.edges():
        if not graph.has_edge(child, parent):
            raise AlgorithmError(
                f"tree edge ({child!r}, {parent!r}) is not a graph edge"
            )
