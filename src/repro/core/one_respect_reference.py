"""Centralized reference for "minimum cut that 1-respects a tree".

Given a spanning tree ``T`` of ``G`` rooted at ``r``, the 1-respecting
minimum cut is ``c* = min_{v ≠ r} C(v↓)`` — the lightest cut obtained by
deleting a single tree edge (the edge from ``v`` to its parent) and
splitting the graph along the two tree components.

This is Theorem 2.1's specification; the distributed implementation in
:mod:`repro.core.one_respect_congest` must agree with it node-for-node.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import AlgorithmError
from ..graphs.graph import Node, WeightedGraph, node_order
from ..graphs.trees import RootedTree
from .karger_lemma import compute_karger_quantities


@dataclass(frozen=True)
class OneRespectResult:
    """Result of a 1-respecting minimisation.

    Attributes
    ----------
    best_value:
        ``c*``, the minimum of ``C(v↓)`` over non-root nodes.
    best_node:
        A witness ``v`` achieving it (smallest id among ties, for
        determinism).
    cut_values:
        ``{v: C(v↓)}`` for every non-root node — the paper guarantees
        every node knows its own value at the end.
    rounds:
        Total CONGEST rounds (0 for the centralized reference).
    """

    best_value: float
    best_node: Node
    cut_values: dict[Node, float]

    def cut_side(self, tree: RootedTree) -> set[Node]:
        """The node set ``best_node↓`` realising the cut."""
        return tree.subtree(self.best_node)


def one_respecting_min_cut_reference(
    graph: WeightedGraph, tree: RootedTree
) -> OneRespectResult:
    """Compute ``c*`` and all ``C(v↓)`` centrally (O(m log n + n))."""
    if len(tree) < 2:
        raise AlgorithmError("1-respecting cuts need at least two nodes")
    quantities = compute_karger_quantities(graph, tree)
    cut_values = {
        v: c for v, c in quantities.cut_below.items() if v != tree.root
    }
    best_node = min(cut_values, key=lambda v: (cut_values[v], node_order(v)))
    return OneRespectResult(
        best_value=cut_values[best_node],
        best_node=best_node,
        cut_values=cut_values,
    )
