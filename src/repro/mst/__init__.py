"""Minimum spanning tree substrate (system S5 of DESIGN.md)."""

from .kruskal import SortedEdges, edge_total_order, minimum_spanning_tree, tree_weight
from .prim import minimum_spanning_tree_prim
from .boruvka_congest import boruvka_mst, COMPONENT_TREE
from .kutten_peleg import kutten_peleg_mst, kutten_peleg_round_cost, log_star

__all__ = [
    "SortedEdges",
    "edge_total_order",
    "minimum_spanning_tree",
    "tree_weight",
    "minimum_spanning_tree_prim",
    "boruvka_mst",
    "COMPONENT_TREE",
    "kutten_peleg_mst",
    "kutten_peleg_round_cost",
    "log_star",
]
