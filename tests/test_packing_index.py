"""The index-backed packing and Karger quantities against the dict code.

Greedy packing (Kruskal under relative loads) and the ρ pass of
Karger's identity run in int space on the graph's cached CSR index.
The oracles below are the dict-of-dict implementations they replaced —
a tuple-ranked Kruskal with a dict union–find and a binary-lifting
``tree.lca`` per edge — kept here verbatim in spirit, so the int-space
code must reproduce them bit for bit: the same trees (root, parent map,
child order), the same loads and the same ``KargerQuantities``.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import Engine, solve
from repro.core import KargerQuantities, compute_karger_quantities, lca_weights
from repro.dynamic import AddEdge, RemoveEdge, Reweight
from repro.errors import AlgorithmError
from repro.graphs import RootedTree, WeightedGraph, build_family, edge_key
from repro.mst import SortedEdges, edge_total_order, minimum_spanning_tree
from repro.packing import GreedyTreePacking

SETTINGS = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


# ----------------------------------------------------------------------
# Oracles: the pre-index dict implementations
# ----------------------------------------------------------------------
def oracle_mst(graph, key=None, root=None):
    key_fn = key if key is not None else (lambda u, v, w: w)
    ranked = sorted(
        (edge_total_order(u, v, key_fn(u, v, w)), u, v) for u, v, w in graph.edges()
    )
    parent = {x: x for x in graph.nodes}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    chosen = []
    for _rank, u, v in ranked:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[rv] = ru
            chosen.append((u, v))
    if root is None:
        root = min(graph.nodes, key=lambda x: x if isinstance(x, int) else repr(x))
    return RootedTree.from_edges(root, chosen)


def oracle_packing(graph, count):
    usage = {edge_key(u, v): 0 for u, v, _w in graph.edges()}
    trees = []
    for _ in range(count):
        tree = oracle_mst(
            graph, key=lambda u, v, w: usage[edge_key(u, v)] / graph.weight(u, v)
        )
        for child, parent in tree.edges():
            usage[edge_key(child, parent)] += 1
        trees.append(tree)
    return trees, usage


def oracle_subtree_sums(tree, values):
    totals = dict(values)
    for u in tree.postorder():
        if tree.parent(u) is not None:
            totals[tree.parent(u)] += totals[u]
    return totals


def oracle_karger(graph, tree):
    delta = {u: graph.weighted_degree(u) for u in graph.nodes}
    rho = {u: 0.0 for u in graph.nodes}
    for u, v, w in graph.edges():
        rho[tree.lca(u, v)] += w
    delta_down = oracle_subtree_sums(tree, delta)
    rho_down = oracle_subtree_sums(tree, rho)
    cut_below = {v: delta_down[v] - 2.0 * rho_down[v] for v in graph.nodes}
    return KargerQuantities(delta, rho, delta_down, rho_down, cut_below)


def tree_shape(tree):
    """Root, parent map in insertion order, and every child list."""
    return (
        tree.root,
        list(tree.edges()),
        {u: tree.children(u) for u in tree.nodes},
    )


# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------
WEIGHTS = {
    "unit": st.just(1.0),  # every load ties: the endpoint order decides
    "small_int": st.integers(1, 3).map(float),
    "float": st.floats(0.1, 10.0, allow_nan=False, allow_infinity=False),
}


@st.composite
def labelled_graphs(draw, max_nodes=16):
    """A connected graph with int or str labels, shuffled insertion order."""
    n = draw(st.integers(2, max_nodes))
    weight = WEIGHTS[draw(st.sampled_from(sorted(WEIGHTS)))]
    labels = list(range(n))
    if draw(st.booleans()):
        # str labels: repr order ("'v10'" < "'v2'") differs from int order
        labels = [f"v{i}" for i in labels]
    edges = {(labels[draw(st.integers(0, i - 1))], labels[i]) for i in range(1, n)}
    for _ in range(draw(st.integers(0, 2 * n))):
        a, b = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        if a != b and (labels[b], labels[a]) not in edges:
            edges.add((labels[a], labels[b]))
    ordered = draw(st.permutations(sorted(edges)))
    return WeightedGraph([(u, v, draw(weight)) for u, v in ordered])


# ----------------------------------------------------------------------
# Differential tests
# ----------------------------------------------------------------------
class TestAgainstDictOracles:
    @SETTINGS
    @given(labelled_graphs(), st.integers(8, 12))
    def test_packing_trees_loads_and_quantities(self, graph, count):
        packing = GreedyTreePacking(graph)
        trees = packing.grow_to(count)
        expected, usage = oracle_packing(graph, count)
        assert [tree_shape(t) for t in trees] == [tree_shape(t) for t in expected]
        assert dict(packing.usage) == usage
        for u, v, w in graph.edges():
            assert packing.relative_load(u, v) == usage[edge_key(u, v)] / w
        for tree in trees:
            assert compute_karger_quantities(graph, tree) == oracle_karger(graph, tree)

    @SETTINGS
    @given(labelled_graphs())
    def test_minimum_spanning_tree_with_and_without_key(self, graph):
        def inverted(u, v, w):
            return -w

        assert tree_shape(minimum_spanning_tree(graph)) == tree_shape(oracle_mst(graph))
        assert tree_shape(minimum_spanning_tree(graph, key=inverted)) == tree_shape(
            oracle_mst(graph, key=inverted)
        )
        root = graph.nodes[-1]
        assert tree_shape(minimum_spanning_tree(graph, root=root)) == tree_shape(
            oracle_mst(graph, root=root)
        )

    def test_sorted_edges_follow_graph_edges(self):
        graph = build_family("gnp", 20, seed=4)
        edges = SortedEdges(graph)
        nodes = edges.nodes
        listed = [(nodes[a], nodes[b], w) for a, b, w in zip(edges.tail, edges.head, edges.weight)]
        assert sorted(listed, key=lambda e: edge_total_order(*e)) == sorted(
            graph.edges(), key=lambda e: edge_total_order(*e)
        )
        ties = [edge_total_order(u, v, 0) for u, v, _w in listed]
        assert ties == sorted(ties)

    def test_lca_weights_on_a_spanning_tree_of_str_labels(self):
        graph = WeightedGraph(
            [("a", "b", 0.1), ("b", "c", 0.2), ("a", "c", 0.3), ("c", "d", 0.7)]
        )
        tree = RootedTree("a", {"b": "a", "c": "b", "d": "c"})
        assert lca_weights(graph, tree) == oracle_karger(graph, tree).rho


# ----------------------------------------------------------------------
# Mutation between trees
# ----------------------------------------------------------------------
class TestMutationDuringPacking:
    @pytest.mark.parametrize(
        "mutate",
        [
            lambda g: g.add_edge(0, 3, 1.0),
            lambda g: g.set_edge_weight(0, 1, 5.0),
            lambda g: g.remove_edge(4, 5),
            lambda g: g.add_node(99),
        ],
        ids=["add_edge", "reweight", "remove_edge", "add_node"],
    )
    def test_mutation_raises_typed_error(self, mutate):
        graph = build_family("cycle", 8)
        graph.add_edge(0, 4, 2.0)
        packing = GreedyTreePacking(graph)
        packing.next_tree()
        mutate(graph)
        with pytest.raises(AlgorithmError, match="graph changed"):
            packing.next_tree()
        with pytest.raises(AlgorithmError, match="graph changed"):
            packing.relative_load(0, 1)
        assert len(packing.trees) == 1

    def test_same_weight_is_not_a_change(self):
        graph = build_family("cycle", 6)
        packing = GreedyTreePacking(graph)
        packing.next_tree()
        graph.set_edge_weight(0, 1, graph.weight(0, 1))
        packing.next_tree()
        assert len(packing.trees) == 2

    def test_usage_is_read_only(self):
        packing = GreedyTreePacking(build_family("cycle", 5))
        packing.next_tree()
        with pytest.raises(TypeError):
            packing.usage[edge_key(0, 1)] = 7


# ----------------------------------------------------------------------
# In-place CSR patches from dynamic sessions
# ----------------------------------------------------------------------
def index_edges(graph):
    """``(u, v, w)`` for directed ids ``e < reverse_edge[e]`` of the index."""
    index = graph.index()
    nodes = index.nodes
    return [
        (nodes[index.edge_source[e]], nodes[index.adj_target[e]], index.adj_weight[e])
        for e in range(index.directed_edge_count)
        if e < index.reverse_edge[e]
    ]


class TestDynamicPatches:
    def test_mutate_undo_walk_keeps_edge_order_and_exact_solve(self):
        session = Engine(solver="exact", cache=None).dynamic_session(
            build_family("gnp", 24, seed=5)
        )
        u, v = next((a, b) for a, b, _w in session.graph.edges())
        ops = [
            AddEdge(0, 23, 2.0),
            Reweight(u, v, 3.5),
            AddEdge(100, 7, 1.5),  # fresh endpoint
            AddEdge(100, 12, 0.5),
            RemoveEdge(u, v),
            AddEdge(3, 17, 1.25),
        ]

        def check():
            graph = session.graph
            assert index_edges(graph) == list(graph.edges())
            got = solve(graph, solver="exact")
            fresh = solve(graph.copy(), solver="exact")
            assert (got.value, got.side) == (fresh.value, fresh.side)
            assert got.verify(graph) == got.value

        for op in ops:
            assert session.apply(op)["index"] in ("patched", "noop")
            check()
        for _ in range(len(ops)):
            session.undo()
            check()
        assert session.indexer.stats()["patched"] > 0
