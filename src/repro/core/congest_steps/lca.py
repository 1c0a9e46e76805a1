"""Distributed Step 5a: per-edge LCA computation.

For every graph edge ``(x, y)`` the two endpoints determine the least
common ancestor ``z`` of ``x`` and ``y`` in ``T`` by exchanging O(√n)
messages *over that edge* (pipelined by the engine's per-edge FIFOs), as
in the paper's three cases:

* **Case 1** (same fragment): both endpoints stream their within-fragment
  ancestor chains ``(ancestor, hops)``; ``z`` is the deepest common
  entry.  Depth comparisons use hop counts relative to the *sender*,
  which order ancestors of the sender exactly as global depths do.
* **Case 3** (different fragments, ``z`` in one endpoint's fragment):
  the endpoint whose lowest-holder map contains the other endpoint's
  fragment *with a holder inside its own fragment* announces the holder:
  that holder is ``z``.  At most one endpoint can make such an
  announcement (proved in the module tests), and its announcement is
  sent as the verdict.
* **Case 2** (``z`` in neither fragment): both verdicts are empty; the
  endpoints stream their skeleton-ancestor chains (root-paths in
  ``T'_F``); ``z`` is the deepest common entry — necessarily a merging
  node.

The phase also settles the ρ-message bookkeeping of Step 5:

* case 2 edges are **type (i)**: the endpoint with the smaller id
  creates the global message ⟨z⟩;
* case 1/3 edges are **type (ii)**: the endpoint in ``z``'s fragment
  creates ⟨z⟩ (for case 1, the deeper endpoint; ties by smaller id).

Each node ends with ``memory["or:lca"] = {neighbour: EdgeLCA}``.
"""

from __future__ import annotations

from dataclasses import dataclass

from ...errors import ProtocolError
from ...congest.node import Inbox, NodeContext, NodeProgram
from ...graphs.graph import node_order

TYPE_GLOBAL = 1
"""ρ-message type (i): endpoints lie outside the LCA's fragment."""

TYPE_FRAGMENT = 2
"""ρ-message type (ii): the holder shares the LCA's fragment."""


@dataclass(frozen=True)
class EdgeLCA:
    """Resolved LCA bookkeeping for one incident edge."""

    lca: object
    lca_fragment: object
    message_type: int
    i_am_holder: bool
    weight: float


class _EdgeState:
    """Per-neighbour buffers while an edge's exchange is in flight."""

    __slots__ = (
        "their_chain",
        "chain_done",
        "their_skeleton",
        "skeleton_done",
        "their_verdict",
        "resolved",
    )

    def __init__(self) -> None:
        self.their_chain: list = []
        self.chain_done = False
        self.their_skeleton: list = []
        self.skeleton_done = False
        self.their_verdict = None  # None = not received; ("z", id) / ("none",)
        self.resolved = False


class LCAExchange(NodeProgram):
    """The per-edge exchange program (see module docstring)."""

    OUT_KEY = "or:lca"

    def __init__(self) -> None:
        self._edges: dict = {}
        self._my_chain_map: dict = {}
        self._my_frag = None

    # ------------------------------------------------------------------
    def on_start(self, ctx: NodeContext) -> None:
        ctx.memory[self.OUT_KEY] = {}
        self._my_frag = ctx.memory["frag:id"]
        self._my_chain_map = {
            ancestor: hops
            for ancestor, frag_a, hops in ctx.memory["or:A"]
            if frag_a == self._my_frag
        }
        holder_map = ctx.memory["or:holder"]
        skeleton_chain = ctx.memory["or:skeleton_chain"]
        nbr_frag = ctx.memory["frag:nbr"]
        # Group neighbours by the stream they receive: the chain and
        # skeleton streams are identical for every target, so each item
        # is one multicast message shared across those edges (each edge
        # still carries every item — the per-edge FIFO order, and hence
        # the exchange, is unchanged).
        same_fragment: list = []
        needs_skeleton: list = []
        for v in ctx.neighbors:
            self._edges[v] = _EdgeState()
            v_frag = nbr_frag[v]
            if v_frag == self._my_frag:
                same_fragment.append(v)
            else:
                verdict = holder_map.get(v_frag)
                if verdict is not None and verdict[1] == self._my_frag:
                    ctx.send(v, "vd", verdict[0])
                else:
                    needs_skeleton.append(v)
        if same_fragment:
            for ancestor, hops in sorted(
                self._my_chain_map.items(), key=lambda kv: kv[1]
            ):
                ctx.multicast(same_fragment, "ch", ancestor, hops)
            ctx.multicast(same_fragment, "che")
        if needs_skeleton:
            ctx.multicast(needs_skeleton, "vdn")
            for skeleton_node in skeleton_chain:
                ctx.multicast(needs_skeleton, "sk", skeleton_node)
            ctx.multicast(needs_skeleton, "ske")

    def on_round(self, ctx: NodeContext, inbox: Inbox) -> None:
        # Stream items ("ch"/"sk") only buffer; resolution can advance
        # only on the decisive kinds, so the (hot) item path skips the
        # resolution attempt entirely.  Commit timing is unchanged: on a
        # cross-fragment edge the peer's verdict is the first message in
        # its FIFO, exactly when the old per-message attempt first fired.
        edges = self._edges
        for src, msg in inbox:
            kind = msg.kind
            state = edges[src]
            if kind == "ch":
                state.their_chain.append(msg.payload)
            elif kind == "sk":
                state.their_skeleton.append(msg.payload[0])
            elif kind == "che":
                state.chain_done = True
                self._maybe_resolve(ctx, src, state)
            elif kind == "ske":
                state.skeleton_done = True
                self._maybe_resolve(ctx, src, state)
            elif kind == "vd":
                state.their_verdict = ("z", msg.payload[0])
                self._maybe_resolve(ctx, src, state)
            elif kind == "vdn":
                state.their_verdict = ("none",)
                self._maybe_resolve(ctx, src, state)
            else:
                raise ProtocolError(f"unexpected message kind {kind!r}")

    # ------------------------------------------------------------------
    def _maybe_resolve(self, ctx: NodeContext, v, state: _EdgeState) -> None:
        if state.resolved:
            return
        v_frag = ctx.memory["frag:nbr"][v]
        if v_frag == self._my_frag:
            if state.chain_done:
                self._resolve_same_fragment(ctx, v, state)
        else:
            self._resolve_cross_fragment(ctx, v, v_frag, state)

    def _resolve_same_fragment(self, ctx: NodeContext, v, state: _EdgeState) -> None:
        common = [
            (hops_theirs, ancestor)
            for ancestor, hops_theirs in state.their_chain
            if ancestor in self._my_chain_map
        ]
        if not common:
            raise ProtocolError(
                f"no common within-fragment ancestor on edge "
                f"({ctx.node!r}, {v!r}); fragments must be connected"
            )
        hops_theirs, lca = min(common)
        hops_mine = self._my_chain_map[lca]
        if hops_mine != hops_theirs:
            i_hold = hops_mine > hops_theirs
        else:
            i_hold = node_order(ctx.node) < node_order(v)
        self._commit(ctx, v, lca, self._my_frag, TYPE_FRAGMENT, i_hold, state)

    def _resolve_cross_fragment(
        self, ctx: NodeContext, v, v_frag, state: _EdgeState
    ) -> None:
        holder_map = ctx.memory["or:holder"]
        my_verdict = holder_map.get(v_frag)
        mine_decides = my_verdict is not None and my_verdict[1] == self._my_frag
        if mine_decides:
            if state.their_verdict is not None and state.their_verdict[0] == "z":
                raise ProtocolError(
                    f"both endpoints of ({ctx.node!r}, {v!r}) claim the LCA"
                )
            self._commit(
                ctx, v, my_verdict[0], self._my_frag, TYPE_FRAGMENT, True, state
            )
            return
        if state.their_verdict is None:
            return
        if state.their_verdict[0] == "z":
            self._commit(
                ctx, v, state.their_verdict[1], v_frag, TYPE_FRAGMENT, False, state
            )
            return
        # Case 2: both verdicts empty — need the full skeleton chain.
        if not state.skeleton_done:
            return
        my_skeleton = set(ctx.memory["or:skeleton_chain"])
        lca = next(
            (s for s in state.their_skeleton if s in my_skeleton), None
        )
        if lca is None:
            raise ProtocolError(
                f"no common skeleton ancestor on edge ({ctx.node!r}, {v!r})"
            )
        i_create = node_order(ctx.node) < node_order(v)
        lca_frag = ctx.memory["or:skeleton_frag"][lca]
        self._commit(ctx, v, lca, lca_frag, TYPE_GLOBAL, i_create, state)

    def _commit(
        self, ctx: NodeContext, v, lca, lca_frag, message_type, i_hold, state
    ) -> None:
        state.resolved = True
        ctx.memory[self.OUT_KEY][v] = EdgeLCA(
            lca=lca,
            lca_fragment=lca_frag,
            message_type=message_type,
            i_am_holder=i_hold,
            weight=ctx.edge_weight(v),
        )


def rho_contributions(ctx: NodeContext, message_type: int):
    """This node's ``(lca, weight)`` contributions of a given type —
    the inputs of the two keyed-sum phases of Step 5b."""
    out = []
    for edge in ctx.memory[LCAExchange.OUT_KEY].values():
        if edge.message_type == message_type and edge.i_am_holder:
            out.append((edge.lca, edge.weight))
    return out
