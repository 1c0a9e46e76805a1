"""The two workloads against one ``repro serve`` process.

``serve_solve``: two keep-alive clients send ``/solve`` requests to a
server whose ``--cache-file`` store directory is pre-filled with 1600
entries, all read at open.  Each request is *warm* (first touch of a
stored entry: decoded from the disk tier, a disk hit), *repeat* (sent
recently: a memory hit) or *fresh* (never seen: the solver runs and
the store appends).

``serve_mutate``: two clients each drive ``/mutate`` sessions on
graphs with n = 128.  Every request carries one or two ops and asks
for a solve; most ops are covered by a cut certificate, the rest
change the cut so the solver runs.

Both are closed loops: a client sends its next request only after the
previous reply, as every real caller of the service does.
"""

from __future__ import annotations

import random
import statistics
import threading
import time
from collections import deque

from common import Outcome, check_cut, chunk_rates, stop_and_collect, timed_setup
from inputs import sparse_graph

CLIENTS = 2
SETUP_REPEATS = 13

# -- serve_solve ---------------------------------------------------------

#: Designed request shares; the rest are repeats.  No record of real
#: traffic exists to take them from, so they are a design choice:
#: repeats (memory hits) dominate, as in a replayed or re-run sweep;
#: misses are 10% so that the p99 falls among them (the tail is solver
#: work); first touches of stored entries are frequent enough that
#: every run decodes hundreds of them from the disk tier.
WARM_SHARE = 0.15
FRESH_SHARE = 0.10
#: Entries stored per client before the server starts.  The cache
#: reads every stored entry at open (``store.open_ms``, inside
#: ``setup_s``), and a warm request decodes its entry from there, so
#: the count sets the open's cost and must exceed what a run touches
#: (about 1.5x what 15 s at 400 requests/s do).
STORED_PER_CLIENT = 800
#: Never-seen graphs made per client before the run (about twice what
#: 15 s at 400 requests/s take).
FRESH_PER_CLIENT = 600
#: A repeat re-sends one of the client's last REPEAT_WINDOW requests.
REPEAT_WINDOW = 32
#: Solver names a request asks for; ``auto`` resolves to ``exact``.
SOLVERS = ("auto", "auto", "stoer_wagner", "nagamochi_ibaraki")


class _Item:
    """One distinct (graph, solver) request target."""

    __slots__ = ("graph", "payload", "solver", "oracle")

    def __init__(self, graph, solver) -> None:
        from repro.graphs.io import graph_to_json

        self.graph = graph
        self.payload = graph_to_json(graph)
        self.solver = solver
        self.oracle = None


def _items(rng, count, seen):
    items = []
    while len(items) < count:
        graph = sparse_graph(rng.randint(24, 64), rng)
        digest = graph.content_hash()
        if digest in seen:
            continue
        seen.add(digest)
        items.append(_Item(graph, rng.choice(SOLVERS)))
    return items


def _prefill(store_dir, items) -> None:
    """Solve ``items`` through the program into the store the server opens."""
    from repro.api import Engine
    from repro.exec import ResultCache

    engine = Engine(cache=ResultCache(path=store_dir), backend="process")
    tasks = engine.build_batch_tasks(
        [item.graph for item in items],
        seeds=[0] * len(items),
        solvers=[item.solver for item in items],
    )
    engine.solve_tasks(tasks)


def _oracle(item) -> float:
    from repro.baselines.stoer_wagner import stoer_wagner_min_cut

    if item.oracle is None:
        item.oracle = stoer_wagner_min_cut(item.graph).value
    return item.oracle


def _closed_loop(ctx, body) -> tuple:
    """Run ``body(client_index, deadline, records)`` on CLIENTS threads.

    Returns the records and the time the measured phase started.
    """
    records = [[] for _ in range(CLIENTS)]
    errors = []

    def guarded(index, deadline):
        try:
            body(index, deadline, records[index])
        except BaseException as exc:  # noqa: BLE001 - re-raised below
            errors.append(exc)

    ctx.tracer.enabled = ctx.traced
    started = time.perf_counter()
    deadline = started + ctx.seconds
    threads = [
        threading.Thread(target=guarded, args=(i, deadline), name=f"client-{i}")
        for i in range(CLIENTS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    ctx.tracer.enabled = False
    if errors:
        raise errors[0]
    return records, started


def serve_solve(ctx) -> Outcome:
    from repro.errors import ServiceError
    from repro.service import ServiceClient

    out = Outcome()
    seen: set = set()
    rngs = [random.Random(f"serve_solve-{ctx.seed}-{c}") for c in range(CLIENTS)]
    stored = [_items(rngs[c], STORED_PER_CLIENT, seen) for c in range(CLIENTS)]
    # Enough fresh graphs that a run does not make more while it is timed
    # (and traced: the generator hashes graphs too).
    fresh = [_items(rngs[c], FRESH_PER_CLIENT, seen) for c in range(CLIENTS)]
    store_dir = ctx.run_dir / "store"
    _prefill(store_dir, [item for items in stored for item in items])

    servers = timed_setup(
        out, ctx.run_dir, ["server"], ["--cache-file", store_dir], traced=ctx.traced,
        repeats=SETUP_REPEATS,
    )

    def body(c, deadline, records):
        rng = rngs[c]
        client = ServiceClient(servers[0].url, timeout=60.0)
        recent = deque(maxlen=REPEAT_WINDOW)
        op = 0
        while time.perf_counter() < deadline:
            draw = rng.random()
            if (draw < WARM_SHARE or not recent) and stored[c]:
                kind, item = "warm", stored[c].pop()
            elif draw < WARM_SHARE + FRESH_SHARE:
                if not fresh[c]:
                    fresh[c].extend(_items(rng, 100, seen))
                kind, item = "fresh", fresh[c].pop()
            else:  # also once every stored entry was touched: measured shares show it
                kind, item = "repeat", rng.choice(recent)
            ctx.tracer.set_op((c, op))
            begun = time.perf_counter()
            try:
                result = client.solve(item.payload, item.solver)
            except ServiceError as exc:
                result = exc
            done = time.perf_counter()
            records.append((kind, item, result, begun, done))
            if kind != "repeat":
                recent.append(item)
            op += 1
        client.close()

    records, started = _closed_loop(ctx, body)
    stop_and_collect(out, ctx, servers)

    shares = {"warm": 0, "repeat": 0, "fresh": 0}
    class_ms = {"warm": [], "repeat": [], "fresh": []}
    sizes = []
    completions = []
    for kind, item, result, begun, done in (r for rs in records for r in rs):
        out.attempted += 1
        shares[kind] += 1
        sizes.append((item.graph.number_of_nodes, item.graph.number_of_edges))
        if isinstance(result, Exception):
            out.failed += 1
            continue
        out.call_windows.append((begun, done))
        class_ms[kind].append((done - begun) * 1e3)
        completions.append((done, 1))
        label = f"{kind} {item.solver} n={item.graph.number_of_nodes}"
        check_cut(out, label, item.graph, result, _oracle(item))
        if item.solver != "auto" and result.solver != item.solver:
            out.problem(f"{label}: answered by {result.solver}")
        hit = result.extras.get("cache", {}).get("hit")
        if hit != (kind != "fresh"):
            out.problem(f"{label}: cache hit={hit}")
    out.ops_per_s = statistics.median(chunk_rates(completions, started, ctx.speed.trace()))
    out.ops_per_s_raw = statistics.median(chunk_rates(completions, started))
    out.calls = len(out.call_windows)
    # The split by request class shows a gain for hits that costs misses.
    for kind, latencies in class_ms.items():
        if latencies:
            out.extra[f"latency_p50_ms_{kind}_measured"] = statistics.median(latencies)
    health = out.counters["health"][0]["cache"]
    if (health["hits"], health["misses"]) != (shares["warm"] + shares["repeat"], shares["fresh"]):
        out.problem(
            f"server counted {health['hits']} hits / {health['misses']} misses for "
            f"{shares['warm'] + shares['repeat']} warm+repeat / {shares['fresh']} fresh requests"
        )
    total = max(1, out.attempted)
    out.inputs = {
        "stored_entries": STORED_PER_CLIENT * CLIENTS,
        "designed_shares": {"warm": WARM_SHARE, "fresh": FRESH_SHARE,
                            "repeat": round(1 - WARM_SHARE - FRESH_SHARE, 2)},
        "measured_shares": {k: round(v / total, 4) for k, v in shares.items()},
        "n_range": [min(s[0] for s in sizes), max(s[0] for s in sizes)] if sizes else None,
        "m_range": [min(s[1] for s in sizes), max(s[1] for s in sizes)] if sizes else None,
        "solvers": SOLVERS,
    }
    out.counters["generated_hit_share"] = (shares["warm"] + shares["repeat"]) / total
    return out


# -- serve_mutate --------------------------------------------------------

MUTATE_N = 128
#: Requests per session: an open (with a solve), then op requests; the
#: last one closes it.  Fresh sessions keep the graphs from drifting.
EPISODE_REQUESTS = 24
#: Share of ops a cut certificate covers (the rest change the cut):
#: the 90/10 split of the P4 mutation-stream benchmark
#: (``benchmarks/test_bench_p4_dynamic_mutations.py``).
COVERED_SHARE = 0.9


def _plan_op(rng, graph, side, added):
    """One op and whether a certificate covers it, given the last witness.

    Covered: raise an edge inside a side, lower or remove an edge across
    the cut (exact solver), add an edge inside a side.  Cut-changing:
    raise an edge across the cut, lower an edge inside a side, remove an
    edge this session added inside a side.  Weights stay integers and
    the graph stays connected (both sides of a minimum cut are).
    """
    edges = graph.edge_list()
    crossing = [e for e in edges if (e[0] in side) != (e[1] in side)]
    inner = [e for e in edges if (e[0] in side) == (e[1] in side)]
    if rng.random() < COVERED_SHARE:
        kind = rng.choice(("raise_inner", "lower_crossing", "add_inner"))
        if kind == "lower_crossing":
            u, v, w = rng.choice(crossing)
            if w >= 2:
                return {"op": "reweight", "u": u, "v": v, "weight": w - 1}, True
            if len(crossing) >= 2:
                return {"op": "remove_edge", "u": u, "v": v}, True
        if kind == "add_inner":
            nodes = sorted(side) if rng.random() < 0.5 else sorted(set(graph.nodes) - side)
            if len(nodes) >= 2:
                for _ in range(8):
                    u, v = rng.sample(nodes, 2)
                    if not graph.has_edge(u, v):
                        added.append((min(u, v), max(u, v)))
                        return {"op": "add_edge", "u": u, "v": v, "weight": 1.0}, True
        if inner:
            u, v, w = rng.choice(inner)
            return {"op": "reweight", "u": u, "v": v, "weight": w + 1}, True
        u, v, w = rng.choice(crossing)
        return {"op": "reweight", "u": u, "v": v, "weight": w + 1}, False
    kind = rng.choice(("raise_crossing", "lower_inner", "remove_added"))
    if kind == "remove_added":
        removable = [
            (u, v) for u, v in added
            if graph.has_edge(u, v) and (u in side) == (v in side)
        ]
        if removable:
            u, v = rng.choice(removable)
            weight = graph.weight(u, v)
            graph.remove_edge(u, v)
            connected = graph.is_connected()
            graph.add_edge(u, v, weight)
            if connected:
                added.remove((u, v))
                return {"op": "remove_edge", "u": u, "v": v}, False
    if kind == "lower_inner":
        heavy = [e for e in inner if e[2] >= 2]
        if heavy:
            u, v, w = rng.choice(heavy)
            return {"op": "reweight", "u": u, "v": v, "weight": w - 1}, False
    u, v, w = rng.choice(crossing)
    return {"op": "reweight", "u": u, "v": v, "weight": w + 1}, False


def _apply(graph, op) -> None:
    if op["op"] == "reweight":
        graph.set_edge_weight(op["u"], op["v"], op["weight"])
    elif op["op"] == "add_edge":
        graph.add_edge(op["u"], op["v"], op["weight"])
    else:
        graph.remove_edge(op["u"], op["v"])


def serve_mutate(ctx) -> Outcome:
    from repro.errors import ServiceError
    from repro.graphs.io import graph_to_json
    from repro.service import ServiceClient

    out = Outcome()
    rngs = [random.Random(f"serve_mutate-{ctx.seed}-{c}") for c in range(CLIENTS)]
    starts = [[sparse_graph(MUTATE_N, rngs[c]) for _ in range(30)] for c in range(CLIENTS)]

    servers = timed_setup(
        out, ctx.run_dir, ["server"], [], traced=ctx.traced, repeats=SETUP_REPEATS
    )

    def body(c, deadline, sessions):
        rng = rngs[c]
        client = ServiceClient(servers[0].url, timeout=60.0)
        op_id = 0
        while time.perf_counter() < deadline:
            if not starts[c]:
                starts[c].append(sparse_graph(MUTATE_N, rng))
            start = starts[c].pop()
            graph, added = start.copy(), []
            steps = []  # (ops, covered flags, reply or error, start time, end time)
            sessions.append((start, steps))
            ctx.tracer.set_op((c, op_id))
            begun = time.perf_counter()
            try:
                reply = client.mutate(open={"graph": graph_to_json(graph), "solver": "auto"},
                                      solve=True)
            except ServiceError as exc:
                steps.append(([], [], exc, 0.0, 0.0))
                continue
            done = time.perf_counter()
            steps.append(([], [], reply, begun, done))
            op_id += 1
            for step in range(1, EPISODE_REQUESTS):
                if time.perf_counter() >= deadline:
                    break
                side = reply["result"].side
                planned = []
                for _ in range(rng.randint(1, 2)):
                    planned.append(_plan_op(rng, graph, side, added))
                    _apply(graph, planned[-1][0])
                ctx.tracer.set_op((c, op_id))
                begun = time.perf_counter()
                try:
                    reply = client.mutate(
                        session=reply["session"], ops=[op for op, _ in planned], solve=True,
                        close=step == EPISODE_REQUESTS - 1,
                    )
                except ServiceError as exc:
                    steps.append(([op for op, _ in planned], [], exc, 0.0, 0.0))
                    break  # the session's state is unknown now: start another
                done = time.perf_counter()
                steps.append(([op for op, _ in planned], [cov for _, cov in planned], reply,
                              begun, done))
                op_id += 1
        client.close()

    records, started = _closed_loop(ctx, body)
    stop_and_collect(out, ctx, servers)

    from repro.baselines.stoer_wagner import stoer_wagner_min_cut

    check_rng = random.Random(f"serve_mutate-check-{ctx.seed}")
    ops = covered = certified_requests = planned_certified = 0
    stats = {"solves": 0, "certified": 0, "cache_hits": 0, "rebuilt": 0}
    sizes = []
    completions = []
    for session_number, (start, steps) in enumerate(s for rs in records for s in rs):
        graph = start.copy()
        # Every state is checked by its hash and its witness; the oracle
        # (tens of ms per state at n = 128) runs on the session's last
        # state and one random state.
        answered = [i for i, step in enumerate(steps) if not isinstance(step[2], Exception)]
        oracle_steps = set(answered[-1:])
        if answered:
            oracle_steps.add(check_rng.choice(answered))
        last_stats = None
        for position, (step_ops, flags, reply, begun, done) in enumerate(steps):
            out.attempted += 1
            if isinstance(reply, Exception):
                out.failed += 1
                break
            for op in step_ops:
                _apply(graph, op)
            out.call_windows.append((begun, done))
            acked = len(reply["acks"])
            ops += acked
            completions.append((done, acked))
            covered += sum(flags)
            if flags:
                planned_certified += all(flags)
                certified_requests += "certificate" in reply["result"].extras
            label = f"session {session_number} step {position}"
            if acked != len(step_ops):
                out.problem(f"{label}: {acked} acks for {len(step_ops)} ops")
            if reply["graph_hash"] != graph.content_hash():
                out.problem(f"{label}: server graph differs from the replayed graph")
                break
            result = reply["result"]
            if position in oracle_steps:
                oracle = stoer_wagner_min_cut(graph).value
            else:
                oracle = result.value  # still checked: the witness must cut it
            check_cut(out, label, graph, result, oracle)
            last_stats = reply["stats"]
            sizes.append((graph.number_of_nodes, graph.number_of_edges))
        if last_stats is not None:
            for key in ("solves", "certified", "cache_hits"):
                stats[key] += last_stats[key]
            stats["rebuilt"] += last_stats["index"]["rebuilt"]
    out.ops_per_s = statistics.median(chunk_rates(completions, started, ctx.speed.trace()))
    out.ops_per_s_raw = statistics.median(chunk_rates(completions, started))
    out.calls = len(out.call_windows)
    requests = max(1, out.attempted)
    out.counters["dynamic"] = stats
    out.inputs = {
        "n": MUTATE_N,
        "m_range": [min(s[1] for s in sizes), max(s[1] for s in sizes)] if sizes else None,
        "ops_per_request": round(ops / requests, 3),
        "covered_op_share_designed": COVERED_SHARE,
        "covered_op_share_measured": round(covered / max(1, ops), 4),
        "certified_request_share_planned": round(planned_certified / requests, 4),
        "certified_request_share_measured": round(certified_requests / requests, 4),
        "requests_per_session": EPISODE_REQUESTS,
    }
    return out
