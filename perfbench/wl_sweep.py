"""``sweep_remote``: ``solve_batch`` sweeps over two ``repro serve`` workers.

``Engine(cache=None, backend=RemoteExecutor([w1, w2]))`` in the
benchmark process runs back-to-back sweeps of ``TASKS`` skewed tasks
(every 4th one heavy).  Every sweep uses graphs no worker has seen, so
worker caches never hit: LPT packing, stream dispatch, stealing and the
batch protocol set the result.  ``ops_per_s`` is the median over sweeps
of tasks per second (at the reference speed, see :mod:`speed`).
"""

from __future__ import annotations

import random
import statistics
import time

from common import Outcome, check_cut, stop_and_collect, timed_setup
from inputs import relabelled, sparse_graph

SETUP_REPEATS = 13
TASKS = 32
HEAVY_EVERY = 4
#: Distinct graphs that sweeps draw relabelled copies of.
LIGHT_BASES = 96
HEAVY_BASES = 32
#: Every SERIAL_CHECK_EVERY-th sweep is re-run on the serial backend
#: and must give identical results.
SERIAL_CHECK_EVERY = 5


def run(ctx) -> Outcome:
    from repro.api import Engine
    from repro.baselines.stoer_wagner import stoer_wagner_min_cut
    from repro.errors import ReproError
    from repro.exec.remote import RemoteExecutor

    out = Outcome()
    rng = random.Random(f"sweep_remote-{ctx.seed}")
    light = [sparse_graph(rng.randint(24, 40), rng) for _ in range(LIGHT_BASES)]
    heavy = [sparse_graph(rng.randint(112, 128), rng) for _ in range(HEAVY_BASES)]
    oracle = {id(g): stoer_wagner_min_cut(g).value for g in light + heavy}
    next_label = [0]

    def sweep_inputs():
        chosen = []
        for position in range(TASKS):
            base = rng.choice(heavy if position % HEAVY_EVERY == HEAVY_EVERY - 1 else light)
            chosen.append((base, relabelled(base, next_label[0], rng)))
            next_label[0] += base.number_of_nodes
        return chosen

    servers = timed_setup(
        out, ctx.run_dir, ["worker0", "worker1"], [], traced=ctx.traced, repeats=SETUP_REPEATS
    )
    executor = RemoteExecutor([server.url for server in servers])
    engine = Engine(cache=None, backend=executor)

    sweeps = []  # (inputs, results or error, (start, end), plan)
    deadline = time.perf_counter() + ctx.seconds
    while time.perf_counter() < deadline:
        ctx.tracer.enabled = False  # input generation is not the program's work
        chosen = sweep_inputs()
        graphs = [graph for _, graph in chosen]
        ctx.tracer.set_op(len(sweeps))
        ctx.tracer.enabled = ctx.traced
        begun = time.perf_counter()
        try:
            results = engine.solve_batch(graphs)
        except ReproError as exc:  # a failed sweep is counted, not fatal
            results = exc
        sweeps.append((chosen, results, (begun, time.perf_counter()), executor.last_plan))
    ctx.tracer.enabled = False
    stop_and_collect(out, ctx, servers)

    speed = ctx.speed.trace()
    serial = Engine(cache=None, backend="serial")
    loads = {"imbalance": [], "idle_frac": [], "chunks": 0, "stolen": 0}
    rates, raw_rates = [], []
    solve_seconds = {True: [], False: []}  # heavy? -> worker-side solve times
    for number, (chosen, results, window, plan) in enumerate(sweeps):
        out.attempted += len(chosen)
        if isinstance(results, Exception):
            out.failed += len(chosen)
            continue
        elapsed = window[1] - window[0]
        rates.append(len(chosen) / speed.scaled(*window))
        raw_rates.append(len(chosen) / elapsed)
        out.call_windows.append(window)
        for position, ((base, graph), result) in enumerate(zip(chosen, results)):
            check_cut(out, f"sweep {number} task {position}", graph, result, oracle[id(base)])
            solve_seconds[position % HEAVY_EVERY == HEAVY_EVERY - 1].append(result.wall_time)
        if number % SERIAL_CHECK_EVERY == 0:
            expected = serial.solve_batch([graph for _, graph in chosen])
            for position, (got, want) in enumerate(zip(results, expected)):
                if (got.value, got.side, got.solver) != (want.value, want.side, want.solver):
                    out.problem(f"sweep {number} task {position}: remote differs from serial")
        busy = plan["actual_loads"]
        mean = statistics.fmean(busy)
        loads["imbalance"].append(max(busy) / mean if mean else 1.0)
        loads["idle_frac"].append(1.0 - sum(busy) / (len(busy) * elapsed))
        loads["chunks"] += plan["chunks"]
        loads["stolen"] += plan["stolen"]
    out.ops_per_s = statistics.median(rates) if rates else 0.0
    out.ops_per_s_raw = statistics.median(raw_rates) if raw_rates else 0.0
    out.calls = len(out.call_windows)
    out.counters["remote"] = {
        "imbalance": statistics.fmean(loads["imbalance"]) if loads["imbalance"] else 0.0,
        "idle_frac": statistics.fmean(loads["idle_frac"]) if loads["idle_frac"] else 0.0,
        "chunks": loads["chunks"],
        "stolen": loads["stolen"],
    }
    sizes = [(g.number_of_nodes, g.number_of_edges) for g in light + heavy]
    out.inputs = {
        "tasks_per_sweep": TASKS,
        "heavy_every": HEAVY_EVERY,
        "light_n_range": [min(g.number_of_nodes for g in light), max(g.number_of_nodes for g in light)],
        "heavy_n_range": [min(g.number_of_nodes for g in heavy), max(g.number_of_nodes for g in heavy)],
        "m_range": [min(s[1] for s in sizes), max(s[1] for s in sizes)],
        "heavy_to_light_solve_time": round(
            statistics.fmean(solve_seconds[True]) / statistics.fmean(solve_seconds[False]), 2
        ) if solve_seconds[False] else None,
        "sweeps": len(sweeps),
    }
    return out
