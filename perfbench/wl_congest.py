"""``congest_exact``: the paper's exact algorithm on the round-accurate simulator.

In-process ``Engine(cache=None).solve(g, "exact", mode="congest")`` over
a fixed seeded set of grid, G(n, p) and random regular graphs with n
from 144 to 196, in whole passes over the set until the run's time is
up.  ``latency_p50_ms`` is the median solve over every solve of the
run; ``ops_per_s`` is the rate of a pass at each graph's median solve
time (both at the reference speed, see :mod:`speed`).  ``congest``,
``core`` and ``packing`` do almost all of the work; service, cache,
store and dynamic do none.
"""

from __future__ import annotations

import resource
import statistics
import subprocess
import sys
import time

from common import BENCH_DIR, Outcome, check_cut, program_env
from inputs import congest_set
from speed import SpeedTrace, inline_samples

SETUP_REPEATS = 13


def _setup_window(seed: int) -> tuple:
    """Import plus graph and network construction, in a fresh interpreter."""
    started = time.perf_counter()
    subprocess.run(
        [sys.executable, str(BENCH_DIR / "congest_setup.py"), str(seed)],
        env=program_env(), check=True, stdout=subprocess.DEVNULL,
    )
    return started, time.perf_counter()


def run(ctx) -> Outcome:
    from repro.api import Engine
    from repro.baselines.stoer_wagner import stoer_wagner_min_cut

    out = Outcome()
    out.setup_windows = [_setup_window(ctx.seed) for _ in range(SETUP_REPEATS)]
    graphs = congest_set(ctx.seed)
    engine = Engine(cache=None)
    # An untimed pass lets lazy set-up finish and fixes the round and
    # message counts every later solve of the same graph must repeat.
    first = [engine.solve(graph, "exact", mode="congest") for _label, graph in graphs]
    counts = [(r.metrics.measured_rounds, r.metrics.total_messages) for r in first]

    solved = []  # (graph position, result)
    windows_by_graph = [[] for _ in graphs]
    # The machine's speed is sampled on this thread right before and
    # after each solve: a solver process has the core to itself, and a
    # sampler on the other core tracks it less closely than this does.
    references = []
    ctx.tracer.enabled = ctx.traced
    started = time.perf_counter()
    while not solved or time.perf_counter() - started < ctx.seconds:
        for index, (_label, graph) in enumerate(graphs):  # whole passes only
            references += inline_samples()
            begun = time.perf_counter()
            result = engine.solve(graph, "exact", mode="congest")
            windows_by_graph[index].append((begun, time.perf_counter()))
            solved.append((index, result))
    references += inline_samples()
    ctx.tracer.enabled = False
    out.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out.attempted = out.calls = len(solved)
    out.call_windows = [window for windows in windows_by_graph for window in windows]
    speed = out.call_speed = SpeedTrace(references)
    out.samples["inline_speed"] = references
    scaled = [[speed.scaled(*window) for window in windows] for windows in windows_by_graph]
    raw = [[end - begun for begun, end in windows] for windows in windows_by_graph]
    out.ops_per_s = len(graphs) / sum(statistics.median(times) for times in scaled)
    out.ops_per_s_raw = len(graphs) / sum(statistics.median(times) for times in raw)
    out.samples["solve_ms_by_graph"] = {
        label: [round(seconds * 1e3, 3) for seconds in times]
        for (label, _), times in zip(graphs, raw)
    }
    out.extra["solve_ms_by_graph"] = {
        label: round(statistics.median(times) * 1e3, 3)
        for (label, _), times in zip(graphs, scaled)
    }

    oracle = [stoer_wagner_min_cut(graph).value for _label, graph in graphs]
    for index, result in solved:
        label, graph = graphs[index]
        counted = (result.metrics.measured_rounds, result.metrics.total_messages)
        if check_cut(out, label, graph, result, oracle[index]) and counted != counts[index]:
            out.problem(f"{label}: rounds/messages differ between solves of one graph")

    out.extra["congest_rounds"] = sum(rounds for rounds, _ in counts)
    out.extra["congest_messages"] = sum(messages for _, messages in counts)
    out.counters["congest_rounds_run"] = sum(r.metrics.measured_rounds for _, r in solved)
    out.counters["congest_messages_run"] = sum(r.metrics.total_messages for _, r in solved)
    out.inputs = {
        "graphs": [
            {"label": label, "n": g.number_of_nodes, "m": g.number_of_edges}
            for label, g in graphs
        ],
        "passes": round(len(solved) / len(graphs), 2),
    }
    if ctx.traced:
        out.spans = ctx.tracer.aggregates()
    return out
