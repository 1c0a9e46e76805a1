"""Per-layer metrics from a traced run's spans and the replies' counters.

Unless its name says otherwise, a ``_ms`` metric is the layer's time per
caller call (one solve, one ``/solve`` or ``/mutate`` round trip, one
``solve_batch`` sweep: the calls ``latency_p50_ms`` times), and a
``count`` metric is per call too.  ``exec.cache.get_ms.*`` are per lookup of
that outcome, ``store.open_ms`` is per server start and
``service.throttled``/``service.errors`` are totals.  Self time is a
span's duration minus its child spans on the same thread.
"""

from __future__ import annotations

#: Layers that do no work on a workload: their metrics must read zero
#: (times: under ``IDLE_TIME_SHARE`` of the operation's median latency).
IDLE_LAYERS = {
    "congest_exact": ("service", "service.protocol", "exec.cache", "store", "dynamic",
                      "exec.plan", "exec.remote"),
    "serve_solve": ("dynamic", "exec.plan", "exec.remote", "congest"),
    "serve_mutate": ("store", "exec.plan", "exec.remote", "congest"),
    "sweep_remote": ("exec.cache", "store", "dynamic", "congest"),
}
IDLE_TIME_SHARE = 0.02

#: Every per-layer metric: name -> unit.
UNITS = {
    "service.transport_ms": "ms",
    "service.dispatch_self_ms": "ms",
    "service.throttled": "count",
    "service.errors": "count",
    "service.protocol.parse_ms": "ms",
    "service.protocol.encode_ms": "ms",
    "api.engine.self_ms": "ms",
    "graphs.content_hash_ms": "ms",
    "graphs.content_hash_calls": "count",
    "graphs.index_ms": "ms",
    "exec.cache.get_ms.memory_hit": "ms",
    "exec.cache.get_ms.disk_hit": "ms",
    "exec.cache.get_ms.miss": "ms",
    "exec.cache.hit_ratio": "ratio",
    "exec.cache.put_ms": "ms",
    "exec.cache.flush_ms": "ms",
    "store.open_ms": "ms",
    "store.append_ms": "ms",
    "store.append_records": "count",
    "solver.run_ms": "ms",
    "solver.calls_per_op": "count",
    "dynamic.apply_ms": "ms",
    "dynamic.solve_self_ms": "ms",
    "dynamic.certified_ratio": "ratio",
    "dynamic.cache_hit_ratio": "ratio",
    "dynamic.index_rebuilds": "count",
    "exec.plan.pack_ms": "ms",
    "exec.remote.run_tasks_ms": "ms",
    "exec.remote.imbalance": "ratio",
    "exec.remote.idle_frac": "ratio",
    "exec.remote.chunks": "count",
    "exec.remote.stolen": "count",
    "congest.run_phase_ms": "ms",
    "congest.phases": "count",
    "congest.us_per_round": "us",
    "congest.us_per_message": "us",
    "packing.next_tree_ms": "ms",
    "core.one_respect_self_ms": "ms",
}


def _ratio(numerator, denominator) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer(outcome) -> dict:
    """Name -> value for every metric in :data:`UNITS`."""
    spans = outcome.spans
    calls = outcome.calls

    def total(name):
        return spans.get(name, {}).get("total_ms", 0.0)

    def own(name):
        return spans.get(name, {}).get("self_ms", 0.0)

    def count(name):
        return spans.get(name, {}).get("count", 0)

    def per_op(value):
        return _ratio(value, calls)

    gets = {kind: f"exec.cache.get.{kind}" for kind in ("memory_hit", "disk_hit", "miss")}
    lookups = sum(count(name) for name in gets.values())
    dynamic = outcome.counters.get("dynamic", {})
    remote = outcome.counters.get("remote", {})
    rounds = outcome.counters.get("congest_rounds_run", 0)
    messages = outcome.counters.get("congest_messages_run", 0)
    phase_us = total("congest.run_phase") * 1e3
    values = {
        "service.transport_ms": per_op(
            max(0.0, total("service.client_request") - total("service.dispatch"))
        ),
        "service.dispatch_self_ms": per_op(own("service.dispatch")),
        "service.throttled": outcome.counters.get("throttled", 0),
        "service.errors": outcome.counters.get("errors", 0),
        "service.protocol.parse_ms": per_op(total("service.protocol.parse")),
        "service.protocol.encode_ms": per_op(total("service.protocol.encode")),
        "api.engine.self_ms": per_op(
            own("api.engine.solve") + own("api.engine.solve_tasks")
            + own("api.engine.build_batch_tasks")
        ),
        "graphs.content_hash_ms": per_op(total("graphs.content_hash")),
        "graphs.content_hash_calls": per_op(count("graphs.content_hash")),
        "graphs.index_ms": per_op(total("graphs.index")),
        "exec.cache.hit_ratio": _ratio(
            count(gets["memory_hit"]) + count(gets["disk_hit"]), lookups
        ),
        "exec.cache.put_ms": per_op(total("exec.cache.put")),
        "exec.cache.flush_ms": per_op(total("exec.cache.flush")),
        "store.open_ms": total("store.open") + total("store.entries"),
        "store.append_ms": per_op(total("store.append")),
        "store.append_records": per_op(spans.get("store.append", {}).get("amount", 0)),
        "solver.run_ms": per_op(total("solver.run")),
        "solver.calls_per_op": per_op(count("solver.run")),
        "dynamic.apply_ms": per_op(total("dynamic.apply")),
        "dynamic.solve_self_ms": per_op(own("dynamic.solve")),
        "dynamic.certified_ratio": _ratio(dynamic.get("certified", 0), dynamic.get("solves", 0)),
        "dynamic.cache_hit_ratio": _ratio(dynamic.get("cache_hits", 0), dynamic.get("solves", 0)),
        "dynamic.index_rebuilds": per_op(dynamic.get("rebuilt", 0)),
        "exec.plan.pack_ms": per_op(total("exec.plan.pack")),
        "exec.remote.run_tasks_ms": per_op(total("exec.remote.run_tasks")),
        "exec.remote.imbalance": remote.get("imbalance", 0.0),
        "exec.remote.idle_frac": remote.get("idle_frac", 0.0),
        "exec.remote.chunks": per_op(remote.get("chunks", 0)),
        "exec.remote.stolen": per_op(remote.get("stolen", 0)),
        "congest.run_phase_ms": per_op(total("congest.run_phase")),
        "congest.phases": per_op(count("congest.run_phase")),
        "congest.us_per_round": _ratio(phase_us, rounds),
        "congest.us_per_message": _ratio(phase_us, messages),
        "packing.next_tree_ms": per_op(total("packing.next_tree")),
        "core.one_respect_self_ms": per_op(own("core.one_respect")),
    }
    for kind, name in gets.items():
        values[f"exec.cache.get_ms.{kind}"] = _ratio(total(name), count(name))
    return {name: values[name] for name in UNITS}


def idle_violations(workload: str, values: dict, latency_p50_ms: float) -> list:
    """Metrics of layers idle on ``workload`` that do not read zero."""
    from tracing import layer_of

    idle = IDLE_LAYERS[workload]
    wrong = []
    for name, value in values.items():
        if layer_of(name) not in idle:
            continue
        limit = IDLE_TIME_SHARE * latency_p50_ms if UNITS[name] == "ms" else 0.0
        if value > limit:
            wrong.append(f"{name}={value:.6g} (limit {limit:.3g})")
    return wrong
