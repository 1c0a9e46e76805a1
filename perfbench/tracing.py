"""Span tracing from the benchmark's side of each layer boundary.

The program has no spans of its own yet, so the traced run wraps the
public functions of each layer at the name the caller looks up (a
class attribute for methods, the importing module's global for
functions) and records one span per call: name, start, end, parent
span and, where the benchmark's client knows it, the operation id.

Spans are aggregated as they close (count, total time, self time —
duration minus the time covered by direct child spans on the same
thread), so a long run costs constant memory; the first
``RAW_SPAN_LIMIT`` raw spans are kept as well and written out with the
aggregates when the run ends.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from pathlib import Path

#: Raw spans kept per process; aggregates cover every span regardless.
RAW_SPAN_LIMIT = 20000

#: Request paths whose dispatch is solver work (``/healthz`` polling is not).
WORK_PATHS = ("/solve", "/solve_batch", "/mutate")

#: Span name prefix -> layer, longest prefix first when matching.
LAYERS = (
    "service.protocol",
    "service",
    "api.engine",
    "graphs",
    "exec.cache",
    "store",
    "solver",
    "dynamic",
    "exec.plan",
    "exec.remote",
    "congest",
    "packing",
    "core",
)


def layer_of(name: str) -> str:
    """The layer a span or metric name belongs to."""
    for layer in LAYERS:
        if name == layer or name.startswith(layer + "."):
            return layer
    raise ValueError(f"{name!r} belongs to no declared layer")


class Tracer:
    """In-memory span recorder shared by every wrapped function."""

    def __init__(self) -> None:
        self.enabled = False
        self._local = threading.local()
        self._lock = threading.Lock()
        self._per_thread: list[dict] = []
        self._raw: list[tuple] = []
        self._ids = itertools.count()
        self.started_ns = time.perf_counter_ns()

    # -- per-thread state ------------------------------------------------

    def _state(self):
        local = self._local
        stack = getattr(local, "stack", None)
        if stack is None:
            stack = local.stack = []
            local.stats = {}
            local.op = None
            with self._lock:
                self._per_thread.append(local.stats)
        return local

    def set_op(self, op_id) -> None:
        """Tag spans opened by this thread with ``op_id`` (or ``None``)."""
        self._state().op = op_id

    def span(self, original, name, namer=None, amount=None):
        """``original`` wrapped to record a span per call while enabled.

        The span is named ``name``, or by ``namer.after`` when a namer
        splits calls by argument or outcome; ``amount(result)`` adds to
        the span's ``amount`` total (records appended, for instance).
        """

        def traced(*args, **kwargs):
            if not self.enabled:
                return original(*args, **kwargs)
            local = self._state()
            pre = namer.before(args) if namer is not None else None
            span_id = next(self._ids)
            stack = local.stack
            parent = stack[-1][1] if stack else None
            frame = [0, span_id, time.perf_counter_ns()]
            stack.append(frame)
            result = None
            try:
                result = original(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                duration = end - frame[2]
                if stack:
                    stack[-1][0] += duration
                label = name if namer is None else namer.after(args, pre, result)
                entry = local.stats.get(label)
                if entry is None:
                    entry = local.stats[label] = [0, 0, 0, 0]
                entry[0] += 1
                entry[1] += duration
                entry[2] += duration - frame[0]
                if amount is not None and result is not None:
                    entry[3] += amount(result)
                if len(self._raw) < RAW_SPAN_LIMIT:
                    self._raw.append(
                        (span_id, parent, label, frame[2] - self.started_ns,
                         end - self.started_ns, threading.get_ident(), local.op)
                    )

        return functools.wraps(original)(traced)

    # -- output ----------------------------------------------------------

    def aggregates(self) -> dict:
        """Name -> ``{"count", "total_ms", "self_ms", "amount"}``."""
        merged: dict = {}
        with self._lock:
            tables = list(self._per_thread)
        for table in tables:
            for name, (count, total, self_ns, amount) in list(table.items()):
                entry = merged.setdefault(name, [0, 0, 0, 0])
                entry[0] += count
                entry[1] += total
                entry[2] += self_ns
                entry[3] += amount
        return {
            name: {
                "count": c, "total_ms": t / 1e6, "self_ms": s / 1e6, "amount": a,
            }
            for name, (c, t, s, a) in merged.items()
        }

    def dump(self, path) -> None:
        """Write aggregates plus the kept raw spans as JSON."""
        payload = {
            "aggregates": self.aggregates(),
            "spans": [
                dict(zip(("id", "parent", "name", "start_ns", "end_ns", "thread", "op"), s))
                for s in self._raw
            ],
        }
        Path(path).write_text(json.dumps(payload), encoding="utf-8")


def merge_aggregates(*tables: dict) -> dict:
    """Sum aggregate tables from several processes."""
    merged: dict = {}
    for table in tables:
        for name, entry in table.items():
            into = merged.setdefault(
                name, {"count": 0, "total_ms": 0.0, "self_ms": 0.0, "amount": 0}
            )
            for key in into:
                into[key] += entry[key]
    return merged


class _CacheGetNamer:
    """Split ``ResultCache.get`` spans into memory hit, disk hit and miss."""

    def before(self, args):
        cache, key = args[0], args[1]
        return key in cache._memory

    def after(self, args, in_memory, result):
        if result is None:
            return "exec.cache.get.miss"
        return "exec.cache.get.memory_hit" if in_memory else "exec.cache.get.disk_hit"


class _PathNamer:
    """Name request spans by whether their path is solver work."""

    def __init__(self, name: str, path_arg: int) -> None:
        self.name = name
        self.path_arg = path_arg

    def before(self, args):
        return None

    def after(self, args, _pre, _result):
        path = str(args[self.path_arg]).split("?", 1)[0].rstrip("/")
        return self.name if path in WORK_PATHS else self.name + ".other"


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the per-layer metrics read."""
    import repro.exec.backends as backends
    import repro.exec.remote as remote
    import repro.mincut.exact as exact
    import repro.service.server as server
    from repro.api.engine import Engine
    from repro.api.registry import default_registry
    from repro.congest.network import CongestNetwork
    from repro.dynamic.session import DynamicSession
    from repro.exec.cache import ResultCache
    from repro.graphs.graph import WeightedGraph
    from repro.packing.greedy import GreedyTreePacking
    from repro.service.client import ServiceClient
    from repro.store.store import SegmentStore

    def wrap(owner, attr, name, namer=None, amount=None):
        setattr(owner, attr, tracer.span(getattr(owner, attr), name, namer, amount))

    wrap(ServiceClient, "_request", None, _PathNamer("service.client_request", 2))
    wrap(server.ReproService, "dispatch", None, _PathNamer("service.dispatch", 2))
    for parse in ("parse_solve_request", "parse_batch_request", "parse_mutate_request"):
        wrap(server, parse, "service.protocol.parse")
    wrap(server, "cut_result_to_json", "service.protocol.encode")
    wrap(Engine, "solve", "api.engine.solve")
    wrap(Engine, "solve_tasks", "api.engine.solve_tasks")
    wrap(Engine, "build_batch_tasks", "api.engine.build_batch_tasks")
    wrap(WeightedGraph, "content_hash", "graphs.content_hash")
    wrap(WeightedGraph, "index", "graphs.index")
    wrap(ResultCache, "get", None, _CacheGetNamer())
    wrap(ResultCache, "put", "exec.cache.put")
    wrap(ResultCache, "flush", "exec.cache.flush")
    wrap(SegmentStore, "__init__", "store.open")
    wrap(SegmentStore, "entries", "store.entries")
    wrap(SegmentStore, "append", "store.append", amount=int)
    # ``run`` is a field of each frozen spec, looked up per instance.
    for spec in default_registry():
        object.__setattr__(spec, "run", tracer.span(spec.run, "solver.run"))
    wrap(DynamicSession, "apply", "dynamic.apply")
    wrap(DynamicSession, "solve", "dynamic.solve")
    wrap(remote, "pack_tasks", "exec.plan.pack")
    wrap(backends, "pack_tasks", "exec.plan.pack")
    wrap(remote.RemoteExecutor, "run_tasks", "exec.remote.run_tasks")
    wrap(CongestNetwork, "run_phase", "congest.run_phase")
    wrap(GreedyTreePacking, "next_tree", "packing.next_tree")
    wrap(exact, "one_respecting_min_cut_congest", "core.one_respect")
