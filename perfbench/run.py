"""The repository's benchmark: one command, four seeded workloads.

Usage (from the repository root)::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: ``congest_exact`` (the paper's exact algorithm on the CONGEST
simulator, in process), ``serve_solve`` (``/solve`` against ``repro
serve`` with a disk-backed cache), ``serve_mutate`` (``/mutate`` dynamic
sessions) and ``sweep_remote`` (``solve_batch`` over two workers).  Each
runs a closed loop for ``--seconds`` seconds on inputs made from
``--seed`` and checks every output against an oracle.

With ``--trace 0`` the last line of standard output is a JSON object
whose ``metrics`` are the end-to-end metrics declared in
``BENCHMARK.json``.  Their times are scaled to the reference speed of
:mod:`speed`, which takes out the host's changing speed; the same
figures as measured are printed beside them with a ``_measured`` suffix.
With ``--trace 1`` the program's layer boundaries are wrapped with spans
(in this process and in every server), the ``metrics`` are the
per-layer metrics of :mod:`layers`, and the raw spans of every process
are kept in ``.perfbench_out/<workload>-seed<N>-trace1-spans/``.
Either way the lines before it give a table of every figure, the run's
environment and its measured input properties, and a copy of the
record, raw samples included, is written to ``.perfbench_out/``.  The
exit code is non-zero when any output was wrong.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "peak_rss_mb": "MB",
}


def _terminate(signum, _frame):
    raise SystemExit(128 + signum)


def _workloads() -> dict:
    import wl_congest
    import wl_serve
    import wl_sweep

    return {
        "congest_exact": wl_congest.run,
        "serve_solve": wl_serve.serve_solve,
        "serve_mutate": wl_serve.serve_mutate,
        "sweep_remote": wl_sweep.run,
    }


def end_to_end(outcome, speed) -> tuple:
    """The declared metrics at the reference speed, the same as measured, and latencies."""
    call_speed = outcome.call_speed or speed
    latencies = [call_speed.scaled(*window) * 1e3 for window in outcome.call_windows]
    raw_latencies = [(end - start) * 1e3 for start, end in outcome.call_windows]
    scaled = {
        "setup_s": statistics.median(speed.scaled(*w) for w in outcome.setup_windows),
        "ops_per_s": outcome.ops_per_s,
        "latency_p50_ms": statistics.median(latencies) if latencies else 0.0,
        "peak_rss_mb": outcome.peak_rss_mb,
    }
    raw = {
        "setup_s": statistics.median(end - start for start, end in outcome.setup_windows),
        "ops_per_s": outcome.ops_per_s_raw,
        "latency_p50_ms": statistics.median(raw_latencies) if raw_latencies else 0.0,
    }
    return scaled, raw, latencies


def _keep_spans(tracer, run_dir: Path, spans_dir: Path) -> None:
    """Save the raw spans of this process and of every server next to the record."""
    shutil.rmtree(spans_dir, ignore_errors=True)
    spans_dir.mkdir()
    tracer.dump(spans_dir / "benchmark.trace.json")
    for path in run_dir.glob("*.trace.json"):
        shutil.move(str(path), str(spans_dir / path.name))


def _table(rows) -> str:
    width = max(len(name) for name, _, _ in rows)
    lines = []
    for name, value, unit in rows:
        shown = "-" if value is None else f"{value:.6g}"
        lines.append(f"  {name:<{width}}  {shown:>12}  {unit}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {SRC / 'repro'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    signal.signal(signal.SIGTERM, _terminate)
    # A caught signal is reset to its default in a child, an ignored one
    # stays ignored: servers stop on SIGINT even when this process was
    # started with SIGINT ignored (as background jobs are).
    signal.signal(signal.SIGINT, signal.default_int_handler)

    from common import OUT_DIR, Context, environment, stop_all, tail_percentile
    from layers import UNITS, idle_violations, per_layer
    from speed import Sampler
    from tracing import Tracer, install

    workloads = _workloads()
    if args.workload not in workloads:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads)}", file=sys.stderr)
        return 2

    env = environment()
    tracer = Tracer()
    if args.trace:
        install(tracer)
    OUT_DIR.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"run-{args.workload}-", dir=OUT_DIR))
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    sampler = None
    try:
        sampler = Sampler(run_dir)
        outcome = workloads[args.workload](
            Context(args.seed, args.seconds, bool(args.trace), run_dir, tracer, sampler)
        )
        speed = sampler.trace()
    finally:
        stop_all()
        if sampler is not None:
            sampler.stop()
        if args.trace:
            _keep_spans(tracer, run_dir, OUT_DIR / f"{stem}-spans")
        shutil.rmtree(run_dir, ignore_errors=True)
    env["loadavg_end"] = list(os.getloadavg())

    e2e, raw, latencies = end_to_end(outcome, speed)
    extra = {f"{name}_measured": value for name, value in raw.items()}
    extra["slowdown"] = speed.median_slowdown()
    extra.update(outcome.extra)
    extra["failed_frac"] = outcome.failed / outcome.attempted if outcome.attempted else 1.0
    extra["latency_samples"] = len(latencies)
    if args.workload in ("serve_solve", "serve_mutate"):
        extra["latency_p99_ms"] = tail_percentile(latencies, 99.0)
    rows = [(name, value, END_TO_END_UNITS[name]) for name, value in e2e.items()]
    rows += [(name, value, "") for name, value in extra.items()
             if isinstance(value, (int, float)) or value is None]
    layer_values = {}
    if args.trace:
        layer_values = per_layer(outcome)
        idle = idle_violations(args.workload, layer_values, raw["latency_p50_ms"])
        outcome.problems += [f"idle layer reads non-zero: {message}" for message in idle]
        if args.workload == "serve_solve":
            generated = outcome.counters["generated_hit_share"]
            if abs(layer_values["exec.cache.hit_ratio"] - generated) > 1e-9:
                outcome.problems.append(
                    f"cache hit ratio {layer_values['exec.cache.hit_ratio']:.4f} differs "
                    f"from the generator's {generated:.4f}"
                )
            if not 0 < layer_values["store.open_ms"] < raw["setup_s"] * 1e3:
                outcome.problems.append("store.open_ms is not a part of setup_s")

    correct = not outcome.problems and outcome.failed == 0
    title = f"{args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}"
    print(f"{title}\nend-to-end{' (traced)' if args.trace else ''}:\n{_table(rows)}")
    if args.trace:
        print("per-layer:\n" + _table(
            [(name, value, UNITS[name]) for name, value in layer_values.items()]
        ))
    for message in outcome.problems:
        print(f"FAILED CHECK: {message}")
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "correct": correct, "attempted": outcome.attempted,
        "failed": outcome.failed, "end_to_end": e2e, "extra": extra,
        "per_layer": layer_values, "spans": outcome.spans, "inputs": outcome.inputs,
        "env": env, "problems": outcome.problems,
        "samples": dict(
            outcome.samples, setup_windows=outcome.setup_windows,
            call_windows=outcome.call_windows,
            speed=list(zip(speed.times, speed.reference_ms)),
        ),
    }
    print(json.dumps({"inputs": outcome.inputs}, default=str))
    print(json.dumps({"env": env}))
    (OUT_DIR / f"{stem}.json").write_text(
        json.dumps(record, indent=1, default=str), encoding="utf-8"
    )
    if args.trace:
        metrics = {name: {"value": value, "unit": UNITS[name]}
                   for name, value in layer_values.items()}
    else:
        metrics = {name: {"value": value, "unit": END_TO_END_UNITS[name]}
                   for name, value in e2e.items()}
    print(json.dumps({"correct": correct, "attempted": outcome.attempted,
                      "failed": outcome.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
