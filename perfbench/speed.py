"""The machine's speed during a run, from a reference loop timed beside the program.

On a shared host the same code runs up to twice as slow for tens of
seconds at a time, because other tenants load the physical cores; CPU
time slows down just as much as wall time, so it is the processor that
is slower, not the scheduling.  A sampler process times a fixed
reference loop in CPU seconds every ``INTERVAL_S`` for the whole run,
and every timed operation is scaled by the reference's median time
around it: ``scaled = measured * REFERENCE_MS / reference time``.  A
scaled time is what the operation would take on this hardware with the
cores to itself.  A change to the program moves it as it moves the
measured time; a change in the host's load cancels out.

Usage as a sampler: ``python3 perfbench/speed.py OUT_FILE`` appends
``<perf_counter seconds> <reference CPU ms>`` lines to ``OUT_FILE``
until it is terminated or its parent exits.
"""

from __future__ import annotations

import bisect
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

#: The reference loop's CPU time (ms) on an otherwise idle core of the
#: 2-vCPU Xeon (Sapphire Rapids) VM the benchmark was written on.  Any
#: fixed value would do: it only sets the scale of scaled times.
REFERENCE_MS = 1.2
#: Seconds between two samples (about 5% of one core).
INTERVAL_S = 0.025
#: Samples within this many seconds of an operation time it.
PAD_S = 0.25
MIN_SAMPLES = 5

BENCH_DIR = Path(__file__).resolve().parent


#: The reference's input: the edge list of a fixed sparse graph on 48 nodes.
_EDGES = [[i, (i * 7 + 3) % 48, float(1 + i % 3)] for i in range(48)] + [
    [i, (i + 1) % 48, 2.0] for i in range(48)
]


def reference() -> int:
    """A fixed piece of the work a request does, in the standard library alone.

    JSON encode and decode of a small graph, an adjacency dict built
    from it, its canonical lines hashed with SHA-256, and a dict loop.
    """
    total = 0
    for _ in range(3):
        edges = json.loads(json.dumps({"edges": _EDGES}))["edges"]
        adjacency: dict = {}
        for u, v, w in edges:
            adjacency.setdefault(u, {})[v] = w
            adjacency.setdefault(v, {})[u] = w
        lines = sorted(f"{u}-{v}:{w!r}" for u, row in adjacency.items() for v, w in row.items())
        total += hashlib.sha256("\n".join(lines).encode()).digest()[0]
    table: dict = {}
    for i in range(2000):
        table[i & 1023] = i
        total += table.get((i * 7) & 1023, 0)
    return total


def inline_samples(repeats: int = 3) -> list:
    """``repeats`` ``(perf_counter seconds, reference CPU ms)`` samples timed here.

    Taken on the calling thread between two timed operations, when the
    program is not running, so the program's own load on the other
    core does not slow the reference down.
    """
    samples = []
    for _ in range(repeats):
        began = time.thread_time()
        reference()
        samples.append((time.perf_counter(), (time.thread_time() - began) * 1e3))
    return samples


class Sampler:
    """The sampler process for one run; ``trace()`` reads what it measured."""

    def __init__(self, run_dir: Path) -> None:
        self.path = run_dir / "speed.txt"
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "speed.py"), str(self.path)],
            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
        )

    def trace(self) -> "SpeedTrace":
        samples = []
        if self.path.exists():
            for line in self.path.read_text().splitlines():
                parts = line.split()
                if len(parts) == 2:  # the last line may be half written
                    samples.append((float(parts[0]), float(parts[1])))
        return SpeedTrace(samples)

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
        self.proc.wait()


class SpeedTrace:
    """Reference times by wall clock; scales operation times by them."""

    def __init__(self, samples) -> None:
        samples = sorted(samples)
        if len(samples) < MIN_SAMPLES:
            raise RuntimeError(f"the speed sampler took only {len(samples)} samples")
        self.times = [t for t, _ in samples]
        self.reference_ms = [ms for _, ms in samples]

    def slowdown(self, start: float, end: float) -> float:
        """Median reference time around ``[start, end]`` over ``REFERENCE_MS``."""
        pad = PAD_S
        while True:
            lo = bisect.bisect_left(self.times, start - pad)
            hi = bisect.bisect_right(self.times, end + pad)
            if hi - lo >= MIN_SAMPLES or hi - lo == len(self.times):
                break
            pad *= 2
        return statistics.median(self.reference_ms[lo:hi]) / REFERENCE_MS

    def scaled(self, start: float, end: float) -> float:
        """Seconds from ``start`` to ``end`` at the reference speed."""
        return (end - start) / self.slowdown(start, end)

    def median_slowdown(self) -> float:
        return statistics.median(self.reference_ms) / REFERENCE_MS


def main() -> int:
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # stopped by SIGTERM only
    parent = os.getppid()
    reference()  # warm up
    with open(sys.argv[1], "a", encoding="ascii") as out:
        while os.getppid() == parent:
            began = time.thread_time()
            reference()
            cpu_ms = (time.thread_time() - began) * 1e3
            out.write(f"{time.perf_counter():.6f} {cpu_ms:.5f}\n")
            out.flush()
            time.sleep(INTERVAL_S)
    return 0


if __name__ == "__main__":
    sys.exit(main())
