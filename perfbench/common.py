"""Shared plumbing: paths, server processes, statistics, environment record."""

from __future__ import annotations

import hashlib
import json
import os
import platform
import re
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path
from urllib.parse import urlsplit

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
#: Everything a run writes lives here (ignored by git).
OUT_DIR = ROOT / ".perfbench_out"

_LISTENING = re.compile(r"listening on (\S+)")

#: Servers not yet stopped; ``stop_all`` runs on every exit path.
_LIVE: list["Server"] = []


def program_env() -> dict:
    """Environment for a child process that imports the program from ``src/``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (str(SRC), env.get("PYTHONPATH", "")) if part
    )
    return env


class Server:
    """One ``repro serve --port 0`` child process.

    Output and the access log go to files in ``run_dir`` (never to a
    pipe nobody drains), and the child runs with ``run_dir`` as its
    working directory so nothing it writes lands in the source tree.
    With ``traced`` the benchmark's launcher installs the span
    wrappers before handing over to the same ``serve`` command.
    """

    def __init__(self, run_dir: Path, tag: str, args: list, *, traced: bool) -> None:
        self.tag = tag
        self.out_path = run_dir / f"{tag}.out"
        self.trace_path = run_dir / f"{tag}.trace.json"
        if traced:
            cmd = [sys.executable, str(BENCH_DIR / "traced_serve.py")]
        else:
            cmd = [sys.executable, "-m", "repro"]
        cmd += ["serve", "--port", "0", "--access-log", str(run_dir / f"{tag}.access.log")]
        cmd += [str(arg) for arg in args]
        env = program_env()
        if traced:
            env["PERFBENCH_TRACE_OUT"] = str(self.trace_path)
        self.url = None
        self.spawned = time.perf_counter()
        with open(self.out_path, "wb") as out:
            self.proc = subprocess.Popen(
                cmd, stdout=out, stderr=subprocess.STDOUT, env=env, cwd=run_dir
            )
        _LIVE.append(self)

    def wait_ready(self, timeout: float = 60.0) -> float:
        """Block until ``/healthz`` answers; returns seconds since spawn."""
        from repro.service import ServiceClient

        deadline = self.spawned + timeout
        while self.url is None:
            match = _LISTENING.search(self.out_path.read_text(errors="replace"))
            if match:
                self.url = match.group(1)
                break
            if self.proc.poll() is not None or time.perf_counter() > deadline:
                raise RuntimeError(
                    f"server {self.tag} did not start:\n{self.out_path.read_text()}"
                )
            time.sleep(0.002)
        client = ServiceClient(self.url, timeout=10.0)
        client.wait_until_ready(timeout=max(1.0, deadline - time.perf_counter()), interval=0.002)
        client.close()
        return time.perf_counter() - self.spawned

    def health(self) -> dict:
        from repro.service import ServiceClient

        client = ServiceClient(self.url, timeout=10.0)
        try:
            return client.health()
        finally:
            client.close()

    def peak_rss_mb(self) -> float:
        """Peak resident set size of the live server (``VmHWM``)."""
        with open(f"/proc/{self.proc.pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError(f"no VmHWM for server {self.tag}")

    def stop(self, timeout: float = 15.0) -> None:
        """SIGINT (clean shutdown, trace written), then SIGKILL if needed.

        When the kernel hands the signal to one of the server's worker
        threads, the event loop sleeps on until some socket event wakes
        it to run the handler, so the server is poked with connections
        until it exits.
        """
        if self in _LIVE:
            _LIVE.remove(self)
        if self.proc.poll() is not None:
            return
        self.proc.send_signal(signal.SIGINT)
        address = urlsplit(self.url) if self.url else None
        deadline = time.monotonic() + timeout
        while self.proc.poll() is None and time.monotonic() < deadline:
            if address is not None:
                try:
                    socket.create_connection((address.hostname, address.port), 1.0).close()
                except OSError:
                    pass
            try:
                self.proc.wait(timeout=0.2)
            except subprocess.TimeoutExpired:
                pass
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()


def stop_all() -> None:
    for server in list(_LIVE):
        try:
            server.stop(timeout=5.0)
        except OSError:
            pass


def timed_setup(out, run_dir: Path, tags: list, args: list, *, traced: bool, repeats: int):
    """Start the servers together ``repeats`` times; keep the last set running.

    A start lasts from spawning until every server answers ``/healthz``;
    each one's ``(start, end)`` goes to ``out.setup_windows``.  Earlier
    sets are stopped as soon as they answer, so each start sees the same
    inputs.  Returns the last set.
    """
    servers = []
    for attempt in range(repeats):
        started = time.perf_counter()
        servers = [
            Server(run_dir, f"{tag}-start{attempt}", args, traced=traced) for tag in tags
        ]
        for server in servers:
            server.wait_ready()
        out.setup_windows.append((started, time.perf_counter()))
        if attempt < repeats - 1:
            for server in servers:
                server.stop()
    return servers


def percentile(samples, q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100) of a non-empty sample."""
    ordered = sorted(samples)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def tail_percentile(samples, q: float = 99.0):
    """``percentile(q)`` when at least ten samples lie beyond it, else ``None``."""
    if len(samples) * (100.0 - q) / 100.0 < 10:
        return None
    return percentile(samples, q)


def chunk_rates(completions, started: float, speed=None, chunks: int = 30) -> list:
    """Work per second of each of ``chunks`` consecutive runs of completions.

    ``completions`` holds ``(time, amount)`` pairs.  Each chunk's rate is
    its work over the time since the previous chunk ended (scaled by
    ``speed``, a :class:`speed.SpeedTrace`, when given), so a median over
    chunks shrugs off a few seconds in which the machine was busy with
    other work, which a total-over-duration rate would take in full.
    """
    ordered = sorted(completions)
    size = max(1, len(ordered) // chunks)
    rates = []
    previous = started
    for lo in range(0, len(ordered) - size + 1, size):
        chunk = ordered[lo:lo + size]
        ended = chunk[-1][0]
        if ended > previous:
            seconds = ended - previous if speed is None else speed.scaled(previous, ended)
            rates.append(sum(amount for _, amount in chunk) / seconds)
        previous = ended
    return rates


def same_value(a: float, b: float) -> bool:
    return abs(a - b) <= 1e-9 * max(1.0, abs(a), abs(b))


def src_lines() -> dict:
    """Source lines per package under ``src/repro`` (top-level modules as ``repro``)."""
    counts: dict = {}
    package_root = SRC / "repro"
    for path in sorted(package_root.rglob("*.py")):
        rel = path.relative_to(package_root)
        package = rel.parts[0] if len(rel.parts) > 1 else "repro"
        with open(path, "rb") as handle:
            counts[package] = counts.get(package, 0) + sum(1 for _ in handle)
    counts["total"] = sum(counts.values())
    return counts


def src_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_sha():
    """The checkout's commit, or ``None`` outside a git work tree."""
    try:
        top = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def environment() -> dict:
    """What a result needs next to it to be compared with another."""
    from repro.congest.network import CongestNetwork
    from repro.graphs.generators import path_graph

    return {
        "git_sha": git_sha(),
        "src_digest": src_digest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "loadavg_start": list(os.getloadavg()),
        "congest_engine": CongestNetwork(path_graph(2)).active_engine,
        "src_lines": src_lines(),
    }


class Context:
    """One run's arguments and scratch space."""

    def __init__(self, seed: int, seconds: float, traced: bool, run_dir: Path, tracer,
                 speed) -> None:
        self.seed = seed
        self.seconds = seconds
        self.traced = traced
        self.run_dir = run_dir
        self.tracer = tracer
        #: The run's :class:`speed.Sampler`.
        self.speed = speed


class Outcome:
    """What a workload measured, checked and saw, before naming metrics."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list = []
        #: ``(start, end)`` of each set-up.
        self.setup_windows: list = []
        #: Work completed per second of the measured phase, at the
        #: reference speed and as measured.
        self.ops_per_s = 0.0
        self.ops_per_s_raw = 0.0
        #: Caller calls answered in the measured phase.
        self.calls = 0
        #: ``(start, end)`` of each answered caller call.
        self.call_windows: list = []
        #: The :class:`speed.SpeedTrace` that scales the calls, when not
        #: the run's sampler.
        self.call_speed = None
        self.peak_rss_mb = 0.0
        #: Figures a user sees that are not gated end-to-end metrics.
        self.extra: dict = {}
        #: Measured properties of the generated inputs.
        self.inputs: dict = {}
        #: Per-layer inputs: span aggregates and counters from replies.
        self.spans: dict = {}
        self.counters: dict = {}
        #: Raw measurements behind the metrics, saved with the run record.
        self.samples: dict = {}

    def problem(self, message: str) -> None:
        """Record a wrong output (it also counts as a failed operation)."""
        if len(self.problems) < 20:
            self.problems.append(message)
        self.failed += 1


def check_cut(out, label, graph, result, oracle) -> bool:
    """True when ``result`` has the oracle's value and a witness cutting it.

    Otherwise the wrong output is recorded on ``out``.
    """
    from repro.errors import AlgorithmError

    if not same_value(result.value, oracle):
        out.problem(f"{label}: value {result.value} != oracle {oracle}")
        return False
    try:
        witnessed = result.verify(graph)
    except AlgorithmError as exc:
        out.problem(f"{label}: witness rejected: {exc}")
        return False
    if not same_value(witnessed, result.value):
        out.problem(f"{label}: witness cuts {witnessed}, not {result.value}")
        return False
    return True


def stop_and_collect(out, ctx, servers) -> None:
    """Read counters and peak RSS, stop the servers, merge their spans."""
    from tracing import merge_aggregates

    health = [server.health() for server in servers]
    out.peak_rss_mb = sum(server.peak_rss_mb() for server in servers)
    for server in servers:
        server.stop()
    out.counters["throttled"] = sum(h["requests"]["throttled"] for h in health)
    out.counters["errors"] = sum(h["requests"]["errors"] for h in health)
    out.counters["health"] = health
    if ctx.traced:
        tables = [ctx.tracer.aggregates()]
        for server in servers:
            if not server.trace_path.exists():
                raise RuntimeError(
                    f"server {server.tag} exited with {server.proc.returncode} and wrote "
                    f"no spans:\n{server.out_path.read_text()[-3000:]}"
                )
            tables.append(json.loads(server.trace_path.read_text())["aggregates"])
        out.spans = merge_aggregates(*tables)
