"""Short smoke of every workload; checks the benchmark, not the program's speed.

Run with ``python3 -m pytest perfbench/smoke.py -q`` from the repository
root (about two minutes).  The file name does not match pytest's
``test_*.py`` pattern, so the repository's test suite never collects it
and never runs the timed workloads.

For each workload it runs one second untraced and one second traced,
then asserts that every metric ``BENCHMARK.json`` declares is printed
with its unit, that the traced runs yield spans for every declared
layer, that layers idle on a workload read zero there, that the CONGEST
round and message counts repeat exactly for a seed, and that the runs
leave ``git status`` as they found it.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SEED = 7
WORKLOADS = ("congest_exact", "serve_solve", "serve_mutate", "sweep_remote")

sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

from layers import IDLE_LAYERS, UNITS, idle_violations  # noqa: E402
from tracing import layer_of  # noqa: E402


def _git_status():
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "status", "--porcelain"],
            capture_output=True, text=True, timeout=30,
        )
    except OSError:
        return None
    return done.stdout if done.returncode == 0 else None


def _declared():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def runs():
    """``(workload, trace) -> (final JSON line, saved record)``."""
    before = _git_status()
    results = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            done = subprocess.run(
                [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
                 "--seed", str(SEED), "--seconds", "1", "--trace", str(trace)],
                capture_output=True, text=True, cwd=ROOT, timeout=300,
            )
            assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
            final = json.loads(done.stdout.strip().splitlines()[-1])
            saved = ROOT / ".perfbench_out" / f"{workload}-seed{SEED}-trace{trace}.json"
            results[workload, trace] = (final, json.loads(saved.read_text()))
    results["git_status"] = (before, _git_status())
    return results


def test_declared_workloads_are_the_ones_run():
    assert [w["name"] for w in _declared()["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_printed_with_units(runs, workload):
    final, _ = runs[workload, 0]
    assert set(final) == {"correct", "attempted", "failed", "metrics"}
    assert final["correct"] and final["failed"] == 0 and final["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in _declared()["end_to_end"]}
    assert {name: m["unit"] for name, m in final["metrics"].items()} == declared
    assert all(m["value"] > 0 for m in final["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics_printed_with_units(runs, workload):
    final, _ = runs[workload, 1]
    assert final["correct"]
    declared = {m["name"]: m["unit"] for m in _declared()["per_layer"]}
    assert declared == UNITS
    assert {name: m["unit"] for name, m in final["metrics"].items()} == declared


def test_every_declared_layer_has_spans(runs):
    declared = {layer_of(m["name"]) for m in _declared()["per_layer"]}
    traced = {
        layer_of(name)
        for workload in WORKLOADS
        for name in runs[workload, 1][1]["spans"]
    }
    assert declared <= traced


@pytest.mark.parametrize("workload", WORKLOADS)
def test_idle_layers_read_zero(runs, workload):
    _, record = runs[workload, 1]
    values = record["per_layer"]
    assert idle_violations(workload, values, record["extra"]["latency_p50_ms_measured"]) == []
    for name, value in values.items():
        if layer_of(name) in IDLE_LAYERS[workload] and UNITS[name] != "ms":
            assert value == 0, name


def test_congest_counts_repeat_for_a_seed(runs):
    untraced = runs["congest_exact", 0][1]["extra"]
    traced = runs["congest_exact", 1][1]["extra"]
    for key in ("congest_rounds", "congest_messages"):
        assert untraced[key] == traced[key] > 0


def test_store_open_is_part_of_setup(runs):
    record = runs["serve_solve", 1][1]
    assert 0 < record["per_layer"]["store.open_ms"] < record["extra"]["setup_s_measured"] * 1e3


def test_runs_leave_the_tree_as_they_found_it(runs):
    before, after = runs["git_status"]
    assert before == after
