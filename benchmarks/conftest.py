"""Shared helpers for the benchmark harness.

Every benchmark regenerates one 'artifact' of the paper (a claim, the
figure, or the prose comparison table) and emits an ASCII table.  Tables
are printed (visible with ``pytest -s``); only a run with
``--record-tables`` (see the root ``conftest.py``) writes them to
``benchmarks/results/<experiment>.txt``, so a plain test run leaves the
committed tables untouched.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

RESULTS_DIR = Path(__file__).parent / "results"


@pytest.fixture
def record_table(request):
    """Fixture: ``record_table(experiment_id, text)`` prints, and persists
    under ``--record-tables``."""
    persist = request.config.getoption("--record-tables")

    def _record(experiment_id: str, text: str) -> None:
        if persist:
            RESULTS_DIR.mkdir(exist_ok=True)
            path = RESULTS_DIR / f"{experiment_id}.txt"
            path.write_text(text + "\n", encoding="utf-8")
        print(f"\n{text}", file=sys.stderr)

    return _record


def run_once(benchmark, fn):
    """Run a heavy experiment exactly once under pytest-benchmark."""
    return benchmark.pedantic(fn, rounds=1, iterations=1, warmup_rounds=0)


def registry_comparison(graph, *, epsilon=None, seed=0, kinds=None,
                        names=None, mode="reference", include_heavy=False,
                        backend=None, cache=None):
    """Ground truth + every applicable registered solver on ``graph``.

    The façade-driven benchmark path: ``solve`` pins the registry's
    ground-truth solver (always in reference mode — it is the oracle),
    ``solve_all`` fans out over every applicable registered solver —
    so a newly registered solver is measured by the harness
    automatically, with no benchmark edit.  ``mode="congest"`` runs the
    fan-out on the CONGEST simulator (round-accounted solvers only),
    which is how the round-scaling experiments (E2, E5) go through the
    registry; ``names`` narrows to an explicit solver selection.  Both
    calls honour the execution engine's ``backend``/``cache`` knobs, so
    sweeps can parallelise and replayed instances skip recomputation.

    Returns ``(truth_result, results)``; render ``results`` with
    :func:`repro.analysis.format_cut_results` (pass
    ``truth=truth_result.value`` for the ratio column).
    """
    from repro.api import default_registry, solve, solve_all

    registry = default_registry()
    truth = solve(
        graph, solver=registry.ground_truth().name, seed=seed, cache=cache
    )
    results = solve_all(
        graph, epsilon=epsilon, seed=seed, kinds=kinds, names=names,
        mode=mode, include_heavy=include_heavy, backend=backend, cache=cache,
    )
    return truth, results
