"""Shared helpers for the benchmark suite.

Every bench regenerates one paper artifact (figure or bound — see
DESIGN.md §4), prints its table (visible with ``pytest -s``), asserts the
claim columns, and times the core computation with pytest-benchmark.
"""

from __future__ import annotations

import pytest

from repro.analysis.experiments import run_experiment


def emit(result) -> None:
    """Print an ExperimentResult table (shown under ``pytest -s``)."""
    print()
    print(result.render())


@pytest.fixture(scope="session")
def experiment_cache():
    """Experiments are deterministic; share results across benches."""
    cache: dict[str, object] = {}

    def get(name: str):
        if name not in cache:
            cache[name] = run_experiment(name)
        return cache[name]

    return get
