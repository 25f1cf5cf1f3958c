"""E3 — Figure 3 / the Theorem 13 iteration: cluster-count decay trace."""

from benchmarks.conftest import emit
from repro.core.theorem13 import theorem13_reference
from repro.graphs import gnp


def test_bench_pipeline_reference_n96(benchmark):
    graph = gnp(96, 0.12, seed=7)
    benchmark(theorem13_reference, graph)


def test_regenerate_figure3_trace(experiment_cache):
    result = experiment_cache("E3")
    emit(result)
    assert all(row[-1] == "ok" for row in result.rows)
    # the loop terminates within the phase budget
    assert result.findings["phases used"] <= result.findings[
        "phase budget k = 2·sqrt(log n)"
    ]
    # |V(H_i)| strictly decreases
    sizes = [row[1] for row in result.rows]
    assert all(a > b for a, b in zip(sizes, sizes[1:]))
