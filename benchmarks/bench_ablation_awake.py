"""E11/E12 — ablations: average awake complexity (Open Question 3) and the
phase parameter b of Theorem 13."""

from benchmarks.conftest import emit
from repro.core.theorem13 import compute_clustering
from repro.graphs import gnp


def test_bench_clustering_b2_vs_default(benchmark):
    """Time the pipeline at the smallest b (most phases)."""
    graph = gnp(20, 0.2, seed=13)
    benchmark(compute_clustering, graph, 2)


def test_average_awake_tracks_max(experiment_cache):
    result = experiment_cache("E11")
    emit(result)
    for row in result.rows:
        name, max_awake, avg_awake = row[0], row[1], row[2]
        assert avg_awake <= max_awake
        # data-independent calendars: the average is a large fraction of
        # the max (Open Question 3 — adaptive schedules — remains open)
        assert avg_awake >= 0.3 * max_awake


def test_b_ablation_tradeoff(experiment_cache):
    result = experiment_cache("E12")
    emit(result)
    palettes = [row[1] for row in result.rows]
    assert all(a < b for a, b in zip(palettes, palettes[1:]))
    # phases never increase with b
    phases = [row[2] for row in result.rows]
    assert all(a >= b for a, b in zip(phases, phases[1:]))
