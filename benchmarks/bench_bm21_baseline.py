"""E6 — Lemma 11 + the BM21 baseline: awake O(log Δ + log* n)."""

from benchmarks.conftest import emit
from repro.core.bm21 import solve_with_baseline
from repro.graphs import complete_graph, gnp
from repro.olocal import DeltaPlusOneColoring, MaximalIndependentSet


def test_bench_baseline_sparse(benchmark):
    graph = gnp(64, 0.08, seed=2)
    benchmark(solve_with_baseline, graph, MaximalIndependentSet())


def test_bench_baseline_dense(benchmark):
    graph = complete_graph(48)
    benchmark(solve_with_baseline, graph, DeltaPlusOneColoring())


def test_baseline_bounds_hold(experiment_cache):
    result = experiment_cache("E6")
    emit(result)
    assert all(row[-1] == "ok" for row in result.rows)
    # log Δ growth: complete-64 costs more awake than complete-32
    awake = {row[0]: row[3] for row in result.rows}
    assert awake["complete-64"] >= awake["complete-32"]
