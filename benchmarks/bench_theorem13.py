"""E8 — Theorem 13: colors, cluster decay, awake complexity, ID-space
remark (three sub-experiments)."""

from benchmarks.conftest import emit
from repro.core.theorem13 import compute_clustering, theorem13_reference
from repro.graphs import gnp


def test_bench_clustering_distributed_n24(benchmark):
    graph = gnp(24, 0.15, seed=5)
    benchmark(compute_clustering, graph)


def test_bench_clustering_reference_n512(benchmark):
    graph = gnp(512, 6.0 / 512, seed=6)
    benchmark(theorem13_reference, graph)


def test_color_bound_at_scale(experiment_cache):
    result = experiment_cache("E8a")
    emit(result)
    for row in result.rows:
        max_color, bound = row[5], row[6]
        assert max_color <= bound
    # sub-polynomial growth: multiplying n by 64 multiplies the palette
    # bound by far less (the bound crosses below n only at n ≈ 2^17+,
    # beyond simulable scale — same asymptotic story as the paper).
    first_n, last_n = result.rows[0][0], result.rows[-1][0]
    first_bound, last_bound = result.rows[0][6], result.rows[-1][6]
    assert last_bound / first_bound < (last_n / first_n) ** 0.5


def test_awake_bound_simulated(experiment_cache):
    result = experiment_cache("E8b")
    emit(result)
    assert all(row[-1] == "ok" for row in result.rows)


def test_idspace_remark(experiment_cache):
    result = experiment_cache("E8c")
    emit(result)
    rounds = [row[3] for row in result.rows]
    awake = [row[2] for row in result.rows]
    # rounds grow with the ID exponent s; awake stays in the same ballpark
    assert rounds[0] < rounds[1] < rounds[2]
    assert max(awake) <= 3 * min(awake)
