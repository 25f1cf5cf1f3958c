"""E7 — Theorem 9: awake O(log c) given a colored BFS-clustering."""

from benchmarks.conftest import emit
from repro.core.clustering import ColoredBFSClustering
from repro.core.theorem9 import solve_with_clustering
from repro.graphs import gnp
from repro.olocal import MaximalIndependentSet


def test_bench_theorem9_solve(benchmark):
    graph = gnp(48, 0.1, seed=3)
    colors = {}
    for v in graph.nodes:
        used = {colors[u] for u in graph.neighbors(v) if u in colors}
        c = 1
        while c in used:
            c += 1
        colors[v] = c
    clustering = ColoredBFSClustering(colors, {v: 0 for v in graph.nodes})
    benchmark(
        solve_with_clustering, graph, MaximalIndependentSet(), clustering
    )


def test_awake_scales_logarithmically_in_c(experiment_cache):
    result = experiment_cache("E7")
    emit(result)
    assert all(row[-1] == "ok" for row in result.rows)
    # doubling c adds a bounded number of awake rounds (~7 per doubling)
    awake = [row[1] for row in result.rows]
    cs = [row[0] for row in result.rows]
    for (c1, a1), (c2, a2) in zip(zip(cs, awake), zip(cs[1:], awake[1:])):
        doublings = max(1, (c2 // max(c1, 1)).bit_length())
        assert a2 - a1 <= 8 * doublings
