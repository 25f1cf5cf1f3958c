"""E5 — Lemma 6: broadcast/convergecast awake complexity and throughput."""

from benchmarks.conftest import emit
from repro.core.cast import gather_bfs
from repro.graphs import random_tree
from repro.model import SleepingSimulator


def test_bench_gather_on_tree_n256(benchmark):
    """Simulator throughput on the workhorse primitive: convergecast +
    broadcast over a 256-node random tree."""
    graph = random_tree(256, seed=11)
    root = 1
    depth = graph.bfs_distances(root)
    parent = {
        v: (None if v == root else min(
            u for u in graph.neighbors(v) if depth[u] == depth[v] - 1))
        for v in graph.nodes
    }

    def run():
        def program(info):
            merged = yield from gather_bfs(
                info.id, info.neighbors, parent[info.id], depth[info.id],
                info.n, 1, info.id, max,
            )
            return merged

        return SleepingSimulator(graph, program).run()

    result = benchmark(run)
    assert all(out == 256 for out in result.outputs.values())


def test_lemma6_awake_bounds(experiment_cache):
    result = experiment_cache("E5")
    emit(result)
    assert all(row[-1] == "ok" for row in result.rows)
