"""E9 — the headline: Theorem 1 vs the BM21 baseline across degree regimes.

The paper claims a polynomial improvement in awake complexity for
Δ ≫ 2^{sqrt(log n)}. At simulable scales the asymptotic crossover is out of
reach (constants favor the baseline), so the bench asserts the *shapes*:
the baseline's awake grows with log Δ while Theorem 1's is flat in Δ, and
the Thm1/BM21 ratio is non-increasing in n on the high-degree families.
"""

from benchmarks.conftest import emit
from repro.core.theorem1 import solve
from repro.graphs import gnp
from repro.olocal import MaximalIndependentSet


def test_bench_theorem1_solve_n24(benchmark):
    graph = gnp(24, 0.15, seed=7)
    benchmark(solve, graph, MaximalIndependentSet())


def test_headline_shapes(experiment_cache):
    result = experiment_cache("E9")
    emit(result)
    rows = result.rows
    complete = [r for r in rows if "complete" in r[0]]
    path_rows = [r for r in rows if "path" in r[0]]

    # Theorem 1's awake is flat in Δ: complete vs path awake within 3x.
    for c_row, p_row in zip(complete, path_rows):
        assert c_row[4] <= 3 * p_row[4]

    # Baseline's awake is non-decreasing in n on complete graphs (log Δ).
    base_awake = [r[3] for r in complete]
    assert all(a <= b + 1 for a, b in zip(base_awake, base_awake[1:]))

    # The asymptotic trend: Thm1/BM21 ratio non-increasing in n on the
    # high-degree family (allowing 10% noise).
    ratios = [float(r[5]) for r in complete]
    assert all(r2 <= r1 * 1.1 for r1, r2 in zip(ratios, ratios[1:]))
