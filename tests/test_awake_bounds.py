"""Paper-bound invariants of the Theorem 9 and BM21 baseline solvers.

A validated run of either solver, on the simulator or the vectorized
engine, raises ``ProtocolError`` when its awake complexity exceeds the
closed-form bound of ``analysis/bounds.py`` — ``theorem9_awake_bound(n,
palette)`` or ``baseline_awake_bound(id_space, Δ)`` — through the shared
helpers next to ``core.theorem1.check_awake_bound``. The bound is tight
(the measured awake complexity can equal it), so the check is a strict
``>``.
"""

from __future__ import annotations

import pytest

pytest.importorskip("numpy")

import repro.core.theorem1 as t1
from repro.analysis.bounds import baseline_awake_bound, theorem9_awake_bound
from repro.core.bm21 import solve_with_baseline
from repro.core.bm21_vectorized import solve_with_baseline_vectorized
from repro.core.clustering_vectorized import compute_clustering_vectorized
from repro.core.theorem1_vectorized import solve_with_clustering_vectorized
from repro.core.theorem9 import solve_with_clustering
from repro.errors import ProtocolError
from repro.graphs.families import build_family_graph
from repro.olocal import PROBLEMS

FAMILIES = ("gnp", "tree", "powerlaw", "path")
PROBLEM_NAMES = ("mis", "coloring", "vertex-cover")
ENGINES = ("simulator", "vectorized")


def theorem9_solver(engine):
    if engine == "vectorized":
        return solve_with_clustering_vectorized
    return solve_with_clustering


def baseline_solver(engine):
    if engine == "vectorized":
        return solve_with_baseline_vectorized
    return solve_with_baseline


@pytest.fixture(scope="module")
def graphs():
    built = {}
    for family in FAMILIES:
        graph = build_family_graph(family, 40, seed=7)
        built[family] = graph, compute_clustering_vectorized(graph).clustering
    return built


@pytest.mark.parametrize("engine", ENGINES)
def test_theorem9_run_over_the_bound_raises(monkeypatch, graphs, engine):
    graph, clustering = graphs["gnp"]
    solve = theorem9_solver(engine)
    monkeypatch.setattr(t1, "theorem9_awake_bound", lambda n, palette: 1)
    with pytest.raises(
        ProtocolError,
        match=r"awake complexity \d+ exceeds the Theorem 9 bound 1",
    ):
        solve(graph, PROBLEMS.get("mis"), clustering)
    solve(graph, PROBLEMS.get("mis"), clustering, validate=False)


@pytest.mark.parametrize("engine", ENGINES)
def test_baseline_run_over_the_bound_raises(monkeypatch, graphs, engine):
    graph, _ = graphs["gnp"]
    monkeypatch.setattr(t1, "baseline_awake_bound", lambda id_space, delta: 1)
    with pytest.raises(
        ProtocolError,
        match=r"awake complexity \d+ exceeds the baseline bound 1",
    ):
        baseline_solver(engine)(graph, PROBLEMS.get("mis"))


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("name", PROBLEM_NAMES)
def test_real_bounds_hold(graphs, family, name):
    """Both bounds hold on every engine, with the same awake complexity."""
    graph, clustering = graphs[family]
    problem = PROBLEMS.get(name)
    t9 = [theorem9_solver(e)(graph, problem, clustering) for e in ENGINES]
    bl = [baseline_solver(e)(graph, problem) for e in ENGINES]
    assert t9[0].awake_complexity == t9[1].awake_complexity
    assert bl[0].awake_complexity == bl[1].awake_complexity
    assert t9[0].awake_complexity <= theorem9_awake_bound(
        graph.n, t9[0].palette
    )
    assert bl[0].awake_complexity <= baseline_awake_bound(
        graph.id_space, max(graph.max_degree, 1)
    )
