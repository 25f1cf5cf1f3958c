"""Column-backed results: the array path makes no per-node dict it does not need.

``ColumnMap`` (``graphs/arrays.py``) is the read-only ``{ID: value}`` view
over ``GraphArrays.ids`` plus slot-ordered columns that the vectorized
engine returns wherever a per-node dict used to be. These tests pin its
contract (dict equality from either side, pickling, ``len``/``values``
without building) and guard the scale path: a ``gnp(method="fast")``
graph solved on the vectorized engine never builds its index or any
view's dict, and still matches the same solve on a ``from_edges`` twin.
"""

from __future__ import annotations

import pickle

import pytest

np = pytest.importorskip("numpy")

from repro.api import Scenario, run_scenario
from repro.core.algorithms import ALGORITHMS as ALGORITHM_REGISTRY
from repro.core.bm21_vectorized import solve_with_baseline_vectorized
from repro.core.clustering_vectorized import compute_clustering_vectorized
from repro.core.theorem1 import solve
from repro.core.theorem1_vectorized import (
    solve_vectorized,
    solve_with_clustering_vectorized,
)
from repro.graphs import gnp
from repro.graphs.arrays import ColumnMap, NeighborMap
from repro.graphs.graph import StaticGraph
from repro.olocal import PROBLEMS
from repro.olocal.problem import OLocalProblem

N = 2**12
ALGORITHMS = ("theorem1", "theorem9", "baseline", "greedy")


def fast_graph(n=64, seed=3):
    return gnp(n, 4 / n, seed=seed, method="fast")


def twin(graph):
    """The same graph through ``from_edges`` (dict adjacency, eager index)."""
    return StaticGraph.from_edges(
        graph.edges(), nodes=graph.nodes, id_space=graph.id_space
    )


class TestColumnMap:
    def test_equals_a_dict_from_both_sides(self):
        ids = np.array([2, 5, 9], dtype=np.int64)
        view = ColumnMap(ids, (np.array([7, 8, 9], dtype=np.int64),))
        assert view == {2: 7, 5: 8, 9: 9}
        assert {2: 7, 5: 8, 9: 9} == view
        assert view != {2: 7, 5: 8, 9: 0}
        assert {2: 7, 5: 8} != view
        assert view == ColumnMap(ids, ([7, 8, 9],))

    def test_len_and_values_do_not_build(self):
        ids = np.array([1, 2, 3], dtype=np.int64)
        view = ColumnMap(ids, (np.array([4, 4, 6], dtype=np.int64),))
        assert len(view) == 3
        assert sorted(view.values()) == [4, 4, 6]
        assert 6 in view.values() and len(view.values()) == 3
        assert max(view.values()) == 6
        assert not view.built
        assert view[3] == 6 and view.built
        assert list(view.values()) == [4, 4, 6]

    def test_values_are_python_scalars(self):
        view = ColumnMap(
            np.array([1, 2], dtype=np.int64), (np.array([True, False]),)
        )
        assert [type(x) for x in view.values()] == [bool, bool]
        assert type(view[1]) is bool

    def test_row_callable_combines_columns(self):
        ids = np.array([1, 2], dtype=np.int64)
        view = ColumnMap(ids, ([10, 20], np.array([3, 4])), row=divmod)
        assert list(view.values()) == [(3, 1), (5, 0)]
        assert view == {1: (3, 1), 2: (5, 0)}

    def test_read_only_and_unhashable(self):
        view = ColumnMap(np.array([1], dtype=np.int64), ([0],))
        with pytest.raises(TypeError):
            view[1] = 2
        with pytest.raises(TypeError):
            hash(view)

    def test_pickle_round_trip_drops_the_dict(self):
        view = ColumnMap(np.array([4, 7], dtype=np.int64), ([None, "x"],))
        view.get(4)
        again = pickle.loads(pickle.dumps(view))
        assert not again.built
        assert again == view and repr(again) == repr(view) == "{4: None, 7: 'x'}"


class TestGraphView:
    def test_from_edge_arrays_equals_its_from_edges_twin(self):
        graph = fast_graph()
        other = twin(graph)
        assert isinstance(graph.adjacency, NeighborMap)
        assert graph == other and other == graph
        assert repr(graph) == repr(other)

    def test_counts_read_the_columns(self):
        graph = fast_graph()
        counts = graph.n, graph.max_degree, graph.num_edges
        assert "_index_cache" not in graph.__dict__
        assert not graph.adjacency.built
        other = twin(graph)
        assert counts == (other.n, other.max_degree, other.num_edges)

    def test_index_and_adjacency_build_on_demand(self):
        graph = fast_graph()
        other = twin(graph)
        assert graph.nodes == other.nodes
        assert "_index_cache" in graph.__dict__
        assert not graph.adjacency.built
        v = graph.nodes[5]
        assert graph.neighbors(v) == other.neighbors(v)
        assert graph.adjacency.built
        assert list(graph.edges()) == list(other.edges())

    def test_graph_pickle_round_trip(self):
        graph = fast_graph()
        again = pickle.loads(pickle.dumps(graph))
        assert again == twin(graph)
        assert repr(again) == repr(graph)

    def test_deferred_index_build_is_traced(self, tmp_path):
        from repro.obs import spans
        from repro.obs.render import load_trace

        graph = fast_graph()
        trace = tmp_path / "t.jsonl"
        spans.configure(trace, export_env=False)
        try:
            graph.nodes  # the index
            graph.neighbors(graph.nodes[0])  # the adjacency dict
            graph.nodes  # both cached now
        finally:
            spans.disable()
        records, bad = load_trace(trace)
        assert bad == 0
        assert [r["name"] for r in records] == ["graphs.index"] * 2


class TestInputs:
    def test_list_coloring_keeps_per_node_palettes(self):
        graph = fast_graph()
        problem = PROBLEMS.get("degree_plus_one_list_coloring")
        inputs = problem.make_inputs(graph)
        assert type(inputs) is dict
        assert inputs == problem.make_inputs(twin(graph))
        v = graph.nodes[7]
        assert len(inputs[v]) == graph.degree(v) + 1

    def test_per_node_graph_keeps_a_dict(self):
        graph = twin(fast_graph())
        assert type(PROBLEMS.get("mis").make_inputs(graph)) is dict


class TestVectorizedResults:
    def test_theorem1_result_views_match_the_simulator(self):
        graph = fast_graph(48, seed=5)
        problem = PROBLEMS.get("mis")
        vec = solve_vectorized(graph, problem)
        ref = solve(twin(graph), problem)
        assert isinstance(vec.simulation.outputs, ColumnMap)
        assert isinstance(vec.simulation.metrics.awake_rounds, ColumnMap)
        assert vec.simulation.metrics.summary() == ref.simulation.metrics.summary()
        assert vec.simulation.outputs == ref.simulation.outputs
        assert vec.clustering == ref.clustering
        assert isinstance(vec.outputs, ColumnMap) and vec.outputs == ref.outputs

    def test_theorem1_result_pickle_round_trip(self):
        graph = fast_graph(48, seed=5)
        result = solve_vectorized(graph, PROBLEMS.get("coloring"))
        again = pickle.loads(pickle.dumps(result))
        assert again == result
        assert repr(again) == repr(result)
        assert again.simulation.metrics.summary() == result.simulation.metrics.summary()


@pytest.fixture
def made_inputs(monkeypatch):
    """Every mapping ``OLocalProblem.make_inputs`` returns while the test runs."""
    made = []
    make_inputs = OLocalProblem.make_inputs

    def spy(self, graph):
        inputs = make_inputs(self, graph)
        made.append(inputs)
        return inputs

    monkeypatch.setattr(OLocalProblem, "make_inputs", spy)
    return made


def unbuilt(views):
    return all(isinstance(v, ColumnMap) and not v.built for v in views)


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_scale_path_builds_no_per_node_dict(algorithm, made_inputs):
    """gnp(fast) → vectorized solve with checks on: no index, no view dict,
    and the same outcome as on the graph's from_edges twin."""
    scenario = Scenario(
        family="gnp", n=N, seed=0, problem="mis", algorithm=algorithm,
        engine="vectorized", params={"p": 8 / N, "method": "fast"},
    )
    result = run_scenario(scenario)
    assert result.ok
    graph, outcome = result.graph, result.outcome
    views = [graph.adjacency]
    clustering = outcome.extras.get("clustering")
    if clustering is not None:
        views += [clustering.color, clustering.dist]
    assert not made_inputs
    assert "_index_cache" not in graph.__dict__
    assert unbuilt(views)

    again = ALGORITHM_REGISTRY.get(algorithm).solve(
        twin(graph), PROBLEMS.get("mis"), engine="vectorized"
    )
    assert outcome.outputs == again.outputs
    assert (
        outcome.awake_complexity, outcome.average_awake,
        outcome.round_complexity, outcome.messages_sent,
    ) == (
        again.awake_complexity, again.average_awake,
        again.round_complexity, again.messages_sent,
    )
    assert outcome.extras == again.extras


def test_vectorized_results_leave_every_view_unbuilt(made_inputs):
    """The result objects of each vectorized solver, after its checks ran:
    metrics, outputs, assignments, clustering maps and inputs stay views."""
    graph = gnp(N, 8 / N, seed=0, method="fast")
    problem = PROBLEMS.get("mis")
    clustered = compute_clustering_vectorized(graph)
    theorem1 = solve_vectorized(graph, problem)
    theorem9 = solve_with_clustering_vectorized(
        graph, problem, clustered.clustering
    )
    baseline = solve_with_baseline_vectorized(graph, problem)

    views = [
        clustered.assignments,
        clustered.clustering.color,
        clustered.clustering.dist,
        clustered.simulation.outputs,
        theorem1.simulation.outputs,
    ]
    for result in (clustered, theorem1, theorem9, baseline):
        metrics = result.simulation.metrics
        metrics.summary()
        views += [metrics.awake_rounds, metrics.termination_round]
    assert not made_inputs
    assert "_index_cache" not in graph.__dict__
    assert unbuilt(views)
