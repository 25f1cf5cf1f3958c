"""Differential tests: array verdicts vs the per-node ``validate``.

On a graph whose CSR columns are built, ``OLocalProblem.check`` first
asks the array checks of ``repro/olocal/arrays.py`` for MIS,
(Δ+1)-coloring and vertex cover. An accept skips ``validate``; a reject
runs it, so the ``ValidationError`` text is ``validate``'s on both
paths. The array verdict must therefore never accept what ``validate``
rejects, and on every case here it accepts exactly what ``validate``
accepts, so valid outputs stay on the fast path. Outputs shaped as a
vectorized solve returns them, a ``ColumnMap`` over the graph's ``ids``
whose column the check reads directly, get the same verdict and the
same error text as the dict a per-node engine would hand back.
"""

import pytest

np = pytest.importorskip("numpy")

from repro.errors import ValidationError
from repro.graphs import StaticGraph, gnp, path, random_tree
from repro.graphs.arrays import ColumnMap
from repro.olocal import (
    DeltaPlusOneColoring,
    MaximalIndependentSet,
    MinimalVertexCover,
    sequential_greedy,
)
from repro.olocal.arrays import passes_array_check
from repro.olocal.problem import id_priority
from repro.util.idspace import permuted_ids

GRAPHS = {
    "empty": lambda: StaticGraph.from_edges([]),
    "single": lambda: path(1),
    "path": lambda: path(12),
    "tree": lambda: random_tree(30, seed=1),
    "gnp": lambda: gnp(40, 0.12, seed=3, ids=permuted_ids(40, seed=5)),
}


def without_arrays(graph):
    """A copy of ``graph`` with no index or arrays built yet."""
    return StaticGraph(adjacency=dict(graph.adjacency), id_space=graph.id_space)


def check_message(problem, graph, outputs):
    """``problem.check``'s error text, or None when it passes."""
    try:
        problem.check(graph, outputs)
    except ValidationError as exc:
        return str(exc)
    return None


def assert_paths_agree(problem, graph, outputs):
    """The array verdict is validate's, and check raises the same text."""
    per_node = without_arrays(graph)
    with_arrays = without_arrays(graph)
    arrays = with_arrays.arrays
    valid = problem.validate(per_node, outputs) == []
    assert passes_array_check(problem, arrays, outputs) == valid
    message = check_message(problem, per_node, outputs)
    assert "_arrays_cache" not in per_node.__dict__
    assert check_message(problem, with_arrays, outputs) == message
    assert (message is None) == valid
    return message


def column_view(problem, arrays, outputs):
    """``outputs`` as a vectorized solve returns them: a ``ColumnMap``
    over ``arrays.ids`` with the decider's dtype (bool, or int64 for
    coloring). ``None`` when no such column holds them exactly."""
    ids = arrays.ids.tolist()
    if set(outputs) != set(ids):
        return None
    kind = int if isinstance(problem, DeltaPlusOneColoring) else bool
    values = [outputs[v] for v in ids]
    if any(type(value) is not kind for value in values):
        return None
    try:
        column = np.array(values, dtype=np.int64 if kind is int else bool)
    except OverflowError:
        return None
    return ColumnMap(arrays.ids, (column,))


def assert_column_view_agrees(problem, graph, outputs):
    """The column view gets the verdict and the error text of the dict a
    per-node engine would return (keyed in slot order); returns the
    text, or ``False`` when ``outputs`` fit no column."""
    with_arrays = without_arrays(graph)
    arrays = with_arrays.arrays
    view = column_view(problem, arrays, outputs)
    if view is None:
        return False
    as_dict = dict(zip(arrays.ids.tolist(), view.columns[0].tolist()))
    message = check_message(problem, with_arrays, as_dict)
    assert passes_array_check(problem, arrays, view) == (message is None)
    assert check_message(problem, with_arrays, view) == message
    return message


def nodes_by_degree(graph):
    return sorted(graph.nodes, key=lambda v: (-graph.degree(v), v))


def set_corruptions(graph, valid):
    """Corruptions shared by the bool-valued problems (MIS, cover)."""
    nodes = list(graph.nodes)
    yield "extra key", {**valid, graph.id_space + 1: True}
    if not nodes:
        return
    v = nodes_by_degree(graph)[0]
    dropped = dict(valid)
    del dropped[v]
    yield "dropped node", dropped
    for bad in (1, 0, None, "x", "", 2.5, np.True_):
        yield f"{bad!r} for a bool", {**valid, v: bad}
    yield "all False", dict.fromkeys(nodes, False)
    yield "all True", dict.fromkeys(nodes, True)
    yield "flipped", {u: not out for u, out in valid.items()}
    for u in nodes[:3]:
        yield f"flip {u}", {**valid, u: not valid[u]}


def coloring_corruptions(graph, valid):
    nodes = list(graph.nodes)
    yield "extra key", {**valid, graph.id_space + 1: 1}
    if not nodes:
        return
    v = nodes_by_degree(graph)[0]
    deg = graph.degree(v)
    dropped = dict(valid)
    del dropped[v]
    yield "dropped node", dropped
    for bad in (0, -3, True, False, deg + 2, None, "x", 1.0, 1.5, 2**70,
                float("nan"), np.int64(1)):
        yield f"color {bad!r}", {**valid, v: bad}
    yield "all ones", dict.fromkeys(nodes, 1)
    yield "all True", dict.fromkeys(nodes, True)
    yield "all nan", dict.fromkeys(nodes, float("nan"))
    if deg:
        u = graph.neighbors(v)[0]
        yield "monochromatic edge", {**valid, v: valid[u]}
        yield "True next to 1", {**valid, v: 1, u: True}
        yield "1.0 next to 1", {**valid, v: 1, u: 1.0}
        yield "dropped endpoint", {
            w: c for w, c in {**valid, v: valid[u]}.items() if w != u
        }


CASES = [
    (MaximalIndependentSet, set_corruptions),
    (DeltaPlusOneColoring, coloring_corruptions),
    (MinimalVertexCover, set_corruptions),
]


@pytest.mark.parametrize("graph_name", sorted(GRAPHS))
@pytest.mark.parametrize(
    "problem_class, corruptions", CASES, ids=["mis", "coloring", "cover"]
)
def test_array_check_matches_validate(problem_class, corruptions, graph_name):
    problem = problem_class()
    graph = GRAPHS[graph_name]()
    valid = sequential_greedy(graph, problem, id_priority)
    assert assert_paths_agree(problem, graph, valid) is None
    assert assert_column_view_agrees(problem, graph, valid) is None
    rejected = rejected_views = 0
    for label, outputs in corruptions(graph, valid):
        message = assert_paths_agree(problem, graph, outputs)
        rejected += message is not None
        rejected_views += bool(assert_column_view_agrees(problem, graph, outputs))
    assert rejected >= (1 if graph.n > 1 else 0)
    assert rejected_views >= (1 if graph.n > 1 else 0)


@pytest.mark.parametrize(
    "problem_class", [c for c, _ in CASES], ids=["mis", "coloring", "cover"]
)
def test_larger_graph_with_many_violations(problem_class):
    """Hundreds of violations of every kind: still rejected alike."""
    problem = problem_class()
    graph = gnp(300, 0.05, seed=7, ids=permuted_ids(300, seed=2))
    valid = sequential_greedy(graph, problem, id_priority)
    outputs = {
        v: (not out if isinstance(out, bool) else 1 + (v % 3))
        for v, out in valid.items()
        if v % 11
    }
    message = assert_paths_agree(problem, graph, outputs)
    assert message is not None


def test_check_never_builds_arrays():
    graph = without_arrays(path(8))
    problem = MaximalIndependentSet()
    problem.check(graph, sequential_greedy(graph, problem, id_priority))
    assert "_arrays_cache" not in graph.__dict__
    assert graph.built_arrays is None


def test_subclass_keeps_its_own_validate():
    """A subclass may override validate, so it never takes the array path."""

    class Strict(MaximalIndependentSet):
        def validate(self, graph, outputs, inputs=None):
            return ["strict says no"]

    graph = path(6)
    graph.arrays
    problem = Strict()
    outputs = sequential_greedy(graph, problem, id_priority)
    assert not passes_array_check(problem, graph.arrays, outputs)
    with pytest.raises(ValidationError, match="strict says no"):
        problem.check(graph, outputs)


@pytest.mark.parametrize("arrays", [False, True])
def test_coloring_rejects_bool_colors(arrays):
    """bool is an int subclass, but True is not the color 1."""
    graph = path(3)
    if arrays:
        graph.arrays
    problem = DeltaPlusOneColoring()
    outputs = {1: True, 2: 2, 3: 1}
    assert problem.validate(graph, outputs) == ["node 1 has invalid color True"]
    with pytest.raises(ValidationError, match="node 1 has invalid color True"):
        problem.check(graph, outputs)

