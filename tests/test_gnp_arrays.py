"""The array-native ``gnp(method="fast")`` sampler and ``StaticGraph.from_edge_arrays``.

The sampler must draw, bit for bit, the graph networkx's
``fast_gnp_random_graph`` plus the component-chain patch gave: the oracle
below is the skip walk and the chain in plain Python, and every graph is
compared column by column against the oracle's index mirror.
``from_edge_arrays`` is the array twin of ``from_edges``: it builds the
same graph from the same edges, and its failure modes use the same error
vocabulary.
"""

from __future__ import annotations

import itertools
import math
import random

import networkx as nx
import numpy as np
import pytest

from repro.errors import GraphError
from repro.graphs import gnp
from repro.graphs.arrays import GraphArrays, component_minima
from repro.graphs.generators import _connect, _skip_jumps, _skip_walk_pairs
from repro.graphs.graph import StaticGraph
from repro.util.idspace import identity_ids, permuted_ids, polynomial_ids

COLUMNS = ("ids", "offsets", "flat", "degrees")


def reference_fast_gnp(n, p, seed, ids):
    """Pure-Python oracle: the Batagelj–Brandes walk plus the chain that
    links each component's minimum node to the next one's."""
    if p <= 0 or p >= 1:  # networkx hands these to its binomial sampler
        edges = [(v, w) for v in range(n) for w in range(v)] if p >= 1 else []
    else:
        rng, log_q, edges = random.Random(seed), math.log(1.0 - p), []
        v, w = 1, -1
        while v < n:
            w += 1 + int(math.log(1.0 - rng.random()) / log_q)
            while w >= v and v < n:
                w, v = w - v, v + 1
            if v < n:
                edges.append((v, w))
    root = list(range(n))

    def find(x):
        while root[x] != x:
            root[x] = x = root[root[x]]
        return x

    for v, w in edges:
        a, b = find(v), find(w)
        root[max(a, b)] = min(a, b)
    minima = sorted({find(x) for x in range(n)})
    edges += zip(minima[1:], minima[:-1])
    assignment = ids if ids is not None else identity_ids(n)
    label = assignment.ids
    return StaticGraph.from_edges(
        [(label[v], label[w]) for v, w in edges],
        nodes=label,
        id_space=assignment.space,
    )


def id_assignment(scheme, n, seed):
    if scheme == "identity":
        return None
    if scheme == "permuted":
        return permuted_ids(n, seed=seed)
    return polynomial_ids(n, exponent=2, seed=seed)


def assert_same_graph(graph, ref):
    assert graph.adjacency == ref.adjacency
    assert graph.id_space == ref.id_space
    expected = GraphArrays.from_index(ref._index)
    for column in COLUMNS:
        got = getattr(graph.arrays, column)
        assert got.dtype == np.int64, column
        assert np.array_equal(got, getattr(expected, column)), column
    assert graph.nodes == ref.nodes
    assert graph.max_degree == ref.max_degree
    assert graph.num_edges == ref.num_edges


# Expected edges p·n(n-1)/2 bound the grid: the dense corners (n = 5000
# at p >= 0.3, n = 1000 at p >= 0.9) would cost the pure-Python oracle
# millions of edges per case without exercising anything new, and the
# two cells past ``ONE_SEED_EDGES`` (n = 1000 at p = 0.3, n = 5000 at
# p = 0.01) run at seed 0 only, which keeps the file to a few seconds.
EDGE_BUDGET = 160_000
ONE_SEED_EDGES = 20_000

GRID = [
    (n, p, seed, scheme)
    for n, p in itertools.product(
        (1, 2, 3, 10, 100, 1000, 5000), (0.0, 1e-4, 0.01, 0.3, 0.9, 1.0)
    )
    if p * n * (n - 1) / 2 <= EDGE_BUDGET
    for seed in range(1 if p * n * (n - 1) / 2 > ONE_SEED_EDGES else 5)
    for scheme in ("identity", "permuted", "poly2")
]


class TestSameGraphs:
    @pytest.mark.parametrize("n,p,seed,scheme", GRID)
    def test_matches_reference_walk(self, n, p, seed, scheme):
        graph = gnp(n, p, seed=seed, ids=id_assignment(scheme, n, seed),
                    method="fast")
        ref = reference_fast_gnp(n, p, seed, id_assignment(scheme, n, seed))
        assert_same_graph(graph, ref)
        assert graph.is_connected()

    @pytest.mark.parametrize("scheme", ["identity", "permuted"])
    def test_matches_networkx_fast_gnp_and_patch(self, scheme):
        n, p, seed = 3000, 2.5 / 3000, 7  # sparse: dozens of components
        g = nx.fast_gnp_random_graph(n, p, seed=seed)
        assert nx.number_connected_components(g) > 10
        _connect(g, seed)
        ids = id_assignment(scheme, n, seed)
        ref = StaticGraph.from_networkx(g, ids)
        assert_same_graph(gnp(n, p, seed=seed, ids=ids, method="fast"), ref)

    def test_batches_continue_one_random_stream(self):
        n, p = 400, 0.02
        whole = _skip_walk_pairs(n, p, seed=3)
        for batch in (1, 7, 64):
            pieces = _skip_walk_pairs(n, p, seed=3, batch=batch)
            for a, b in zip(whole, pieces):
                assert np.array_equal(a, b)

    def test_p_below_float_resolution_draws_no_edges(self):
        # 1 - p rounds to 1: the walk never lands, the chain is a path.
        graph = gnp(6, 1e-17, seed=0, method="fast")
        assert sorted(graph.edges()) == [(i, i + 1) for i in range(1, 6)]

    def test_mismatched_id_assignment_is_rejected(self):
        with pytest.raises(GraphError, match="4 ids for 5 nodes"):
            gnp(5, 0.5, ids=identity_ids(4), method="fast")

    def test_graph_is_trusted_and_consistent(self):
        graph = gnp(300, 0.02, seed=1, ids=permuted_ids(300, 1), method="fast")
        # the bulk-built index and dict agree with a from-scratch build
        again = StaticGraph(dict(graph.adjacency), id_space=graph.id_space)
        assert_same_graph(graph, again)
        assert graph._index.slot_of == again._index.slot_of
        assert graph._index.node_set == again._index.node_set


class TestSkipJumps:
    """``_skip_jumps`` truncates every quotient as networkx's
    ``math.log`` path does, even where ``np.log`` is an ulp off."""

    LOG_Q = math.log(1.0 - 0.013)
    TOTAL = 10**12

    def exact(self, rest):
        logs = np.fromiter(map(math.log, rest.tolist()), np.float64, rest.size)
        return np.minimum(logs / self.LOG_Q, float(self.TOTAL)).astype(np.int64)

    def test_quotients_next_to_an_integer(self):
        # rest = q^k puts log(rest) / log(q) within a few ulps of k; step
        # a few ulps either side, and hand in logs one ulp off either way
        # as a libm or SIMD log may return them.
        base = np.exp(np.arange(1, 400) * self.LOG_Q)
        rest = [base]
        for direction in (0.0, 2.0):
            step = base
            for _ in range(3):
                step = np.nextafter(step, direction)
                rest.append(step)
        rest = np.concatenate(rest)
        want = self.exact(rest)
        moved = 0
        for logs in (
            np.log(rest),
            np.nextafter(np.log(rest), -np.inf),
            np.nextafter(np.log(rest), 0.0),
        ):
            got = _skip_jumps(rest, logs, self.LOG_Q, self.TOTAL)
            assert np.array_equal(got, want)
            moved += int(((logs / self.LOG_Q).astype(np.int64) != want).sum())
        # The off-by-an-ulp logs alone would move some jumps.
        assert moved > 0

    def test_draws_where_numpy_and_math_log_differ(self):
        rest = 1.0 - np.random.RandomState(0).random_sample(200_000)
        numpy_logs = np.log(rest)
        differ = numpy_logs != np.fromiter(map(math.log, rest.tolist()), float)
        for sample in (rest, rest[differ]):
            got = _skip_jumps(sample, np.log(sample), self.LOG_Q, self.TOTAL)
            assert np.array_equal(got, self.exact(sample))

    def test_jumps_past_the_end_are_capped(self):
        rest = np.array([1e-300, 0.5, 1.0])
        got = _skip_jumps(rest, np.log(rest), self.LOG_Q, 100)
        assert got.tolist() == [100, 52, 0]
        assert np.array_equal(got, np.minimum(self.exact(rest), 100))


class TestComponentMinima:
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_networkx_components(self, seed):
        # long paths under shuffled labels are the slow case for label
        # propagation; isolated slots and a few extra edges ride along
        rng = random.Random(seed)
        n = 300
        order = list(range(n))
        rng.shuffle(order)
        edges = [(order[i], order[i + 1]) for i in range(n - 1) if i % 97]
        edges += [(rng.randrange(n), rng.randrange(n)) for _ in range(5)]
        edges = [(a, b) for a, b in edges if a != b]
        a = np.array([e[0] for e in edges], dtype=np.int64)
        b = np.array([e[1] for e in edges], dtype=np.int64)
        g = nx.empty_graph(n)
        g.add_edges_from(edges)
        expected = [0] * n
        for comp in nx.connected_components(g):
            for v in comp:
                expected[v] = min(comp)
        assert component_minima(n, a, b).tolist() == expected

    def test_reversed_and_repeated_edges_change_nothing(self):
        a = np.array([3, 1, 4, 2], dtype=np.int64)
        b = np.array([1, 4, 2, 0], dtype=np.int64)
        once = component_minima(6, a, b)
        twice = component_minima(6, np.concatenate((a, b)), np.concatenate((b, a)))
        assert once.tolist() == twice.tolist() == [0, 0, 0, 0, 0, 5]

    def test_no_edges(self):
        empty = np.zeros(0, dtype=np.int64)
        assert component_minima(4, empty, empty).tolist() == [0, 1, 2, 3]


class TestFromEdgeArraysFailures:
    # The triangle 1-2-3 plus the pendant edge 3-4, as slot pairs.
    IDS = [1, 2, 3, 4]
    A = [0, 0, 1, 2]
    B = [1, 2, 2, 3]

    def build(self, ids=None, a=None, b=None, id_space=4):
        return StaticGraph.from_edge_arrays(
            np.array(self.IDS if ids is None else ids),
            np.array(self.A if a is None else a),
            np.array(self.B if b is None else b),
            id_space,
        )

    def test_valid_edges_build(self):
        graph = self.build()
        assert graph.adjacency == {1: (2, 3), 2: (1, 3), 3: (1, 2, 4), 4: (3,)}
        assert graph.num_edges == 4 and graph.max_degree == 3
        arrays = graph.arrays
        assert arrays.offsets.tolist() == [0, 2, 4, 7, 8]
        assert arrays.flat.tolist() == [1, 2, 0, 2, 0, 1, 3, 2]
        assert arrays.degrees.tolist() == [2, 2, 3, 1]
        assert all(getattr(arrays, c).dtype == np.int64 for c in COLUMNS)

    def test_empty_graph(self):
        empty = np.zeros(0, np.int64)
        graph = StaticGraph.from_edge_arrays(empty, empty, empty, 1)
        assert graph.n == 0 and graph.num_edges == 0 and graph.max_degree == 0
        assert graph.arrays.offsets.tolist() == [0]

    def test_self_loop(self):
        with pytest.raises(GraphError, match="self-loop at node 4"):
            self.build(a=[0, 0, 1, 2, 3], b=[1, 2, 2, 3, 3])

    def test_id_out_of_range(self):
        with pytest.raises(GraphError, match=r"must lie in \[1, 4\], got range \[1, 5\]"):
            self.build(ids=[1, 2, 3, 5])
        with pytest.raises(GraphError, match=r"must lie in \[1, 4\]"):
            self.build(ids=[0, 1, 2, 3])

    def test_duplicate_ids(self):
        with pytest.raises(GraphError, match="unique and ascending, got 2 then 2"):
            self.build(ids=[1, 2, 2, 4])

    def test_unsorted_ids(self):
        with pytest.raises(GraphError, match="unique and ascending, got 3 then 2"):
            self.build(ids=[1, 3, 2, 4])

    @pytest.mark.parametrize(
        "a,b,missing",
        [([0, 0, 1, 2], [1, 2, 2, 9], 9), ([0, 0, 1, -1], [1, 2, 2, 3], -1)],
    )
    def test_dangling_endpoint(self, a, b, missing):
        with pytest.raises(GraphError, match=f"dangles: slot {missing} missing"):
            self.build(a=a, b=b)

    @pytest.mark.parametrize(
        "ids,a,b",
        [
            ([1, 2, 3, 4], [0, 0, 1], [1, 2, 2, 3]),  # one endpoint short
            ([1, 2, 3, 4], [[0, 0], [1, 2]], [[1, 2], [2, 3]]),  # 2-D
            ([[1, 2], [3, 4]], [0, 0, 1, 2], [1, 2, 2, 3]),  # 2-D IDs
        ],
    )
    def test_endpoint_shapes(self, ids, a, b):
        with pytest.raises(GraphError, match="1-D endpoint arrays of equal length"):
            self.build(ids=ids, a=a, b=b)

    @pytest.mark.parametrize(
        "a,b",
        [
            ([0, 0, 1, 2, 2], [1, 2, 2, 3, 3]),  # (3, 4) twice
            ([0, 0, 1, 2, 3], [1, 2, 2, 3, 2]),  # (3, 4) and (4, 3)
        ],
    )
    def test_pair_given_twice(self, a, b):
        with pytest.raises(GraphError, match=r"edge \(3, 4\) is given twice"):
            self.build(a=a, b=b)

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("scheme", ["identity", "permuted"])
    def test_equals_its_from_edges_twin(self, seed, scheme):
        rng = random.Random(seed)
        n = rng.randrange(1, 40)
        pairs = [(v, w) for v in range(n) for w in range(v) if rng.random() < 0.2]
        rng.shuffle(pairs)
        # each pair in a random orientation
        pairs = [(v, w) if rng.random() < 0.5 else (w, v) for v, w in pairs]
        assignment = identity_ids(n) if scheme == "identity" else permuted_ids(n, seed)
        label, ids = assignment.ids, sorted(assignment.ids)
        twin = StaticGraph.from_edges(
            [(label[v], label[w]) for v, w in pairs],
            nodes=ids,  # ascending, as the columns list them
            id_space=assignment.space,
        )
        slot = [ids.index(label[v]) for v in range(n)]
        graph = StaticGraph.from_edge_arrays(
            np.array(ids, dtype=np.int64),
            np.array([slot[v] for v, _ in pairs], dtype=np.int64),
            np.array([slot[w] for _, w in pairs], dtype=np.int64),
            assignment.space,
        )
        assert graph == twin and twin == graph
        assert repr(graph) == repr(twin)
        assert graph.n == twin.n
        assert_same_graph(graph, twin)  # max_degree and num_edges too
