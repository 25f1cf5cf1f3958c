"""Tests for Lemma 15: one clustering phase, distributed vs reference."""

from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

import repro.core.linial as linial_module
from repro.core.clustering import ColoredBFSClustering
from repro.core.lemma15 import (
    lemma15_duration,
    lemma15_protocol,
    lemma15_reference,
    singleton_palette,
)
from repro.graphs import (
    caterpillar,
    complete_graph,
    cycle,
    gnp,
    path,
    preferential_attachment,
    random_tree,
    star,
)
from repro.graphs.examples import figure4_instance
from repro.model import SleepingSimulator
from repro.util.idspace import permuted_ids, polynomial_ids
from repro.util.mathx import iterated_log, next_prime


def run_distributed(graph, b):
    def program(info):
        out = yield from lemma15_protocol(
            me=info.id, peers=info.neighbors, n=info.n,
            id_space=info.id_space, b=b, t0=1,
        )
        return out

    return SleepingSimulator(graph, program).run()


CASES = [
    (lambda: path(14), 2),
    (lambda: cycle(12), 3),
    (lambda: star(9), 2),
    (lambda: gnp(25, 0.15, seed=1), 3),
    (lambda: random_tree(20, seed=5), 2),
    (lambda: caterpillar(6, 4), 3),
    (lambda: complete_graph(8), 2),
    (lambda: preferential_attachment(25, 2, seed=3), 3),
    (lambda: gnp(20, 0.2, seed=9, ids=permuted_ids(20, seed=4)), 2),
]


class TestDistributedMatchesReference:
    @pytest.mark.parametrize("factory,b", CASES)
    def test_outputs_equal(self, factory, b):
        g = factory()
        res = run_distributed(g, b)
        ref = lemma15_reference(g, b)
        assert res.outputs == ref.outputs

    @pytest.mark.parametrize("factory,b", CASES[:4])
    def test_round_complexity_within_window(self, factory, b):
        g = factory()
        res = run_distributed(g, b)
        assert res.round_complexity <= lemma15_duration(g.n, g.id_space, b)


class TestSingletonPalette:
    #: next_prime is pure; memoizing it only speeds up the scan below,
    #: which asks for the same few primes ~10⁴ times per b.
    _next_prime = staticmethod(lru_cache(maxsize=None)(next_prime))

    @pytest.mark.parametrize("b", range(33))
    def test_closed_form_equals_scan(self, b, monkeypatch):
        """The largest palette on which the reduction halts, found by
        scanning down from the 4(3b+1)² bound, is next_prime(2b+1)²."""
        monkeypatch.setattr(linial_module, "next_prime", self._next_prime)
        # ~10⁴ distinct keys, each asked once: bypass the schedule memo.
        stuck = linial_module.step_parameters.__wrapped__
        scanned = next(
            k for k in range(4 * (3 * b + 1) ** 2, 0, -1)
            if stuck(k, b) is None
        )
        assert singleton_palette(b) == scanned == next_prime(2 * b + 1) ** 2


class TestLemma15Guarantees:
    @pytest.mark.parametrize("factory,b", CASES)
    def test_colored_bfs_clustering(self, factory, b):
        """γ with singleton colors in [1, a·b²] plus shifted unique labels
        forms a colored BFS-clustering of G (Definition 4)."""
        g = factory()
        ref = lemma15_reference(g, b)
        clustering = ColoredBFSClustering(ref.gamma(), ref.delta())
        clustering.validate(g)

    @pytest.mark.parametrize("factory,b", CASES)
    def test_singletons_are_singletons(self, factory, b):
        """Every node with a small color is alone in its color-component."""
        g = factory()
        ref = lemma15_reference(g, b)
        ab2 = singleton_palette(b)
        gamma = ref.gamma()
        for v, out in ref.outputs.items():
            if out.singleton:
                assert 1 <= gamma[v] <= ab2
                assert out.delta == 0
                assert all(gamma[u] != gamma[v] for u in g.neighbors(v))
            else:
                assert gamma[v] > ab2

    @pytest.mark.parametrize("factory,b", CASES)
    def test_residual_cluster_count_bound(self, factory, b):
        """At most n/b residual clusters (the induction engine of Thm 13)."""
        g = factory()
        ref = lemma15_reference(g, b)
        assert ref.residual_clusters <= g.n // b

    @pytest.mark.parametrize("factory,b", CASES)
    def test_residual_roots_have_high_degree(self, factory, b):
        g = factory()
        ref = lemma15_reference(g, b)
        for out in ref.outputs.values():
            if not out.singleton:
                assert out.root_degree > b

    @pytest.mark.parametrize("factory,b", CASES)
    def test_u_nodes_have_low_degree(self, factory, b):
        """The claim backing the G[U] Linial run: every node in a cluster
        with a low-degree root itself has degree <= b."""
        g = factory()
        ref = lemma15_reference(g, b)
        for v, out in ref.outputs.items():
            if out.singleton:
                assert g.degree(v) <= b


class TestClaim16:
    @pytest.mark.parametrize("factory,b", CASES)
    def test_c2_strictly_decreasing_toward_root(self, factory, b):
        g = factory()
        ref = lemma15_reference(g, b)
        for v in g.nodes:
            parent = ref.p2[v]
            if parent is not None:
                assert ref.c2[v] > ref.c2[parent]

    @pytest.mark.parametrize("factory,b", CASES)
    def test_p2_is_a_subgraph_forest(self, factory, b):
        """p2 edges lie in G (unlike p1, which may jump 2 hops)."""
        g = factory()
        ref = lemma15_reference(g, b)
        for v in g.nodes:
            if ref.p2[v] is not None:
                assert g.has_edge(v, ref.p2[v])

    @pytest.mark.parametrize("factory,b", CASES)
    def test_roots_are_2ball_minima(self, factory, b):
        g = factory()
        ref = lemma15_reference(g, b)
        for v in g.nodes:
            if ref.p1[v] is None:
                ball = list(g.neighbors(v)) + list(g.distance_2_neighbors(v))
                assert all(ref.c1[u] > ref.c1[v] for u in ball)


class TestAwakeComplexity:
    def test_awake_is_log_star_scale(self):
        g = gnp(30, 0.12, seed=2)
        res = run_distributed(g, 3)
        # 2 exchange + 4 casts * 3 + 1 membership + Linial steps * small
        logstar = max(iterated_log(g.id_space), 1)
        assert res.awake_complexity <= 15 + 5 * logstar

    def test_awake_with_huge_id_space(self):
        """IDs from [n^3]: the distance-2 Linial prologue kicks in; awake
        stays O(log* n) while rounds grow polynomially."""
        g = gnp(18, 0.2, seed=6, ids=polynomial_ids(18, 3, seed=1))
        res = run_distributed(g, 2)
        ref = lemma15_reference(g, 2)
        assert res.outputs == ref.outputs
        logstar = max(iterated_log(g.id_space), 1)
        assert res.awake_complexity <= 15 + 7 * logstar


class TestFigure4:
    def test_figure4_instance_decomposes(self):
        """Regenerates Figure 4's scenario: b=3, hubs of degree > 3 become
        residual roots; the low-degree fringe dissolves into singletons."""
        inst = figure4_instance()
        ref = lemma15_reference(inst.graph, inst.b)
        hubs = [v for v in inst.graph.nodes if inst.graph.degree(v) > inst.b]
        assert hubs  # the instance has high-degree hubs
        clustering = ColoredBFSClustering(ref.gamma(), ref.delta())
        clustering.validate(inst.graph)
        assert ref.residual_clusters <= inst.graph.n // inst.b
        # every residual root is a hub
        for out in ref.outputs.values():
            if not out.singleton:
                assert out.root in hubs


@settings(max_examples=12, deadline=None)
@given(st.integers(6, 26), st.integers(0, 10**6), st.integers(2, 4))
def test_property_distributed_equals_reference(n, seed, b):
    g = gnp(n, 2.8 / n, seed=seed)
    res = run_distributed(g, b)
    ref = lemma15_reference(g, b)
    assert res.outputs == ref.outputs
    ColoredBFSClustering(ref.gamma(), ref.delta()).validate(g)
    assert ref.residual_clusters <= g.n // b
