"""Tests for Theorem 13: the iterated clustering pipeline."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.lemma15 import lemma15_reference, singleton_palette
from repro.core.theorem13 import (
    _virtual_graph_of,
    color_palette_bound,
    compute_clustering,
    default_b,
    num_phases,
    phase_label_space,
    theorem13_duration,
    theorem13_reference,
)
from repro.core.clustering_vectorized import compute_clustering_vectorized
from repro.graphs import (
    caterpillar,
    complete_graph,
    cycle,
    gnp,
    grid,
    path,
    random_tree,
    star,
)
from repro.graphs.families import build_family_graph
from repro.util.idspace import permuted_ids, polynomial_ids
from repro.util.mathx import iterated_log, sqrt_log_ceil

FAMILIES = [
    lambda: path(10),
    lambda: cycle(11),
    lambda: star(8),
    lambda: grid(3, 4),
    lambda: random_tree(14, seed=2),
    lambda: caterpillar(4, 2),
    lambda: complete_graph(7),
    lambda: gnp(14, 0.25, seed=3),
    lambda: gnp(12, 0.3, seed=5, ids=permuted_ids(12, seed=1)),
]


class TestParameters:
    def test_default_b_is_2_pow_sqrt_log(self):
        assert default_b(1) == 1
        assert default_b(2) == 2
        assert default_b(16) == 4
        assert default_b(2**16) == 16

    def test_num_phases(self):
        assert num_phases(16) == 4
        assert num_phases(2**16) == 8

    def test_phases_suffice_to_empty(self):
        """b^k >= n² > n for every n >= 2 — the termination argument."""
        for n in [2, 5, 16, 100, 10**4, 10**9]:
            b, k = default_b(n), num_phases(n)
            assert b**k >= n * n

    def test_palette_bound_subexponential(self):
        """k·a·b² = 2^{O(sqrt(log n))} — grows slower than any n^ε."""
        for n, limit in [(16, 2**11), (2**16, 2**15), (2**25, 2**17)]:
            assert color_palette_bound(n) <= limit


class TestDistributedMatchesReference:
    @pytest.mark.parametrize("factory", FAMILIES)
    def test_equal_clusterings(self, factory):
        g = factory()
        res = compute_clustering(g)
        ref = theorem13_reference(g)
        assert res.clustering.color == ref.clustering.color
        assert res.clustering.dist == ref.clustering.dist

    @pytest.mark.parametrize(
        "n,engine",
        [(128, compute_clustering), (1024, compute_clustering_vectorized)],
        ids=["simulator-128", "vectorized-1024"],
    )
    def test_poly5_phases_use_the_network_n(self, n, engine):
        """Lemma 15 on H runs with G's n, the protocol's common knowledge:
        under ``poly5`` IDs it sets the distance-2 palette, so an oracle
        that used |V(H)| disagreed from phase 2 on."""
        g = build_family_graph(
            "gnp", n, seed=0, ids="poly5", p=8 / n, method="fast"
        )
        ref = theorem13_reference(g, b=2)
        assert max(a.phase for a in ref.assignments.values()) >= 3
        res = engine(g, b=2)
        assert {v: res.assignments[v] for v in g.nodes} == ref.assignments

    def test_round_complexity_within_duration(self):
        g = gnp(12, 0.25, seed=1)
        res = compute_clustering(g)
        assert res.round_complexity <= theorem13_duration(g.n, g.id_space)


class TestTheorem13Guarantees:
    @pytest.mark.parametrize("factory", FAMILIES)
    def test_valid_colored_bfs_clustering(self, factory):
        g = factory()
        ref = theorem13_reference(g)  # validate=True checks Definition 4
        assert set(ref.clustering.color) == set(g.nodes)

    @pytest.mark.parametrize("factory", FAMILIES)
    def test_color_count_bound(self, factory):
        g = factory()
        ref = theorem13_reference(g)
        assert ref.clustering.max_color() <= ref.palette_bound

    def test_cluster_count_decays_geometrically(self):
        """Lemma 15: at most |V(H)| / b clusters stay residual in each
        phase, checked on every phase's virtual graph as E3 traces it."""
        g = gnp(60, 0.15, seed=9)
        b = default_b(g.n)
        assert g.max_degree > b  # clusters survive phase 1
        label = {v: v for v in g.nodes}
        phase = 0
        while label:
            phase += 1
            assert phase <= num_phases(g.n)
            ls = phase_label_space(g.id_space, b, phase)
            h = _virtual_graph_of(g, label, ls)
            ref = lemma15_reference(h, b, n=g.n)
            assert ref.residual_clusters <= h.n // b
            label = {
                v: ref.outputs[lab].gamma
                for v, lab in label.items()
                if not ref.outputs[lab].singleton
            }
        assert phase >= 2

    def test_awake_complexity_sqrtlog_logstar(self):
        """Awake <= C · sqrt(log n) · log*(n) with an explicit constant —
        the paper's headline clustering bound."""
        g = gnp(24, 0.15, seed=11)
        res = compute_clustering(g)
        sqrt_log = max(1, sqrt_log_ceil(g.n))
        log_star = max(1, iterated_log(g.id_space))
        # per phase: virtual lemma15 (<= 5 + 7·awake15) + lemma14 (const);
        # awake15 <= ~15 + 7·log*; phases = 2·sqrt_log
        budget = 2 * sqrt_log * (5 + 7 * (20 + 7 * log_star) + 40)
        assert res.awake_complexity <= budget

    def test_id_space_changes_rounds_not_awake(self):
        """The §5 Remark: larger ID spaces inflate round complexity but
        leave the awake complexity scale unchanged."""
        n = 10
        g_small = gnp(n, 0.3, seed=13)
        g_big = gnp(n, 0.3, seed=13, ids=polynomial_ids(n, 3, seed=2))
        res_small = compute_clustering(g_small)
        res_big = compute_clustering(g_big)
        assert res_big.round_complexity > res_small.round_complexity
        assert res_big.awake_complexity <= 3 * res_small.awake_complexity

    @pytest.mark.parametrize("b", [2, 3, 4])
    def test_explicit_b_ablation(self, b):
        g = gnp(15, 0.2, seed=15)
        ref = theorem13_reference(g, b=b)
        assert ref.b == b
        assert ref.clustering.max_color() <= num_phases(g.n) * singleton_palette(b)

    def test_single_node_graph(self):
        g = path(1)
        ref = theorem13_reference(g)
        assert ref.clustering.color[1] is not None
        res = compute_clustering(g)
        assert res.clustering.color == ref.clustering.color

    def test_two_node_graph(self):
        g = path(2)
        res = compute_clustering(g)
        assert res.clustering.num_colors() == 2


@settings(max_examples=8, deadline=None)
@given(st.integers(4, 18), st.integers(0, 10**6))
def test_property_pipeline_on_random_graphs(n, seed):
    g = gnp(n, 2.8 / n, seed=seed)
    res = compute_clustering(g)
    ref = theorem13_reference(g)
    assert res.clustering.color == ref.clustering.color
    assert res.clustering.dist == ref.clustering.dist
