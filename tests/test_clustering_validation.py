"""Differential tests: array clustering validation vs the per-node walk.

`validate_clustering_arrays` (clustering_vectorized.py), fed by the
`clustering_columns` dict-to-columns conversion, must accept exactly the
clusterings
`ColoredBFSClustering.validate` accepts and reject exactly the ones it
rejects — same Definition 4, same error vocabulary — while running as
whole-graph kernels instead of a per-node Python walk.
"""

import pytest

np = pytest.importorskip("numpy")

from repro.core.clustering import ClusteringError, ColoredBFSClustering
from repro.core.clustering_vectorized import (
    clustering_columns,
    compute_clustering_vectorized,
    validate_clustering_arrays,
)
from repro.core.theorem13 import compute_clustering
from repro.graphs.families import build_family_graph

FAMILIES = [
    ("path", 24), ("cycle", 20), ("grid", 36), ("gnp", 48),
    ("complete", 12), ("star", 16),
]


def both_validate(graph, clustering):
    """Run both validators; return (per-node error, array error)."""
    per_node = array = None
    try:
        clustering.validate(graph)
    except ClusteringError as exc:
        per_node = str(exc)
    try:
        validate_clustering_arrays(graph, *clustering_columns(graph, clustering))
    except ClusteringError as exc:
        array = str(exc)
    return per_node, array


class TestAcceptsValidClusterings:
    @pytest.mark.parametrize("family,n", FAMILIES)
    def test_pipeline_output_accepted_by_both(self, family, n):
        graph = build_family_graph(family, n, seed=3)
        clustering = compute_clustering(graph, b=4).clustering.canonical()
        per_node, array = both_validate(graph, clustering)
        assert per_node is None
        assert array is None

    def test_singleton_clusters(self):
        graph = build_family_graph("path", 8, seed=0)
        clustering = ColoredBFSClustering(
            color={v: i + 1 for i, v in enumerate(sorted(graph.nodes))},
            dist={v: 0 for v in graph.nodes},
        )
        assert both_validate(graph, clustering) == (None, None)

    def test_disconnected_color_class_is_legal(self):
        """Two far-apart clusters may share a color (Definition 4: each
        *connected component* is a cluster)."""
        graph = build_family_graph("path", 7, seed=0)
        a, b, c, d, e, f, g = sorted(graph.nodes)
        clustering = ColoredBFSClustering(
            color={a: 1, b: 1, c: 2, d: 2, e: 2, f: 1, g: 1},
            dist={a: 0, b: 1, c: 1, d: 0, e: 1, f: 0, g: 1},
        )
        assert both_validate(graph, clustering) == (None, None)


class TestRejectsCorruptedClusterings:
    @pytest.fixture()
    def valid(self):
        graph = build_family_graph("gnp", 40, seed=7)
        clustering = compute_clustering(graph, b=4).clustering.canonical()
        return graph, clustering

    def corrupt(self, clustering, **overrides):
        color = dict(clustering.color)
        dist = dict(clustering.dist)
        color.update(overrides.get("color", {}))
        dist.update(overrides.get("dist", {}))
        return ColoredBFSClustering(color=color, dist=dist)

    def test_shifted_dist_rejected_by_both(self, valid):
        graph, clustering = valid
        victim = min(graph.nodes)
        bad = self.corrupt(
            clustering, dist={victim: clustering.dist[victim] + 1}
        )
        per_node, array = both_validate(graph, bad)
        assert per_node is not None
        assert array is not None

    def test_two_roots_rejected_by_both(self, valid):
        graph, clustering = valid
        # Make every member of some multi-node cluster a root.
        cluster = next(
            c for c in clustering.clusters(graph) if len(c.members) > 1
        )
        bad = self.corrupt(
            clustering, dist={v: 0 for v in cluster.members}
        )
        per_node, array = both_validate(graph, bad)
        assert per_node is not None and "roots" in per_node
        assert array is not None and "roots" in array

    def test_zero_roots_rejected_by_both(self, valid):
        graph, clustering = valid
        cluster = clustering.clusters(graph)[0]
        bad = self.corrupt(
            clustering,
            dist={v: clustering.dist[v] + 1 for v in cluster.members},
        )
        per_node, array = both_validate(graph, bad)
        assert per_node is not None and "0 roots" in per_node
        assert array is not None and "0 roots" in array

    def test_wrong_depth_message_matches_per_node(self, valid):
        """Deep-node corruption: both validators name the same δ
        violation (root and expected distance)."""
        graph, clustering = valid
        deep = max(clustering.dist, key=lambda v: clustering.dist[v])
        if clustering.dist[deep] == 0:
            pytest.skip("clustering has only singleton clusters")
        bad = self.corrupt(
            clustering, dist={deep: clustering.dist[deep] + 5}
        )
        per_node, array = both_validate(graph, bad)
        assert per_node is not None
        assert array is not None
        assert "induced BFS distance" in per_node
        assert "induced BFS distance" in array

    def test_missing_node_rejected_by_both(self, valid):
        graph, clustering = valid
        victim = min(graph.nodes)
        color = dict(clustering.color)
        dist = dict(clustering.dist)
        del color[victim], dist[victim]
        bad = ColoredBFSClustering(color=color, dist=dist)
        per_node, array = both_validate(graph, bad)
        assert per_node == "coloring does not cover exactly the node set"
        assert array == "coloring does not cover exactly the node set"


class TestComponentLabelling:
    def test_two_roots_on_a_shuffled_long_path(self):
        """One monochromatic path whose IDs, and so slots, are shuffled
        along it: the component labeller needs several hooking rounds
        before the path's two far-apart roots share a label."""
        n = 200
        graph = build_family_graph("path", n, seed=5, ids="permuted")
        end = min(v for v in graph.nodes if graph.degree(v) == 1)
        order, prev = [end], None
        while len(order) < n:
            nxt = [u for u in graph.neighbors(order[-1]) if u != prev]
            prev = order[-1]
            order.append(nxt[0])
        clustering = ColoredBFSClustering(
            color={v: 1 for v in order},
            dist={v: min(i, n - 1 - i) for i, v in enumerate(order)},
        )
        per_node, array = both_validate(graph, clustering)
        assert per_node == array
        assert per_node == (
            "color 1 component has 2 roots (δ=0 nodes); expected exactly 1"
        )


class TestArrayPathDetails:
    def test_non_integer_palette_validates_per_node(self):
        """Tuple colors are the per-node validator's alone: the array
        path takes the integer colors the pipelines produce."""
        graph = build_family_graph("path", 6, seed=0)
        nodes = sorted(graph.nodes)
        # One path-cluster rooted at one end: valid.
        ColoredBFSClustering(
            color={v: ("phase", 1) for v in nodes},
            dist={v: i for i, v in enumerate(nodes)},
        ).validate(graph)
        bad = ColoredBFSClustering(
            color={v: ("phase", 1) for v in nodes},
            dist={v: 1 for v in nodes},
        )
        with pytest.raises(ClusteringError):
            bad.validate(graph)

    def test_raw_array_entry_point(self):
        graph = build_family_graph("cycle", 10, seed=0)
        ids = graph.arrays.ids.tolist()
        clustering = compute_clustering(graph, b=4).clustering.canonical()
        color = np.array([clustering.color[v] for v in ids], dtype=np.int64)
        dist = np.array([clustering.dist[v] for v in ids], dtype=np.int64)
        validate_clustering_arrays(graph, color, dist)
        with pytest.raises(ClusteringError, match="roots"):
            validate_clustering_arrays(graph, color, dist + 1)

    def test_all_singleton_clustering_seeds_no_bfs(self, monkeypatch):
        """Δ < b: every cluster is a singleton, so no edge is
        monochromatic, every root is its whole component at depth 0,
        and the depth BFS gets no source."""
        from repro.core import clustering_vectorized as cv
        from repro.graphs import gnp

        n = 1 << 12
        graph = gnp(n, 8 / n, seed=0, method="fast")
        result = compute_clustering_vectorized(graph, b=32, validate=False)
        color, dist = clustering_columns(graph, result.clustering)
        assert (dist == 0).all()
        sources = []
        real = cv._masked_bfs

        def spy(csr, seeds, group, member):
            sources.append(seeds.size)
            return real(csr, seeds, group, member)

        monkeypatch.setattr(cv, "_masked_bfs", spy)
        validate_clustering_arrays(graph, color, dist)
        assert sources == [0]

    def test_wrong_length_rejected(self):
        graph = build_family_graph("path", 5, seed=0)
        with pytest.raises(ClusteringError, match="cover"):
            validate_clustering_arrays(
                graph,
                np.zeros(3, dtype=np.int64),
                np.zeros(5, dtype=np.int64),
            )

    def test_empty_graph(self):
        graph = build_family_graph("path", 1, seed=0)
        validate_clustering_arrays(
            graph,
            np.ones(1, dtype=np.int64),
            np.zeros(1, dtype=np.int64),
        )


class TestPipelineIntegration:
    @pytest.mark.parametrize("family,n", [("path", 20), ("gnp", 40)])
    def test_vectorized_pipeline_validates_with_arrays(self, family, n):
        """compute_clustering_vectorized(validate=True) output equals
        the simulator pipeline's, with validation on the array path."""
        graph = build_family_graph(family, n, seed=1)
        ref = compute_clustering(graph, b=4, validate=True)
        vec = compute_clustering_vectorized(graph, b=4, validate=True)
        assert vec.clustering.color == ref.clustering.color
        assert vec.clustering.dist == ref.clustering.dist

    def test_solve_vectorized_validates_with_arrays(self):
        from repro.core.theorem1 import solve
        from repro.core.theorem1_vectorized import solve_vectorized
        from repro.olocal import PROBLEMS

        graph = build_family_graph("gnp", 36, seed=2)
        problem = PROBLEMS.get("mis")
        ref = solve(graph, problem, validate=True)
        vec = solve_vectorized(graph, problem, validate=True)
        assert vec.outputs == ref.outputs
        assert (
            vec.simulation.metrics.messages_sent
            == ref.simulation.metrics.messages_sent
        )

    def test_palette_bound_still_enforced(self):
        """The vectorized validate path keeps the Theorem 13 color
        bound check (ProtocolError, not ClusteringError)."""
        from repro.core.theorem13 import color_palette_bound

        graph = build_family_graph("gnp", 40, seed=0)
        result = compute_clustering_vectorized(graph, b=4, validate=True)
        assert result.clustering.max_color() <= color_palette_bound(
            graph.n, 4
        )

    def test_theorem1_checks_the_color_bound_before_theorem9(
        self, monkeypatch
    ):
        """theorem1/vectorized validates the clustering through the
        Theorem 13 path: a color above the bound is reported as such,
        not later as a Theorem 9 palette violation."""
        import repro.core.clustering_vectorized as cv
        import repro.core.theorem13 as theorem13
        from repro.core.theorem1_vectorized import solve_vectorized
        from repro.errors import ProtocolError
        from repro.olocal import PROBLEMS

        graph = build_family_graph("gnp", 40, seed=0)
        def tight(n, b=None):
            return 1

        # Lower the bound wherever a module looks it up.
        monkeypatch.setattr(theorem13, "color_palette_bound", tight)
        monkeypatch.setattr(cv, "color_palette_bound", tight, raising=False)
        with pytest.raises(
            ProtocolError, match=r"used color \d+ exceeds the bound 1"
        ):
            solve_vectorized(graph, PROBLEMS.get("mis"), b=4)

    @pytest.mark.parametrize("engine", ["simulator", "vectorized"])
    def test_theorem1_checks_the_awake_bound(self, monkeypatch, engine):
        """Every validated Theorem 1 run, on either engine, checks its
        awake complexity against the paper's Theorem 1 bound."""
        import repro.core.theorem1 as t1
        from repro.core.theorem1_vectorized import solve_vectorized
        from repro.errors import ProtocolError
        from repro.olocal import PROBLEMS

        solve = solve_vectorized if engine == "vectorized" else t1.solve
        graph = build_family_graph("gnp", 40, seed=0)
        monkeypatch.setattr(
            t1, "theorem1_awake_bound", lambda n, id_space, b=None: 1
        )
        with pytest.raises(
            ProtocolError,
            match=r"awake complexity \d+ exceeds the Theorem 1 bound 1",
        ):
            solve(graph, PROBLEMS.get("mis"))
        solve(graph, PROBLEMS.get("mis"), validate=False)

    @pytest.mark.parametrize("b", [1, 2, 3, 4, 8, 16])
    def test_awake_bound_holds_for_ablation_b(self, b):
        """The bound check passes for every b the ablations use (E12's
        2/4/8/16 on its own graph, and the 1/3 of the b-ablation tests),
        on both engines, with the same awake complexity."""
        from repro.core.theorem1 import solve
        from repro.core.theorem1_vectorized import solve_vectorized
        from repro.graphs import gnp
        from repro.olocal import PROBLEMS

        graph = gnp(40, 0.15, seed=23)
        for name in ("mis", "coloring"):
            ref = solve(graph, PROBLEMS.get(name), b=b)
            vec = solve_vectorized(graph, PROBLEMS.get(name), b=b)
            assert vec.awake_complexity == ref.awake_complexity
