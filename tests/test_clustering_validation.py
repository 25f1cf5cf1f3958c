"""Differential tests: array clustering validation vs the per-node walk.

`validate_clustering_arrays` (clustering_vectorized.py), fed by the
`clustering_columns` dict-to-columns conversion, must accept exactly the
clusterings
`ColoredBFSClustering.validate` accepts and reject exactly the ones it
rejects — same Definition 4, same error vocabulary — while running as
whole-graph kernels instead of a per-node Python walk.
"""

import tracemalloc

import pytest

np = pytest.importorskip("numpy")

from hypothesis import given, settings, strategies as st

from repro.core import clustering_vectorized as cv
from repro.core.clustering import ClusteringError, ColoredBFSClustering
from repro.core.clustering_vectorized import (
    clustering_columns,
    compute_clustering_vectorized,
    validate_clustering_arrays,
)
from repro.core.theorem13 import compute_clustering
from repro.graphs import gnp
from repro.graphs.arrays import component_minima, segment_sum, sorted_unique
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
        """An accepted clustering is certified locally: neither the
        all-singleton one (Δ < b, no monochromatic edge) nor a kernel
        clustering with monochromatic edges runs component labelling or
        the depth BFS. A rejected one runs both to name its violation."""
        n = 1 << 12
        graph = gnp(n, 8 / n, seed=0, method="fast")
        singleton = compute_clustering_vectorized(graph, b=32, validate=False)
        clustered = compute_clustering_vectorized(graph, validate=False)
        calls = []
        for name in ("_masked_bfs", "component_minima"):
            real = getattr(cv, name)

            def spy(*args, real=real, name=name):
                calls.append(name)
                return real(*args)

            monkeypatch.setattr(cv, name, spy)

        color, dist = clustering_columns(graph, singleton.clustering)
        assert (dist == 0).all()
        validate_clustering_arrays(graph, color, dist)
        color, dist = clustering_columns(graph, clustered.clustering)
        ga = graph.arrays
        assert (color[ga.flat] == color[ga.edge_sources]).any()
        assert dist.max() > 1
        validate_clustering_arrays(graph, color, dist)
        assert calls == []

        deep = int(np.argmax(dist))
        dist[deep] += 5
        with pytest.raises(ClusteringError, match="induced BFS distance"):
            validate_clustering_arrays(graph, color, dist)
        assert calls == ["component_minima", "_masked_bfs"]

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


# -- the local certificate ---------------------------------------------------


def _component_check(graph, color, dist):
    """The array check as it stood before the local certificate: label
    each color class's components, count roots, run one depth BFS.
    Kept as the oracle for the messages the certificate's fallback
    must still give."""
    ga = graph.arrays
    n = len(ga.ids)
    mono = color[ga.edge_sources] == color[ga.flat]
    msrc = ga.edge_sources[mono]
    mdst = ga.flat[mono]
    once = msrc < mdst
    comp = component_minima(n, msrc[once], mdst[once])
    roots = dist == 0
    root_count = np.bincount(comp[roots], minlength=n)
    labels = sorted_unique(comp)
    bad = labels[root_count[labels] != 1]
    if bad.size:
        slot = int(bad[0])
        raise ClusteringError(
            f"color {int(color[slot])!r} component has "
            f"{int(root_count[slot])} roots (δ=0 nodes); expected exactly 1"
        )
    seeded = roots & (np.bincount(msrc, minlength=n) > 0)
    depth = cv._masked_bfs(
        ga, np.flatnonzero(seeded), comp, np.ones(n, dtype=bool)
    )
    depth[roots] = 0
    mismatch = np.flatnonzero(depth != dist)
    if mismatch.size:
        slot = int(mismatch[0])
        root_slot = int(np.flatnonzero(roots & (comp == comp[slot]))[0])
        raise ClusteringError(
            f"color {int(color[slot])!r} component: δ({int(ga.ids[slot])}) "
            f"= {int(dist[slot])} but induced BFS distance from root "
            f"{int(ga.ids[root_slot])} is {int(depth[slot])}"
        )


def _error(check, *args):
    try:
        check(*args)
    except ClusteringError as exc:
        return str(exc)
    return None


def _clusters(graph, color, dist):
    """Each cluster's slots, by the per-node validator's components."""
    ids = graph.arrays.ids.tolist()
    slot = {v: i for i, v in enumerate(ids)}
    clustering = ColoredBFSClustering(
        color=dict(zip(ids, color.tolist())), dist=dict(zip(ids, dist.tolist()))
    )
    return [
        sorted(slot[v] for v in c.members) for c in clustering.clusters(graph)
    ]


def _corrupt(graph, color, dist, kind, pick):
    """``(color, dist)`` with one corruption; ``legal`` corruptions keep
    Definition 4."""
    ga = graph.arrays
    color, dist = color.copy(), dist.copy()
    v = pick % len(color)
    if kind == "shifted":
        dist[v] += 1 if pick % 3 else -1
    elif kind == "lifted":
        # One above its deepest same-color neighbour: it keeps a
        # neighbour at δ − 1, but sits two or more above its parent.
        nbrs = ga.flat[ga.offsets[v]:ga.offsets[v + 1]]
        nbrs = nbrs[color[nbrs] == color[v]]
        if nbrs.size:
            dist[v] = dist[nbrs].max() + 1
    elif kind == "two roots":
        deep = np.flatnonzero(dist > 0)
        if deep.size:
            dist[deep[pick % deep.size]] = 0
    elif kind == "zero roots":
        cluster = next(c for c in _clusters(graph, color, dist) if v in c)
        dist[cluster] += 1
    elif kind == "negative":
        dist[v] = -1 - pick % 2
    elif kind == "recoloured":
        palette = sorted_unique(color)
        color[v] = np.append(palette, palette[-1] + 1)[pick % (palette.size + 1)]
    elif kind == "disconnected class":
        # Give a cluster the color of a class none of its members touch.
        moves = []
        for members in _clusters(graph, color, dist):
            nbrs = np.concatenate(
                [ga.flat[ga.offsets[u]:ga.offsets[u + 1]] for u in members]
            )
            moves.extend(
                (members, c)
                for c in sorted_unique(color).tolist()
                if c != color[members[0]] and not (color[nbrs] == c).any()
            )
        if moves:
            members, c = moves[pick % len(moves)]
            color[members] = c
    return color, dist


KINDS = [
    "none", "shifted", "lifted", "two roots", "zero roots", "negative",
    "recoloured", "disconnected class",
]


class TestLocalCertificate:
    @settings(max_examples=200, deadline=None)
    @given(
        family=st.sampled_from(["gnp", "tree", "grid", "path", "cycle", "star"]),
        n=st.integers(4, 40),
        seed=st.integers(0, 10**4),
        ids=st.sampled_from(["identity", "permuted"]),
        b=st.sampled_from([1, 2, 3, 4]),
        kind=st.sampled_from(KINDS),
        pick=st.integers(0, 10**6),
    )
    def test_certificate_agrees_with_the_per_node_validator(
        self, family, n, seed, ids, b, kind, pick
    ):
        """On kernel clusterings of small random graphs, clean or
        corrupted, the certificate accepts exactly what
        ``ColoredBFSClustering.validate`` accepts, and every rejection
        reads as the component check words it."""
        graph = build_family_graph(family, n, seed=seed, ids=ids)
        result = compute_clustering_vectorized(graph, b=b, validate=False)
        color, dist = clustering_columns(graph, result.clustering)
        color, dist = _corrupt(graph, color, dist, kind, pick)
        ids_ = graph.arrays.ids.tolist()
        per_node = _error(
            ColoredBFSClustering(
                color=dict(zip(ids_, color.tolist())),
                dist=dict(zip(ids_, dist.tolist())),
            ).validate,
            graph,
        )
        certified = cv._certified(
            dist, *cv._monochromatic_slots(graph.arrays, color)
        )
        assert certified == (per_node is None)
        if kind in ("none", "disconnected class"):
            assert certified
        array = _error(validate_clustering_arrays, graph, color, dist)
        assert array == _error(_component_check, graph, color, dist)

    def test_a_shortcut_to_the_root_is_rejected(self):
        """A triangle r, a, b with δ = 0, 1, 2: b keeps a parent at
        δ − 1 and every slot reaches r, but the edge b–r spans two
        levels, so b's induced distance is 1."""
        graph = build_family_graph("complete", 3, seed=0)
        color = np.ones(3, dtype=np.int64)
        dist = np.arange(3, dtype=np.int64)
        assert not cv._certified(
            dist, *cv._monochromatic_slots(graph.arrays, color)
        )
        assert _error(validate_clustering_arrays, graph, color, dist) == (
            "color 1 component: δ(3) = 2 but induced BFS distance from "
            "root 1 is 1"
        )

    @pytest.mark.parametrize("block", [None, 7])
    def test_accepting_returns_the_same_color_degrees(self, block, monkeypatch):
        """The monochromatic slots come out in CSR order however the
        slots are split into comparison blocks (7 leaves a ragged last
        block), and their row lengths are the same-color degrees."""
        if block is not None:
            monkeypatch.setattr(cv, "_SLOT_BLOCK", block)
        graph = build_family_graph("gnp", 60, seed=4)
        result = compute_clustering_vectorized(graph, b=2, validate=False)
        color, dist = clustering_columns(graph, result.clustering)
        ga = graph.arrays
        mono = color[ga.flat] == color[ga.edge_sources]
        ms, md, _ = cv._monochromatic_slots(ga, color)
        assert ms.tolist() == ga.edge_sources[mono].tolist()
        assert md.tolist() == ga.flat[mono].tolist()
        same = validate_clustering_arrays(graph, color, dist)
        recount = segment_sum(mono, ga.degrees)
        assert same.tolist() == recount.tolist()
        assert recount.any()

    def test_working_set_per_slot(self):
        """gnp(2¹², 64/n)'s kernel clustering makes every slot
        monochromatic, so the check holds its widest temporaries:
        32.8 B per (n + 2m) unit measured (41.6 B when component
        labelling and the depth BFS accepted it)."""
        n = 1 << 12
        graph = gnp(n, 64 / n, seed=0, method="fast")
        result = compute_clustering_vectorized(graph, validate=False)
        color, dist = clustering_columns(graph, result.clustering)
        ga = graph.arrays
        assert (color[ga.flat] == color[ga.edge_sources]).all()
        units = graph.n + len(ga.flat)
        tracemalloc.start()
        try:
            validate_clustering_arrays(graph, color, dist)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 37 * units, (
            f"check peak {peak / 1e6:.1f} MB = {peak / units:.1f} B per "
            f"(n + 2m) unit > 37 B"
        )
