"""BFS-clusterings — Definitions 2–5 of the paper.

Both decompositions assign each node a pair: a cluster identifier and a BFS
distance to the cluster's root.

- :class:`UniquelyLabeledBFSClustering` (Definition 2): each label induces a
  *connected* subgraph with a unique root; labels are globally unique, which
  enables recursion on the virtual graph (Definition 3).
- :class:`ColoredBFSClustering` (Definition 4): a color class may induce
  several components (clusters); two clusters may share a color only if no
  edge joins them — which is implied by components of the same color class
  being distinct, so *any* (γ, δ) with per-component BFS roots qualifies.
  Its virtual graph (Definition 5) has one vertex per cluster.

Validators raise :class:`ClusteringError` with a precise reason; algorithms
call them in tests and benchmarks after every construction step.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Hashable, Iterable, Mapping

from repro.errors import ClusteringError
from repro.graphs.graph import StaticGraph
from repro.types import ClusterLabel, Color, NodeId


@dataclass(frozen=True)
class Cluster:
    """One cluster: its identifier, root and members."""

    key: Hashable
    root: NodeId
    members: frozenset[NodeId]


@dataclass(frozen=True)
class UniquelyLabeledBFSClustering:
    """Definition 2: (ℓ, δ) with connected, uniquely-labeled clusters."""

    label: Mapping[NodeId, ClusterLabel]
    dist: Mapping[NodeId, int]

    # -- construction ------------------------------------------------------

    @staticmethod
    def trivial(graph: StaticGraph) -> "UniquelyLabeledBFSClustering":
        """Every node its own cluster, labeled by its ID (Theorem 13's
        starting point (ℓ₀, δ₀))."""
        return UniquelyLabeledBFSClustering(
            label={v: v for v in graph.nodes},
            dist={v: 0 for v in graph.nodes},
        )

    @staticmethod
    def from_roots(
        graph: StaticGraph, assignment: Mapping[NodeId, ClusterLabel]
    ) -> "UniquelyLabeledBFSClustering":
        """Build (ℓ, δ) from a membership map by rooting each cluster at its
        minimum-ID node and computing induced BFS distances."""
        dist: dict[NodeId, int] = {}
        for members in _group(assignment).values():
            root = min(members)
            dist.update(_induced_bfs(graph, members, root))
        return UniquelyLabeledBFSClustering(dict(assignment), dist)

    # -- queries -----------------------------------------------------------

    def clusters(self) -> list[Cluster]:
        out = []
        for key, members in sorted(_group(self.label).items()):
            roots = [v for v in members if self.dist[v] == 0]
            root = roots[0] if len(roots) == 1 else min(members)
            out.append(Cluster(key=key, root=root, members=frozenset(members)))
        return out

    def cluster_count(self) -> int:
        return len(set(self.label.values()))

    # -- Definition 3: the virtual graph ------------------------------------

    def virtual_graph(self, graph: StaticGraph) -> StaticGraph:
        """Vertices = cluster labels; edges between labels joined by any
        G-edge. Labels must be positive ints (they are root IDs in all our
        constructions), so the result is again a :class:`StaticGraph` and
        algorithms recurse on it unchanged."""
        labels = set(self.label.values())
        for lab in labels:
            if not isinstance(lab, int) or lab < 1:
                raise ClusteringError(
                    f"virtual graphs need positive integer labels, got {lab!r}"
                )
        edges = set()
        for u, v in graph.edges():
            lu, lv = self.label[u], self.label[v]
            if lu != lv:
                edges.add((min(lu, lv), max(lu, lv)))
        space = max(graph.id_space, max(labels, default=1))
        return StaticGraph.from_edges(edges, nodes=labels, id_space=space)

    # -- validation ---------------------------------------------------------

    def validate(self, graph: StaticGraph) -> None:
        """Check Definition 2 exactly; raise ClusteringError on violation."""
        covered = set(self.label)
        if covered != graph.node_set:
            raise ClusteringError(
                "labeling does not cover exactly the node set "
                f"(missing {len(graph.node_set - covered)}, "
                f"extra {len(covered - graph.node_set)})"
            )
        if set(self.dist) != covered:
            raise ClusteringError("dist does not cover exactly the node set")
        for key, members in _group(self.label).items():
            _validate_bfs_component(
                graph, members, self.dist, f"cluster {key!r}", require_connected=True
            )


@dataclass(frozen=True)
class ColoredBFSClustering:
    """Definition 4: (γ, δ) — per-color-class components are BFS clusters."""

    color: Mapping[NodeId, Color]
    dist: Mapping[NodeId, int]

    # -- queries -----------------------------------------------------------

    def palette(self) -> list[Color]:
        """Colors in canonical order: numerically for integers (and within
        tuples of integers), by repr only for exotic palettes — so that
        ``canonical()`` preserves the intended color order."""
        return sorted(set(self.color.values()), key=_color_sort_key)

    def num_colors(self) -> int:
        if hasattr(self.color, "num_distinct"):
            # A ColumnMap view counts its column in numpy.
            return self.color.num_distinct()
        return len(set(self.color.values()))

    def max_color(self) -> int:
        """max_v γ(v) for integer palettes — the ``c`` of Theorem 9."""
        colors = set(self.color.values())
        if not all(isinstance(c, int) for c in colors):
            raise ClusteringError(
                "max_color needs an integer palette; call canonical() first"
            )
        return max(colors, default=0)

    def canonical(self) -> "ColoredBFSClustering":
        """Re-map arbitrary hashable colors to 1..c (order-preserving by
        repr), so Theorem 9's O(log c) schedule applies directly."""
        mapping = {c: i + 1 for i, c in enumerate(self.palette())}
        return ColoredBFSClustering(
            color={v: mapping[c] for v, c in self.color.items()},
            dist=dict(self.dist),
        )

    def clusters(self, graph: StaticGraph) -> list[Cluster]:
        """All clusters: connected components of each color class."""
        out = []
        for color, members in sorted(_group(self.color).items(), key=lambda kv: repr(kv[0])):
            for comp in _components(graph, members):
                roots = [v for v in comp if self.dist[v] == 0]
                root = roots[0] if len(roots) == 1 else min(comp)
                out.append(Cluster(key=color, root=root, members=frozenset(comp)))
        return out

    # -- Definition 5: the virtual graph ------------------------------------

    def virtual_graph(
        self, graph: StaticGraph
    ) -> tuple[StaticGraph, dict[NodeId, int]]:
        """One vertex per *cluster* (numbered 1..m in deterministic order);
        returns the virtual graph and the node→cluster-vertex map."""
        clusters = self.clusters(graph)
        vertex_of: dict[NodeId, int] = {}
        for i, cluster in enumerate(clusters, start=1):
            for v in cluster.members:
                vertex_of[v] = i
        edges = set()
        for u, v in graph.edges():
            cu, cv = vertex_of[u], vertex_of[v]
            if cu != cv:
                edges.add((min(cu, cv), max(cu, cv)))
        h = StaticGraph.from_edges(
            edges,
            nodes=range(1, len(clusters) + 1),
            id_space=max(len(clusters), 1),
        )
        return h, vertex_of

    # -- validation ---------------------------------------------------------

    def validate(self, graph: StaticGraph) -> None:
        """Check Definition 4 exactly; raise ClusteringError on violation."""
        covered = set(self.color)
        if covered != graph.node_set:
            raise ClusteringError("coloring does not cover exactly the node set")
        if set(self.dist) != covered:
            raise ClusteringError("dist does not cover exactly the node set")
        for color, members in _group(self.color).items():
            for comp in _components(graph, members):
                _validate_bfs_component(
                    graph,
                    comp,
                    self.dist,
                    f"color {color!r} component",
                    require_connected=False,
                )


# -- shared internals --------------------------------------------------------


def _color_sort_key(color: Color) -> tuple:
    if isinstance(color, bool):
        return (2, repr(color))
    if isinstance(color, int):
        return (0, color)
    if isinstance(color, tuple) and all(
        isinstance(part, int) and not isinstance(part, bool) for part in color
    ):
        return (1, color)
    return (2, repr(color))


def _group(mapping: Mapping[NodeId, Hashable]) -> dict[Hashable, set[NodeId]]:
    grouped: dict[Hashable, set[NodeId]] = {}
    for v, key in mapping.items():
        grouped.setdefault(key, set()).add(v)
    return grouped


def _components(graph: StaticGraph, members: set[NodeId]) -> list[set[NodeId]]:
    remaining = set(members)
    comps = []
    while remaining:
        comp = set(_induced_bfs(graph, remaining, min(remaining)))
        remaining -= comp
        comps.append(comp)
    return comps


def _induced_bfs(
    graph: StaticGraph, members: set[NodeId] | frozenset[NodeId], root: NodeId
) -> dict[NodeId, int]:
    """BFS distances from ``root`` inside the subgraph induced by members."""
    dist = {root: 0}
    queue = deque([root])
    while queue:
        v = queue.popleft()
        for u in graph.neighbors(v):
            if u in members and u not in dist:
                dist[u] = dist[v] + 1
                queue.append(u)
    return dist


def _bfs_over(
    adjacency: Mapping[NodeId, Iterable[NodeId]], root: NodeId
) -> dict[NodeId, int]:
    """BFS distances from ``root`` over a gathered adjacency mapping."""
    dist = {root: 0}
    queue = deque([root])
    while queue:
        v = queue.popleft()
        for u in adjacency.get(v, ()):
            if u not in dist:
                dist[u] = dist[v] + 1
                queue.append(u)
    return dist


def _validate_bfs_component(
    graph: StaticGraph,
    members: set[NodeId],
    dist: Mapping[NodeId, int],
    what: str,
    require_connected: bool,
) -> None:
    roots = [v for v in members if dist[v] == 0]
    if len(roots) != 1:
        raise ClusteringError(
            f"{what} has {len(roots)} roots (δ=0 nodes); expected exactly 1"
        )
    root = roots[0]
    bfs = _induced_bfs(graph, members, root)
    if require_connected and set(bfs) != set(members):
        raise ClusteringError(
            f"{what} is disconnected: {len(members) - len(bfs)} nodes "
            f"unreachable from root {root}"
        )
    for v in members:
        expected = bfs.get(v)
        if expected is None:
            raise ClusteringError(f"{what}: node {v} unreachable from root")
        if dist[v] != expected:
            raise ClusteringError(
                f"{what}: δ({v}) = {dist[v]} but induced BFS distance from "
                f"root {root} is {expected}"
            )
