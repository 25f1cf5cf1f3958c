"""An immutable, ID-addressed graph used by the simulator and algorithms.

Nodes are addressed *by their LOCAL-model identifier*, not by position:
every algorithm in the paper manipulates IDs, so making the ID the node
key removes an entire class of off-by-one translation bugs.

Hot-path queries (``nodes``, ``degree``, ``max_degree``, ``num_edges``,
BFS, components, ``distance_2_neighbors``) are served by a CSR-style
index — a contiguous neighbor-slot array plus per-node offsets and dense
id↔slot maps — built lazily, exactly once, and cached on the frozen
instance. The index layout is documented in PERFORMANCE.md.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

import networkx as nx

from repro.errors import GraphError
from repro.obs.spans import span
from repro.types import NodeId
from repro.util.idspace import IdAssignment, identity_ids


class _GraphIndex:
    """The CSR-style fast-path index of a :class:`StaticGraph`.

    Attributes:
        nodes: all node IDs, ascending (slot ``i`` holds ``nodes[i]``).
        node_set: the same IDs as a frozenset (O(1) membership).
        slot_of: dense ID → slot map.
        offsets: ``offsets[i]:offsets[i+1]`` delimits slot i's neighbors
            inside ``flat_slots`` (CSR row pointers).
        flat_slots: contiguous neighbor *slots*, in the adjacency's stored
            neighbor order (preserves iteration order bit-for-bit).
        degrees: per-slot degree.
        max_degree / num_edges: aggregated once at build time.
    """

    __slots__ = (
        "nodes",
        "node_set",
        "slot_of",
        "offsets",
        "flat_slots",
        "degrees",
        "max_degree",
        "num_edges",
    )

    def __init__(self, adjacency: Mapping[NodeId, tuple[NodeId, ...]]) -> None:
        nodes = tuple(sorted(adjacency))
        slot_of = {v: i for i, v in enumerate(nodes)}
        offsets = [0] * (len(nodes) + 1)
        flat_slots: list[int] = []
        degrees = [0] * len(nodes)
        append = flat_slots.append
        total = 0
        for i, v in enumerate(nodes):
            nbrs = adjacency[v]
            degrees[i] = len(nbrs)
            total += len(nbrs)
            offsets[i + 1] = total
            for u in nbrs:
                append(slot_of[u])
        self.nodes = nodes
        self.node_set = frozenset(nodes)
        self.slot_of = slot_of
        self.offsets = offsets
        self.flat_slots = flat_slots
        self.degrees = degrees
        self.max_degree = max(degrees, default=0)
        self.num_edges = total // 2

    @classmethod
    def _from_columns(
        cls,
        nodes: list[NodeId],
        offsets: list[int],
        flat_slots: list[int],
        degrees: list[int],
    ) -> "_GraphIndex":
        """Wrap CSR columns that are already in index layout (no walk)."""
        self = object.__new__(cls)
        self.nodes = tuple(nodes)
        self.node_set = frozenset(nodes)
        self.slot_of = dict(zip(nodes, range(len(nodes))))
        self.offsets = offsets
        self.flat_slots = flat_slots
        self.degrees = degrees
        self.max_degree = max(degrees, default=0)
        self.num_edges = len(flat_slots) // 2
        return self


def _validate_adjacency(
    adjacency: Mapping[NodeId, tuple[NodeId, ...]], id_space: int
) -> None:
    """One-shot O(V + E) validation of a hand-built adjacency."""
    directed: set[tuple[NodeId, NodeId]] = set()
    for v, nbrs in adjacency.items():
        for u in nbrs:
            if u == v:
                raise GraphError(f"self-loop at node {v}")
            if u not in adjacency:
                raise GraphError(f"edge ({v}, {u}) dangles: {u} missing")
            directed.add((v, u))
    for v, u in directed:
        if (u, v) not in directed:
            raise GraphError(f"edge ({v}, {u}) is not symmetric")
    if adjacency:
        lo, hi = min(adjacency), max(adjacency)
        if lo < 1 or hi > id_space:
            raise GraphError(
                f"node IDs must lie in [1, {id_space}], "
                f"got range [{lo}, {hi}]"
            )


@dataclass(frozen=True)
class StaticGraph:
    """A simple undirected graph with unique integer node IDs.

    Attributes:
        adjacency: mapping from node ID to a sorted tuple of neighbor IDs.
        id_space: upper bound of the ID range ``[1, id_space]`` that the
            IDs were drawn from; algorithms use it as the initial palette.
    """

    adjacency: Mapping[NodeId, tuple[NodeId, ...]]
    id_space: int

    def __post_init__(self) -> None:
        _validate_adjacency(self.adjacency, self.id_space)

    # -- construction -----------------------------------------------------

    @classmethod
    def _trusted(
        cls,
        adjacency: Mapping[NodeId, tuple[NodeId, ...]],
        id_space: int,
    ) -> "StaticGraph":
        """Wrap an adjacency known-correct by construction (no re-check)."""
        self = object.__new__(cls)
        object.__setattr__(self, "adjacency", adjacency)
        object.__setattr__(self, "id_space", id_space)
        return self

    @property
    def _index(self) -> _GraphIndex:
        index = self.__dict__.get("_index_cache")
        if index is None:
            arrays = self.__dict__.get("_source_arrays")
            if arrays is None:
                index = _GraphIndex(self.adjacency)
            else:
                with span("graphs.index", n=arrays.n):
                    index = _GraphIndex._from_columns(
                        arrays.ids.tolist(),
                        arrays.offsets.tolist(),
                        arrays.flat.tolist(),
                        arrays.degrees.tolist(),
                    )
            object.__setattr__(self, "_index_cache", index)
        return index

    @property
    def arrays(self):
        """The numpy CSR mirror of the index (vectorized-engine fast path).

        Built lazily on first access and cached like the index itself;
        see :class:`repro.graphs.arrays.GraphArrays`. A graph built by
        :meth:`from_edge_arrays` adopts the columns it was built from.
        numpy is imported on first access only, so the per-node engines
        never load it.
        """
        arrays = self.__dict__.get("_arrays_cache")
        if arrays is None:
            arrays = self.__dict__.get("_source_arrays")
            if arrays is None:
                from repro.graphs.arrays import GraphArrays

                arrays = GraphArrays.from_index(self._index)
            object.__setattr__(self, "_arrays_cache", arrays)
        return arrays

    @property
    def built_arrays(self):
        """:attr:`arrays` if already built or adopted, else ``None``.

        Never builds them (and so never imports numpy): callers with an
        array fast path take it only when the columns are already there.
        """
        arrays = self.__dict__.get("_arrays_cache")
        return arrays if arrays is not None else self.__dict__.get("_source_arrays")

    @staticmethod
    def from_edges(
        edges: Iterable[tuple[NodeId, NodeId]],
        nodes: Iterable[NodeId] = (),
        id_space: int | None = None,
    ) -> "StaticGraph":
        """Build a graph from an edge list (plus optional isolated nodes)."""
        adj: dict[NodeId, set[NodeId]] = {v: set() for v in nodes}
        for u, v in edges:
            if u == v:
                raise GraphError(f"self-loop at node {u}")
            adj.setdefault(u, set()).add(v)
            adj.setdefault(v, set()).add(u)
        frozen = {v: tuple(sorted(nbrs)) for v, nbrs in adj.items()}
        space = id_space if id_space is not None else (max(adj) if adj else 1)
        if adj:
            lo, hi = min(adj), max(adj)
            if lo < 1 or hi > space:
                raise GraphError(
                    f"node IDs must lie in [1, {space}], "
                    f"got range [{lo}, {hi}]"
                )
        graph = StaticGraph._trusted(frozen, space)
        graph._index  # symmetric by construction; index built eagerly
        return graph

    @staticmethod
    def from_edge_arrays(ids, a, b, id_space: int) -> "StaticGraph":
        """Build a graph from int64 edge arrays, without a per-node walk.

        The array twin of :meth:`from_edges`: ``ids`` are the node IDs,
        ascending (slot ``i`` holds ``ids[i]``), and each ``(a[i], b[i])``
        is an undirected edge between two slots. The input is checked
        and turned into CSR columns with numpy (see
        :meth:`GraphArrays.from_edges
        <repro.graphs.arrays.GraphArrays.from_edges>`, which raises
        :class:`GraphError`), and the graph adopts them as its
        ``arrays``. ``n``, ``max_degree`` and ``num_edges`` read them;
        ``adjacency`` is a :class:`~repro.graphs.arrays.NeighborMap` over
        them, and it and the index are built from them on first use.
        """
        from repro.graphs.arrays import GraphArrays, NeighborMap

        arrays = GraphArrays.from_edges(ids, a, b, id_space)
        graph = StaticGraph._trusted(
            NeighborMap(arrays.ids, arrays.offsets, arrays.flat), id_space
        )
        object.__setattr__(graph, "_source_arrays", arrays)
        return graph

    @staticmethod
    def from_networkx(
        graph: nx.Graph, ids: IdAssignment | None = None
    ) -> "StaticGraph":
        """Relabel a networkx graph with the given ID assignment.

        The networkx nodes are sorted (by ``repr`` when not comparable) and
        mapped positionally to ``ids``; defaults to identity IDs ``1..n``.
        """
        nodes = _stable_sorted(graph.nodes())
        assignment = ids if ids is not None else identity_ids(len(nodes))
        if assignment.n != len(nodes):
            raise GraphError(
                f"ID assignment has {assignment.n} ids for {len(nodes)} nodes"
            )
        relabel = {node: assignment.ids[i] for i, node in enumerate(nodes)}
        edges = [(relabel[u], relabel[v]) for u, v in graph.edges()]
        return StaticGraph.from_edges(
            edges, nodes=relabel.values(), id_space=assignment.space
        )

    def to_networkx(self) -> nx.Graph:
        g = nx.Graph()
        g.add_nodes_from(self.adjacency)
        for v, nbrs in self.adjacency.items():
            g.add_edges_from((v, u) for u in nbrs if u > v)
        return g

    # -- queries -----------------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.adjacency)

    @property
    def nodes(self) -> tuple[NodeId, ...]:
        return self._index.nodes

    @property
    def node_set(self) -> frozenset[NodeId]:
        """All node IDs as a frozenset (O(1) after the first access)."""
        return self._index.node_set

    def __iter__(self) -> Iterator[NodeId]:
        return iter(self._index.nodes)

    def __contains__(self, v: NodeId) -> bool:
        return v in self.adjacency

    def neighbors(self, v: NodeId) -> tuple[NodeId, ...]:
        return self.adjacency[v]

    def degree(self, v: NodeId) -> int:
        return len(self.adjacency[v])

    @property
    def max_degree(self) -> int:
        arrays = self.__dict__.get("_source_arrays")
        return arrays.max_degree if arrays is not None else self._index.max_degree

    @property
    def num_edges(self) -> int:
        arrays = self.__dict__.get("_source_arrays")
        return arrays.num_edges if arrays is not None else self._index.num_edges

    def edges(self) -> Iterator[tuple[NodeId, NodeId]]:
        index = self._index
        nodes, offsets, flat = index.nodes, index.offsets, index.flat_slots
        for i, v in enumerate(nodes):
            for j in range(offsets[i], offsets[i + 1]):
                u = nodes[flat[j]]
                if u > v:
                    yield (v, u)

    def has_edge(self, u: NodeId, v: NodeId) -> bool:
        return v in self.adjacency.get(u, ())

    def is_connected(self) -> bool:
        if self.n == 0:
            return True
        index = self._index
        return len(self._component_slots(index, 0)) == self.n

    def connected_components(self) -> list[frozenset[NodeId]]:
        index = self._index
        nodes = index.nodes
        seen = bytearray(len(nodes))
        components = []
        for s in range(len(nodes)):
            if not seen[s]:
                comp = self._component_slots(index, s)
                for t in comp:
                    seen[t] = 1
                components.append(frozenset(nodes[t] for t in comp))
        return components

    @staticmethod
    def _component_slots(index: _GraphIndex, start: int) -> list[int]:
        offsets, flat = index.offsets, index.flat_slots
        seen = bytearray(len(index.nodes))
        seen[start] = 1
        comp = [start]
        queue = deque(comp)
        while queue:
            s = queue.popleft()
            for j in range(offsets[s], offsets[s + 1]):
                t = flat[j]
                if not seen[t]:
                    seen[t] = 1
                    comp.append(t)
                    queue.append(t)
        return comp

    def bfs_distances(self, source: NodeId) -> dict[NodeId, int]:
        """Distances from ``source`` to every reachable node."""
        index = self._index
        nodes, offsets, flat = index.nodes, index.offsets, index.flat_slots
        start = index.slot_of[source]
        dist_by_slot = [-1] * len(nodes)
        dist_by_slot[start] = 0
        dist = {source: 0}
        queue = deque((start,))
        while queue:
            s = queue.popleft()
            d = dist_by_slot[s] + 1
            for j in range(offsets[s], offsets[s + 1]):
                t = flat[j]
                if dist_by_slot[t] < 0:
                    dist_by_slot[t] = d
                    dist[nodes[t]] = d
                    queue.append(t)
        return dist

    def distance_2_neighbors(self, v: NodeId) -> tuple[NodeId, ...]:
        """Nodes at distance exactly 2 from ``v`` (the paper's N²(v))."""
        index = self._index
        nodes, offsets, flat = index.nodes, index.offsets, index.flat_slots
        s = index.slot_of[v]
        mark = bytearray(len(nodes))
        mark[s] = 1
        direct = flat[offsets[s] : offsets[s + 1]]
        for t in direct:
            mark[t] = 1
        two_hop: list[int] = []
        for t in direct:
            for j in range(offsets[t], offsets[t + 1]):
                w = flat[j]
                if not mark[w]:
                    mark[w] = 1
                    two_hop.append(w)
        two_hop.sort()
        return tuple(nodes[t] for t in two_hop)


def _stable_sorted(nodes: Iterable) -> list:
    nodes = list(nodes)
    try:
        return sorted(nodes)
    except TypeError:
        return sorted(nodes, key=repr)
