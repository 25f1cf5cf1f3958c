"""Lemma 15 — one phase of the clustering construction.

Given a parameter b, the protocol partitions any n-node graph into

- **singleton clusters** colored from a palette of ``a·b²`` colors
  (a = 16, fixed by Linial's fixed point on degree-b graphs), and
- at most **n/b residual clusters**, each a uniquely-labeled BFS cluster
  whose label is its root's ID shifted above the singleton palette.

Pipeline (Figure 4):

1. distance-2 coloring c0 (Linial on G²; zero rounds when the ID space is
   already within the O(n⁴) fixed point — the §5 Remark);
2. low-degree shift: c1 = c0 + k for nodes of degree ≤ b;
3. two all-awake rounds to learn c1 on N(v) and N²(v);
4. local computation of parent pointers p1 (toward the 2-hop color
   minimum), shifts b(v), colors c2 and pointers p2 (Claim 16 makes the
   p2-forest F2 monotone in c2 and a subgraph of G);
5. per-tree convergecast + broadcast with labels c2 (Lemma 6) to learn the
   tree: members, root, root degree;
6. a second convergecast + broadcast collecting the *induced* intra-cluster
   edges, so every member computes true BFS distances from the root
   (Definition 2 requires induced distances, not tree distances);
7. clusters whose root has degree ≤ b dissolve into U; one round announces
   U membership, then Linial's distance-1 reduction on G[U] (degree ≤ b)
   yields the singleton colors in [1, a·b²].

Awake complexity O(log* n); round complexity O(k) where k is the
distance-2 palette (O(n⁴) in general, O(n^s) for IDs from [n^s]).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Any, Generator, Iterable, Mapping

from repro.core.cast import (
    broadcast_labeled,
    convergecast_labeled,
    labeled_cast_duration,
)
from repro.core.clustering import _bfs_over, _induced_bfs
from repro.core.linial import (
    _reduce_one,
    final_palette,
    linial_coloring,
    linial_duration,
    reduction_schedule,
)
from repro.errors import ProtocolError
from repro.graphs.graph import StaticGraph
from repro.model.actions import AwakeAt
from repro.types import NodeId, Payload
from repro.util.mathx import next_prime

Proto = Generator[AwakeAt, dict[NodeId, Payload], Any]

#: The constant ``a`` of Lemma 15: every palette on which Linial's
#: reduction with conflict degree b halts is at most next_prime(2b+1)²
#: (see :func:`singleton_palette`), and next_prime(2b+1) <= 4b + 1 by
#: Bertrand's postulate, so a·b² with a = 64 covers it for every b >= 1.
A_CONSTANT = 64


@lru_cache(maxsize=None)
def singleton_palette(b: int) -> int:
    """The exact number of colors reserved for singleton clusters: the
    largest palette on which Linial's reduction with conflict degree b can
    halt, which is ``P²`` with ``P = next_prime(2b+1)``.

    A step (d, q) shrinks palette k iff q² < k, where
    ``q = next_prime(max(b·d + 1, ⌈k^{1/(d+1)}⌉))``. Then:

    - d = 1 never makes progress, because q >= ⌈√k⌉.
    - For d >= 2, q >= next_prime(2b+1) = P, so k = P² is stuck.
    - Every k > P² progresses at d = 2. Let c = ⌈k^{1/3}⌉. If c <= 2b+1
      then q = P and q² < k. Otherwise c >= 2b+2 and, by Bertrand,
      q = next_prime(c) <= 2c - 1, so q² <= (2c-1)² < (c-1)³ + 1 <= k
      once c >= 8, which holds for all b >= 3.

    b <= 2 is checked exhaustively against the scan over every palette
    (tests/test_lemma15.py pins the closed form for every b <= 32).
    """
    p = next_prime(2 * b + 1)
    return p * p


@dataclass(frozen=True)
class Lemma15Output:
    """Per-node result of one Lemma 15 phase.

    ``singleton`` nodes carry γ = gamma ∈ [1, a·b²] and δ = 0. Residual
    nodes carry γ = label = root ID + a·b² (unique) and δ = the induced
    BFS distance to the root.
    """

    singleton: bool
    gamma: int
    delta: int
    root: NodeId
    root_degree: int
    members: tuple[NodeId, ...]

    @property
    def label(self) -> int:
        """The residual cluster's unique label (= gamma for non-singletons)."""
        if self.singleton:
            raise ProtocolError("singleton clusters have colors, not labels")
        return self.gamma


# ---------------------------------------------------------------------------
# Deterministic timing (common knowledge from n, id_space, b).
# ---------------------------------------------------------------------------


def distance2_conflict_degree(n: int) -> int:
    """Bound on |N(v) ∪ N²(v)|: Δ² <= n² (the nodes only know n)."""
    return max(1, n * n)


def distance2_palette(n: int, id_space: int) -> int:
    """Palette of the distance-2 coloring c0 — ``k`` in the paper.

    Equals ``id_space`` when the IDs already fit (zero Linial rounds, the
    §5 Remark), otherwise the O(n⁴) fixed point.
    """
    return final_palette(id_space, distance2_conflict_degree(n))


def c2_bound(n: int, id_space: int) -> int:
    """Upper bound on the tree labels c2 = 2·c1 + shift with c1 in [1, 2k]
    (c1 is 1-indexed so that the root sentinel c2 = 0 is never collided)."""
    return 4 * distance2_palette(n, id_space) + 1


def lemma15_duration(n: int, id_space: int, b: int) -> int:
    """Reserved window length of one Lemma 15 phase."""
    d2 = linial_duration(id_space, distance2_conflict_degree(n), distance=2)
    casts = 4 * labeled_cast_duration(c2_bound(n, id_space))
    membership = 1
    coloring_u = linial_duration(id_space, b)
    return d2 + 2 + casts + membership + coloring_u


# ---------------------------------------------------------------------------
# The distributed protocol (level-agnostic: runs on G or on a virtual H).
# ---------------------------------------------------------------------------


def lemma15_protocol(
    me: NodeId,
    peers: Iterable[NodeId],
    n: int,
    id_space: int,
    b: int,
    t0: int,
) -> Proto:
    """One phase of Lemma 15; returns :class:`Lemma15Output` for ``me``."""
    peers = tuple(peers)
    if b < 1:
        raise ProtocolError(f"b must be >= 1, got {b}")
    degree = len(peers)
    d2_degree = distance2_conflict_degree(n)
    k = distance2_palette(n, id_space)
    label_bound = c2_bound(n, id_space)

    # -- step 1: distance-2 coloring ---------------------------------------
    c0 = yield from linial_coloring(
        me, peers, color=me - 1, palette=id_space,
        conflict_degree=d2_degree, t0=t0, distance=2,
    )
    clock = t0 + linial_duration(id_space, d2_degree, distance=2)

    # -- step 2: low-degree shift (1-indexed: c1 in [1, 2k]) ----------------
    c1 = (c0 + 1) + k if degree <= b else (c0 + 1)

    # -- step 3: learn c1 on N(v) and N²(v) ---------------------------------
    inbox = yield AwakeAt(clock, {u: ("c1", c1) for u in peers})
    nbr_c1 = {u: msg[1] for u, msg in inbox.items() if msg[0] == "c1"}
    inbox = yield AwakeAt(clock + 1, {u: ("nbrs", nbr_c1) for u in peers})
    nbr_maps = {u: msg[1] for u, msg in inbox.items() if msg[0] == "nbrs"}
    clock += 2
    two_hop_c1: dict[NodeId, int] = {}
    for u, colormap in sorted(nbr_maps.items()):
        for w, cw in colormap.items():
            if w != me and w not in nbr_c1:
                two_hop_c1[w] = cw

    # -- step 4: parents p1/p2, shift, color c2 -----------------------------
    p1, shift = _select_p1(me, c1, nbr_c1, two_hop_c1)
    if p1 is None:
        c2, p2 = 0, None
    else:
        parent_c1 = nbr_c1.get(p1, two_hop_c1.get(p1))
        c2 = 2 * parent_c1 + shift
        if shift == 0:
            p2 = p1
        else:
            # any common neighbor of me and p1 (deterministic: smallest ID)
            candidates = [u for u in peers if p1 in nbr_maps.get(u, {})]
            if not candidates:
                raise ProtocolError(
                    f"node {me}: 2-hop parent {p1} shares no common neighbor"
                )
            p2 = min(candidates)
    if c2 > label_bound:
        raise ProtocolError(f"node {me}: c2 = {c2} exceeds bound {label_bound}")

    # -- step 5: learn the whole F2 tree ------------------------------------
    record = {me: (p2, degree)}
    cast_len = labeled_cast_duration(label_bound)
    folded = yield from convergecast_labeled(
        me, peers, p2, c2, label_bound, clock, record, _merge_dicts
    )
    tree = yield from broadcast_labeled(
        me, peers, p2, c2, label_bound, clock + cast_len, folded
    )
    clock += 2 * cast_len
    members = frozenset(tree)
    roots = [v for v, (parent, _) in tree.items() if parent is None]
    if len(roots) != 1:
        raise ProtocolError(
            f"node {me}: tree has {len(roots)} roots; F2 is not a forest"
        )
    root = roots[0]
    root_degree = tree[root][1]

    # -- step 6: induced BFS distances --------------------------------------
    my_edges = {me: tuple(u for u in peers if u in members)}
    folded = yield from convergecast_labeled(
        me, peers, p2, c2, label_bound, clock, my_edges, _merge_dicts
    )
    all_edges = yield from broadcast_labeled(
        me, peers, p2, c2, label_bound, clock + cast_len, folded
    )
    clock += 2 * cast_len
    delta_aux = _bfs_over(all_edges, root)
    if set(delta_aux) != set(members):
        raise ProtocolError(
            f"node {me}: cluster of root {root} is not connected in G"
        )

    # -- step 7: dissolve low-degree-rooted clusters into singletons --------
    ab2 = singleton_palette(b)
    if root_degree > b:
        # Residual cluster: unique label = root ID shifted above [1, a·b²].
        return Lemma15Output(
            singleton=False,
            gamma=root + ab2,
            delta=delta_aux[me],
            root=root,
            root_degree=root_degree,
            members=tuple(sorted(members)),
        )

    if degree > b:
        raise ProtocolError(
            f"node {me}: in a low-degree-rooted cluster but deg = {degree} "
            f"> b = {b} — contradicts Lemma 15"
        )
    inbox = yield AwakeAt(clock, {u: ("inU", None) for u in peers})
    u_peers = tuple(sorted(u for u, msg in inbox.items() if msg[0] == "inU"))
    clock += 1
    if len(u_peers) > b:
        raise ProtocolError(
            f"node {me}: {len(u_peers)} U-neighbors > b = {b}"
        )
    color = yield from linial_coloring(
        me, u_peers, color=me - 1, palette=id_space,
        conflict_degree=b, t0=clock,
    )
    gamma = color + 1
    if not 1 <= gamma <= ab2:
        raise ProtocolError(
            f"node {me}: singleton color {gamma} outside [1, {ab2}]"
        )
    return Lemma15Output(
        singleton=True,
        gamma=gamma,
        delta=0,
        root=root,
        root_degree=root_degree,
        members=tuple(sorted(members)),
    )


def _select_p1(
    me: NodeId,
    c1: int,
    nbr_c1: Mapping[NodeId, int],
    two_hop_c1: Mapping[NodeId, int],
) -> tuple[NodeId | None, int | None]:
    """The three-case parent rule of Lemma 15 (colors are unique on the
    2-ball because c1 is a distance-2 coloring; ties broken by ID anyway)."""
    ball = list(nbr_c1.values()) + list(two_hop_c1.values())
    if all(c > c1 for c in ball):
        return None, None
    if any(c < c1 for c in nbr_c1.values()):
        parent = min(nbr_c1, key=lambda u: (nbr_c1[u], u))
        return parent, 0
    parent = min(two_hop_c1, key=lambda u: (two_hop_c1[u], u))
    return parent, 1


def _merge_dicts(a: dict, b: dict) -> dict:
    merged = dict(a)
    merged.update(b)
    return merged


# ---------------------------------------------------------------------------
# Centralized reference (oracle for tests; fast path for large-n statistics).
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Lemma15Reference:
    """Centralized re-computation of a Lemma 15 phase."""

    outputs: dict[NodeId, Lemma15Output]
    c1: dict[NodeId, int]
    c2: dict[NodeId, int]
    p1: dict[NodeId, NodeId | None]
    p2: dict[NodeId, NodeId | None]
    residual_clusters: int
    palette: int

    def gamma(self) -> dict[NodeId, int]:
        return {v: out.gamma for v, out in self.outputs.items()}

    def delta(self) -> dict[NodeId, int]:
        return {v: out.delta for v, out in self.outputs.items()}


def lemma15_reference(
    graph: StaticGraph, b: int, n: int | None = None
) -> Lemma15Reference:
    """Compute the same phase centrally, with identical tie-breaking.

    Used as the equality oracle for the distributed protocol and to gather
    large-n statistics (cluster-count decay) without simulation overhead.
    ``n`` is the common-knowledge network size the protocol runs with
    (default ``graph.n``); on a virtual graph H it is the n of G, which
    fixes the distance-2 conflict degree and palette.
    """
    n = graph.n if n is None else n
    id_space = graph.id_space
    k = distance2_palette(n, id_space)

    # The distance-2 balls are the hot data of the whole phase: compute
    # them once and share across the coloring iterations and parent rule.
    two_hop = {v: graph.distance_2_neighbors(v) for v in graph.nodes}

    c0 = _replay_linial(
        {v: graph.neighbors(v) + two_hop[v] for v in graph.nodes},
        id_space, distance2_conflict_degree(n),
    )
    c1 = {
        v: (c0[v] + 1) + k if graph.degree(v) <= b else (c0[v] + 1)
        for v in graph.nodes
    }

    p1: dict[NodeId, NodeId | None] = {}
    shift: dict[NodeId, int | None] = {}
    for v in graph.nodes:
        nbr = {u: c1[u] for u in graph.neighbors(v)}
        two = {u: c1[u] for u in two_hop[v]}
        p1[v], shift[v] = _select_p1(v, c1[v], nbr, two)

    c2: dict[NodeId, int] = {}
    p2: dict[NodeId, NodeId | None] = {}
    for v in graph.nodes:
        if p1[v] is None:
            c2[v], p2[v] = 0, None
        else:
            c2[v] = 2 * c1[p1[v]] + shift[v]
            if shift[v] == 0:
                p2[v] = p1[v]
            else:
                common = [
                    u for u in graph.neighbors(v)
                    if graph.has_edge(u, p1[v])
                ]
                p2[v] = min(common)

    # Trees of F2 → clusters.
    children: dict[NodeId, list[NodeId]] = {v: [] for v in graph.nodes}
    for v in graph.nodes:
        if p2[v] is not None:
            children[p2[v]].append(v)
    outputs: dict[NodeId, Lemma15Output] = {}
    ab2 = singleton_palette(b)
    residual = 0
    u_nodes: set[NodeId] = set()
    for root in graph.nodes:
        if p2[root] is not None:
            continue
        members = []
        stack = [root]
        while stack:
            x = stack.pop()
            members.append(x)
            stack.extend(children[x])
        member_set = frozenset(members)
        if graph.degree(root) <= b:
            u_nodes |= member_set
            for v in members:
                outputs[v] = Lemma15Output(
                    singleton=True, gamma=-1, delta=0, root=root,
                    root_degree=graph.degree(root),
                    members=tuple(sorted(member_set)),
                )
            continue
        residual += 1
        dist = _induced_bfs(graph, member_set, root)
        missing = member_set - set(dist)
        if missing:
            raise ProtocolError(
                f"cluster of root {root} is disconnected: {sorted(missing)[:5]}"
            )
        for v in members:
            outputs[v] = Lemma15Output(
                singleton=False, gamma=root + ab2, delta=dist[v], root=root,
                root_degree=graph.degree(root),
                members=tuple(sorted(member_set)),
            )

    if u_nodes:
        u_colors = _replay_linial(
            {
                v: [u for u in graph.neighbors(v) if u in u_nodes]
                for v in sorted(u_nodes)
            },
            id_space, b,
        )
        for v in u_nodes:
            old = outputs[v]
            outputs[v] = Lemma15Output(
                singleton=True, gamma=u_colors[v] + 1, delta=0, root=old.root,
                root_degree=old.root_degree, members=old.members,
            )

    return Lemma15Reference(
        outputs=outputs, c1=c1, c2=c2, p1=p1, p2=p2,
        residual_clusters=residual, palette=k,
    )


def _replay_linial(
    partners: Mapping[NodeId, Iterable[NodeId]], palette: int, degree: int
) -> dict[NodeId, int]:
    """Replays :func:`~repro.core.linial.linial_coloring` centrally for
    every node of ``partners`` against its conflict partners: colors start
    at ``v - 1`` in ``palette``, with the identical (d, q) schedule for
    conflict degree ``degree`` and the same evaluation-point choices."""
    colors = {v: v - 1 for v in partners}
    for d, q in reduction_schedule(palette, degree):
        colors = {
            v: _reduce_one(v, colors[v], {colors[u] for u in nbrs}, d, q)
            for v, nbrs in partners.items()
        }
    return colors
