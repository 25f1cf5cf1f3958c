"""Lemma 14 — flattening a two-level clustering.

Input: a uniquely-labeled BFS-clustering (ℓ, δ) of G and a uniquely-labeled
BFS-clustering (ℓ', δ') of its virtual graph H (every node knows its own
pairs). Output: the uniquely-labeled BFS-clustering (ℓ'', δ'') of G whose
virtual graph is K — clusters of G are merged along the clusters of H:

    ℓ''(v) = ℓ'(ℓ(v)),
    δ''(v) = induced-BFS distance to the unique node that is root of its
             cluster inside the root cluster of its super-cluster.

Distributed realization (constant awake, O(n²) rounds): each cluster of
(ℓ, δ) acts as a vertex of H (Lemma 7, :mod:`repro.core.virtual`); inside H
the super-cluster gathers, via one convergecast+broadcast along its BFS
tree (δ' labels), the complete structure of the merged cluster — every
member cluster's nodes, δ values and incident edges — after which every
replica computes the new BFS distances locally.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Generator, Iterable, Mapping

from repro.core.cast import gather_bfs, gather_duration
from repro.core.clustering import _bfs_over, _induced_bfs
from repro.core.virtual import run_on_virtual_graph, virtual_duration
from repro.errors import ProtocolError
from repro.model.actions import AwakeAt
from repro.model.api import NodeInfo
from repro.types import ClusterLabel, NodeId, Payload

Proto = Generator[AwakeAt, dict[NodeId, Payload], Any]


@dataclass(frozen=True)
class Lemma14Output:
    """The flattened pair of one node, plus the new root for diagnostics."""

    label: ClusterLabel  # ℓ''(v) = ℓ'(ℓ(v))
    dist: int  # δ''(v)
    root: NodeId  # the δ''-0 node of the merged cluster


def lemma14_virtual_rounds(n: int) -> int:
    """Virtual round budget: 1 exchange + 1 gather over the super-cluster."""
    return 1 + gather_duration(n)


def lemma14_duration(n: int) -> int:
    """Concrete window: O(n) virtual rounds × O(n) rounds each = O(n²)."""
    return virtual_duration(n, lemma14_virtual_rounds(n))


def lemma14_protocol(
    me: NodeId,
    peers: Iterable[NodeId],
    label: ClusterLabel,
    delta: int,
    label2: ClusterLabel,
    dist2: int,
    n: int,
    t0: int,
    label_space: int,
) -> Proto:
    """Flatten (ℓ, δ) + (ℓ', δ') into (ℓ'', δ'') for this node.

    Args:
        label/delta: the node's pair in (ℓ, δ).
        label2/dist2: the node's cluster's pair in (ℓ', δ') — every member
            of a cluster holds the same values.
        label_space: bound on ℓ' labels (virtual ID space).
    """

    def contribution(
        neighbor_setup: Mapping[NodeId, tuple[ClusterLabel, int, Any]]
    ) -> dict[str, Any]:
        return {
            "delta": delta,
            "l2": label2,
            "d2": dist2,
            "edges": tuple(
                (u, lab) for u, (lab, _, _) in sorted(neighbor_setup.items())
            ),
        }

    outcome = yield from run_on_virtual_graph(
        me=me,
        peers=peers,
        label=label,
        delta=delta,
        n=n,
        t0=t0,
        vprogram=_flatten_vprogram,
        label_space=label_space,
        max_virtual_rounds=lemma14_virtual_rounds(n),
        contribution_fn=contribution,
    )
    dist_map = outcome.output["dist"]
    if me not in dist_map:
        raise ProtocolError(
            f"node {me}: absent from the merged cluster of ℓ'' = {label2}"
        )
    return Lemma14Output(
        label=label2, dist=dist_map[me], root=outcome.output["root"]
    )


def _flatten_vprogram(vinfo: NodeInfo) -> Proto:
    """Virtual program of one H-vertex (cluster of G)."""
    contributions: dict[NodeId, dict] = vinfo.input
    l2, d2 = _consistent_pair(vinfo.id, contributions)

    # Virtual round 1: exchange (ℓ', δ') with H-neighbors to find the
    # super-cluster peers and the BFS parent inside the super-cluster.
    inbox = yield AwakeAt(
        1, {lab: ("l2", l2, d2) for lab in vinfo.neighbors}
    )
    same_super = {
        lab: msg[2]
        for lab, msg in sorted(inbox.items())
        if msg[0] == "l2" and msg[1] == l2
    }
    if d2 == 0:
        parent = None
    else:
        candidates = [lab for lab, dd in same_super.items() if dd == d2 - 1]
        if not candidates:
            raise ProtocolError(
                f"cluster {vinfo.id}: δ' = {d2} but no super-cluster "
                f"neighbor at δ' = {d2 - 1}"
            )
        parent = min(candidates)

    # Gather the full merged-cluster structure along the super-cluster tree.
    merged = yield from gather_bfs(
        me=vinfo.id,
        peers=tuple(same_super),
        parent=parent,
        depth=d2,
        depth_bound=vinfo.n,
        t0=2,
        payload={vinfo.id: contributions},
        merge=_merge_cluster_maps,
    )

    # Replica computation: BFS in the merged induced subgraph.
    member_labels = set(merged)
    nodes: dict[NodeId, dict] = {}
    for cluster_nodes in merged.values():
        nodes.update(cluster_nodes)
    adjacency: dict[NodeId, list[NodeId]] = {v: [] for v in nodes}
    for v, data in nodes.items():
        for u, lab in data["edges"]:
            if lab in member_labels and u in nodes:
                adjacency[v].append(u)

    root_cluster = [
        lab for lab, cluster_nodes in merged.items()
        if any(d["d2"] == 0 for d in cluster_nodes.values())
    ]
    roots = [
        v
        for lab in root_cluster
        for v, d in merged[lab].items()
        if d["delta"] == 0 and d["d2"] == 0
    ]
    if len(roots) != 1:
        raise ProtocolError(
            f"cluster {vinfo.id}: merged cluster for ℓ'' = {l2} has "
            f"{len(roots)} roots"
        )
    root = roots[0]
    dist = _bfs_over(adjacency, root)
    missing = set(nodes) - set(dist)
    if missing:
        raise ProtocolError(
            f"merged cluster ℓ'' = {l2} is disconnected: missing "
            f"{sorted(missing)[:5]}"
        )
    return {"dist": dist, "root": root}


def _consistent_pair(
    label: ClusterLabel, contributions: Mapping[NodeId, dict]
) -> tuple[ClusterLabel, int]:
    pairs = {(d["l2"], d["d2"]) for d in contributions.values()}
    if len(pairs) != 1:
        raise ProtocolError(
            f"cluster {label}: members disagree on (ℓ', δ'): {sorted(pairs)[:3]}"
        )
    return next(iter(pairs))


def _merge_cluster_maps(a: dict, b: dict) -> dict:
    merged = dict(a)
    merged.update(b)
    return merged


# ---------------------------------------------------------------------------
# Centralized reference.
# ---------------------------------------------------------------------------


def lemma14_reference(
    graph,
    level1_label: Mapping[NodeId, ClusterLabel],
    level1_dist: Mapping[NodeId, int],
    level2_label: Mapping[ClusterLabel, ClusterLabel],
    level2_dist: Mapping[ClusterLabel, int],
) -> dict[NodeId, Lemma14Output]:
    """Centralized flattening with the same root rule as the protocol."""
    outputs: dict[NodeId, Lemma14Output] = {}
    merged_members: dict[ClusterLabel, set[NodeId]] = {}
    for v, lab in level1_label.items():
        merged_members.setdefault(level2_label[lab], set()).add(v)
    for l2, members in merged_members.items():
        roots = [
            v
            for v in members
            if level1_dist[v] == 0 and level2_dist[level1_label[v]] == 0
        ]
        if len(roots) != 1:
            raise ProtocolError(
                f"merged cluster {l2} has {len(roots)} roots"
            )
        root = roots[0]
        dist = _induced_bfs(graph, members, root)
        missing = members - set(dist)
        if missing:
            raise ProtocolError(
                f"merged cluster {l2} is disconnected: {sorted(missing)[:5]}"
            )
        for v in members:
            outputs[v] = Lemma14Output(label=l2, dist=dist[v], root=root)
    return outputs
