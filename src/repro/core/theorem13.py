"""Theorem 13 — a colored BFS-clustering with 2^{O(sqrt(log n))} colors.

The construction iterates k = 2·⌈sqrt(log n)⌉ phases with b = 2^⌈sqrt(log n)⌉
(Figure 3). Phase i maintains a uniquely-labeled BFS-clustering
(ℓ_{i-1}, δ_{i-1}) of the still-active subgraph G_{i-1}:

1. run Lemma 15 with parameter b *on the virtual graph* H_{i-1}
   (Lemma 7 / :mod:`repro.core.virtual`);
2. clusters of H_{i-1} that received a singleton color γ' ≤ a·b² finish:
   their nodes take the final color γ = (i, γ') and keep δ = δ_{i-1};
3. residual clusters (at most |V(H_{i-1})|/b of them) merge along Lemma
   15's uniquely-labeled part and flatten via Lemma 14 into (ℓ_i, δ_i).

After k phases |V(H_k)| ≤ n / b^k < 1, so every node has finished. The
number of colors is k·a·b² = 2^{O(sqrt(log n))}; awake complexity is
O(sqrt(log n)·log* n); round complexity O(n^5 sqrt(log n)) in general and
O(n^{1+s} sqrt(log n)) for IDs from [n^s] (the §5 Remark — realized here
automatically because Linial's distance-2 prologue runs zero rounds when
the label space already fits).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Any, Callable, Generator, Mapping

from repro.core.clustering import ColoredBFSClustering
from repro.core.lemma14 import (
    lemma14_duration,
    lemma14_protocol,
    lemma14_reference,
)
from repro.core.lemma15 import (
    Lemma15Output,
    lemma15_duration,
    lemma15_protocol,
    lemma15_reference,
    singleton_palette,
)
from repro.core.virtual import run_on_virtual_graph, virtual_duration
from repro.errors import ProtocolError
from repro.graphs.graph import StaticGraph
from repro.model.actions import AwakeAt
from repro.model.api import NodeInfo
from repro.model.simulator import SimulationResult, SleepingSimulator
from repro.types import ClusterLabel, NodeId, Payload
from repro.util.mathx import sqrt_log_ceil

Proto = Generator[AwakeAt, dict[NodeId, Payload], Any]


# ---------------------------------------------------------------------------
# Parameters and deterministic timing.
# ---------------------------------------------------------------------------


def default_b(n: int) -> int:
    """The paper's b = 2^{sqrt(log n)} (ceiling in the exponent)."""
    return 1 << sqrt_log_ceil(n)


def num_phases(n: int) -> int:
    """k = 2·sqrt(log n) phases empty the virtual graph: n / b^k < 1."""
    return max(1, 2 * sqrt_log_ceil(n))


def color_palette_bound(n: int, b: int | None = None) -> int:
    """Total colors k·(a·b²) = 2^{O(sqrt(log n))}."""
    b = b if b is not None else default_b(n)
    return num_phases(n) * singleton_palette(b)


def phase_label_space(id_space: int, b: int, phase: int) -> int:
    """Bound on cluster labels entering phase ``phase`` (1-indexed):
    labels grow by the a·b² shift once per completed phase."""
    return id_space + (phase - 1) * singleton_palette(b)


def phase_window(n: int, id_space: int, b: int, phase: int) -> int:
    """Concrete length of one phase: simulated Lemma 15 + Lemma 14."""
    ls = phase_label_space(id_space, b, phase)
    lemma15_virtual = lemma15_duration(n, ls, b)
    return virtual_duration(n, lemma15_virtual) + lemma14_duration(n)


@lru_cache(maxsize=256)
def theorem13_duration(n: int, id_space: int, b: int | None = None) -> int:
    """Total reserved rounds of the whole pipeline (sum of phase windows)."""
    b = b if b is not None else default_b(n)
    return sum(
        phase_window(n, id_space, b, i) for i in range(1, num_phases(n) + 1)
    )


# ---------------------------------------------------------------------------
# The distributed pipeline.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Theorem13Assignment:
    """A node's final pair in the colored BFS-clustering."""

    phase: int  # the i of γ = (i, γ')
    gamma: int  # γ' ∈ [1, a·b²]
    dist: int  # δ

    def canonical_color(self, b: int) -> int:
        """(i, γ') flattened to an integer in [1, k·a·b²]."""
        return (self.phase - 1) * singleton_palette(b) + self.gamma


def theorem13_subprotocol(
    info: NodeInfo, t0: int, b: int | None = None
) -> Proto:
    """The clustering pipeline as a composable sub-protocol.

    Returns a :class:`Theorem13Assignment`; the caller knows the end time
    ``t0 + theorem13_duration(info.n, info.id_space, b)`` (Lemma 8).
    """
    n, id_space = info.n, info.id_space
    b = b if b is not None else default_b(n)
    phases = num_phases(n)
    label: ClusterLabel = info.id
    delta = 0
    clock = t0
    assignment: Theorem13Assignment | None = None

    for i in range(1, phases + 1):
        ls = phase_label_space(id_space, b, i)
        lemma15_virtual = lemma15_duration(n, ls, b)
        window15 = virtual_duration(n, lemma15_virtual)
        if assignment is not None:
            clock += window15 + lemma14_duration(n)
            continue

        outcome = yield from run_on_virtual_graph(
            me=info.id,
            peers=info.neighbors,
            label=label,
            delta=delta,
            n=n,
            t0=clock,
            vprogram=_make_lemma15_vprogram(n, ls, b),
            label_space=ls,
            max_virtual_rounds=lemma15_virtual,
        )
        out15: Lemma15Output = outcome.output
        if out15.singleton:
            # Final color (i, γ'); δ is inherited from the current level.
            assignment = Theorem13Assignment(
                phase=i, gamma=out15.gamma, dist=delta
            )
            clock += window15 + lemma14_duration(n)
            continue

        flattened = yield from lemma14_protocol(
            me=info.id,
            peers=info.neighbors,
            label=label,
            delta=delta,
            label2=out15.gamma,  # the residual cluster's unique label
            dist2=out15.delta,  # δ' of this H-vertex inside its H-cluster
            n=n,
            t0=clock + window15,
            label_space=phase_label_space(id_space, b, i + 1),
        )
        label, delta = flattened.label, flattened.dist
        clock += window15 + lemma14_duration(n)

    if assignment is None:
        raise ProtocolError(
            f"node {info.id}: still unassigned after {phases} phases — "
            f"contradicts |V(H_k)| <= n/b^k < 1"
        )
    return assignment


def _make_lemma15_vprogram(
    n: int, label_space: int, b: int
) -> Callable[[NodeInfo], Proto]:
    def vprogram(vinfo: NodeInfo) -> Proto:
        out = yield from lemma15_protocol(
            me=vinfo.id,
            peers=vinfo.neighbors,
            n=n,
            id_space=label_space,
            b=b,
            t0=1,
        )
        return out

    return vprogram


# ---------------------------------------------------------------------------
# End-to-end wrapper.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ClusteringResult:
    clustering: ColoredBFSClustering
    assignments: Mapping[NodeId, Theorem13Assignment]
    simulation: SimulationResult | None
    b: int
    palette_bound: int

    @property
    def num_colors_used(self) -> int:
        return self.clustering.num_colors()

    @property
    def awake_complexity(self) -> int:
        if self.simulation is None:
            raise ProtocolError("reference runs carry no awake metrics")
        return self.simulation.awake_complexity

    @property
    def round_complexity(self) -> int:
        if self.simulation is None:
            raise ProtocolError("reference runs carry no awake metrics")
        return self.simulation.round_complexity


def compute_clustering(
    graph: StaticGraph, b: int | None = None, validate: bool = True
) -> ClusteringResult:
    """Theorem 13, distributed: run the pipeline on the Sleeping simulator."""
    chosen_b = b if b is not None else default_b(graph.n)

    def program(info: NodeInfo) -> Proto:
        assignment = yield from theorem13_subprotocol(info, t0=1, b=chosen_b)
        return assignment

    result = SleepingSimulator(graph, program).run()
    return _package(graph, result.outputs, result, chosen_b, validate)


def theorem13_reference(
    graph: StaticGraph, b: int | None = None, validate: bool = True
) -> ClusteringResult:
    """Centralized mirror of the pipeline (same tie-breaking, no simulator):
    the oracle for :func:`compute_clustering` and the fast path for
    large-n statistics. Each phase is :func:`lemma15_reference` on the
    virtual graph, run with G's n as the protocol does, then
    :func:`lemma14_reference` on the residual clusters."""
    chosen_b = b if b is not None else default_b(graph.n)
    phases = num_phases(graph.n)
    assignments: dict[NodeId, Theorem13Assignment] = {}

    # (ℓ, δ) of the still-active nodes.
    label: dict[NodeId, ClusterLabel] = {v: v for v in graph.nodes}
    dist = {v: 0 for v in graph.nodes}

    for i in range(1, phases + 1):
        if not label:
            break
        ls = phase_label_space(graph.id_space, chosen_b, i)
        ref15 = lemma15_reference(
            _virtual_graph_of(graph, label, ls), chosen_b, n=graph.n
        )
        residual: dict[NodeId, ClusterLabel] = {}
        for v, lab in label.items():
            out15 = ref15.outputs[lab]
            if out15.singleton:
                assignments[v] = Theorem13Assignment(
                    phase=i, gamma=out15.gamma, dist=dist[v]
                )
            else:
                residual[v] = lab
        flattened = lemma14_reference(
            graph, residual, dist, ref15.gamma(), ref15.delta()
        )
        label = {v: out.label for v, out in flattened.items()}
        dist = {v: out.dist for v, out in flattened.items()}

    if label:
        raise ProtocolError(
            f"{len(label)} nodes unassigned after {phases} phases"
        )
    return _package(graph, assignments, None, chosen_b, validate)


def _virtual_graph_of(
    graph: StaticGraph,
    label: Mapping[NodeId, ClusterLabel],
    label_space: int,
) -> StaticGraph:
    """The virtual graph of the active nodes (the keys of ``label``): one
    vertex per label, an edge between labels joined by a G edge."""
    edges = set()
    for u, v in graph.edges():
        if u in label and v in label and label[u] != label[v]:
            edges.add((min(label[u], label[v]), max(label[u], label[v])))
    return StaticGraph.from_edges(
        edges, nodes=set(label.values()), id_space=label_space
    )


def _package(
    graph: StaticGraph,
    assignments: dict[NodeId, Any],
    simulation: SimulationResult | None,
    b: int,
    validate: bool,
) -> ClusteringResult:
    clustering = ColoredBFSClustering(
        color={v: a.canonical_color(b) for v, a in assignments.items()},
        dist={v: a.dist for v, a in assignments.items()},
    )
    if validate:
        clustering.validate(graph)
        bound = color_palette_bound(graph.n, b)
        max_color = clustering.max_color()
        if max_color > bound:
            raise ProtocolError(
                f"used color {max_color} exceeds the bound {bound}"
            )
    return ClusteringResult(
        clustering=clustering,
        assignments=dict(assignments),
        simulation=simulation,
        b=b,
        palette_bound=color_palette_bound(graph.n, b),
    )
