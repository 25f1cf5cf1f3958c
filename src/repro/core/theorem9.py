"""Theorem 9 — solving any O-LOCAL problem given a colored BFS-clustering.

Given (γ, δ) with colors in [1, c], the algorithm:

1. roots every cluster (one broadcast of the root's ID down the BFS tree,
   Lemma 6) so the colored clustering doubles as a uniquely-labeled one;
2. treats each cluster as a vertex of the virtual graph H (Lemma 7) and
   runs the Lemma 11 wake calendar on H using γ as the proper coloring of
   H — each cluster is awake at the O(log c) rounds of r(γ), *decides* at
   round φ(γ) by sweeping its members in decreasing (δ, ID) order (the
   orientation µ_G of the paper), and forwards the member outputs to
   neighboring clusters afterwards.

Awake complexity O(log c); round complexity O(c·n). The result equals the
sequential greedy under the priority (γ(cluster), -δ, -ID) — the acyclic
orientation constructed in the proof — which is what the tests assert.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Generator, Iterable, Mapping

from repro.core.bm21 import schedule_solve, schedule_solve_duration
from repro.core.cast import bfs_cast_duration, broadcast_bfs
from repro.core.clustering import ColoredBFSClustering
from repro.core.virtual import run_on_virtual_graph, virtual_duration
from repro.errors import ProtocolError
from repro.graphs.graph import StaticGraph
from repro.model.actions import AwakeAt
from repro.model.api import NodeInfo
from repro.model.simulator import SimulationResult, SleepingSimulator
from repro.obs.spans import span
from repro.olocal.problem import NodeView, OLocalProblem
from repro.types import ClusterLabel, NodeId, Payload

Proto = Generator[AwakeAt, dict[NodeId, Payload], Any]


def theorem9_duration(n: int, palette: int) -> int:
    """Window: rooting (1 + n + 1) + simulated Lemma 11 (O(c) virtual)."""
    return 1 + bfs_cast_duration(n) + virtual_duration(
        n, schedule_solve_duration(palette)
    )


def theorem9_protocol(
    me: NodeId,
    peers: Iterable[NodeId],
    color: int,
    delta: int,
    palette: int,
    problem: OLocalProblem,
    t0: int,
    n: int,
    my_input: Any = None,
) -> Proto:
    """Solve ``problem`` at this node given its (γ, δ) pair.

    ``color`` must be an integer in [1, palette]; ``palette`` (the paper's
    c) is common knowledge.
    """
    peers = tuple(peers)
    if not 1 <= color <= palette:
        raise ProtocolError(f"color {color} outside palette [1, {palette}]")

    # -- step 1: root the cluster (learn ℓ = root ID) -----------------------
    inbox = yield AwakeAt(t0, {u: ("t9meta", color, delta) for u in peers})
    same_cluster = {
        u: msg[2]
        for u, msg in sorted(inbox.items())
        if msg[0] == "t9meta" and msg[1] == color
    }
    if delta == 0:
        parent = None
    else:
        candidates = [u for u, d in same_cluster.items() if d == delta - 1]
        if not candidates:
            raise ProtocolError(
                f"node {me}: δ = {delta} but no same-color neighbor at "
                f"δ = {delta - 1}; (γ, δ) is not a colored BFS-clustering"
            )
        parent = min(candidates)
    label = yield from broadcast_bfs(
        me,
        tuple(same_cluster),
        parent,
        delta,
        n,
        t0 + 1,
        me if delta == 0 else None,
    )

    # -- step 2: run Lemma 11 on the virtual graph --------------------------
    def contribution(
        neighbor_setup: Mapping[NodeId, tuple[ClusterLabel, int, Any]]
    ) -> dict[str, Any]:
        return {
            "delta": delta,
            "input": my_input,
            "neighbors": tuple(sorted(neighbor_setup)),
        }

    vprogram = _make_cluster_solver(color, palette, problem)
    outcome = yield from run_on_virtual_graph(
        me=me,
        peers=peers,
        label=label,
        delta=delta,
        n=n,
        t0=t0 + 1 + bfs_cast_duration(n),
        vprogram=vprogram,
        label_space=max(palette, label),
        max_virtual_rounds=schedule_solve_duration(palette),
        contribution_fn=contribution,
    )
    outputs: dict[NodeId, Any] = outcome.output
    if me not in outputs:
        raise ProtocolError(f"node {me}: cluster solver produced no output")
    return outputs[me]


def _make_cluster_solver(
    color: int, palette: int, problem: OLocalProblem
) -> Callable[[NodeInfo], Proto]:
    """The Π' decision rule: a full greedy sweep over the cluster."""

    def vprogram(vinfo: NodeInfo) -> Proto:
        contributions: dict[NodeId, dict] = vinfo.input

        def decide(
            accumulated: dict[ClusterLabel, Payload]
        ) -> tuple[Any, Payload]:
            known_foreign: dict[NodeId, Any] = {}
            for lab in sorted(accumulated):
                known_foreign.update(accumulated[lab])
            outputs: dict[NodeId, Any] = {}
            # µ_G inside the cluster: decreasing (δ, ID) — the node with
            # the largest δ (ties: largest ID) is the deepest descendant.
            order = sorted(
                contributions,
                key=lambda v: (-contributions[v]["delta"], -v),
            )
            for v in order:
                data = contributions[v]
                decided: dict[NodeId, Any] = {}
                for u in data["neighbors"]:
                    if u in outputs:
                        decided[u] = outputs[u]
                    elif u in known_foreign:
                        decided[u] = known_foreign[u]
                view = NodeView(
                    id=v, degree=len(data["neighbors"]), input=data["input"]
                )
                outputs[v] = problem.decide(view, decided)
            return outputs, outputs

        result = yield from schedule_solve(
            me=vinfo.id,
            peers=vinfo.neighbors,
            color=color,
            palette=palette,
            t0=1,
            decide=decide,
        )
        return result

    return vprogram


# ---------------------------------------------------------------------------
# End-to-end wrapper + reference.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Theorem9Result:
    outputs: Mapping[NodeId, Any]
    simulation: SimulationResult
    palette: int

    @property
    def awake_complexity(self) -> int:
        return self.simulation.awake_complexity

    @property
    def round_complexity(self) -> int:
        return self.simulation.round_complexity


def solve_with_clustering(
    graph: StaticGraph,
    problem: OLocalProblem,
    clustering: ColoredBFSClustering,
    inputs: Mapping[NodeId, Any] | None = None,
    palette: int | None = None,
    validate: bool = True,
    simulator: Any = None,
) -> Theorem9Result:
    """Run Theorem 9 end to end on the Sleeping simulator.

    The clustering is canonicalised to integer colors 1..c first; ``palette``
    may widen the assumed color range (it is common knowledge c).
    ``simulator`` optionally replaces :class:`SleepingSimulator` with a
    ``(graph, program, inputs=...)`` factory (fault injection).
    ``validate`` checks the outputs and the awake complexity against the
    Theorem 9 bound
    (:func:`~repro.core.theorem1.check_theorem9_awake_bound`).
    """
    canon = clustering.canonical()
    c = palette if palette is not None else canon.max_color()
    node_inputs = (
        dict(inputs) if inputs is not None else problem.make_inputs(graph)
    )

    def program(info: NodeInfo) -> Proto:
        out = yield from theorem9_protocol(
            me=info.id,
            peers=info.neighbors,
            color=canon.color[info.id],
            delta=canon.dist[info.id],
            palette=c,
            problem=problem,
            t0=1,
            n=info.n,
            my_input=info.input,
        )
        return out

    make_simulator = simulator if simulator is not None else SleepingSimulator
    with span("theorem9.solve", n=graph.n, palette=c) as sp:
        # The solving stage is one composed simulation; its cast
        # (cluster rooting) and calendar (simulated Lemma 11 over
        # cluster colors) sub-windows are fixed by the protocol, so
        # their round boundaries are recorded as one event rather than
        # per-node spans (which would perturb the hot loop).
        cast_end = 1 + bfs_cast_duration(graph.n)
        sp.event(
            "theorem9.windows",
            cast_rounds=(1, cast_end),
            calendar_rounds=(cast_end + 1, theorem9_duration(graph.n, c)),
        )
        result = make_simulator(graph, program, inputs=node_inputs).run()
    with span("theorem9.validate", n=graph.n):
        if validate:
            from repro.core.theorem1 import check_theorem9_awake_bound

            problem.check(graph, result.outputs, node_inputs)
            check_theorem9_awake_bound(graph, c, result.awake_complexity)
    return Theorem9Result(outputs=result.outputs, simulation=result, palette=c)


def theorem9_reference(
    graph: StaticGraph,
    problem: OLocalProblem,
    clustering: ColoredBFSClustering,
    inputs: Mapping[NodeId, Any] | None = None,
) -> dict[NodeId, Any]:
    """The sequential greedy under the paper's orientation µ_G: priority
    (γ(cluster), -δ(v), -ID(v)), increasing. Oracle for the protocol."""
    from repro.olocal.problem import sequential_greedy

    canon = clustering.canonical()
    return sequential_greedy(
        graph,
        problem,
        priority=lambda v: (canon.color[v], -canon.dist[v], -v),
        inputs=inputs,
    )
