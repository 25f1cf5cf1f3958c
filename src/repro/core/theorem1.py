"""Theorem 1 — the paper's headline result.

Any O-LOCAL problem is solvable deterministically with awake complexity
O(sqrt(log n) · log* n): compute the Theorem 13 colored BFS-clustering
(2^{O(sqrt(log n))} colors, awake O(sqrt(log n)·log* n)), then apply
Theorem 9 (awake O(log c) = O(sqrt(log n))). The two stages compose by
Lemma 8 — every node knows the exact round at which stage two begins.

:func:`solve` is the package's main public entry point.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Generator, Mapping

from repro.analysis.bounds import (
    baseline_awake_bound,
    theorem1_awake_bound,
    theorem9_awake_bound,
)
from repro.core.clustering import ColoredBFSClustering
from repro.core.theorem9 import theorem9_duration, theorem9_protocol
from repro.core.theorem13 import (
    Theorem13Assignment,
    color_palette_bound,
    default_b,
    theorem13_duration,
    theorem13_subprotocol,
)
from repro.errors import ProtocolError
from repro.graphs.graph import StaticGraph
from repro.model.actions import AwakeAt
from repro.model.api import NodeInfo
from repro.model.simulator import SimulationResult, SleepingSimulator
from repro.olocal.problem import OLocalProblem
from repro.types import NodeId, Payload

Proto = Generator[AwakeAt, dict[NodeId, Payload], Any]


def theorem1_duration(n: int, id_space: int, b: int | None = None) -> int:
    """Total reserved rounds: Theorem 13 followed by Theorem 9."""
    b = b if b is not None else default_b(n)
    palette = color_palette_bound(n, b)
    return theorem13_duration(n, id_space, b) + theorem9_duration(n, palette)


def _check_awake(awake: int, bound: int, name: str) -> None:
    if awake > bound:
        raise ProtocolError(
            f"awake complexity {awake} exceeds the {name} bound {bound}"
        )


def check_awake_bound(graph: StaticGraph, b: int, awake: int) -> None:
    """Raise :class:`ProtocolError` when a run's awake complexity
    exceeds :func:`~repro.analysis.bounds.theorem1_awake_bound`.

    Both engines run this on every validated solve, so the paper's
    bound is checked wherever the outputs are; the Theorem 9 and
    baseline solvers run the two checks below the same way.
    """
    _check_awake(awake, theorem1_awake_bound(graph.n, graph.id_space, b), "Theorem 1")


def check_theorem9_awake_bound(graph: StaticGraph, palette: int, awake: int) -> None:
    """Raise :class:`ProtocolError` when a Theorem 9 run on ``palette``
    colors exceeds :func:`~repro.analysis.bounds.theorem9_awake_bound`."""
    _check_awake(awake, theorem9_awake_bound(graph.n, palette), "Theorem 9")


def check_baseline_awake_bound(graph: StaticGraph, awake: int) -> None:
    """Raise :class:`ProtocolError` when a BM21 baseline run exceeds
    :func:`~repro.analysis.bounds.baseline_awake_bound` (Δ taken as at
    least 1, as the baseline does)."""
    bound = baseline_awake_bound(graph.id_space, max(graph.max_degree, 1))
    _check_awake(awake, bound, "baseline")


def theorem1_program(problem: OLocalProblem, b: int | None = None):
    """Node program: clustering pipeline, then the clustered solver."""

    def program(info: NodeInfo) -> Proto:
        chosen_b = b if b is not None else default_b(info.n)
        assignment: Theorem13Assignment = yield from theorem13_subprotocol(
            info, t0=1, b=chosen_b
        )
        t9_start = 1 + theorem13_duration(info.n, info.id_space, chosen_b)
        palette = color_palette_bound(info.n, chosen_b)
        output = yield from theorem9_protocol(
            me=info.id,
            peers=info.neighbors,
            color=assignment.canonical_color(chosen_b),
            delta=assignment.dist,
            palette=palette,
            problem=problem,
            t0=t9_start,
            n=info.n,
            my_input=info.input,
        )
        return (output, assignment)

    return program


@dataclass(frozen=True)
class Theorem1Result:
    """Outputs plus the intermediate clustering and the run's metrics."""

    outputs: Mapping[NodeId, Any]
    clustering: ColoredBFSClustering
    simulation: SimulationResult
    b: int
    palette_bound: int

    @property
    def awake_complexity(self) -> int:
        return self.simulation.awake_complexity

    @property
    def round_complexity(self) -> int:
        return self.simulation.round_complexity


def solve(
    graph: StaticGraph,
    problem: OLocalProblem,
    inputs: Mapping[NodeId, Any] | None = None,
    b: int | None = None,
    validate: bool = True,
    simulator: Any = None,
) -> Theorem1Result:
    """Solve an O-LOCAL problem on the Sleeping simulator (Theorem 1).

    Args:
        graph: the network (connected, unique IDs in [1, graph.id_space]).
        problem: any :class:`OLocalProblem` (e.g. (Δ+1)-coloring, MIS).
        inputs: optional per-node inputs (defaults to the problem's own).
        b: override the paper's b = 2^{sqrt(log n)} (for ablations).
        validate: check the solution and the clustering before returning,
            and the awake complexity against the Theorem 1 bound
            (:func:`check_awake_bound`).
        simulator: optional ``(graph, program, inputs=...)`` factory
            replacing :class:`SleepingSimulator` (e.g. a fault-injecting
            :class:`~repro.model.faults.FaultySimulator`).

    Returns:
        :class:`Theorem1Result` with outputs, the intermediate clustering,
        and measured awake/round complexities.
    """
    chosen_b = b if b is not None else default_b(graph.n)
    node_inputs = (
        dict(inputs) if inputs is not None else problem.make_inputs(graph)
    )
    make_simulator = simulator if simulator is not None else SleepingSimulator
    sim = make_simulator(
        graph, theorem1_program(problem, chosen_b), inputs=node_inputs
    )
    result = sim.run()
    outputs = {v: out for v, (out, _) in result.outputs.items()}
    assignments = {v: a for v, (_, a) in result.outputs.items()}
    clustering = ColoredBFSClustering(
        color={v: a.canonical_color(chosen_b) for v, a in assignments.items()},
        dist={v: a.dist for v, a in assignments.items()},
    )
    if validate:
        clustering.validate(graph)
        problem.check(graph, outputs, node_inputs)
        check_awake_bound(graph, chosen_b, result.awake_complexity)
    return Theorem1Result(
        outputs=outputs,
        clustering=clustering,
        simulation=result,
        b=chosen_b,
        palette_bound=color_palette_bound(graph.n, chosen_b),
    )
