"""Lemma 11 and the Barenboim–Maimon baseline algorithm.

Lemma 11: given a proper k-coloring, any O-LOCAL problem is solvable with
awake complexity O(log k) in O(k) rounds. The wake calendar is the Lemma 10
mapping: a node of color c is awake exactly at the rounds in r(c); it
*receives* at rounds in r<(c), *decides* at round φ(c), and *sends* its
state at rounds in r>(c).

The full BM21 algorithm ("the baseline" of experiment E9) prepends Linial's
reduction to an O(Δ²) palette, for total awake complexity
O(log Δ + log* n) — the bound Theorem 1 improves on for large Δ.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Generator, Iterable, Mapping

from repro.core.linial import (
    final_palette,
    linial_coloring,
    linial_duration,
)
from repro.core.mapping import ColorScheduleMapping
from repro.errors import ProtocolError
from repro.graphs.graph import StaticGraph
from repro.model.actions import AwakeAt
from repro.model.api import NodeInfo
from repro.model.simulator import SimulationResult, SleepingSimulator
from repro.olocal.problem import NodeView, OLocalProblem
from repro.types import NodeId, Payload

Proto = Generator[AwakeAt, dict[NodeId, Payload], Any]

#: decide(accumulated) -> (output, payload_to_send); ``accumulated`` maps
#: each sender to the latest payload received from it before φ(c).
DecideFn = Callable[[dict[NodeId, Payload]], tuple[Any, Payload]]


def schedule_solve_duration(palette: int) -> int:
    """Window length of :func:`schedule_solve`: 2q - 1 rounds."""
    return ColorScheduleMapping.for_palette(palette).num_rounds


def schedule_solve(
    me: NodeId,
    peers: Iterable[NodeId],
    color: int,
    palette: int,
    t0: int,
    decide: DecideFn,
) -> Proto:
    """The Lemma 10/11 wake calendar, generic in the decision rule.

    This is the engine of both Lemma 11 (decide = greedy step of Π) and
    Theorem 9 (decide = sequential greedy sweep over a whole cluster, run
    on the virtual graph). Colors are 1-based, ``1 <= color <= palette``.

    Awake rounds: |r(c)| = 1 + log₂ q where q = next_pow2(palette).
    """
    peers = tuple(peers)
    if not 1 <= color <= palette:
        raise ProtocolError(f"color {color} outside palette [1, {palette}]")
    mapping = ColorScheduleMapping.for_palette(palette)
    phi = mapping.phi(color)
    accumulated: dict[NodeId, Payload] = {}
    output: Any = None
    to_send: Payload = None
    for x in mapping.r(color):
        if x < phi:
            inbox = yield AwakeAt(t0 + x - 1)
            accumulated.update(inbox)
        elif x == phi:
            output, to_send = decide(dict(accumulated))
            inbox = yield AwakeAt(t0 + x - 1, {u: to_send for u in peers})
            accumulated.update(inbox)
        else:
            inbox = yield AwakeAt(t0 + x - 1, {u: to_send for u in peers})
            accumulated.update(inbox)
    return output


# ---------------------------------------------------------------------------
# Lemma 11 instantiation for a concrete O-LOCAL problem.
# ---------------------------------------------------------------------------


def solve_given_coloring(
    me: NodeId,
    peers: Iterable[NodeId],
    color: int,
    palette: int,
    problem: OLocalProblem,
    t0: int,
    my_input: Any = None,
) -> Proto:
    """Lemma 11: solve Π given a proper coloring with colors in [1, palette].

    Nodes of lower colors decide first (φ is increasing), so the decided
    descendants of a node are exactly its lower-colored neighbors — the
    orientation from higher to lower colors, as in the paper.

    In ``"neighbors"`` locality the forwarded state is just (id → output);
    in ``"full"`` locality nodes forward everything they know about the
    already-decided subgraph G_µ(v), matching the general O-LOCAL
    definition (heavier messages, same schedule).
    """
    peers = tuple(peers)
    view = NodeView(id=me, degree=len(peers), input=my_input)
    full = problem.locality == "full"

    def decide(accumulated: dict[NodeId, Payload]) -> tuple[Any, Payload]:
        known: dict[NodeId, Any] = {}
        for payload in accumulated.values():
            known.update(payload)
        decided_neighbors = {u: known[u] for u in peers if u in known}
        output = problem.decide(view, decided_neighbors)
        if full:
            return output, {**known, me: output}
        return output, {me: output}

    result = yield from schedule_solve(me, peers, color, palette, t0, decide)
    return result


# ---------------------------------------------------------------------------
# The full BM21 baseline: Linial + Lemma 11.
# ---------------------------------------------------------------------------


def baseline_duration(id_space: int, delta: int) -> int:
    """Window length of the full baseline: Linial then the calendar."""
    reduced = final_palette(id_space, delta)
    return linial_duration(id_space, delta) + schedule_solve_duration(reduced)


def baseline_program(
    problem: OLocalProblem, delta: int
) -> Callable[[NodeInfo], Proto]:
    """Node program for the BM21 baseline: awake O(log Δ + log* n).

    ``delta`` (the maximum degree) is assumed common knowledge, as in
    [BM21]; the Linial fixed point gives an O(Δ²) palette.
    """

    def program(info: NodeInfo) -> Proto:
        palette = final_palette(info.id_space, delta)
        color0 = info.id - 1  # IDs are a proper coloring with palette id_space
        color = yield from linial_coloring(
            me=info.id,
            peers=info.neighbors,
            color=color0,
            palette=info.id_space,
            conflict_degree=delta,
            t0=1,
        )
        t1 = 1 + linial_duration(info.id_space, delta)
        output = yield from solve_given_coloring(
            me=info.id,
            peers=info.neighbors,
            color=color + 1,  # schedule_solve colors are 1-based
            palette=palette,
            problem=problem,
            t0=t1,
            my_input=info.input,
        )
        return output

    return program


@dataclass(frozen=True)
class BaselineResult:
    outputs: Mapping[NodeId, Any]
    simulation: SimulationResult
    palette: int

    @property
    def awake_complexity(self) -> int:
        return self.simulation.awake_complexity

    @property
    def round_complexity(self) -> int:
        return self.simulation.round_complexity


def solve_with_baseline(
    graph: StaticGraph,
    problem: OLocalProblem,
    inputs: Mapping[NodeId, Any] | None = None,
    simulator: Any = None,
) -> BaselineResult:
    """Run the BM21 baseline end to end on the Sleeping simulator.

    ``simulator`` optionally replaces :class:`SleepingSimulator` with a
    ``(graph, program, inputs=...)`` factory (fault injection). The
    outputs and the awake complexity (against the BM21 bound,
    :func:`~repro.core.theorem1.check_baseline_awake_bound`) are always
    checked."""
    delta = max(graph.max_degree, 1)
    node_inputs = dict(inputs) if inputs is not None else problem.make_inputs(graph)
    make_simulator = simulator if simulator is not None else SleepingSimulator
    sim = make_simulator(
        graph, baseline_program(problem, delta), inputs=node_inputs
    )
    result = sim.run()
    from repro.core.theorem1 import check_baseline_awake_bound

    problem.check(graph, result.outputs, node_inputs)
    check_baseline_awake_bound(graph, result.awake_complexity)
    return BaselineResult(
        outputs=result.outputs,
        simulation=result,
        palette=final_palette(graph.id_space, delta),
    )
