"""The O-LOCAL problem interface and the sequential greedy engine.

A problem Π is in O-LOCAL (§2.2) when, for *every* acyclic orientation µ of
the input graph, a node's output is computable from the outputs of its
descendants (the nodes reachable along outgoing edges). The problems we
implement — like the paper's running examples — only consult the *adjacent*
descendants' outputs, which is the 1-hop projection of that definition;
:attr:`OLocalProblem.locality` records whether the general form is needed.

Orientations are represented by injective *priority keys*: the edge {u, v}
is directed from the higher-priority endpoint to the lower, so a node's
descendants have strictly smaller keys and the greedy engine processes nodes
in increasing key order. Any acyclic orientation extends to such a total
order (topological sort), so this loses no generality for validation.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Any, Callable, Mapping

from repro.errors import ValidationError
from repro.graphs.graph import StaticGraph
from repro.types import NodeId


@dataclass(frozen=True)
class NodeView:
    """What a node contributes to its own greedy decision."""

    id: NodeId
    degree: int
    input: Any = None


class OLocalProblem(ABC):
    """A graph problem solvable greedily under any acyclic orientation."""

    #: unique problem name (registry key)
    name: str = "abstract"

    #: "neighbors" — decide() needs only adjacent descendants' outputs;
    #: "full" — decide() may consult the whole reachable subgraph.
    locality: str = "neighbors"

    @abstractmethod
    def decide(
        self, node: NodeView, decided_neighbors: Mapping[NodeId, Any]
    ) -> Any:
        """Compute the node's output given the outputs of its *descendant
        neighbors* (neighbors with smaller priority, already decided)."""

    @abstractmethod
    def validate(
        self,
        graph: StaticGraph,
        outputs: Mapping[NodeId, Any],
        inputs: Mapping[NodeId, Any] | None = None,
    ) -> list[str]:
        """Return a list of violation descriptions (empty = valid)."""

    def default_input(self, graph: StaticGraph, v: NodeId) -> Any:
        """Problem-specific per-node input (e.g. a color list); None if the
        problem takes no input."""
        return None

    def make_inputs(self, graph: StaticGraph) -> dict[NodeId, Any]:
        """Every node's :meth:`default_input`, keyed by ID.

        Callers that take ``inputs=None`` resolve it here only where the
        inputs are read: the per-node engines, :meth:`validate`, and the
        array engine's generic decider. The array kernels for MIS,
        coloring and vertex cover read no inputs, so a vectorized solve
        of those problems never calls this.
        """
        return {v: self.default_input(graph, v) for v in graph.nodes}

    def check(
        self,
        graph: StaticGraph,
        outputs: Mapping[NodeId, Any],
        inputs: Mapping[NodeId, Any] | None = None,
    ) -> None:
        """Validate and raise :class:`ValidationError` on the first failure.

        On a graph whose numpy CSR columns are already built
        (:attr:`StaticGraph.built_arrays
        <repro.graphs.graph.StaticGraph.built_arrays>`), the built-in
        problems first get an array verdict from
        :mod:`repro.olocal.arrays`; when it accepts, :meth:`validate`
        would find nothing and is skipped. Every other case, and every
        rejection, runs :meth:`validate`, which words the error.
        """
        arrays = graph.built_arrays
        if arrays is not None:
            from repro.olocal.arrays import passes_array_check

            if passes_array_check(self, arrays, outputs):
                return
        violations = self.validate(graph, outputs, inputs)
        if violations:
            raise ValidationError(
                f"{self.name}: {len(violations)} violations, first: "
                f"{violations[0]}"
            )


PriorityKey = Callable[[NodeId], Any]


def sequential_greedy(
    graph: StaticGraph,
    problem: OLocalProblem,
    priority: PriorityKey,
    inputs: Mapping[NodeId, Any] | None = None,
) -> dict[NodeId, Any]:
    """The definitional sequential greedy: process nodes by increasing
    priority; each decision sees exactly the decided adjacent descendants.

    This is the ground-truth oracle for every distributed solver in the
    repo: a distributed O-LOCAL algorithm is correct iff its output equals a
    sequential greedy run for *some* acyclic orientation.
    """
    keys = {v: priority(v) for v in graph.nodes}
    if len(set(keys.values())) != len(keys):
        raise ValidationError("priority keys must be injective")
    outputs: dict[NodeId, Any] = {}
    node_inputs = inputs if inputs is not None else problem.make_inputs(graph)
    for v in sorted(graph.nodes, key=keys.__getitem__):
        decided = {
            u: outputs[u]
            for u in graph.neighbors(v)
            if keys[u] < keys[v]
        }
        view = NodeView(id=v, degree=graph.degree(v), input=node_inputs.get(v))
        outputs[v] = problem.decide(view, decided)
    return outputs


def orientation_from_priority(
    graph: StaticGraph, priority: PriorityKey
) -> dict[tuple[NodeId, NodeId], tuple[NodeId, NodeId]]:
    """Materialize the acyclic orientation induced by a priority key:
    maps each undirected edge (u, v) with u < v to its directed version
    (tail, head), tail → head with priority(tail) > priority(head)."""
    oriented = {}
    for u, v in graph.edges():
        if priority(u) > priority(v):
            oriented[(u, v)] = (u, v)
        else:
            oriented[(u, v)] = (v, u)
    return oriented


def id_priority(v: NodeId) -> Any:
    """The simplest injective priority: the node ID itself."""
    return v
