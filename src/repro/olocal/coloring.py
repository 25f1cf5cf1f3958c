"""(Δ+1)-vertex coloring — the paper's first running example of O-LOCAL."""

from __future__ import annotations

from typing import Any, Mapping

from repro.graphs.graph import StaticGraph
from repro.olocal.problem import NodeView, OLocalProblem
from repro.types import NodeId


class DeltaPlusOneColoring(OLocalProblem):
    """Greedy proper coloring with colors in {1, ..., Δ+1}.

    The greedy rule assigns the minimum color unused by decided neighbors;
    since a node has at most ``deg(v) <= Δ`` neighbors, the chosen color
    never exceeds ``deg(v) + 1`` — a per-node bound stronger than Δ+1.
    """

    name = "delta_plus_one_coloring"
    locality = "neighbors"

    def decide(
        self, node: NodeView, decided_neighbors: Mapping[NodeId, Any]
    ) -> int:
        used = set(decided_neighbors.values())
        color = 1
        while color in used:
            color += 1
        return color

    def validate(
        self,
        graph: StaticGraph,
        outputs: Mapping[NodeId, Any],
        inputs: Mapping[NodeId, Any] | None = None,
    ) -> list[str]:
        violations = []
        for v in graph.nodes:
            if v not in outputs:
                violations.append(f"node {v} has no color")
                continue
            color = outputs[v]
            if isinstance(color, bool) or not isinstance(color, int) or color < 1:
                violations.append(f"node {v} has invalid color {color!r}")
                continue
            if color > graph.degree(v) + 1:
                violations.append(
                    f"node {v} has color {color} > deg+1 = {graph.degree(v) + 1}"
                )
        for u, v in graph.edges():
            if u in outputs and v in outputs and outputs[u] == outputs[v]:
                violations.append(
                    f"edge ({u}, {v}) is monochromatic (color {outputs[u]})"
                )
        return violations
