"""Complexity accounting for Sleeping-model executions.

The two measures of the paper:

- **awake complexity** — max over nodes of the number of awake rounds;
- **round complexity** — max over nodes of the termination round.

We additionally record averages, totals and message counts, which back the
"average awake complexity" discussion in the paper's conclusion.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from repro.types import NodeId


@dataclass
class SimulationMetrics:
    """Mutable accounting updated by the simulator while it runs.

    The per-node engines fill plain dicts; the vectorized engine hands
    back read-only views over its columns
    (:class:`~repro.graphs.arrays.ColumnMap`), which every query below
    reads the same way.
    """

    awake_rounds: Mapping[NodeId, int] = field(default_factory=dict)
    termination_round: Mapping[NodeId, int] = field(default_factory=dict)
    messages_sent: int = 0
    active_rounds: int = 0  # rounds in which at least one node was awake
    last_round: int = 0
    #: largest single message, in atomic payload items (only populated when
    #: the simulator runs with measure_message_sizes=True; the LOCAL model
    #: allows unbounded messages and the paper's protocols ship whole
    #: subgraph structures — this quantifies how unbounded).
    max_message_weight: int = 0
    total_message_weight: int = 0

    def charge_awake(self, node: NodeId) -> None:
        self.awake_rounds[node] = self.awake_rounds.get(node, 0) + 1

    def charge_message_weight(self, weight: int) -> None:
        self.total_message_weight += weight
        if weight > self.max_message_weight:
            self.max_message_weight = weight

    def charge_message_weight_bulk(self, weight: int, count: int) -> None:
        """Charge ``count`` messages of the same ``weight`` in one step —
        identical totals to ``count`` single charges (used by the batched
        broadcast delivery path)."""
        if count:
            self.total_message_weight += weight * count
            if weight > self.max_message_weight:
                self.max_message_weight = weight

    # -- headline numbers --------------------------------------------------

    @property
    def awake_complexity(self) -> int:
        """max_v #awake rounds of v (0 for an empty network)."""
        return _max_value(self.awake_rounds)

    @property
    def average_awake(self) -> float:
        if not self.awake_rounds:
            return 0.0
        return self.total_awake / len(self.awake_rounds)

    @property
    def total_awake(self) -> int:
        return _sum_values(self.awake_rounds)

    @property
    def round_complexity(self) -> int:
        """max_v termination round of v."""
        return _max_value(self.termination_round)

    def summary(self) -> dict[str, float | int]:
        summary = {
            "awake_complexity": self.awake_complexity,
            "average_awake": self.average_awake,
            "total_awake": self.total_awake,
            "round_complexity": self.round_complexity,
            "active_rounds": self.active_rounds,
            "messages_sent": self.messages_sent,
        }
        if self.max_message_weight:
            summary["max_message_weight"] = self.max_message_weight
        return summary


# A ColumnMap view (the vectorized engine's) reduces its column in numpy
# through these methods; a plain dict is reduced in Python. Same values,
# same Python types, and this module imports no numpy.


def _max_value(values: Mapping[NodeId, int]) -> int:
    """The largest value, 0 for an empty mapping."""
    if hasattr(values, "max_value"):
        return values.max_value()
    return max(values.values(), default=0)


def _sum_values(values: Mapping[NodeId, int]) -> int:
    """The sum of the values."""
    if hasattr(values, "sum_values"):
        return values.sum_values()
    return sum(values.values())


def payload_weight(payload: object, _depth: int = 0) -> int:
    """Approximate message size as the number of atomic items it carries.

    Containers contribute the sum of their items (dicts count keys and
    values); everything else counts 1. Recursion is depth-capped — the
    protocols here never nest payloads deeply, and a runaway structure
    should surface as a huge weight, not a RecursionError.
    """
    if _depth > 12:
        return 1
    if isinstance(payload, dict):
        return sum(
            payload_weight(k, _depth + 1) + payload_weight(v, _depth + 1)
            for k, v in payload.items()
        ) or 1
    if isinstance(payload, (list, tuple, set, frozenset)):
        return sum(payload_weight(item, _depth + 1) for item in payload) or 1
    return 1
