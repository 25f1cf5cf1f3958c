"""The time-skipping Sleeping-LOCAL simulator.

Faithfulness to §2.1 of the paper:

- computation proceeds in synchronous rounds starting at round 1;
- an awake node sends messages to neighbors and receives, *in the same
  round*, the messages sent by neighbors that are awake in that round;
- messages addressed to sleeping nodes are silently lost (enforced here:
  inboxes are assembled only from co-awake senders);
- a sleeping node does nothing; nodes choose their own wake-up rounds;
- all nodes know ``n`` (and the ID-space bound) initially.

The simulator skips rounds in which every node sleeps, keeping the *round
counter* exact, so executions with round complexity Θ(n^5) complete in time
proportional to the number of awake node-rounds.

Event-loop engineering (PERFORMANCE.md has the measurements):

- the wake queue is **round-bucketed**: a ``{round: [(node, action)]}``
  map plus a heap of *distinct* rounds, so scheduling a wake-up is O(1)
  amortized instead of one heap operation per node per round;
- a **lockstep carry** fast path: when every live node is awake in round
  r and asks to wake in round r+1, the next round's awake list is carried
  over directly and the wake queue is not touched at all;
- **zero-copy broadcasts**: a ``Broadcast`` payload is delivered straight
  from the action to co-awake neighbors without materializing the
  per-neighbor message dict;
- **lazy inboxes**: an inbox dict is allocated only for nodes that
  actually receive a message this round (pure wake/sleep phases allocate
  nothing); outer scratch structures are reused across rounds;
- **batched delivery**: rounds whose sends are all broadcasts are
  delivered receiver-centrically — one inbox comprehension per awake
  receiver over its neighbor tuple — instead of one dict update per
  edge; with every node awake and broadcasting (the delivery-bound
  lockstep pattern) the co-awake membership filter drops out entirely.
  Rounds with dict-addressed sends keep the per-edge path, which also
  validates targets. Inbox *insertion order* stays identical to the
  reference loop (ascending sender id) because batched inboxes iterate
  ``StaticGraph.adjacency``'s neighbor tuples, which the graph
  constructors keep sorted — the per-edge path reads senders off the
  sorted awake list, which yields the same ascending order.

The pre-optimization event loop is preserved verbatim in
:mod:`repro.model.reference` and the differential tests in
``tests/test_engine_equivalence.py`` assert bit-identical metrics.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Any, Callable, Generator, Mapping

from repro.errors import SimulationError
from repro.graphs.graph import StaticGraph
from repro.model.actions import AwakeAt, Broadcast
from repro.model.api import NodeInfo
from repro.model.metrics import SimulationMetrics, payload_weight
from repro.obs import counters as obs_counters
from repro.obs.spans import enabled as obs_enabled
from repro.obs.spans import event as obs_event
from repro.obs.spans import span as obs_span
from repro.types import NodeId, Payload

#: A node program: takes the node's static info, yields AwakeAt actions,
#: receives inboxes (dict sender -> payload), returns the node's output.
NodeProgram = Callable[[NodeInfo], Generator[AwakeAt, dict[NodeId, Payload], Any]]

#: With tracing armed, one sampled ``simulator.round`` event per this
#: many active rounds.
TRACE_STRIDE = 256


@dataclass(frozen=True)
class SimulationResult:
    """Outcome of a completed simulation.

    ``outputs`` and the metrics' per-node maps are dicts from the
    per-node engines and column-backed views from the vectorized one.
    """

    outputs: Mapping[NodeId, Any]
    metrics: SimulationMetrics
    graph: StaticGraph

    @property
    def awake_complexity(self) -> int:
        return self.metrics.awake_complexity

    @property
    def round_complexity(self) -> int:
        return self.metrics.round_complexity


class SleepingSimulator:
    """Runs one node program (factory) per node of a graph to completion."""

    def __init__(
        self,
        graph: StaticGraph,
        program: NodeProgram,
        inputs: Mapping[NodeId, Any] | None = None,
        max_awake_each: int = 1_000_000,
        measure_message_sizes: bool = False,
    ) -> None:
        self._graph = graph
        self._program = program
        self._inputs = dict(inputs) if inputs else {}
        self._max_awake_each = max_awake_each
        self._measure_sizes = measure_message_sizes

    def run(self) -> SimulationResult:
        """Drive every node to termination; one span per simulation and
        (with tracing armed) one sampled ``simulator.round`` event per
        :data:`TRACE_STRIDE` active rounds. The disabled path costs one
        bool check per round."""
        with obs_span(
            "simulator.run", n=self._graph.n, edges=self._graph.num_edges
        ):
            result = self._run()
        metrics = result.metrics
        obs_counters.add("sim.run")
        obs_counters.add("sim.messages", metrics.messages_sent)
        obs_counters.add("sim.rounds", metrics.active_rounds)
        return result

    def _run(self) -> SimulationResult:
        graph = self._graph
        metrics = SimulationMetrics()
        outputs: dict[NodeId, Any] = {}
        generators: dict[NodeId, Generator] = {}
        #: round -> [(node, pending action)], plus a heap of distinct rounds.
        buckets: dict[int, list[tuple[NodeId, AwakeAt]]] = {}
        rounds_heap: list[int] = []
        neighbors = graph.neighbors

        for v in graph.nodes:
            info = NodeInfo(
                id=v,
                n=graph.n,
                id_space=graph.id_space,
                neighbors=neighbors(v),
                input=self._inputs.get(v),
            )
            gen = self._program(info)
            try:
                action = next(gen)
            except StopIteration as stop:
                outputs[v] = stop.value
                metrics.termination_round[v] = 0
                metrics.awake_rounds.setdefault(v, 0)
                continue
            _check_action(v, action, previous_round=0)
            generators[v] = gen
            bucket = buckets.get(action.round)
            if bucket is None:
                buckets[action.round] = [(v, action)]
                heapq.heappush(rounds_heap, action.round)
            else:
                bucket.append((v, action))

        awake_rounds = metrics.awake_rounds
        termination_round = metrics.termination_round
        max_awake = self._max_awake_each
        measure_sizes = self._measure_sizes
        messages_sent = 0
        active_rounds = 0
        current_round = 0
        #: outer scratch reused across rounds; the per-node inner dicts are
        #: handed to programs (which may retain them) and stay fresh.
        inboxes: dict[NodeId, dict[NodeId, Payload]] = {}
        nbr_sets: dict[NodeId, frozenset[NodeId]] = {}
        plist: list[Payload | None] | None = None
        carry: list[tuple[NodeId, AwakeAt]] | None = None
        #: 0 when tracing is off: the sampling branch below reduces to
        #: one falsy check per round (the zero-overhead contract).
        trace_stride = TRACE_STRIDE if obs_enabled() else 0

        while rounds_heap or carry is not None:
            if carry is not None:
                awake = carry
                carry = None
                current_round += 1
            else:
                current_round = heapq.heappop(rounds_heap)
                awake = buckets.pop(current_round)
                awake.sort()
            active_rounds += 1
            if trace_stride and active_rounds % trace_stride == 0:
                obs_event(
                    "simulator.round",
                    round=current_round,
                    awake=len(awake),
                    live=len(generators),
                    messages=messages_sent,
                )

            # Phase 1: deliver messages between co-awake neighbors.
            inboxes.clear()
            # One classification pass (a C-speed comprehension): pure
            # wake/sleep rounds skip delivery outright, broadcast-only
            # rounds take the batched receiver-centric path, and any
            # dict-addressed send (no ``.payload``) falls back to the
            # per-edge path, which also validates targets.
            try:
                bpayloads: dict[NodeId, Payload] | None = {
                    v: m.payload
                    for v, action in awake
                    if (m := action.messages) is not None
                }
            except AttributeError:
                bpayloads = None
            if bpayloads is None or 2 * len(bpayloads) < len(awake):
                if bpayloads is None or bpayloads:
                    messages_sent += self._deliver_per_edge(
                        awake, inboxes, nbr_sets, metrics
                    )
            else:
                adj = graph.adjacency
                full = len(bpayloads) == graph.n
                if measure_sizes:
                    for v, payload in bpayloads.items():
                        deg = len(adj[v])
                        messages_sent += deg
                        metrics.charge_message_weight_bulk(
                            payload_weight(payload), deg
                        )
                elif full:
                    messages_sent += 2 * graph.num_edges
                else:
                    for v in bpayloads:
                        messages_sent += len(adj[v])
                if full:
                    # Every node is awake and broadcasting: each neighbor
                    # is a co-awake sender — the membership filter drops
                    # out and the inbox is one comprehension per receiver.
                    # With dense IDs the payloads are staged in a flat
                    # list so the per-edge fetch is an index, not a hash.
                    top = graph.nodes[-1]
                    if top <= 2 * graph.n:
                        if plist is None or len(plist) <= top:
                            plist = [None] * (top + 1)
                        for v, payload in bpayloads.items():
                            plist[v] = payload
                        for v in bpayloads:
                            inboxes[v] = {u: plist[u] for u in adj[v]}
                    else:
                        for v in bpayloads:
                            inboxes[v] = {u: bpayloads[u] for u in adj[v]}
                else:
                    for v, _ in awake:
                        box = {
                            u: bpayloads[u]
                            for u in adj[v]
                            if u in bpayloads
                        }
                        if box:
                            inboxes[v] = box

            # Phase 2: advance every awake node with its inbox.
            next_round = current_round + 1
            lockstep = True
            next_awake: list[tuple[NodeId, AwakeAt]] = []
            for v, _ in awake:
                count = awake_rounds.get(v, 0) + 1
                awake_rounds[v] = count
                if count > max_awake:
                    raise SimulationError(
                        f"node {v} exceeded {max_awake} awake "
                        f"rounds at round {current_round}; runaway protocol?"
                    )
                gen = generators[v]
                try:
                    action = gen.send(inboxes.get(v) or {})
                except StopIteration as stop:
                    outputs[v] = stop.value
                    termination_round[v] = current_round
                    del generators[v]
                    continue
                if not isinstance(action, AwakeAt):
                    raise SimulationError(
                        f"node {v} yielded {type(action).__name__}; programs "
                        f"must yield AwakeAt actions"
                    )
                requested = action.round
                if requested <= current_round:
                    raise SimulationError(
                        f"node {v} requested awake round {requested} but its "
                        f"previous awake round was {current_round}; time must "
                        f"advance"
                    )
                if requested == next_round:
                    next_awake.append((v, action))
                else:
                    lockstep = False
                    bucket = buckets.get(requested)
                    if bucket is None:
                        buckets[requested] = [(v, action)]
                        heapq.heappush(rounds_heap, requested)
                    else:
                        bucket.append((v, action))

            if next_awake:
                if lockstep and not rounds_heap:
                    # Lockstep fast path: every live node wakes next round —
                    # carry the (still sorted) list; skip the wake queue.
                    carry = next_awake
                else:
                    bucket = buckets.get(next_round)
                    if bucket is None:
                        buckets[next_round] = next_awake
                        heapq.heappush(rounds_heap, next_round)
                    else:
                        bucket.extend(next_awake)

        metrics.messages_sent = messages_sent
        metrics.active_rounds = active_rounds
        metrics.last_round = current_round

        if len(outputs) != graph.n:
            missing = graph.node_set - set(outputs)
            raise SimulationError(
                f"{len(missing)} nodes never terminated: {sorted(missing)[:5]}"
            )
        return SimulationResult(outputs=outputs, metrics=metrics, graph=graph)

    def _deliver_per_edge(
        self,
        awake: list[tuple[NodeId, AwakeAt]],
        inboxes: dict[NodeId, dict[NodeId, Payload]],
        nbr_sets: dict[NodeId, frozenset[NodeId]],
        metrics: SimulationMetrics,
    ) -> int:
        """Sender-centric per-edge delivery: the general path, taken when a
        round mixes dict-addressed sends with broadcasts (it preserves the
        sender-interleaved inbox insertion order and validates targets) or
        when too few awake nodes broadcast for receiver-centric batching to
        pay off. Returns the number of messages sent."""
        graph = self._graph
        neighbors = graph.neighbors
        measure_sizes = self._measure_sizes
        messages_sent = 0
        awake_set: set[NodeId] | None = None
        for v, action in awake:
            messages = action.messages
            if messages is None:
                continue
            if awake_set is None:
                awake_set = {node for node, _ in awake}
            if isinstance(messages, Broadcast):
                # Zero-copy: no per-neighbor dict is materialized.
                nbrs = neighbors(v)
                messages_sent += len(nbrs)
                payload = messages.payload
                if measure_sizes:
                    weight = payload_weight(payload)
                    for _ in nbrs:
                        metrics.charge_message_weight(weight)
                for target in nbrs:
                    if target in awake_set:
                        box = inboxes.get(target)
                        if box is None:
                            inboxes[target] = {v: payload}
                        else:
                            box[v] = payload
            else:
                nbr_set = nbr_sets.get(v)
                if nbr_set is None:
                    nbr_set = nbr_sets[v] = frozenset(neighbors(v))
                messages_sent += len(messages)
                for target, payload in messages.items():
                    if target not in nbr_set:
                        raise SimulationError(
                            f"node {v} tried to send to non-neighbor "
                            f"{target}"
                        )
                    if measure_sizes:
                        metrics.charge_message_weight(
                            payload_weight(payload)
                        )
                    if target in awake_set:
                        box = inboxes.get(target)
                        if box is None:
                            inboxes[target] = {v: payload}
                        else:
                            box[v] = payload
        return messages_sent


def _check_action(node: NodeId, action: Any, previous_round: int) -> None:
    if not isinstance(action, AwakeAt):
        raise SimulationError(
            f"node {node} yielded {type(action).__name__}; programs must "
            f"yield AwakeAt actions"
        )
    if action.round <= previous_round:
        raise SimulationError(
            f"node {node} requested awake round {action.round} but its "
            f"previous awake round was {previous_round}; time must advance"
        )


def _expand_outgoing(
    sender: NodeId,
    messages: Mapping[NodeId, Payload] | Broadcast | None,
    graph: StaticGraph,
) -> dict[NodeId, Payload]:
    """Materialize an action's outgoing messages (reference semantics;
    the main loop above uses the zero-copy paths instead)."""
    if messages is None:
        return {}
    if isinstance(messages, Broadcast):
        return {u: messages.payload for u in graph.neighbors(sender)}
    neighbors = set(graph.neighbors(sender))
    for target in messages:
        if target not in neighbors:
            raise SimulationError(
                f"node {sender} tried to send to non-neighbor {target}"
            )
    return dict(messages)
