"""The vectorized bulk-synchronous engine: lockstep rounds as array ops.

The paper's lockstep algorithms (the greedy strawman, BM21's Linial +
Lemma 11 calendar) are bulk-synchronous by construction: in every round
the *same* small computation runs at every awake node. The per-node
engines (:class:`~repro.model.simulator.SleepingSimulator`,
:func:`~repro.model.lockstep.run_local`) dispatch one Python
object/generator per node per round; this module replaces that with a
handful of numpy operations over *all* nodes at once, pushing feasible
instance sizes from n ≈ 10⁴ to n ≥ 10⁶.

The engine contract (see docs/ARCHITECTURE.md): an engine may schedule
work however it likes, but outputs and the full
:class:`~repro.model.metrics.SimulationMetrics` accounting — per-node
awake rounds, per-node termination rounds, ``messages_sent``,
``active_rounds``, ``last_round`` — must be **bit-identical** to the
simulator engine. The differential suite in
``tests/test_engine_equivalence.py`` is the gate.

How a lockstep execution vectorizes (greedy-by-ID case): node v decides
once every smaller-ID neighbor has decided *and broadcast* — so its
decide round is ``D(v) = 1 + max D(u)`` over smaller neighbors u
(``D = 1`` with none), the length of the longest increasing-ID path
into v. The decide rounds are computed as Kahn waves over the
increasing-ID orientation (:func:`decide_by_priority` with rank = slot
order, since slot order is ID order): a frontier of ready slots, a
per-node count of undecided smaller neighbors decremented by scattered
subtraction, segment reductions over the CSR neighbor array for the
decisions themselves. Each wave is an independent set (two adjacent nodes cannot
both have all smaller neighbors decided while the smaller of the two is
undecided), so a whole wave decides in one batched kernel. The
finish round replays :func:`~repro.model.lockstep.run_local`'s
announce/finish handshake in closed form: v finishes one round after
both its own decision and its last larger neighbor's
(``F(v) = 1 + max(D(v), max D(w))`` over larger neighbors w — over all
neighbors equally, since a smaller neighbor has ``D(u) < D(v)``), it is
awake and broadcasting to all ``deg(v)`` neighbors in rounds
``1..F(v)``, so ``awake(v) = termination(v) = F(v)`` and
``messages_sent = Σ_v deg(v)·F(v)``.

Problem decisions run as array kernels for the built-in O-LOCAL
problems (MIS, (Δ+1)-coloring, vertex cover) and fall back to one
:meth:`~repro.olocal.problem.OLocalProblem.decide` call per node for
everything else — still exactly one call per node total, with exactly
the decided-neighbor mapping the sequential engines would pass, so
plugin problems are automatically supported (their ``decide`` must be a
pure, order-insensitive function of that mapping, which the O-LOCAL
definition already requires).
"""

from __future__ import annotations

from typing import Any, Mapping, NamedTuple

import numpy as np

from repro.graphs.arrays import (
    ColumnMap,
    ragged_gather,
    segment_any,
    sorted_unique,
)
from repro.graphs.graph import StaticGraph
from repro.model.metrics import SimulationMetrics
from repro.model.simulator import SimulationResult
from repro.obs import counters
from repro.obs.spans import span
from repro.olocal.problem import OLocalProblem
from repro.types import NodeId

#: Row budget for the coloring kernel's (wave × palette-window) boolean
#: scatter matrix; waves whose matrix would exceed it are split (the
#: wave is an independent set, so any split decides identically).
_MEX_MATRIX_BUDGET = 1 << 24


# ---------------------------------------------------------------------------
# Wave deciders: batched problem.decide over an independent set of nodes.
# ---------------------------------------------------------------------------


class _WaveDecider:
    """Base class: decide independent-set waves, slot-addressed.

    Subclasses batch one problem's greedy rule over a *wave* — a set of
    slots that (a) is independent and (b) has every decided neighbor
    already processed in an earlier wave. Under any increasing-priority
    schedule the decided neighbors of a deciding node are exactly its
    smaller-priority neighbors, so ``decided`` flags plus the CSR
    adjacency reconstruct the exact mapping ``problem.decide`` sees.
    """

    def __init__(
        self,
        graph: StaticGraph,
        problem: OLocalProblem,
        node_inputs: Mapping[NodeId, Any],
    ) -> None:
        """Bind the graph's CSR arrays and an all-undecided state."""
        self.graph = graph
        self.arrays = graph.arrays
        self.problem = problem
        self.node_inputs = node_inputs
        self.decided = np.zeros(self.arrays.n, dtype=bool)

    def decide_wave(self, ready: Any) -> None:
        """Decide every slot in ``ready`` and mark them decided."""
        raise NotImplementedError

    def outputs(self) -> dict[NodeId, Any]:
        """Per-node outputs as plain Python objects, keyed by ID."""
        raise NotImplementedError


class _MISDecider(_WaveDecider):
    """Greedy MIS: join iff no decided neighbor joined."""

    def __init__(self, graph, problem, node_inputs) -> None:
        """Add the per-slot joined flags to the base state."""
        super().__init__(graph, problem, node_inputs)
        self.joined = np.zeros(self.arrays.n, dtype=bool)

    def decide_wave(self, ready: Any) -> None:
        """Join each ready slot iff no neighbor joined before it."""
        nbrs, counts = ragged_gather(
            self.arrays.offsets, self.arrays.flat, ready
        )
        # Only decided nodes can have joined, so no decided-mask needed.
        blocked = segment_any(self.joined[nbrs], counts)
        self.joined[ready] = ~blocked
        self.decided[ready] = True

    def outputs(self) -> dict[NodeId, Any]:
        """ID → joined (bool), matching the sequential greedy MIS."""
        return dict(zip(self.arrays.ids.tolist(), self.joined.tolist()))


class _VertexCoverDecider(_WaveDecider):
    """Greedy minimal vertex cover: the MIS complement rule — enter the
    cover iff some decided neighbor stayed out of it."""

    def __init__(self, graph, problem, node_inputs) -> None:
        """Add the per-slot cover flags to the base state."""
        super().__init__(graph, problem, node_inputs)
        self.cover = np.zeros(self.arrays.n, dtype=bool)

    def decide_wave(self, ready: Any) -> None:
        """Cover each ready slot iff a decided neighbor stayed out."""
        nbrs, counts = ragged_gather(
            self.arrays.offsets, self.arrays.flat, ready
        )
        exposed = self.decided[nbrs] & ~self.cover[nbrs]
        self.cover[ready] = segment_any(exposed, counts)
        self.decided[ready] = True

    def outputs(self) -> dict[NodeId, Any]:
        """ID → in-cover (bool), matching the sequential greedy rule."""
        return dict(zip(self.arrays.ids.tolist(), self.cover.tolist()))


class _ColoringDecider(_WaveDecider):
    """Greedy (Δ+1)-coloring: the mex over decided neighbors' colors.

    The wave's mex is computed with one boolean scatter matrix of shape
    (wave, max_mex_window): row i marks the colors used around the
    wave's i-th node, and the first unmarked column ≥ 1 is its color.
    """

    def __init__(self, graph, problem, node_inputs) -> None:
        """Add the per-slot color array (0 = undecided) to the state."""
        super().__init__(graph, problem, node_inputs)
        self.color = np.zeros(self.arrays.n, dtype=np.int64)  # 0 = undecided

    def decide_wave(self, ready: Any) -> None:
        """Color each ready slot with the mex of its decided neighbors."""
        nbrs, counts = ragged_gather(
            self.arrays.offsets, self.arrays.flat, ready
        )
        # mex(v) <= #decided neighbors + 1 <= deg(v) + 1, so a window of
        # max(counts) + 2 columns always contains the answer.
        width = int(counts.max()) + 2 if len(counts) else 2
        if len(ready) * width > _MEX_MATRIX_BUDGET and len(ready) > 1:
            half = len(ready) // 2
            self.decide_wave(ready[:half])
            self.decide_wave(ready[half:])
            return
        used = np.zeros((len(ready), width), dtype=bool)
        rows = np.repeat(np.arange(len(ready)), counts)
        vals = self.color[nbrs]  # undecided neighbors contribute 0
        # Colors beyond the window cannot affect the mex; fold them onto
        # the ignored column 0.
        used[rows, np.where(vals < width, vals, 0)] = True
        self.color[ready] = used[:, 1:].argmin(axis=1) + 1
        self.decided[ready] = True

    def outputs(self) -> dict[NodeId, Any]:
        """ID → color (1-based int), matching the sequential mex rule."""
        return dict(zip(self.arrays.ids.tolist(), self.color.tolist()))


class _GenericDecider(_WaveDecider):
    """Fallback for any O-LOCAL problem: one ``decide`` call per node.

    Still vastly faster than the per-round engines — ``decide`` runs
    exactly once per node instead of the node being re-dispatched every
    round — and exact by construction: each call receives precisely the
    decided-neighbor mapping the sequential engines would build.
    """

    def __init__(self, graph, problem, node_inputs) -> None:
        """Add the per-slot output list to the base state."""
        super().__init__(graph, problem, node_inputs)
        self._out: list[Any] = [None] * self.arrays.n
        from repro.olocal.problem import NodeView

        self._view = NodeView

    def decide_wave(self, ready: Any) -> None:
        """Call ``problem.decide`` once per ready slot, in slot order."""
        index = self.graph._index
        nodes, offsets, flat = index.nodes, index.offsets, index.flat_slots
        decided, out, inputs = self.decided, self._out, self.node_inputs
        decide, NodeView = self.problem.decide, self._view
        for s in ready.tolist():
            lo, hi = offsets[s], offsets[s + 1]
            decided_neighbors = {
                nodes[t]: out[t] for t in flat[lo:hi] if decided[t]
            }
            view = NodeView(
                id=nodes[s], degree=hi - lo, input=inputs.get(nodes[s])
            )
            out[s] = decide(view, decided_neighbors)
        decided[ready] = True

    def outputs(self) -> dict[NodeId, Any]:
        """ID → whatever ``problem.decide`` returned for that node."""
        return dict(zip(self.arrays.ids.tolist(), self._out))


def make_wave_decider(
    graph: StaticGraph,
    problem: OLocalProblem,
    node_inputs: Mapping[NodeId, Any],
) -> _WaveDecider:
    """Pick the fastest exact decider for ``problem``.

    Array kernels are keyed on the *exact* problem class — a subclass
    may override ``decide``, so anything unrecognized (plugins included)
    gets the generic per-node fallback, which is always exact.
    """
    from repro.olocal.coloring import DeltaPlusOneColoring
    from repro.olocal.mis import MaximalIndependentSet
    from repro.olocal.vertex_cover import MinimalVertexCover

    kernel = {
        MaximalIndependentSet: _MISDecider,
        DeltaPlusOneColoring: _ColoringDecider,
        MinimalVertexCover: _VertexCoverDecider,
    }.get(type(problem), _GenericDecider)
    return kernel(graph, problem, node_inputs)


def decide_by_priority(
    graph: StaticGraph,
    problem: OLocalProblem,
    node_inputs: Mapping[NodeId, Any],
    rank: Any,
) -> tuple[_WaveDecider, Any]:
    """Run the greedy decision process in ``rank`` order, as Kahn waves.

    ``rank`` is a per-slot permutation of ``0..n-1``; the decisions are
    bit-identical to a sequential greedy pass visiting slots by
    ascending rank (ID order for the greedy strawman, the Theorem 9
    priority order ``(color, -dist, -ID)``, BM21's color order, say). A
    wave is the set of undecided slots whose smaller-rank neighbors have
    all decided — an independent set whose decided neighbors are
    precisely its smaller-rank neighbors — so each wave decides in one
    batched kernel regardless of within-wave order. Work is proportional
    to each wave's out-edges, so the whole loop is O(E) regardless of
    the wave count.

    Args:
        graph: the substrate graph (its CSR mirror is used).
        problem: the O-LOCAL problem whose greedy rule decides nodes.
        node_inputs: per-node problem inputs, keyed by node ID.
        rank: integer array of shape ``(n,)``; ``rank[s]`` is slot s's
            position in the sequential decision order.

    Returns:
        ``(decider, wave)`` — the finished :class:`_WaveDecider` (call
        ``outputs()`` for the per-node results) and the int64 per-slot
        wave numbers, 1 for the first wave: a slot's wave is one more
        than the largest wave among its smaller-rank neighbors.
    """
    ga = graph.arrays
    decider = make_wave_decider(graph, problem, node_inputs)
    wave = np.zeros(ga.n, dtype=np.int64)
    # The rank-up CSR: per slot, its neighbors of strictly larger rank.
    # int32 ranks halve the random-access gather; one cumsum over the
    # mask yields the CSR offsets directly.
    rank = rank.astype(np.int32 if ga.n < 2**31 else np.int64)
    up = rank[ga.flat] > np.repeat(rank, ga.degrees)
    cum = np.empty(up.size + 1, dtype=np.int64)
    cum[0] = 0
    np.cumsum(up, out=cum[1:])
    up_offsets = cum[ga.offsets]
    up_flat = ga.flat[up]

    # Undecided smaller-rank neighbors per slot.
    remaining = ga.degrees - np.diff(up_offsets)
    ready = np.flatnonzero(remaining == 0)
    number = 0
    while ready.size:
        number += 1
        decider.decide_wave(ready)
        wave[ready] = number
        targets, _ = ragged_gather(up_offsets, up_flat, ready)
        # int64 counters keep np.subtract.at on its fast path; only the
        # targets that reached zero are sorted and deduplicated.
        np.subtract.at(remaining, targets, 1)
        ready = sorted_unique(targets[remaining[targets] == 0])
    return decider, wave


# ---------------------------------------------------------------------------
# Closed-form accounting, and the vectorized greedy-by-ID lockstep engine.
# ---------------------------------------------------------------------------


class Accounting(NamedTuple):
    """The metrics of one vectorized run, as per-slot columns.

    Every array kernel ends in this form; stages compose on it (Lemma
    8: awake counts and totals add, the last stage's terminations
    stand) before :meth:`result` wraps the columns as per-node views.
    """

    awake: Any  #: int64 awake-round count per slot
    termination: Any  #: int64 termination round per slot
    messages: int  #: messages sent, in total
    active_rounds: int  #: rounds in which any node is awake

    def result(
        self, graph: StaticGraph, outputs: Mapping[NodeId, Any]
    ) -> SimulationResult:
        """The :class:`SimulationResult` these columns describe.

        Its per-node metrics are :class:`~repro.graphs.arrays.ColumnMap`
        views over the columns.
        """
        ids = graph.arrays.ids
        metrics = SimulationMetrics(
            awake_rounds=ColumnMap(ids, (self.awake,)),
            termination_round=ColumnMap(ids, (self.termination,)),
            messages_sent=int(self.messages),
            active_rounds=int(self.active_rounds),
            last_round=int(self.termination.max(initial=0)),
        )
        return SimulationResult(outputs=outputs, metrics=metrics, graph=graph)

    def charge(self) -> None:
        """Count this run in the process-wide ``sim.*`` counters."""
        counters.add("sim.run")
        counters.add("sim.messages", int(self.messages))
        counters.add("sim.rounds", int(self.active_rounds))


def greedy_by_id_vectorized(
    graph: StaticGraph,
    problem: OLocalProblem,
    inputs: Mapping[NodeId, Any] | None = None,
) -> SimulationResult:
    """The always-awake greedy strawman as array kernels.

    Bit-identical to :func:`repro.model.lockstep.greedy_by_id_local`
    (outputs and every metric) — see the module docstring for the
    closed-form round accounting — but with O(V + E) total array work
    instead of O(V · rounds) Python dispatch.
    """
    node_inputs = inputs if inputs is not None else problem.make_inputs(graph)
    ga = graph.arrays
    with span("vectorized.waves", n=ga.n):
        decider, decide_round = decide_by_priority(
            graph, problem, node_inputs, np.arange(ga.n, dtype=np.int64)
        )

    waves = int(decide_round.max(initial=0))
    with span("vectorized.accounting", n=ga.n, waves=waves):
        # F(v) = 1 + max(D(v), max over neighbors w of D(w)).
        finish = decide_round.copy()
        np.maximum.at(finish, ga.edge_sources, decide_round[ga.flat])
        finish += 1
        accounting = Accounting(
            awake=finish,
            termination=finish,
            messages=int(ga.degrees @ finish),
            active_rounds=int(finish.max(initial=0)),
        )
    accounting.charge()
    return accounting.result(graph, decider.outputs())
