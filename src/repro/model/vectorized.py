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
order, since slot order is ID order): a frontier of ready slots whose
neighbor lists are gathered once per wave, and that one gather serves
both the decisions (segment reductions over it) and the scattered
decrement of each larger neighbor's count of undecided smaller
neighbors. Each wave is an independent set (two adjacent nodes cannot
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
definition already requires). The deciders read neighbors only from
the Kahn loop's one gather per wave. The array kernels read no inputs;
the fallback resolves the problem's default inputs
(:meth:`~repro.olocal.problem.OLocalProblem.make_inputs`) only when the
caller passes none.
"""

from __future__ import annotations

from itertools import islice
from typing import Any, Mapping, NamedTuple

import numpy as np

from repro.graphs.arrays import (
    ColumnMap,
    ragged_gather,
    segment_any,
    segment_sum,
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
    smaller-priority neighbors, so ``decided`` flags plus the wave's
    gathered neighbor lists reconstruct the exact mapping
    ``problem.decide`` sees.

    The state is two per-slot columns: ``decided`` and ``value``, the
    decided output (of the class's :attr:`dtype`; zero until decided).
    """

    #: dtype of the per-slot ``value`` column
    dtype: Any = bool

    def __init__(
        self,
        graph: StaticGraph,
        problem: OLocalProblem,
        inputs: Mapping[NodeId, Any] | None,
    ) -> None:
        """Bind the graph's CSR arrays and an all-undecided state."""
        self.arrays = graph.arrays
        self.problem = problem
        self.inputs = inputs
        self.decided = np.zeros(self.arrays.n, dtype=bool)
        self.value = np.zeros(self.arrays.n, dtype=self.dtype)

    def decide_wave(self, ready: Any, nbrs: Any, counts: Any) -> None:
        """Decide every slot in ``ready`` and mark them decided.

        ``nbrs``/``counts`` are ``ready``'s neighbor lists, as
        :func:`~repro.graphs.arrays.ragged_gather` returns them.
        """
        self._decide(ready, nbrs, counts)
        self.decided[ready] = True

    def _decide(self, ready: Any, nbrs: Any, counts: Any) -> None:
        """Write ``value[ready]``; the neighbors' state is read-only."""
        raise NotImplementedError

    def outputs(self) -> ColumnMap:
        """ID → decided output: a view over the ``value`` column.

        Values come out as plain Python objects; the output checks of
        :mod:`repro.olocal.arrays` read the column itself.
        """
        return ColumnMap(self.arrays.ids, (self.value,))


class _MISDecider(_WaveDecider):
    """Greedy MIS: join iff no decided neighbor joined."""

    def _decide(self, ready: Any, nbrs: Any, counts: Any) -> None:
        """Join each ready slot iff no neighbor joined before it."""
        # Only decided nodes can have joined, so no decided-mask needed.
        joined = self.value
        joined[ready] = ~segment_any(joined[nbrs], counts)


class _VertexCoverDecider(_WaveDecider):
    """Greedy minimal vertex cover: the MIS complement rule — enter the
    cover iff some decided neighbor stayed out of it."""

    def _decide(self, ready: Any, nbrs: Any, counts: Any) -> None:
        """Cover each ready slot iff a decided neighbor stayed out."""
        cover = self.value
        cover[ready] = segment_any(self.decided[nbrs] & ~cover[nbrs], counts)


class _ColoringDecider(_WaveDecider):
    """Greedy (Δ+1)-coloring: the mex over decided neighbors' colors.

    The wave's mex is computed with one boolean scatter matrix of shape
    (wave, max_mex_window): row i marks the colors used around the
    wave's i-th node, and the first unmarked column ≥ 1 is its color.
    """

    dtype = np.int64  # 1-based colors; 0 = undecided

    def _decide(self, ready: Any, nbrs: Any, counts: Any) -> None:
        """Color each ready slot with the mex of its decided neighbors."""
        # mex(v) <= #decided neighbors + 1 <= deg(v) + 1, so a window of
        # max(counts) + 2 columns always contains the answer.
        width = int(counts.max()) + 2 if len(counts) else 2
        if len(ready) * width > _MEX_MATRIX_BUDGET and len(ready) > 1:
            half = len(ready) // 2
            cut = int(counts[:half].sum())
            self._decide(ready[:half], nbrs[:cut], counts[:half])
            self._decide(ready[half:], nbrs[cut:], counts[half:])
            return
        used = np.zeros((len(ready), width), dtype=bool)
        rows = np.repeat(np.arange(len(ready)), counts)
        vals = self.value[nbrs]  # undecided neighbors contribute 0
        # Colors beyond the window cannot affect the mex; fold them onto
        # the ignored column 0.
        used[rows, np.where(vals < width, vals, 0)] = True
        self.value[ready] = used[:, 1:].argmin(axis=1) + 1


class _GenericDecider(_WaveDecider):
    """Fallback for any O-LOCAL problem: one ``decide`` call per node.

    Still vastly faster than the per-round engines — ``decide`` runs
    exactly once per node instead of the node being re-dispatched every
    round — and exact by construction: each call receives precisely the
    decided-neighbor mapping the sequential engines would build, its
    entries in CSR neighbor order. The one decider that reads the
    per-node inputs, so the one that resolves them: ``None`` means
    :meth:`~repro.olocal.problem.OLocalProblem.make_inputs`.
    """

    dtype = object

    def __init__(self, graph, problem, inputs) -> None:
        """Resolve the inputs: ``None`` means the problem's defaults."""
        if inputs is None:
            inputs = problem.make_inputs(graph)
        super().__init__(graph, problem, inputs)

    def _decide(self, ready: Any, nbrs: Any, counts: Any) -> None:
        """Call ``problem.decide`` once per ready slot, in slot order."""
        from repro.olocal.problem import NodeView

        ids, value, get = self.arrays.ids, self.value, self.inputs.get
        decide = self.problem.decide
        rows = zip(
            ids[nbrs].tolist(), value[nbrs].tolist(), self.decided[nbrs].tolist()
        )
        for s, v, degree in zip(
            ready.tolist(), ids[ready].tolist(), counts.tolist()
        ):
            decided_neighbors = {
                u: out for u, out, done in islice(rows, degree) if done
            }
            view = NodeView(id=v, degree=degree, input=get(v))
            value[s] = decide(view, decided_neighbors)


def make_wave_decider(
    graph: StaticGraph,
    problem: OLocalProblem,
    inputs: Mapping[NodeId, Any] | None,
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
    return kernel(graph, problem, inputs)


def decide_by_priority(
    graph: StaticGraph,
    problem: OLocalProblem,
    inputs: Mapping[NodeId, Any] | None,
    rank: Any,
) -> tuple[_WaveDecider, Any]:
    """Run the greedy decision process in ``rank`` order, as Kahn waves.

    ``rank`` is a per-slot permutation of ``0..n-1``; the decisions are
    bit-identical to a sequential greedy pass visiting slots by
    ascending rank (ID order for the greedy strawman, the Theorem 9
    priority order ``(color, -dist, -ID)``, BM21's color order, say). A
    wave is the set of undecided slots whose smaller-rank neighbors have
    all decided. It is an independent set: of two adjacent slots, the
    larger-rank one waits for the other. So its decided neighbors are
    precisely its smaller-rank neighbors, and it decides in one batched
    kernel regardless of within-wave order.

    This loop is the only reader of the adjacency and of ``inputs`` on
    the array path: each wave gathers its slots' neighbor lists once
    and hands them to the decider. The same gather yields the Kahn
    targets. Once the wave has decided, the undecided neighbors of its
    slots are exactly their larger-rank neighbors: a smaller-rank
    neighbor decided in an earlier wave, no neighbor is in the same
    wave, and a larger-rank neighbor cannot decide before the slot.
    Each slot is gathered once, so the whole loop is O(E) regardless of
    the wave count.

    Args:
        graph: the substrate graph (its CSR mirror is used).
        problem: the O-LOCAL problem whose greedy rule decides nodes.
        inputs: per-node problem inputs, keyed by node ID; ``None``
            means the problem's own (resolved only by a decider that
            reads them).
        rank: integer array of shape ``(n,)``; ``rank[s]`` is slot s's
            position in the sequential decision order.

    Returns:
        ``(decider, wave)`` — the finished :class:`_WaveDecider` (call
        ``outputs()`` for the per-node results) and the int64 per-slot
        wave numbers, 1 for the first wave: a slot's wave is one more
        than the largest wave among its smaller-rank neighbors.
    """
    ga = graph.arrays
    decider = make_wave_decider(graph, problem, inputs)
    decided = decider.decided
    wave = np.zeros(ga.n, dtype=np.int64)
    # Undecided smaller-rank neighbors per slot. int32 ranks halve the
    # random-access gather.
    rank = rank.astype(np.int32 if ga.n < 2**31 else np.int64)
    remaining = segment_sum(
        rank[ga.flat] < np.repeat(rank, ga.degrees), ga.degrees
    )
    ready = np.flatnonzero(remaining == 0)
    number = 0
    while ready.size:
        number += 1
        nbrs, counts = ragged_gather(ga.offsets, ga.flat, ready)
        decider.decide_wave(ready, nbrs, counts)
        wave[ready] = number
        targets = nbrs[~decided[nbrs]]
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
    validate: bool = False,
) -> SimulationResult:
    """The always-awake greedy strawman as array kernels.

    Bit-identical to :func:`repro.model.lockstep.greedy_by_id_local`
    (outputs and every metric) — see the module docstring for the
    closed-form round accounting — but with O(V + E) total array work
    instead of O(V · rounds) Python dispatch. With ``validate``, the
    outputs go through ``problem.check`` with the inputs the decider
    read, so defaults it resolved are not built twice.
    """
    ga = graph.arrays
    with span("vectorized.waves", n=ga.n):
        decider, decide_round = decide_by_priority(
            graph, problem, inputs, np.arange(ga.n, dtype=np.int64)
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
    outputs = decider.outputs()
    if validate:
        problem.check(graph, outputs, decider.inputs)
    return accounting.result(graph, outputs)
