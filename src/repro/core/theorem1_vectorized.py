"""Vectorized Theorem 9 and Theorem 1 — the clustered pipeline in closed form.

The simulator engine executes Theorem 9 (and the Theorem 13 + Theorem 9
composition of Theorem 1) by dispatching one generator per node per
round.  Both stages are lockstep/cast-shaped: every awake node runs the
*same* small computation at rounds fixed in advance by the durations of
:mod:`repro.core.cast` and :mod:`repro.core.virtual`.  This module
replaces the dispatch with numpy kernels over the
:class:`~repro.graphs.arrays.GraphArrays` CSR mirror:

- **outputs** — the protocol's result equals the sequential greedy under
  the paper's orientation µ_G, priority ``(γ(cluster), -δ, -ID)``
  ascending (see :func:`repro.core.theorem9.theorem9_reference`).  The
  greedy is evaluated as Kahn waves over the rank orientation of the CSR
  (:func:`repro.model.vectorized.decide_by_priority`), each wave decided
  by the problem's array kernel.
- **accounting** — every awake round, message and termination round of
  :func:`repro.core.theorem9.theorem9_protocol` is a closed-form
  function of ``(γ, δ, deg, deg_intra, deg_foreign)``: the t9meta
  exchange, the Lemma 6 rooting cast, and one virtual window per round
  in ``{setup} ∪ r(γ)`` of the Lemma 10 schedule, each window costing 3
  awake rounds for a root and 5 for a non-root.  The formulas are
  evaluated with vectorized scatter/gather, and the results are
  **bit-identical** to the :class:`~repro.model.simulator.SleepingSimulator`
  run — the differential suite in ``tests/test_engine_equivalence.py``
  is the gate.

Per-node work is O(deg) plus one row of the Lemma 10 table
(:meth:`~repro.core.mapping.ColorScheduleMapping.rounds`, O(log c))
per distinct color, so the whole solve is O(n + m) array time — the
headline pipeline at n = 10⁶.
"""

from __future__ import annotations

from typing import Any, Mapping

import numpy as np

from repro.core.cast import bfs_cast_duration
from repro.core.clustering import ColoredBFSClustering
from repro.core.clustering_vectorized import (
    _clustering_columns,
    _member_offsets,
    _window_rounds,
    canonical_columns,
    _require_int64_rounds,
)
from repro.core.mapping import ColorScheduleMapping
from repro.core.theorem1 import (
    Theorem1Result,
    check_awake_bound,
    check_theorem9_awake_bound,
    theorem1_duration,
)
from repro.core.theorem9 import Theorem9Result, theorem9_duration
from repro.core.theorem13 import (
    Theorem13Assignment,
    default_b,
    theorem13_duration,
)
from repro.errors import ProtocolError
from repro.graphs.arrays import ColumnMap, segment_sum, sorted_unique
from repro.graphs.graph import StaticGraph
from repro.model.vectorized import Accounting, decide_by_priority
from repro.obs.spans import span
from repro.olocal.problem import OLocalProblem
from repro.types import NodeId


def _theorem9_closed_form(
    ga: Any, colors: Any, dist: Any, palette: int, t0: int, n: int
) -> Accounting:
    """Exact per-node Theorem 9 accounting, without running any rounds.

    Args:
        ga: the graph's :class:`~repro.graphs.arrays.GraphArrays`.
        colors: int64 per-slot cluster colors γ in ``[1, palette]``.
        dist: int64 per-slot BFS depths δ.
        palette: the common-knowledge palette size c.
        t0: first round of the Theorem 9 window.
        n: the graph size (the protocol's common-knowledge n).

    Returns:
        The stage's :class:`Accounting`: per-slot awake-round counts and
        termination rounds, the messages sent, and the number of
        distinct rounds in which any node is awake.
    """
    mapping = ColorScheduleMapping.for_palette(palette)
    window = 2 * n + 3  # one virtual round simulated (phase_duration)
    vt0 = t0 + 1 + bfs_cast_duration(n)  # first virtual-window round
    sched_len = mapping.schedule_length  # |r(c)|, the same for every c

    # Same-color neighbors are same-cluster neighbors (Definition 4:
    # same-color clusters are never adjacent).
    same = colors[ga.flat] == colors[ga.edge_sources]
    deg_intra = segment_sum(same, ga.degrees)
    deg_foreign = ga.degrees - deg_intra
    nonroot = (dist > 0).astype(np.int64)

    # Per distinct color: the Lemma 10 schedule r(c) as one table row,
    # how many of its rounds are sending rounds (x >= φ(c) = 2c - 1),
    # and its last round.
    distinct = sorted_unique(colors)
    table = mapping.rounds(distinct)
    send_of = np.count_nonzero(table >= 2 * distinct[:, None] - 1, axis=1)
    last_of = table[:, -1]
    cidx = np.searchsorted(distinct, colors)

    # awake: t9meta + rooting cast (1 round for a root, 2 otherwise) +
    # one virtual window per round in {setup} ∪ r(γ).
    awake = 1 + (1 + nonroot) + (1 + sched_len) * np.where(dist == 0, 3, 5)

    # messages: t9meta broadcast (deg) + rooting broadcast (deg_intra) +
    # the setup window (vsetup to every neighbor, then the gather's
    # one-up-one-down: 1 to the parent if non-root, deg_intra down) +
    # per calendar window x ∈ r(γ): the exchange out to every foreign
    # neighbor iff x >= phi(γ), plus the same gather cost.
    msgs = (
        ga.degrees
        + deg_intra
        + (ga.degrees + nonroot + deg_intra)
        + send_of[cidx] * deg_foreign
        + sched_len * (nonroot + deg_intra)
    )

    # termination: the gather broadcast-send of the last scheduled
    # window, offset n + δ + 2 into window max(r(γ)).
    termination = vt0 + last_of[cidx] * window + n + dist + 2

    # Active rounds: the rooting stage occupies [t0, t0 + n + 1], every
    # virtual window starts at vt0 = t0 + n + 2 — disjoint, so the two
    # counts add: the cast's few rounds deduplicated, then per depth δ
    # the virtual rounds of its present colors (:func:`_window_rounds`).
    ddist = sorted_unique(dist)
    cast_rounds = sorted_unique(np.concatenate((
        np.array([t0], dtype=np.int64),
        t0 + ddist[ddist > 0],  # non-root cast receive rounds
        t0 + 1 + ddist,  # cast send rounds (root: t0 + 1)
    )))
    pair_key = colors * np.int64(n + 1) + dist  # δ <= n - 1 < n + 1
    upairs = sorted_unique(pair_key)
    pair_colors = upairs // (n + 1)
    pair_dist = upairs % (n + 1)
    chunks = []
    for d in sorted_unique(pair_dist).tolist():
        rows = np.searchsorted(distinct, pair_colors[pair_dist == d])
        vrs = sorted_unique(
            np.concatenate((np.zeros(1, dtype=np.int64), table[rows].ravel()))
        )
        chunks.append((vrs, _member_offsets(n, int(d))))
    active_rounds = cast_rounds.size + _window_rounds(chunks, window)
    return Accounting(awake, termination, int(msgs.sum()), active_rounds)


def _run_theorem9_kernel(
    graph: StaticGraph,
    problem: OLocalProblem,
    inputs: Mapping[NodeId, Any] | None,
    color: Any,
    dist: Any,
    palette: int,
    t0: int,
) -> tuple[ColumnMap, Accounting, Mapping[NodeId, Any] | None]:
    """Theorem 9 as array kernels: outputs plus closed-form metrics.

    Args:
        graph: the network.
        problem: the O-LOCAL problem to solve.
        inputs: per-node problem inputs, or ``None`` for the problem's
            own.
        color: int64 per-slot cluster colors γ, in ``[1, palette]``.
        dist: int64 per-slot BFS depths δ.
        palette: the common-knowledge palette size c.
        t0: first round of the Theorem 9 window.

    Returns:
        ``(outputs, accounting, inputs)`` — the per-node outputs (a
        :class:`~repro.graphs.arrays.ColumnMap` over the decided
        column), the
        :class:`Accounting` of simulating
        :func:`repro.core.theorem9.theorem9_protocol` from round ``t0``
        (bit-identical to the simulator run), and the inputs the
        decider read: the given ones, or the defaults it resolved, so
        the caller's check does not build them again.
    """
    if graph.n == 0:
        empty = np.zeros(0, dtype=np.int64)
        outputs = ColumnMap(graph.arrays.ids, (empty,))
        return outputs, Accounting(empty, empty, 0, 0), inputs
    ga = graph.arrays
    low, high = int(color.min()), int(color.max())
    if low < 1 or high > palette:
        bad = low if low < 1 else high
        raise ProtocolError(f"color {bad} outside palette [1, {palette}]")

    with span("theorem9.decide", n=ga.n):
        # The protocol's outcome is the sequential greedy under the
        # orientation µ_G: priority (γ, -δ, -ID) ascending.  Slot order
        # is ID order, so -arange encodes -ID.
        order = np.lexsort((-np.arange(ga.n), -dist, color))
        rank = np.empty(ga.n, dtype=np.int64)
        rank[order] = np.arange(ga.n)
        decider, _ = decide_by_priority(graph, problem, inputs, rank)

    with span("theorem9.accounting", n=ga.n, palette=palette):
        accounting = _theorem9_closed_form(
            ga, color, dist, palette, t0, graph.n
        )
    return decider.outputs(), accounting, decider.inputs


def _output_and_assignment(
    output: Any, phase: int, gamma: int, dist: int
) -> tuple[Any, Theorem13Assignment]:
    """One node's Theorem 1 simulator output: ``(output, assignment)``."""
    return output, Theorem13Assignment(phase, gamma, dist)


def solve_with_clustering_vectorized(
    graph: StaticGraph,
    problem: OLocalProblem,
    clustering: ColoredBFSClustering,
    inputs: Mapping[NodeId, Any] | None = None,
    palette: int | None = None,
    validate: bool = True,
) -> Theorem9Result:
    """Run Theorem 9 end to end on the vectorized engine.

    The drop-in array twin of
    :func:`repro.core.theorem9.solve_with_clustering`: same
    canonicalisation, same windows, bit-identical outputs and metrics.

    Args:
        graph: the network.
        problem: any :class:`OLocalProblem`.
        clustering: a colored BFS-clustering (γ, δ) of the graph.
        inputs: optional per-node inputs (defaults to the problem's own).
        palette: optionally widen the assumed color range c.
        validate: check the solution, and the awake complexity against
            the Theorem 9 bound
            (:func:`~repro.core.theorem1.check_theorem9_awake_bound`),
            before returning.

    Returns:
        :class:`Theorem9Result` with outputs, the simulated metrics and
        the palette used.
    """
    color, dist = canonical_columns(graph, clustering)
    c = palette if palette is not None else int(color.max(initial=0))
    with span("theorem9.solve", n=graph.n, palette=c) as sp:
        cast_end = 1 + bfs_cast_duration(graph.n)
        sp.event(
            "theorem9.windows",
            cast_rounds=(1, cast_end),
            calendar_rounds=(cast_end + 1, theorem9_duration(graph.n, c)),
        )
        outputs, accounting, inputs = _run_theorem9_kernel(
            graph, problem, inputs, color, dist, c, t0=1
        )
        accounting.charge()
        result = accounting.result(graph, outputs)
    with span("theorem9.validate", n=graph.n):
        if validate:
            problem.check(graph, result.outputs, inputs)
            check_theorem9_awake_bound(
                graph, c, int(accounting.awake.max(initial=0))
            )
    return Theorem9Result(
        outputs=result.outputs, simulation=result, palette=c
    )


def solve_vectorized(
    graph: StaticGraph,
    problem: OLocalProblem,
    inputs: Mapping[NodeId, Any] | None = None,
    b: int | None = None,
    validate: bool = True,
) -> Theorem1Result:
    """Solve an O-LOCAL problem on the vectorized engine (Theorem 1).

    The drop-in array twin of :func:`repro.core.theorem1.solve`: the
    Theorem 13 clustering runs through the path of
    :func:`repro.core.clustering_vectorized.compute_clustering_vectorized`
    (kernel, array validation, color-bound check), its color and depth
    columns feed the closed-form Theorem 9 kernel, and the two stages
    compose by Lemma 8 — per-node awake/message counts add, the
    termination rounds are the solver stage's, and the active-round sets
    of the two reserved windows are disjoint.

    Args:
        graph: the network (connected, unique IDs in [1, id_space]).
        problem: any :class:`OLocalProblem`.
        inputs: optional per-node inputs (defaults to the problem's own).
        b: override the paper's b = 2^{sqrt(log n)} (for ablations).
        validate: check the solution and the clustering before returning,
            and the awake complexity against the Theorem 1 bound
            (:func:`~repro.core.theorem1.check_awake_bound`).

    Returns:
        :class:`~repro.core.theorem1.Theorem1Result`, bit-identical to
        the simulator engine's.
    """
    chosen_b = b if b is not None else default_b(graph.n)
    _require_int64_rounds(theorem1_duration(graph.n, graph.id_space, chosen_b))
    with span("theorem1.vectorized", n=graph.n, b=chosen_b):
        clustered, color, dist, stage13 = _clustering_columns(
            graph, chosen_b, validate
        )
        t9_start = 1 + theorem13_duration(graph.n, graph.id_space, chosen_b)
        outputs, stage9, inputs = _run_theorem9_kernel(
            graph, problem, inputs, color, dist,
            clustered.palette_bound, t0=t9_start,
        )
        composed = Accounting(
            awake=stage13.awake + stage9.awake,
            termination=stage9.termination,
            messages=stage13.messages + stage9.messages,
            active_rounds=stage13.active_rounds + stage9.active_rounds,
        )
        composed.charge()
        # The outputs' column is in slot order, as the assignment
        # columns are.
        simulation = composed.result(
            graph,
            ColumnMap(
                graph.arrays.ids,
                (*outputs.columns, *clustered.assignments.columns),
                row=_output_and_assignment,
            ),
        )

    with span("theorem1.validate", n=graph.n):
        if validate:
            problem.check(graph, outputs, inputs)
            check_awake_bound(
                graph, chosen_b, int(composed.awake.max(initial=0))
            )
    return Theorem1Result(
        outputs=outputs,
        clustering=clustered.clustering,
        simulation=simulation,
        b=chosen_b,
        palette_bound=clustered.palette_bound,
    )
