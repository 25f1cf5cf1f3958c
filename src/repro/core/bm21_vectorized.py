"""The BM21 baseline (Linial + Lemma 11) as array kernels.

Vectorized counterpart of :func:`repro.core.bm21.solve_with_baseline`,
bit-identical in outputs and metrics (the differential suite in
``tests/test_engine_equivalence.py`` is the gate) but with per-round
work replaced by whole-frontier numpy operations:

- **Linial phase** — every reduction step evaluates all nodes' color
  polynomials (Horner over the little-endian base-q digit matrix) at
  x = 0, 1, ... and retires the frontier of nodes whose value differs
  from every neighbor's (a segment-any over the CSR gather); identical
  to :func:`repro.core.linial._reduce_one` picking the first safe x.
  The step is the clustering pipeline's
  :func:`~repro.core.clustering_vectorized._linial_step_pairs`, with
  the graph's adjacency as the one conflict CSR.
- **Lemma 11 phase** — nodes decide in increasing color order. On the
  simulator, a node of color c accumulates payloads at its receiving
  rounds r<(c) and decides at φ(c); by the Lemma 10 meeting-point
  property the accumulated senders are then *exactly* its lower-colored
  neighbors (in both ``neighbors`` and ``full`` locality — relays can
  only ever carry already-decided, i.e. lower-colored, outputs). That
  is the sequential greedy by color, run here as Kahn waves
  (:func:`~repro.model.vectorized.decide_by_priority`) with rank = the
  stable color order: the coloring is proper, so between neighbors rank
  order is color order. A wave is every undecided node whose
  lower-colored neighbors have all decided; the wave count is the
  longest color-increasing path, never more than the number of color
  classes (76 waves for 4096 classes on gnp(2¹², 32/n)).
- **Accounting in closed form** — with distance-1 Linial every node is
  awake for the ``steps`` reduction rounds and then exactly at rounds
  ``steps + x`` for x in r(c): ``awake(v) = steps + |r(c_v)|``,
  ``termination(v) = steps + max r(c_v)``, per-node sends are
  ``deg(v)`` dict messages per Linial round plus ``deg(v)`` at φ(c)
  and each x in r>(c) (the simulator counts *sent* messages, delivered
  or not), and ``active_rounds`` adds one per distinct x over the
  *present* colors' calendars.

The per-color terms come from one Lemma 10 table over the present
colors (:meth:`~repro.core.mapping.ColorScheduleMapping.rounds`), read
back per node with one ``searchsorted``: no Python loop over colors or
classes anywhere on the path.
"""

from __future__ import annotations

from typing import Any, Mapping

import numpy as np

from repro.core.bm21 import BaselineResult
from repro.core.clustering_vectorized import _linial_step_pairs
from repro.core.linial import final_palette, reduction_schedule
from repro.core.mapping import ColorScheduleMapping
from repro.core.theorem1 import check_baseline_awake_bound
from repro.graphs.arrays import sorted_unique
from repro.graphs.graph import StaticGraph
from repro.model.vectorized import Accounting, decide_by_priority
from repro.obs.spans import span
from repro.olocal.problem import OLocalProblem
from repro.types import NodeId


def solve_with_baseline_vectorized(
    graph: StaticGraph,
    problem: OLocalProblem,
    inputs: Mapping[NodeId, Any] | None = None,
) -> BaselineResult:
    """Run the BM21 baseline end to end on the vectorized engine.

    Drop-in for :func:`repro.core.bm21.solve_with_baseline` (same result
    type, same validation) minus the ``simulator`` hook — fault
    injection stays a per-node-engine feature. The outputs are always
    checked (on the graph's CSR columns that costs O(V + E) array
    work), and so is the awake complexity against the BM21 bound
    (:func:`~repro.core.theorem1.check_baseline_awake_bound`).
    """
    delta = max(graph.max_degree, 1)
    palette = final_palette(graph.id_space, delta)
    if graph.n == 0:
        empty = np.zeros(0, dtype=np.int64)
        simulation = Accounting(empty, empty, 0, 0).result(graph, {})
        return BaselineResult(outputs={}, simulation=simulation, palette=palette)

    ga = graph.arrays
    schedule = reduction_schedule(graph.id_space, delta)
    steps = len(schedule)
    colors = ga.ids - 1  # IDs are a proper coloring with palette id_space
    with span("bm21.linial", n=ga.n, steps=steps):
        for d, q in schedule:
            colors = _linial_step_pairs(colors, [ga], d, q)
    colors = colors + 1  # the Lemma 11 calendar is 1-based

    # Sequential greedy in color order, as Kahn waves over color rank:
    # the coloring is proper, so between neighbors rank order is color
    # order and each node's decided neighbors are exactly its
    # lower-colored ones, matching the simulator's φ-ordered decisions.
    with span("bm21.calendar", n=ga.n, palette=palette):
        rank = np.empty(ga.n, dtype=np.int64)
        rank[np.argsort(colors, kind="stable")] = np.arange(ga.n)
        decider, _ = decide_by_priority(graph, problem, inputs, rank)
        outputs = decider.outputs()
        problem.check(graph, outputs, decider.inputs)

    # Closed-form accounting from one Lemma 10 table over the present
    # colors: row i is r(present[i]), and φ(c) = 2c - 1.
    with span("bm21.accounting", n=ga.n):
        mapping = ColorScheduleMapping.for_palette(palette)
        present = sorted_unique(colors)
        table = mapping.rounds(present)
        sends = 1 + np.count_nonzero(table > 2 * present[:, None] - 1, axis=1)
        lookup = np.searchsorted(present, colors)
        awake = np.full(ga.n, steps + mapping.schedule_length, dtype=np.int64)
        accounting = Accounting(
            awake=awake,
            termination=steps + table[lookup, -1],
            messages=steps * 2 * graph.num_edges
            + int(sends[lookup] @ ga.degrees),
            active_rounds=steps + sorted_unique(table.ravel()).size,
        )
    accounting.charge()
    check_baseline_awake_bound(graph, int(awake.max()))
    simulation = accounting.result(graph, outputs)
    return BaselineResult(
        outputs=outputs, simulation=simulation, palette=palette
    )
