"""Theorem 13 on the array engine — the clustering pipeline in closed form.

The simulator executes the Theorem 13 pipeline by dispatching one
generator per node per round through ``k = 2·⌈sqrt(log n)⌉`` phases of
Lemma 15 (on the virtual graph) plus Lemma 14 (flattening).  Every phase
is lockstep: the vround calendar of each member is a closed-form function
of a handful of per-cluster integers (the tree label c2, its parent's
c2, the BFS depths δ and δ', and the deterministic Linial/cast
durations).  This module replays the whole pipeline as numpy kernels
over the :class:`~repro.graphs.arrays.GraphArrays` CSR mirror:

- **the virtual graph H** of each phase is a cluster-level
  :class:`~repro.graphs.arrays.GraphArrays`, as is X, G's inter-cluster
  edges. Phase 1 starts from singleton clusters labelled by ID, and
  slot order is ID order, so its H and X are G itself; each Lemma 14
  merge that leaves a residual builds the next phase's H and X from
  the deduplicated inter-cluster edge keys (:func:`_virtual_graph`);
- **Linial reductions** (the distance-2 prologue, and the distance-1
  coloring of G[U]) run whole-frontier over explicit conflict lists,
  each a ``GraphArrays`` — the distance-2 conflicts are the direct
  edges plus the relayed triples ``(v, mid, w)`` with ``w != v``,
  exactly the colors :func:`repro.core.linial.linial_coloring`
  collects;
- **the parent rule** reads every 2-hop color minimum from each H row's
  two smallest color ranks (:func:`_lemma15_parents`), with no triples;
- **the F2 forest** (parents p2) roots via pointer doubling, and all
  BFS distances (induced cluster distances, Lemma 14 merges) run as
  masked frontier waves;
- **accounting** — per-member awake rounds, messages, termination
  rounds and the number of active rounds (counted per reserved window,
  :func:`_window_rounds`) are evaluated in closed form from the
  per-cluster event counts, **bit-identical** to the
  :class:`~repro.model.simulator.SleepingSimulator` run of
  :func:`repro.core.theorem13.compute_clustering` — the differential
  suite in ``tests/test_engine_equivalence.py`` is the gate.

Per-phase work is O(n + m) array time and memory; only the distance-2
prologue, which runs for ID spaces beyond about n⁴, adds the Σ deg_H²
triples. The virtual graph shrinks geometrically, so the whole
clustering runs at n = 10⁶ in seconds where the simulator needs hours.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.core.clustering import ClusteringError, ColoredBFSClustering
from repro.core.lemma14 import lemma14_duration
from repro.core.lemma15 import (
    c2_bound,
    distance2_conflict_degree,
    distance2_palette,
    lemma15_duration,
    singleton_palette,
)
from repro.core.linial import reduction_schedule
from repro.core.theorem13 import (
    ClusteringResult,
    Theorem13Assignment,
    color_palette_bound,
    default_b,
    num_phases,
    phase_label_space,
    theorem13_duration,
)
from repro.core.virtual import virtual_duration
from repro.errors import ProtocolError, ReproError
from repro.graphs.arrays import (
    ColumnMap,
    GraphArrays,
    component_minima,
    ragged_gather,
    segment_any,
    segment_min,
    segment_sum,
    sorted_unique,
)
from repro.graphs.graph import StaticGraph
from repro.model.vectorized import Accounting
from repro.obs.spans import span

#: Sentinel larger than any color, label or slot index that can occur.
_BIG = 1 << 62

#: Edge slots compared per block in :func:`_monochromatic_slots`.
_SLOT_BLOCK = 1 << 16


def _linial_step_pairs(
    colors: Any, csrs: list[GraphArrays], d: int, q: int
) -> Any:
    """One Linial reduction step over explicit conflict-pair CSRs.

    For each vertex, the new color is ``x·q + p(x)`` for the *first*
    x ∈ F_q where its degree-d color polynomial differs from every
    conflict partner's — the exact rule of
    :func:`repro.core.linial._reduce_one`, with the per-x safety check
    batched over the still-undecided frontier (at x = 0, every vertex:
    the CSRs are read as they stand, with no gather). Conflicts come
    from one or more CSR pair lists, so the same kernel serves the distance-2
    prologue (direct ∪ relayed pairs), the distance-1 coloring of an
    induced subgraph, and the BM21 baseline (the graph adjacency, in
    :mod:`repro.core.bm21_vectorized`).

    Args:
        colors: current int64 colors, one per vertex.
        csrs: the conflict CSRs, one row per vertex; a vertex clashes
            at x iff any listed conflict partner evaluates equal. The
            first one's ``ids`` name the vertices in errors.
        d: the step's polynomial degree.
        q: the step's field size.

    Returns:
        The new int64 colors (``x·q + p(x)`` at the first safe x).
    """
    labels = csrs[0].ids
    nv = colors.shape[0]
    width = d + 1
    digits = np.empty((nv, width), dtype=np.int64)
    rest = colors.copy()
    for j in range(width):
        digits[:, j] = rest % q
        rest //= q
    if rest.any():
        bad = int(labels[np.flatnonzero(rest)[0]])
        raise ReproError(
            f"node {bad}: color does not fit in {width} base-{q} digits"
        )

    # x = 0, where p(0) is the lowest digit and every vertex is still
    # undecided, reads each conflict CSR as it stands: no gather, and
    # every vertex's value is needed.
    values = digits[:, 0].copy()
    conflicted = np.zeros(nv, dtype=bool)
    for csr in csrs:
        clash = values[csr.flat] == np.repeat(values, csr.degrees)
        conflicted |= segment_any(clash, csr.degrees)
    new_colors = values.copy()
    undecided = np.flatnonzero(conflicted)
    for x in range(1, q):
        if not undecided.size:
            return new_colors
        gathered = [
            ragged_gather(csr.offsets, csr.flat, undecided) for csr in csrs
        ]
        needed = sorted_unique(
            np.concatenate([undecided] + [nbrs for nbrs, _ in gathered])
        )
        acc = np.zeros(len(needed), dtype=np.int64)
        for j in range(width - 1, -1, -1):
            acc = (acc * x + digits[needed, j]) % q
        values[needed] = acc
        conflicted = np.zeros(len(undecided), dtype=bool)
        for nbrs, counts in gathered:
            clash = values[nbrs] == np.repeat(values[undecided], counts)
            conflicted |= segment_any(clash, counts)
        safe = undecided[~conflicted]
        new_colors[safe] = x * q + values[safe]
        undecided = undecided[conflicted]
    if undecided.size:
        me = int(labels[undecided[0]])
        raise ProtocolError(
            f"node {me}: no safe evaluation point in F_{q} — the input "
            f"coloring was not proper or the degree bound was violated"
        )
    return new_colors


def _masked_bfs(
    csr: GraphArrays, sources: Any, group: Any, member: Any
) -> Any:
    """Multi-source BFS restricted to same-group member vertices.

    Every source starts its own wave; a vertex joins a wave only if it
    is a ``member`` and shares the source's ``group`` key, so disjoint
    clusters flood concurrently without interfering.

    Args:
        csr: the graph to search.
        sources: int64 slots at distance 0.
        group: int64 per-slot partition keys.
        member: boolean per-slot eligibility mask.

    Returns:
        int64 per-slot distances, -1 where unreached.
    """
    dist = np.full(len(group), -1, dtype=np.int64)
    dist[sources] = 0
    frontier = sources
    level = 0
    while frontier.size:
        level += 1
        nbrs, counts = ragged_gather(csr.offsets, csr.flat, frontier)
        if not nbrs.size:
            break
        srcs = np.repeat(frontier, counts)
        mask = member[nbrs] & (dist[nbrs] < 0) & (group[nbrs] == group[srcs])
        cand = sorted_unique(nbrs[mask])
        if not cand.size:
            break
        dist[cand] = level
        frontier = cand
    return dist


def _member_offsets(n: int, d: int) -> Any:
    """Awake offsets of a depth-``d`` member inside one virtual window.

    Offsets are relative to the window start (the exchange round): the
    exchange itself, then the gather's convergecast receive/send and
    broadcast receive/send rounds of :func:`repro.core.cast.gather_bfs`
    with depth bound ``n``.  A root (``d == 0``) neither sends up nor
    receives down, so it is awake 3 rounds; any other member 5.  Every
    simulated virtual round costs this — Lemma 15 and Lemma 14 windows
    here, the Theorem 9 windows in :mod:`repro.core.theorem1_vectorized`.

    Args:
        n: the graph size (= the cast depth bound).
        d: the member's BFS depth δ within its cluster.

    Returns:
        int64 array of distinct in-window offsets.
    """
    if d == 0:
        return np.array([0, n, n + 2], dtype=np.int64)
    return np.array(
        [0, n - d, n - d + 1, n + d + 1, n + d + 2], dtype=np.int64
    )


def _window_rounds(chunks: list[tuple[Any, Any]], window: int) -> int:
    """The number of distinct active rounds in one reserved window.

    Each depth δ awake in the window adds one chunk ``(vrs, offs)``: its
    virtual rounds (distinct) and its member offsets
    (:func:`_member_offsets`: distinct, each below ``window``). Its
    rounds ``vr·window + off`` are then distinct, |vrs|·|offs| of them,
    so a one-depth window is counted without listing them. Depths share
    rounds (the δ = 0 and δ = 1 gather offsets collide), so a window of
    several is counted on the union of their rounds.

    Args:
        chunks: one ``(vrs, offs)`` pair of int64 arrays per depth.
        window: the virtual round's length in G rounds.

    Returns:
        The number of distinct rounds, relative to the window's start.
    """
    if len(chunks) == 1:
        vrs, offs = chunks[0]
        return vrs.size * offs.size
    return sorted_unique(np.concatenate([
        (vrs[:, None] * window + offs[None, :]).ravel() for vrs, offs in chunks
    ])).size


def _per_slot(values: Any, hidx: Any) -> Any:
    """A per-H-vertex column read at every G slot (``hidx`` None: H is G)."""
    return values if hidx is None else values[hidx]


def _lemma15_parents(h: GraphArrays, c1: Any) -> tuple[Any, Any, Any, Any]:
    """The three-case parent rule of Lemma 15 (steps 3-4) on H's CSR.

    A vertex v with a smaller color on its 2-ball picks p1 = the
    smallest-colored neighbor if that one is smaller than c1(v) (case
    2, p2 = p1), else the smallest-colored distance-2 vertex (case 3,
    p2 = the smallest-ID common neighbor), ties broken by ID — the rule
    of :func:`repro.core.lemma15._select_p1`. c1 is a distance-2
    coloring, so the neighbors of any u differ pairwise, and what v
    hears through a neighbor u is the smallest color on N(u) other than
    v's: u's row minimum, or its runner-up when that minimum is v
    itself. Each row's two smallest colors therefore give every 2-hop
    minimum in O(n + m_H) row-minimum passes, with no relayed (v, u, w)
    triple built. What v hears may be a direct neighbor's color, which
    never wins case 3 (all direct colors exceed c1 there).

    The passes run over ranks, not colors: a stable argsort ranks c1
    once, so rank order is the rule's (c1, ID) order (slot order is ID
    order) and one row minimum of ``rank[h.flat]`` names both the
    smallest color and its vertex. The common-neighbor pass reads the
    case-3 rows only.

    Args:
        h: H's CSR, neighbors sorted within each row (so the smallest
            index is the smallest ID); its ``ids`` name the vertices in
            errors.
        c1: int64 per-vertex colors, a distance-2 coloring of H (equal
            colors only on vertices at least 3 apart).

    Returns:
        ``(p1, p2, c2, root_h)`` — int64 parents (-1 at roots), the
        int64 tree labels c2 = 2·c1(p1) + [case 3] (0 at roots), and
        the boolean root mask.

    Raises:
        ProtocolError: if a case-3 vertex shares no neighbor with p1.
    """
    # num_h, past every rank, stands for nobody (an empty row's minimum).
    num_h = c1.size
    order = np.argsort(c1, kind="stable")
    rank = np.empty(num_h, dtype=np.int64)
    rank[order] = np.arange(num_h, dtype=np.int64)
    hflat, hes, hdeg = h.flat, h.edge_sources, h.degrees
    rn = rank[hflat]
    r1 = segment_min(rn, hdeg, num_h)
    r2 = segment_min(np.where(rn == r1[hes], num_h, rn), hdeg, num_h)
    del rn
    # Per H edge (v, u): the rank of the vertex v hears through u.
    r1u = r1[hflat]
    heard = np.where(r1u == rank[hes], r2[hflat], r1u)
    del r1u
    rmin = segment_min(heard, hdeg, num_h)

    root_h = (r1 > rank) & (rmin > rank)
    case2 = r1 < rank
    case3 = ~root_h & ~case2
    p1 = np.append(order, -1)[np.where(case2, r1, np.where(case3, rmin, num_h))]
    c2 = np.where(root_h, 0, 2 * c1[p1] + case3)
    p2 = np.where(case2, p1, np.int64(-1))
    c3 = np.flatnonzero(case3)
    if c3.size:
        # p2 = the smallest-ID neighbor through which v hears p1, read
        # over the case-3 rows only.
        nbrs, counts = ragged_gather(h.offsets, hflat, c3)
        said, _ = ragged_gather(h.offsets, heard, c3)
        common = segment_min(
            np.where(said == np.repeat(rmin[c3], counts), nbrs, _BIG),
            counts,
            _BIG,
        )
        if (common >= _BIG).any():
            v = int(h.ids[c3[np.flatnonzero(common >= _BIG)[0]]])
            raise ProtocolError(
                f"node {v}: 2-hop parent shares no common neighbor"
            )
        p2[c3] = common
    return p1, p2, c2, root_h


def _virtual_graph(graph: StaticGraph, label: Any, active: Any) -> tuple:
    """The virtual graph H of the clustering ``label`` on ``active`` slots.

    H has one vertex per active cluster; two clusters are adjacent iff
    some G edge joins them, and the inter-cluster edge keys are
    deduplicated with one sort. This is the only place G's edges are
    classified: the phase reads its inter-cluster G edges and
    intra-cluster degrees from what it returns.

    Args:
        graph: the network.
        label: per-slot cluster labels ℓ.
        active: per-slot participation mask.

    Returns:
        ``(h, hidx, x, intra)`` — H as a
        :class:`~repro.graphs.arrays.GraphArrays` whose ``ids`` are the
        cluster labels ascending (H vertex j is cluster ``h.ids[j]``)
        and whose rows hold their neighbors once, ascending; every G
        slot's H vertex (0 where inactive); X, the inter-cluster G edges
        between active slots, as rows over G's slots; and every slot's
        number of active same-cluster neighbors.
    """
    ga = graph.arrays
    esrc, edst = ga.edge_sources, ga.flat
    hlabels = sorted_unique(label[active])
    num_h = hlabels.size
    hidx = np.zeros(ga.n, dtype=np.int64)
    hidx[active] = np.searchsorted(hlabels, label[active])
    e_x = active[esrc] & active[edst]
    intra = segment_sum(e_x, ga.degrees)
    e_x &= label[esrc] != label[edst]
    x = GraphArrays.from_degrees(ga.ids, segment_sum(e_x, ga.degrees), edst[e_x])
    intra -= x.degrees
    ukey = sorted_unique(hidx[x.edge_sources] * np.int64(num_h) + hidx[x.flat])
    hdeg = np.bincount(ukey // num_h, minlength=num_h).astype(np.int64)
    h = GraphArrays.from_degrees(hlabels, hdeg, ukey % num_h)
    return h, hidx, x, intra


def _require_int64_rounds(last_round: int) -> None:
    """Refuse a run whose last round the int64 columns cannot hold.

    Callers check before any array work. Large ID spaces get there: gnp
    under ``poly5`` IDs needs 66 bits at n = 2048.

    Args:
        last_round: the run's last reserved round.

    Raises:
        ReproError: naming the int64 round limit and the simulator engine.
    """
    if last_round > np.iinfo(np.int64).max:
        raise ReproError(
            f"the run's last round needs {last_round.bit_length()} bits, "
            f"past the vectorized engine's int64 round limit (2^63 - 1); "
            f"use the simulator engine"
        )


def _clustering_kernel(
    graph: StaticGraph, b: int
) -> tuple[Any, Any, Any, Accounting]:
    """Run the Theorem 13 pipeline as array kernels.

    Args:
        graph: the network.
        b: the phase parameter (clusters with root degree ≤ b dissolve).

    Returns:
        ``(phase, gamma, dist, accounting)`` — the per-slot int64
        assignment columns (node v finishes in phase i with color
        γ = (i, γ') and depth δ) and the run's :class:`Accounting`,
        bit-identical to the
        :func:`~repro.core.theorem13.compute_clustering` simulator run.
    """
    ga = graph.arrays
    n, id_space = graph.n, graph.id_space
    phases = num_phases(n)

    label = ga.ids.copy()
    delta = np.zeros(ga.n, dtype=np.int64)
    active = np.ones(ga.n, dtype=bool)

    awake = np.zeros(ga.n, dtype=np.int64)
    msgs = np.zeros(ga.n, dtype=np.int64)
    termination = np.zeros(ga.n, dtype=np.int64)
    out_phase = np.zeros(ga.n, dtype=np.int64)
    out_gamma = np.zeros(ga.n, dtype=np.int64)
    out_dist = np.zeros(ga.n, dtype=np.int64)
    window_rounds: list[int] = []

    # Phase 1 starts from singleton clusters labelled by ID, and slot
    # order is ID order: its virtual graph H is G itself (no slot-to-H
    # index), and every G edge is inter-cluster.
    virtual = (ga, None, ga, np.zeros(ga.n, dtype=np.int64))
    clock = 1
    for i in range(1, phases + 1):
        ls = phase_label_space(id_space, b, i)
        window15 = virtual_duration(n, lemma15_duration(n, ls, b))
        if active.any():
            clock_14 = clock + window15
            label, delta, active, virtual = _run_phase(
                graph, b, i, ls, clock, clock_14, virtual,
                label, delta, active,
                awake, msgs, termination,
                out_phase, out_gamma, out_dist, window_rounds,
            )
        clock += window15 + lemma14_duration(n)

    if active.any():
        raise ProtocolError(
            f"{int(active.sum())} nodes unassigned after {phases} phases"
        )

    # Lemma 8: the phases' Lemma 15 and Lemma 14 windows are disjoint,
    # so their distinct rounds add.
    accounting = Accounting(
        awake, termination, int(msgs.sum()), sum(window_rounds)
    )
    return out_phase, out_gamma, out_dist, accounting


def _run_phase(
    graph: StaticGraph,
    b: int,
    i: int,
    ls: int,
    clock: int,
    clock_14: int,
    virtual: tuple,
    label: Any,
    delta: Any,
    active: Any,
    awake: Any,
    msgs: Any,
    termination: Any,
    out_phase: Any,
    out_gamma: Any,
    out_dist: Any,
    window_rounds: list[int],
) -> tuple[Any, Any, Any, tuple | None]:
    """One Theorem 13 phase: Lemma 15 on H, then the Lemma 14 merge.

    Mutates the accounting accumulators in place and returns the next
    phase's ``(label, delta, active)`` G-state and its virtual graph
    (``None`` when no cluster is left).

    Every F2 tree must be connected in H. Only the merge reads the
    induced tree distances δ', and only for residual trees, so only
    those get an H-level BFS. A tree rooted at a low-degree cluster is
    checked instead by p2[v] ∈ N_H(v) for every non-root v, one O(m_H)
    pass. Given that F2 is a forest (checked first), it implies the
    connectivity: the p2 chain from v is then an H path to v's root
    inside v's tree. The parent rule picks p2 among v's H neighbors, so
    on the rule's own parents both checks accept alike; a p2 off H fails
    this one even where a BFS would still find the tree connected.

    Args:
        graph: the network.
        b: the phase parameter.
        i: the 1-indexed phase number.
        ls: the phase's cluster-label space.
        clock: first round of the phase's Lemma 15 window.
        clock_14: first round of the phase's Lemma 14 window.
        virtual: ``(h, hidx, x, intra)``, the virtual graph H of
            ``label`` on the ``active`` slots as :func:`_virtual_graph`
            returns it; in phase 1 G's own CSR as both H and X, with
            ``hidx`` None (slot v is H vertex v).
        label: per-slot cluster labels ℓ entering the phase.
        delta: per-slot BFS depths δ entering the phase.
        active: per-slot participation mask.
        awake: per-slot awake-round accumulator (mutated).
        msgs: per-slot message accumulator (mutated).
        termination: per-slot termination rounds (mutated).
        out_phase: per-slot assignment phase (mutated).
        out_gamma: per-slot assignment color γ' (mutated).
        out_dist: per-slot assignment depth (mutated).
        window_rounds: distinct active rounds per reserved window
            (appended to: the Lemma 15 window, then the Lemma 14 one).

    Returns:
        ``(label, delta, active, virtual)`` for the next phase.
    """
    ga = graph.arrays
    n = graph.n
    ab2 = singleton_palette(b)
    window = 2 * n + 3
    h, hidx, x, intra = virtual
    hlabels, hflat, hdeg, hes = h.ids, h.flat, h.degrees, h.edge_sources
    num_h = h.n

    # ---- Lemma 15, steps 1-4: colors c1/c2 and parents p1/p2 -------------
    k = distance2_palette(n, ls)
    big_b = c2_bound(n, ls)
    cast_len = big_b + 2  # labeled_cast_duration
    sched2 = reduction_schedule(ls, distance2_conflict_degree(n))
    steps2 = len(sched2)
    sched_u = reduction_schedule(ls, b)
    steps_u = len(sched_u)

    with span("theorem13.parents", phase=i):
        c0 = hlabels - 1
        if sched2:
            # The distance-2 prologue also conflicts with the relayed
            # triples (src, mid, w), w != src, that its rounds deliver:
            # Σ deg_H² rows, built only for label spaces beyond about n⁴.
            w2, _ = ragged_gather(h.offsets, hflat, hflat)
            src2 = np.repeat(hes, hdeg[hflat])
            relay = w2 != src2
            relayed = GraphArrays.from_degrees(
                hlabels, np.bincount(src2[relay], minlength=num_h), w2[relay]
            )
            del w2, src2, relay
            for d, q in sched2:
                c0 = _linial_step_pairs(c0, [h, relayed], d, q)
            del relayed
        c1 = np.where(hdeg <= b, c0 + 1 + k, c0 + 1)
        _, p2, c2, root_h = _lemma15_parents(h, c1)
        if int(c2.max(initial=0)) > big_b:
            v = int(hlabels[int(np.argmax(c2))])
            raise ProtocolError(
                f"node {v}: c2 = {int(c2.max())} exceeds bound {big_b}"
            )

    # ---- steps 5-7: the F2 forest, induced distances, U coloring ---------
    with span("theorem13.forest", phase=i):
        ptr = np.where(p2 >= 0, p2, np.arange(num_h, dtype=np.int64))
        for _ in range(max(1, num_h).bit_length() + 1):
            nxt = ptr[ptr]
            if np.array_equal(nxt, ptr):
                break
            ptr = nxt
        rootidx = ptr
        if (p2[rootidx] >= 0).any():
            v = int(hlabels[np.flatnonzero(p2[rootidx] >= 0)[0]])
            raise ProtocolError(f"node {v}: F2 is not a forest")
        singleton_h = hdeg[rootidx] <= b
        bad = singleton_h & (hdeg > b)
        if bad.any():
            v = np.flatnonzero(bad)[0]
            raise ProtocolError(
                f"node {int(hlabels[v])}: in a low-degree-rooted cluster but "
                f"deg = {int(hdeg[v])} > b = {b} — contradicts Lemma 15"
            )
        # Connected in H: a BFS over the residual trees, whose δ' the
        # merge reads, and p2[v] ∈ N_H(v) for the low-degree-rooted ones.
        res_h = ~singleton_h
        d_h = _masked_bfs(h, np.flatnonzero(res_h & (p2 < 0)), rootidx, res_h)
        p2_adjacent = segment_any(hflat == p2[hes], hdeg)
        cut = np.where(singleton_h, (p2 >= 0) & ~p2_adjacent, d_h < 0)
        if cut.any():
            v = np.flatnonzero(cut)[0]
            raise ProtocolError(
                f"node {int(hlabels[v])}: cluster of root "
                f"{int(hlabels[rootidx[v]])} is not connected in G"
            )

        gamma_h = np.zeros(num_h, dtype=np.int64)
        uid = np.flatnonzero(singleton_h)
        # Every H vertex's neighbors in U (on U rows, its degree in G[U])
        # and G[U]'s CSR.
        if uid.size == num_h:
            # Every tree is low-degree-rooted: G[U] is H itself.
            udeg, g_u = hdeg, h
        elif uid.size:
            in_u = singleton_h[hflat]
            udeg = segment_sum(in_u, hdeg)
            upair = singleton_h[hes] & in_u
            del in_u
            uofv = np.zeros(num_h, dtype=np.int64)
            uofv[uid] = np.arange(uid.size, dtype=np.int64)
            g_u = GraphArrays.from_degrees(
                hlabels[uid],
                np.bincount(uofv[hes[upair]], minlength=uid.size),
                uofv[hflat[upair]],
            )
        else:
            udeg = np.zeros(num_h, dtype=np.int64)
        if uid.size:
            if (udeg[uid] > b).any():
                v = uid[np.flatnonzero(udeg[uid] > b)[0]]
                raise ProtocolError(
                    f"node {int(hlabels[v])}: {int(udeg[v])} U-neighbors "
                    f"> b = {b}"
                )
            ucol = hlabels[uid] - 1
            for d, q in sched_u:
                ucol = _linial_step_pairs(ucol, [g_u], d, q)
            gamma_u = ucol + 1
            if (gamma_u > ab2).any() or (gamma_u < 1).any():
                v = uid[np.flatnonzero((gamma_u > ab2) | (gamma_u < 1))[0]]
                raise ProtocolError(
                    f"node {int(hlabels[v])}: singleton color outside [1, {ab2}]"
                )
            gamma_h[uid] = gamma_u

    # ---- Lemma 15 accounting over the G-members --------------------------
    with span("theorem13.accounting", phase=i):
        foreign = x.degrees
        nev_a = (
            2 * steps2 + 2
            + np.where(root_h, 8, 12)
            + np.where(singleton_h, 1 + steps_u, 0)
        )
        n_all = 2 * steps2 + 8 + singleton_h.astype(np.int64)
        # Per inter-cluster edge (v, u): is u in v's F2 parent cluster, or
        # in a singleton cluster?
        if hidx is None:
            # H is G, and a G row holds each neighbor once: the forest
            # has counted both per slot.
            parent_deg = p2_adjacent.astype(np.int64)
            deg_u = udeg
        else:
            parent_deg = segment_sum(
                hidx[x.flat] == p2[hidx][x.edge_sources], foreign
            )
            deg_u = segment_sum(singleton_h[hidx][x.flat], foreign)

        in_u_s = _per_slot(singleton_h, hidx)
        nonroot_s = ~_per_slot(root_h, hidx)
        sing_s = active & in_u_s
        s_flag = (delta > 0).astype(np.int64)
        nev_a_s = _per_slot(nev_a, hidx)
        w15_awake = (1 + nev_a_s) * np.where(delta == 0, 3, 5)
        w15_msgs = (
            ga.degrees
            + (1 + nev_a_s) * (s_flag + intra)
            + _per_slot(n_all, hidx) * foreign
            + 2 * nonroot_s.astype(np.int64) * parent_deg
            + in_u_s.astype(np.int64) * steps_u * deg_u
        )
        awake[active] += w15_awake[active]
        msgs[active] += w15_msgs[active]

        # Active rounds: per distinct depth δ, the virtual rounds its
        # members wake in. First the fixed calendar (setup, Linial, c1
        # exchange); then per cast anchor β the anchor, the c2/c2p-keyed
        # rounds β + 1 + B − c (falling in c), the anchor β + cast_len,
        # the rounds β + cast_len + 1 + c; last the singleton tail. Every
        # key c lies in [0, B] (c2 <= B is checked above), so these ranges
        # are disjoint and in this order: listed, they are the distinct
        # rounds ascending, with no sort.
        vc2 = 3 + 2 * steps2
        vc4 = vc2 + 4 * cast_len
        sing_rounds = vc4 + np.arange(1 + steps_u, dtype=np.int64)
        c2_s = _per_slot(c2, hidx)
        c2p_s = _per_slot(np.where(p2 >= 0, c2[np.maximum(p2, 0)], 0), hidx)
        chunks = []
        for dd in sorted_unique(delta[active]).tolist():
            sel = active & (delta == dd)
            keys = sorted_unique(
                np.concatenate((c2_s[sel], c2p_s[sel & nonroot_s]))
            )
            falling, rising = 1 + big_b - keys[::-1], cast_len + 1 + keys
            parts = [np.arange(vc2, dtype=np.int64)]
            for beta in (vc2, vc2 + 2 * cast_len):
                parts += [
                    np.array([beta], dtype=np.int64), beta + falling,
                    np.array([beta + cast_len], dtype=np.int64), beta + rising,
                ]
            if (sel & sing_s).any():
                parts.append(sing_rounds)
            chunks.append((np.concatenate(parts), _member_offsets(n, dd)))
        window_rounds.append(_window_rounds(chunks, window))

        # ---- singleton members finish: γ = (i, γ'), δ kept -------------------
        out_phase[sing_s] = i
        out_gamma[sing_s] = _per_slot(gamma_h, hidx)[sing_s]
        out_dist[sing_s] = delta[sing_s]
        termination[sing_s] = (
            clock + (vc4 + steps_u) * window + n + delta[sing_s] + 2
        )

    # ---- Lemma 14: merge the residual clusters ---------------------------
    residual = active & ~sing_s
    if not residual.any():
        return label, delta, residual, None
    with span("theorem13.merge", phase=i):
        hres_e = res_h[hes] & res_h[hflat]
        same_super = hres_e & (rootidx[hes] == rootidx[hflat])
        parent2_h = segment_min(
            np.where(same_super & (d_h[hflat] == d_h[hes] - 1), hflat, _BIG),
            hdeg,
            _BIG,
        )
        bad = res_h & (d_h > 0) & (parent2_h >= _BIG)
        if bad.any():
            v = np.flatnonzero(bad)[0]
            raise ProtocolError(
                f"cluster {int(hlabels[v])}: δ' = {int(d_h[v])} but no "
                f"super-cluster neighbor at δ' = {int(d_h[v]) - 1}"
            )
        nev_b = 3 + 2 * (d_h > 0).astype(np.int64)

        # Only residual rows are read: their same-cluster neighbors are
        # residual, their foreign ones unless in a singleton cluster, and
        # those in the parent2 cluster or the same super-cluster always.
        rt_s = _per_slot(rootidx, hidx)
        if hidx is None:
            # H is G: parent2_h is a neighbor or none, and a residual
            # row's same-super-cluster neighbors are its same_super edges.
            parent2_deg = (parent2_h < _BIG).astype(np.int64)
            samesuper_deg = segment_sum(same_super, hdeg)
        else:
            parent2_deg = segment_sum(
                hidx[x.flat] == parent2_h[hidx][x.edge_sources], foreign
            )
            samesuper_deg = segment_sum(
                rt_s[x.flat] == rt_s[x.edge_sources], foreign
            )
        d2_s = _per_slot(d_h, hidx)
        nev_b_s = _per_slot(nev_b, hidx)
        w14_awake = (1 + nev_b_s) * np.where(delta == 0, 3, 5)
        w14_msgs = (
            ga.degrees
            + (1 + nev_b_s) * (s_flag + intra)
            + foreign - deg_u
            + (d2_s > 0).astype(np.int64) * parent2_deg
            + samesuper_deg
        )
        awake[residual] += w14_awake[residual]
        msgs[residual] += w14_msgs[residual]

        chunks = []
        for dd in sorted_unique(delta[residual]).tolist():
            sel = residual & (delta == dd)
            d2set = sorted_unique(d2_s[sel])
            parts = [
                np.array([0, 1], dtype=np.int64),
                n - d2set + 1,
                n + d2set + 3,
            ]
            pos = d2set[d2set > 0]
            if pos.size:
                parts += [n - pos + 2, n + pos + 2]
            chunks.append(
                (sorted_unique(np.concatenate(parts)), _member_offsets(n, dd))
            )
        window_rounds.append(_window_rounds(chunks, window))

        # Merge roots (δ = 0 and δ' = 0, unique per merged cluster), new
        # labels ℓ'' = root ID + a·b², and induced BFS distances in G.
        is_root = residual & (delta == 0) & (d2_s == 0)
        root_counts = np.bincount(rt_s[is_root], minlength=num_h)
        merged = sorted_unique(rt_s[residual])
        if (root_counts[merged] != 1).any():
            c = merged[np.flatnonzero(root_counts[merged] != 1)[0]]
            raise ProtocolError(
                f"merged cluster {int(hlabels[c]) + ab2} has "
                f"{int(root_counts[c])} roots"
            )
        if hidx is None:
            # H is G: the forest's BFS already ran from these roots over
            # these groups and members.
            dist_new = d_h
        else:
            dist_new = _masked_bfs(ga, np.flatnonzero(is_root), rt_s, residual)
            if (dist_new[residual] < 0).any():
                v = np.flatnonzero(residual & (dist_new < 0))[0]
                raise ProtocolError(
                    f"merged cluster ℓ'' = {int(hlabels[rt_s[v]]) + ab2} is "
                    f"disconnected"
                )
        label = np.where(residual, hlabels[rt_s] + ab2, label)
        delta = np.where(residual, dist_new, delta)
        return label, delta, residual, _virtual_graph(graph, label, residual)


def compute_clustering_vectorized(
    graph: StaticGraph, b: int | None = None, validate: bool = True
) -> ClusteringResult:
    """Theorem 13 on the vectorized engine.

    The drop-in array twin of
    :func:`repro.core.theorem13.compute_clustering`: same assignments,
    same validation, and metrics bit-identical to the simulator run.

    Args:
        graph: the network (connected, unique IDs in [1, id_space]).
        b: override the paper's b = 2^{sqrt(log n)} (for ablations).
        validate: check the clustering against Definition 4 and the
            color bound before returning.

    Returns:
        :class:`~repro.core.theorem13.ClusteringResult` with the
        clustering, the per-node assignments and the simulated metrics.
    """
    chosen_b = b if b is not None else default_b(graph.n)
    result, _, _, _, accounting = _clustering_columns(
        graph, chosen_b, validate
    )
    accounting.charge()
    return result


def _clustering_columns(
    graph: StaticGraph, b: int, validate: bool
) -> tuple[ClusteringResult, Any, Any, Any, Accounting]:
    """Run the kernel, check and package its columns.

    Definition 4 and the Theorem 13 color bound are checked on the
    kernel's own columns (:func:`validate_clustering_arrays`: a local
    certificate over the monochromatic slots, a few passes over them
    and pointer doubling) rather than by the per-node validator's
    Python walk — same acceptance, same error taxonomy, differentially
    tested in ``tests/test_clustering_validation.py``. The check's
    same-color degrees are returned for Theorem 9, so a Theorem 1 run
    compares G's colors once. Charges no counters: the caller decides
    whether this run stands alone or is one stage of Theorem 1.

    Args:
        graph: the network.
        b: the phase parameter.
        validate: check the clustering before packaging it.

    Returns:
        ``(result, color, dist, same, accounting)`` — the packaged
        :class:`ClusteringResult`, the per-slot canonical colors
        ``(i - 1)·a·b² + γ'``, depths δ and same-color degrees as int64
        columns, and the kernel's :class:`Accounting`. The result's
        per-node maps (assignments, γ, δ, metrics) are
        :class:`~repro.graphs.arrays.ColumnMap` views over the columns.
    """
    _require_int64_rounds(theorem13_duration(graph.n, graph.id_space, b))
    with span("theorem13.vectorized", n=graph.n, b=b):
        phase, gamma, dist, accounting = _clustering_kernel(graph, b)
        color = phase - 1
        color *= singleton_palette(b)
        color += gamma
        bound = color_palette_bound(graph.n, b)
        if validate:
            with span("theorem13.validate", n=graph.n):
                same = validate_clustering_arrays(graph, color, dist)
                max_color = int(color.max(initial=0))
                if max_color > bound:
                    raise ProtocolError(
                        f"used color {max_color} exceeds the bound {bound}"
                    )
        else:
            same = _monochromatic_slots(graph.arrays, color)[2]
        ids = graph.arrays.ids
        assignments = ColumnMap(
            ids, (phase, gamma, dist), row=Theorem13Assignment
        )
        result = ClusteringResult(
            clustering=ColoredBFSClustering(
                color=ColumnMap(ids, (color,)), dist=ColumnMap(ids, (dist,))
            ),
            assignments=assignments,
            simulation=accounting.result(graph, assignments),
            b=b,
            palette_bound=bound,
        )
    return result, color, dist, same, accounting


def clustering_columns(
    graph: StaticGraph, clustering: ColoredBFSClustering
) -> tuple[Any, Any]:
    """A dict-form integer-colored clustering as slot-ordered columns.

    Args:
        graph: the network the clustering lives on.
        clustering: a :class:`ColoredBFSClustering` with integer colors.

    Returns:
        ``(color, dist)`` int64 arrays in :attr:`GraphArrays.ids` order,
        the input of :func:`validate_clustering_arrays` and of the
        Theorem 9 kernel.

    Raises:
        ClusteringError: if the maps do not cover exactly the node set,
            with the per-node validator's messages.
    """
    if set(clustering.color) != graph.node_set:
        raise ClusteringError("coloring does not cover exactly the node set")
    if set(clustering.dist) != set(clustering.color):
        raise ClusteringError("dist does not cover exactly the node set")
    ids = graph.arrays.ids.tolist()
    color = np.array([clustering.color[v] for v in ids], dtype=np.int64)
    dist = np.array([clustering.dist[v] for v in ids], dtype=np.int64)
    return color, dist


def canonical_columns(
    graph: StaticGraph, clustering: ColoredBFSClustering
) -> tuple[Any, Any]:
    """``clustering.canonical()`` as slot-ordered ``(color, dist)`` columns.

    A clustering whose maps are :class:`~repro.graphs.arrays.ColumnMap`
    views over this graph's ``ids`` (the vectorized Theorem 13 output)
    is renumbered 1..c in color order on its own columns; any other
    goes through the dict :meth:`~ColoredBFSClustering.canonical`
    (which also handles non-integer palettes) and
    :func:`clustering_columns`.
    """
    ids = graph.arrays.ids
    color, dist = clustering.color, clustering.dist
    if isinstance(color, ColumnMap) and isinstance(dist, ColumnMap):
        color, dist = color.column_over(ids), dist.column_over(ids)
        if color is not None and dist is not None:
            distinct = sorted_unique(color)
            return np.searchsorted(distinct, color) + 1, dist
    return clustering_columns(graph, clustering.canonical())


def _monochromatic_slots(ga: GraphArrays, color: Any) -> tuple[Any, Any, Any]:
    """G's monochromatic slots, and each slot's number of them.

    Args:
        ga: the graph's arrays.
        color: int64 per-slot colors, in :attr:`GraphArrays.ids` order.

    Returns:
        ``(ms, md, same)`` — the source and target slots of every
        monochromatic directed edge, in CSR order (so ``ms`` ascends),
        and the int64 per-slot same-color degree ``bincount(ms)``: the
        row lengths of the compressed slots, and by Definition 4 the
        intra-cluster degree Theorem 9 reads.
    """
    esrc, flat = ga.edge_sources, ga.flat
    # Compared in cache-sized blocks: two whole 2m-length color gathers
    # cost more time and leave a larger heap behind. A gather by index
    # list is then several times faster than a boolean mask index into
    # the int64 columns.
    mono = np.concatenate([
        lo + np.flatnonzero(
            color[esrc[lo:lo + _SLOT_BLOCK]] == color[flat[lo:lo + _SLOT_BLOCK]]
        )
        for lo in range(0, len(flat), _SLOT_BLOCK)
    ] or [np.empty(0, dtype=np.int64)])
    ms = esrc[mono]
    md = flat[mono]
    return ms, md, np.bincount(ms, minlength=len(color))


def _certified(dist: Any, ms: Any, md: Any, same: Any) -> bool:
    """Whether δ passes Definition 4's local certificate.

    Over the monochromatic edges ``(ms, md)``, whose rows ``same``
    counts: (a) every δ ≥ 0; (b) δ changes by at most 1 across each
    edge; (c) every non-root (δ > 0) slot has a neighbour at δ − 1,
    and its parent is the smallest such slot; (d) after pointer
    doubling, both ends of each edge reach the same root. Parents step
    δ down by one, so (c) leads every slot in δ steps to a δ = 0 slot
    of its component, and δ is at least the induced distance to that
    root; by (b) it is at most the distance to any δ = 0 slot. (d)
    leaves one root per component, so δ is the induced BFS distance
    from it: Definition 4. Conversely, a Definition 4 clustering meets
    all four.
    """
    if int(dist.min()) < 0:
        return False
    step = dist[md]
    step -= dist[ms]
    # Each edge is in both directions, so a drop below -1 is a rise
    # above 1 too.
    if int(step.max(initial=0)) > 1:
        return False
    below = np.where(step == -1, md, _BIG)
    del step
    parent = segment_min(below, same, _BIG)
    del below
    roots = np.flatnonzero(dist == 0)
    parent[roots] = roots
    if int(parent.max()) == _BIG:
        return False
    # Each parent is one level closer to its root, so bit_length(max δ)
    # doublings reach it.
    for _ in range(int(dist.max()).bit_length()):
        parent = parent[parent]
    return bool(np.array_equal(parent[ms], parent[md]))


def validate_clustering_arrays(graph: StaticGraph, color: Any, dist: Any) -> Any:
    """Check Definition 4 with whole-graph array kernels.

    The drop-in twin of
    :meth:`repro.core.clustering.ColoredBFSClustering.validate` for
    clusterings already in columnar form: every connected component of
    every color class must contain exactly one root (δ = 0) and carry
    the exact induced BFS distances from it. Disconnected color classes
    are legal (each connected component is its own cluster), exactly as
    in the per-node validator.

    A clustering is accepted by a local certificate over the
    monochromatic slots only (:func:`_certified`): a few gathers, one
    row minimum and pointer doubling, with no component labelling and
    no BFS. Only a clustering the certificate rejects is labelled by
    :func:`~repro.graphs.arrays.component_minima` and searched by one
    multi-source masked BFS (:func:`_definition4_violation`), which
    names the first violation in the per-node validator's vocabulary.

    Args:
        graph: the network the clustering lives on.
        color: int64 per-slot colors, in :attr:`GraphArrays.ids` order.
        dist: int64 per-slot root distances (δ), same order.

    Returns:
        The int64 per-slot same-color degrees (:func:`_monochromatic_slots`),
        which the Theorem 9 kernel reads as intra-cluster degrees.

    Raises:
        ClusteringError: on any Definition 4 violation, with the same
            message vocabulary as the per-node validator.
    """
    ga = graph.arrays
    n = len(ga.ids)
    if len(color) != n:
        raise ClusteringError("coloring does not cover exactly the node set")
    if len(dist) != n:
        raise ClusteringError("dist does not cover exactly the node set")
    color = np.asarray(color, dtype=np.int64)
    dist = np.asarray(dist, dtype=np.int64)
    ms, md, same = _monochromatic_slots(ga, color)
    if n == 0 or _certified(dist, ms, md, same):
        return same
    _definition4_violation(ga, color, dist, ms, md)
    raise ReproError(
        "Definition 4: the local certificate rejected a clustering that "
        "component labelling accepts"
    )


def _definition4_violation(
    ga: GraphArrays, color: Any, dist: Any, msrc: Any, mdst: Any
) -> None:
    """Raise the first Definition 4 violation, as the per-node walk names it.

    Components of each color class are labelled by
    :func:`~repro.graphs.arrays.component_minima` over each
    monochromatic edge ``(msrc, mdst)`` once; depths by one multi-source
    masked BFS. Returns only if the clustering is valid.
    """
    n = len(ga.ids)
    # Connected components of each color class: every slot is labelled
    # with the smallest slot index of its component.
    once = msrc < mdst
    comp = component_minima(n, msrc[once], mdst[once])

    # Exactly one root (δ = 0) per component.
    roots = dist == 0
    root_count = np.bincount(comp[roots], minlength=n)
    labels = sorted_unique(comp)
    bad = labels[root_count[labels] != 1]
    if bad.size:
        slot = int(bad[0])
        raise ClusteringError(
            f"color {int(color[slot])!r} component has "
            f"{int(root_count[slot])} roots (δ=0 nodes); expected exactly 1"
        )

    # δ must be the induced BFS distance from the component's root: one
    # multi-source wave, each root flooding only its own component. A
    # root with no monochromatic edge is its whole component, at depth 0,
    # and seeds nothing.
    seeded = roots & (np.bincount(msrc, minlength=n) > 0)
    depth = _masked_bfs(
        ga, np.flatnonzero(seeded), comp, np.ones(n, dtype=bool)
    )
    depth[roots] = 0
    mismatch = np.flatnonzero(depth != dist)
    if mismatch.size:
        slot = int(mismatch[0])
        root_slot = int(np.flatnonzero(roots & (comp == comp[slot]))[0])
        raise ClusteringError(
            f"color {int(color[slot])!r} component: δ({int(ga.ids[slot])}) "
            f"= {int(dist[slot])} but induced BFS distance from root "
            f"{int(ga.ids[root_slot])} is {int(depth[slot])}"
        )
