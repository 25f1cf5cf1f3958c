"""Internals of the Theorem 13 array kernel.

- the Lemma 15 parent rule (``_lemma15_parents``) against a dict-based
  brute force over explicit 2-balls, with empty rows and with c1 a
  distance-2 coloring whose colors repeat;
- the batched Linial step (``_linial_step_pairs``) against the scalar
  rule of :mod:`repro.core.linial`, on one conflict CSR and on two; its
  first evaluation point reads the CSRs as they stand, with no gather;
- the kernel's working set stays linear in the graph size: no array of
  Σ deg_H² relayed triples on the default ID schemes;
- phase 1 runs on G's own CSR, each later phase on the H its
  predecessor's merge built, and only residual F2 trees get an H-level
  BFS; phase 1's merge reuses that BFS; a low-degree-rooted tree whose
  parent edge leaves H is rejected;
- ``_virtual_graph``'s H, inter-cluster edge CSR and intra-cluster
  degrees against a per-node brute force, on random labels and random
  active masks;
- a run whose last round does not fit in int64 is refused before any
  array work;
- the active rounds, counted per reserved window and summed, equal one
  global dedupe of every window's rounds.
"""

import random
import tracemalloc

import numpy as np
import pytest

from repro.api import Scenario, run_scenario
from repro.core.clustering_vectorized import (
    _clustering_kernel,
    _lemma15_parents,
    _linial_step_pairs,
    _virtual_graph,
    compute_clustering_vectorized,
)
from repro.core.linial import _reduce_one, step_parameters
from repro.core.theorem13 import default_b
from repro.errors import ProtocolError, ReproError
from repro.graphs import gnp, random_tree
from repro.graphs.arrays import GraphArrays, sorted_unique
from repro.graphs.families import build_family_graph


def _random_graph(rng, n):
    """Adjacency sets of a random graph: a random tree (long 2-hop
    chains) plus a random number of extra edges."""
    adj = {v: set() for v in range(n)}
    for v in range(1, n):
        u = rng.randrange(v)
        adj[u].add(v)
        adj[v].add(u)
    for _ in range(rng.randrange(n + 1)):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            adj[u].add(v)
            adj[v].add(u)
    return adj


def _brute_force_parents(adj, c1):
    """The three-case rule of Lemma 15, one explicit 2-ball at a time."""
    p1, p2, c2 = {}, {}, {}
    for v, nbrs in adj.items():
        two_hop = {w for u in nbrs for w in adj[u]} - nbrs - {v}
        ball = nbrs | two_hop
        if all(c1[w] > c1[v] for w in ball):
            p1[v], p2[v], c2[v] = -1, -1, 0
        elif any(c1[u] < c1[v] for u in nbrs):
            p1[v] = p2[v] = min(nbrs, key=lambda u: c1[u])
            c2[v] = 2 * c1[p1[v]]
        else:
            # Two distance-2 vertices may share a color: ties go to the
            # smaller ID, as in lemma15._select_p1.
            p1[v] = min(two_hop, key=lambda w: (c1[w], w))
            p2[v] = min(u for u in nbrs if p1[v] in adj[u])
            c2[v] = 2 * c1[p1[v]] + 1
    return p1, p2, c2


def _with_empty_rows(rng, adj):
    """``adj`` plus a few isolated vertices, all relabelled at random so
    the empty rows fall anywhere in the CSR."""
    n = len(adj) + rng.randrange(1, 4)
    perm = list(range(n))
    rng.shuffle(perm)
    out = {perm[v]: set() for v in range(n)}
    for v, nbrs in adj.items():
        out[perm[v]] = {perm[u] for u in nbrs}
    return out


def _two_hop(adj, v):
    """v's conflict partners at distance 1 and 2."""
    return (adj[v] | {w for u in adj[v] for w in adj[u]}) - {v}


def _distance2_coloring(rng, adj, palette):
    """A greedy distance-2 coloring, in random vertex order with a
    random free color from ``range(palette)``: vertices within distance
    2 differ, and colors repeat farther apart, as the distance-2
    prologue leaves them."""
    color = {}
    order = list(adj)
    rng.shuffle(order)
    for v in order:
        taken = {color[w] for w in _two_hop(adj, v) if w in color}
        color[v] = rng.choice([c for c in range(palette) if c not in taken])
    return color


def _rows_csr(rows, ids=None):
    """The :class:`GraphArrays` of per-vertex rows over 0..n-1, in row
    order; ``ids`` default to 1..n."""
    n = len(rows)
    off = np.zeros(n + 1, dtype=np.int64)
    np.cumsum([len(rows[v]) for v in range(n)], out=off[1:])
    flat = np.array([w for v in range(n) for w in rows[v]], dtype=np.int64)
    if ids is None:
        ids = np.arange(1, n + 1, dtype=np.int64)
    return GraphArrays(ids=np.asarray(ids, dtype=np.int64), offsets=off,
                       flat=flat, degrees=np.diff(off))


def _csr(adj, ids=None):
    """The :class:`GraphArrays` of adjacency sets over 0..n-1."""
    return _rows_csr({v: sorted(nbrs) for v, nbrs in adj.items()}, ids)


@pytest.mark.parametrize("kind", ["permutation", "empty_rows", "repeated"])
def test_lemma15_parents_match_brute_force(kind):
    """``permutation``: c1 distinct everywhere. ``empty_rows``: isolated
    vertices among the rest. ``repeated``: c1 a distance-2 coloring, as
    the prologue leaves it, so colors repeat across the graph and even
    on a 2-ball (two vertices at distance 2 from v, 3 or 4 apart); the
    rank of equal colors is broken by index."""
    rng = random.Random(0)
    cases = {"root": 0, "direct": 0, "two_hop": 0}
    empty_rows = repeats = 0
    for _ in range(300):
        adj = _random_graph(rng, rng.randrange(1, 30))
        if kind == "empty_rows":
            adj = _with_empty_rows(rng, adj)
        n = len(adj)
        if kind == "repeated":
            palette = 1 + max(len(_two_hop(adj, v)) for v in adj)
            coloring = _distance2_coloring(rng, adj, palette)
            c1 = np.array([1 + coloring[v] for v in range(n)], dtype=np.int64)
        else:
            perm = list(range(1, n + 1))
            rng.shuffle(perm)
            c1 = np.array(perm, dtype=np.int64)
        h = _csr(adj)

        p1, p2, c2, root_h = _lemma15_parents(h, c1)
        want_p1, want_p2, want_c2 = _brute_force_parents(adj, c1)
        assert p1.tolist() == [want_p1[v] for v in range(n)]
        assert p2.tolist() == [want_p2[v] for v in range(n)]
        assert c2.tolist() == [want_c2[v] for v in range(n)]
        assert root_h.tolist() == [want_p1[v] < 0 for v in range(n)]
        empty_rows += int((np.diff(h.offsets) == 0).sum())
        repeats += int(np.unique(c1).size < n)
        for v in range(n):
            if want_p1[v] < 0:
                cases["root"] += 1
            elif want_p1[v] == want_p2[v]:
                cases["direct"] += 1
            else:
                cases["two_hop"] += 1
    # Every branch of the rule is exercised, case 3 included.
    assert min(cases.values()) >= 50, cases
    if kind == "empty_rows":
        assert empty_rows >= 300
    if kind == "repeated":
        assert repeats >= 100


def test_case3_parent_without_common_neighbor_is_rejected(monkeypatch):
    """A mutation: the case-3 rows' gathered entries are all shifted by
    one, so no neighbor relays p1 and the common-neighbor check fires.
    On the path 0 - 1 - 2 with c1 = (2, 3, 1), vertex 0 is case 3."""
    from repro.core import clustering_vectorized as cv

    real = cv.ragged_gather

    def lossy(offsets, flat, slots):
        values, counts = real(offsets, flat, slots)
        return values + 1, counts

    monkeypatch.setattr(cv, "ragged_gather", lossy)
    h = _csr({0: {1}, 1: {0, 2}, 2: {1}}, ids=[10, 11, 12])
    c1 = np.array([2, 3, 1], dtype=np.int64)
    with pytest.raises(ProtocolError, match="node 10: 2-hop parent shares"):
        cv._lemma15_parents(h, c1)


# -- the batched Linial step against the scalar rule -------------------------


def _relayed(adj):
    """The relayed conflict rows: (v, w) for every path v - u - w, w != v,
    with repeats, as the distance-2 prologue builds them."""
    return {v: [w for u in sorted(adj[v]) for w in sorted(adj[u]) if w != v]
            for v in adj}


def _linial_cases(distance):
    """Random graphs, proper colorings at ``distance``, the conflict CSRs
    and one step's (d, q): yields ``(colors, csrs, d, q, conflicts)``."""
    rng = random.Random(distance)
    for _ in range(150):
        adj = _random_graph(rng, rng.randrange(2, 40))
        n = len(adj)
        if distance == 1:
            conflicts = {v: set(adj[v]) for v in adj}
            csrs = [_rows_csr({v: sorted(adj[v]) for v in adj})]
        else:
            conflicts = {v: _two_hop(adj, v) for v in adj}
            relayed = _relayed(adj)
            csrs = [_rows_csr({v: sorted(adj[v]) for v in adj}),
                    _rows_csr(relayed)]
        degree = max(len(c) for c in conflicts.values())
        palette = rng.choice([(degree + 2) ** 3, (degree + 2) ** 5, 10**9])
        coloring = {}
        for v in rng.sample(range(n), n):
            taken = {coloring[u] for u in conflicts[v] if u in coloring}
            while (c := rng.randrange(palette)) in taken:
                pass
            coloring[v] = c
        params = step_parameters(palette, degree)
        if params is None:
            continue
        d, q = params
        colors = np.array([coloring[v] for v in range(n)], dtype=np.int64)
        yield colors, csrs, d, q, conflicts


@pytest.mark.parametrize("distance", [1, 2], ids=["one_csr", "two_csrs"])
def test_linial_step_pairs_matches_the_scalar_rule(distance):
    seen = 0
    for colors, csrs, d, q, conflicts in _linial_cases(distance):
        got = _linial_step_pairs(colors, csrs, d, q)
        want = [
            _reduce_one(v, int(colors[v]),
                        {int(colors[u]) for u in conflicts[v]}, d, q)
            for v in range(len(colors))
        ]
        assert got.tolist() == want
        seen += 1
    assert seen >= 100


@pytest.mark.parametrize("distance", [1, 2], ids=["one_csr", "two_csrs"])
def test_linial_first_point_gathers_nothing(distance, monkeypatch):
    """x = 0 reads the CSRs as they stand; each later point gathers its
    frontier once per CSR and deduplicates it once."""
    gathers = _spy_on(monkeypatch, "ragged_gather")
    uniques = _spy_on(monkeypatch, "sorted_unique")
    later = 0
    for colors, csrs, d, q, _ in _linial_cases(distance):
        gathers.clear()
        uniques.clear()
        got = _linial_step_pairs(colors, csrs, d, q)
        points = int((got // q).max()) + 1
        assert len(gathers) == (points - 1) * len(csrs)
        assert len(uniques) == points - 1
        later += points > 1
    # Enough steps go past x = 0 for the counts to mean something.
    assert later >= 50


def test_linial_improper_coloring_is_rejected():
    """Two neighbors with one color share every evaluation point."""
    csr = _rows_csr({0: [1], 1: [0, 2], 2: [1]}, ids=[10, 11, 12])
    colors = np.array([5, 5, 7], dtype=np.int64)
    with pytest.raises(ProtocolError, match="node 10: no safe evaluation"):
        _linial_step_pairs(colors, [csr], 1, 5)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize(
    "graph", [lambda s: gnp(70, 0.12, seed=s), lambda s: random_tree(50, seed=s)],
    ids=["gnp70", "tree50"],
)
def test_virtual_graph_matches_per_node_brute_force(graph, seed):
    """Few labels, so clusters have several (not necessarily connected)
    members; inactive slots are in no cluster and no edge."""
    g = graph(seed)
    ga = g.arrays
    rng = np.random.default_rng(seed)
    label = rng.integers(1, 9, ga.n)
    active = rng.random(ga.n) < 0.75
    h, hidx, x, intra = _virtual_graph(g, label, active)
    hlabels, hoff, hflat, hdeg, hes = (
        h.ids, h.offsets, h.flat, h.degrees, h.edge_sources
    )
    xoff, xdst, xsrc = x.offsets, x.flat, x.edge_sources
    assert x.ids is ga.ids
    assert (x.degrees == np.diff(xoff)).all()
    assert hlabels.tolist() == sorted(set(label[active].tolist()))
    h_adj = {c: set() for c in hlabels.tolist()}
    for v in range(ga.n):
        nbrs = ga.flat[ga.offsets[v]:ga.offsets[v + 1]].tolist()
        on = [u for u in nbrs if active[v] and active[u]]
        foreign = [u for u in on if label[u] != label[v]]
        row = slice(xoff[v], xoff[v + 1])
        assert xdst[row].tolist() == foreign
        assert (xsrc[row] == v).all()
        assert intra[v] == len(on) - len(foreign)
        if active[v]:
            assert hlabels[hidx[v]] == label[v]
            h_adj[int(label[v])].update(int(label[u]) for u in foreign)
    assert xoff[-1] == xdst.size == xsrc.size
    assert intra.any() and xdst.size
    for j, c in enumerate(hlabels.tolist()):
        row = hflat[hoff[j]:hoff[j + 1]]
        assert hlabels[row].tolist() == sorted(h_adj[c])
        assert hdeg[j] == row.size
        assert (hes[hoff[j]:hoff[j + 1]] == j).all()


def test_kernel_working_set_is_linear_in_graph_size():
    """gnp(512, 0.5) has Σ deg² ≈ 3·10⁷: any per-phase array of
    relayed triples costs gigabytes and breaks the 256 B bound."""
    g = gnp(512, 0.5, seed=0, method="fast")
    units = g.n + len(g.arrays.flat)
    b = default_b(g.n)
    tracemalloc.start()
    try:
        _clustering_kernel(g, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 256 * units, (
        f"kernel peak {peak / 1e6:.1f} MB = {peak / units:.0f} B per "
        f"(n + 2m) unit > 256 B"
    )


# -- phase 1's H is G; the H BFS covers residual trees only ------------------


def _spy_on(monkeypatch, name):
    """Record every call of a kernel helper, then run it."""
    from repro.core import clustering_vectorized as cv

    calls = []
    real = getattr(cv, name)

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(cv, name, spy)
    return calls


def test_all_singleton_phase_builds_no_h_and_seeds_no_bfs(monkeypatch):
    """Δ < b: every cluster dissolves in phase 1, whose H is G's own
    CSR, and no F2 tree is residual, so the H-level BFS has no source."""
    n, b = 1 << 12, 32
    g = gnp(n, 8 / n, seed=0, method="fast")
    assert g.arrays.max_degree < b
    builds = _spy_on(monkeypatch, "_virtual_graph")
    searches = _spy_on(monkeypatch, "_masked_bfs")
    phase, _, _, _ = _clustering_kernel(g, b)
    assert int(phase.max()) == 1
    assert builds == []
    assert len(searches) == 1
    csr, sources, _, _ = searches[0]
    assert csr is g.arrays
    assert sources.size == 0


@pytest.mark.parametrize(
    "graph,b",
    [
        (lambda: build_family_graph("gnp", 48, seed=0), 1),
        (lambda: gnp(1 << 12, 8 / (1 << 12), seed=0, method="fast"), None),
    ],
    ids=["gnp48-b1", "gnp4096"],
)
def test_one_h_build_per_phase_after_a_residual(graph, b, monkeypatch):
    g = graph()
    b = b if b is not None else default_b(g.n)
    builds = _spy_on(monkeypatch, "_virtual_graph")
    searches = _spy_on(monkeypatch, "_masked_bfs")
    phase, _, _, _ = _clustering_kernel(g, b)
    last = int(phase.max())
    assert last >= 2
    assert len(builds) == last - 1
    # Over G's CSR: phase 1's forest BFS, which its merge reuses, and
    # the merge BFS of each phase from 2 to last - 1.
    on_g = [c for c in searches if c[0] is g.arrays]
    assert len(on_g) == last - 1


@pytest.mark.parametrize(
    "graph,b",
    [
        (lambda: random_tree(400, seed=0), 3),
        (lambda: gnp(1 << 12, 64 / (1 << 12), seed=0, method="fast"), None),
    ],
    ids=["tree400-b3", "gnp4096-deg64"],
)
def test_active_rounds_add_over_windows(graph, b, monkeypatch):
    """The kernel sums each reserved window's distinct rounds; one global
    dedupe of every window's absolute rounds gives the same count, on
    runs whose later Lemma 15 windows hold several depths and whose
    merges fill Lemma 14 windows."""
    from repro.core import clustering_vectorized as cv

    g = graph()
    b = b if b is not None else default_b(g.n)
    real_phase, real_count = cv._run_phase, cv._window_rounds
    starts = []
    windows = []  # (lemma, first round, per-depth (vrs, offs), window)

    def run_phase(*args):
        clock, clock_14 = args[4], args[5]
        starts.extend([(15, clock), (14, clock_14)])
        return real_phase(*args)

    def count(chunks, window):
        lemma, start = starts.pop(0)
        windows.append((lemma, start, chunks, window))
        return real_count(chunks, window)

    monkeypatch.setattr(cv, "_run_phase", run_phase)
    monkeypatch.setattr(cv, "_window_rounds", count)
    *_, accounting = _clustering_kernel(g, b)

    rounds = np.concatenate([
        (start + vrs[:, None] * window + offs[None, :]).ravel()
        for _, start, chunks, window in windows
        for vrs, offs in chunks
    ])
    assert accounting.active_rounds == sorted_unique(rounds).size
    for _, _, chunks, window in windows:
        for vrs, offs in chunks:
            assert (np.diff(vrs) > 0).all() and (np.diff(offs) > 0).all()
            assert 0 <= offs[0] and offs[-1] < window
    assert any(lemma == 15 and len(chunks) > 1 for lemma, _, chunks, _ in windows)
    assert any(lemma == 14 for lemma, _, _, _ in windows)


def test_singleton_tree_parent_off_h_is_rejected(monkeypatch):
    """A depth-2 vertex of a low-degree-rooted tree re-pointed at its
    tree's root, which is not its H neighbor: the tree stays connected
    in H, but its F2 parent edge is not an H edge."""
    from repro.core import clustering_vectorized as cv

    n, b = 1 << 12, 32
    g = gnp(n, 8 / n, seed=0, method="fast")
    real = cv._lemma15_parents
    moved = []

    def mutated(h, c1):
        p1, p2, c2, root_h = real(h, c1)
        p2 = p2.copy()
        for v in range(len(p2)):
            u = int(p2[v])
            if u < 0 or p2[u] < 0 or p2[p2[u]] >= 0:
                continue
            root = int(p2[u])
            if root not in h.flat[h.offsets[v]:h.offsets[v + 1]]:
                p2[v] = root
                moved.append(v)
                break
        return p1, p2, c2, root_h

    monkeypatch.setattr(cv, "_lemma15_parents", mutated)
    with pytest.raises(ProtocolError, match="is not connected in G"):
        _clustering_kernel(g, b)
    assert moved


def test_round_past_int64_is_refused_before_array_work(monkeypatch):
    """gnp(2048) under ``poly5`` IDs: the Theorem 13 duration alone is 66
    bits long, so the vectorized engine names its limit and the
    simulator instead of overflowing inside the kernel."""
    n = 2048
    scenario = Scenario(
        family="gnp", n=n, ids="poly5", problem="mis",
        algorithm="theorem1", engine="vectorized",
        params={"p": 8 / n, "method": "fast"},
    )
    kernel = _spy_on(monkeypatch, "_clustering_kernel")
    refusal = r"int64 round limit .*simulator engine"
    with pytest.raises(ReproError, match=refusal):
        run_scenario(scenario)
    with pytest.raises(ReproError, match=refusal):
        compute_clustering_vectorized(scenario.build_graph())
    assert kernel == []
