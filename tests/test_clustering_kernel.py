"""Internals of the Theorem 13 array kernel.

- the Lemma 15 parent rule (``_lemma15_parents``) against a dict-based
  brute force over explicit 2-balls;
- the kernel's working set stays linear in the graph size: no array of
  Σ deg_H² relayed triples on the default ID schemes;
- phase 1 runs on G's own CSR, each later phase on the H its
  predecessor's merge built, and only residual F2 trees get an H-level
  BFS; a low-degree-rooted tree whose parent edge leaves H is rejected.
"""

import random
import tracemalloc

import numpy as np
import pytest

from repro.core.clustering_vectorized import _clustering_kernel, _lemma15_parents
from repro.core.theorem13 import default_b
from repro.errors import ProtocolError
from repro.graphs import gnp
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
            p1[v] = min(two_hop, key=lambda w: c1[w])
            p2[v] = min(u for u in nbrs if p1[v] in adj[u])
            c2[v] = 2 * c1[p1[v]] + 1
    return p1, p2, c2


def test_lemma15_parents_match_brute_force():
    rng = random.Random(0)
    cases = {"root": 0, "direct": 0, "two_hop": 0}
    for _ in range(300):
        n = rng.randrange(1, 30)
        adj = _random_graph(rng, n)
        # A random permutation: distinct everywhere, so on every 2-ball.
        perm = list(range(1, n + 1))
        rng.shuffle(perm)
        c1 = np.array(perm, dtype=np.int64)
        hoff = np.zeros(n + 1, dtype=np.int64)
        np.cumsum([len(adj[v]) for v in range(n)], out=hoff[1:])
        hflat = np.array(
            [u for v in range(n) for u in sorted(adj[v])], dtype=np.int64
        )
        hes = np.repeat(np.arange(n, dtype=np.int64), np.diff(hoff))
        labels = np.arange(1, n + 1, dtype=np.int64)

        p1, p2, c2, root_h = _lemma15_parents(hoff, hflat, hes, c1, labels)
        want_p1, want_p2, want_c2 = _brute_force_parents(adj, c1)
        assert p1.tolist() == [want_p1[v] for v in range(n)]
        assert p2.tolist() == [want_p2[v] for v in range(n)]
        assert c2.tolist() == [want_c2[v] for v in range(n)]
        assert root_h.tolist() == [want_p1[v] < 0 for v in range(n)]
        for v in range(n):
            if want_p1[v] < 0:
                cases["root"] += 1
            elif want_p1[v] == want_p2[v]:
                cases["direct"] += 1
            else:
                cases["two_hop"] += 1
    # Every branch of the rule is exercised, case 3 included.
    assert min(cases.values()) >= 50, cases


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
    offsets, flat, sources, _, _ = searches[0]
    assert offsets is g.arrays.offsets and flat is g.arrays.flat
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
    phase, _, _, _ = _clustering_kernel(g, b)
    assert int(phase.max()) >= 2
    assert len(builds) == int(phase.max()) - 1


def test_singleton_tree_parent_off_h_is_rejected(monkeypatch):
    """A depth-2 vertex of a low-degree-rooted tree re-pointed at its
    tree's root, which is not its H neighbor: the tree stays connected
    in H, but its F2 parent edge is not an H edge."""
    from repro.core import clustering_vectorized as cv

    n, b = 1 << 12, 32
    g = gnp(n, 8 / n, seed=0, method="fast")
    real = cv._lemma15_parents
    moved = []

    def mutated(hoff, hflat, hes, c1, labels):
        p1, p2, c2, root_h = real(hoff, hflat, hes, c1, labels)
        p2 = p2.copy()
        for v in range(len(p2)):
            u = int(p2[v])
            if u < 0 or p2[u] < 0 or p2[p2[u]] >= 0:
                continue
            root = int(p2[u])
            if root not in hflat[hoff[v]:hoff[v + 1]]:
                p2[v] = root
                moved.append(v)
                break
        return p1, p2, c2, root_h

    monkeypatch.setattr(cv, "_lemma15_parents", mutated)
    with pytest.raises(ProtocolError, match="is not connected in G"):
        _clustering_kernel(g, b)
    assert moved
