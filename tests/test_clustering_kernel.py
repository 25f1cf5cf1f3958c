"""Internals of the Theorem 13 array kernel.

- the Lemma 15 parent rule (``_lemma15_parents``) against a dict-based
  brute force over explicit 2-balls;
- the kernel's working set stays linear in the graph size: no array of
  Σ deg_H² relayed triples on the default ID schemes.
"""

import random
import tracemalloc

import numpy as np

from repro.core.clustering_vectorized import _clustering_kernel, _lemma15_parents
from repro.core.theorem13 import default_b
from repro.graphs import gnp


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
        labels = np.arange(1, n + 1, dtype=np.int64)

        p1, p2, c2, root_h = _lemma15_parents(hoff, hflat, c1, labels)
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
