"""Graph family generators used by tests, examples and benchmarks.

All generators return connected :class:`StaticGraph` instances and accept an
optional :class:`IdAssignment`; by default nodes get identity IDs ``1..n``.
Randomized families take an explicit ``seed`` so every experiment is
reproducible bit-for-bit.
"""

from __future__ import annotations

import math
import random

import networkx as nx

from repro.errors import GraphError
from repro.graphs.graph import StaticGraph
from repro.obs.spans import span
from repro.util.idspace import IdAssignment


def path(n: int, ids: IdAssignment | None = None) -> StaticGraph:
    """The n-node path P_n."""
    _require(n >= 1, f"path needs n >= 1, got {n}")
    return StaticGraph.from_networkx(nx.path_graph(n), ids)


def cycle(n: int, ids: IdAssignment | None = None) -> StaticGraph:
    """The n-node cycle C_n (n >= 3)."""
    _require(n >= 3, f"cycle needs n >= 3, got {n}")
    return StaticGraph.from_networkx(nx.cycle_graph(n), ids)


def complete_graph(n: int, ids: IdAssignment | None = None) -> StaticGraph:
    """K_n — the maximum-degree extreme (Δ = n-1)."""
    _require(n >= 1, f"complete_graph needs n >= 1, got {n}")
    return StaticGraph.from_networkx(nx.complete_graph(n), ids)


def star(n: int, ids: IdAssignment | None = None) -> StaticGraph:
    """Star with one hub and n-1 leaves."""
    _require(n >= 2, f"star needs n >= 2, got {n}")
    return StaticGraph.from_networkx(nx.star_graph(n - 1), ids)


def grid(rows: int, cols: int, ids: IdAssignment | None = None) -> StaticGraph:
    """rows × cols grid — a bounded-degree planar family."""
    _require(rows >= 1 and cols >= 1, "grid needs positive dimensions")
    return StaticGraph.from_networkx(nx.grid_2d_graph(rows, cols), ids)


def hypercube(dim: int, ids: IdAssignment | None = None) -> StaticGraph:
    """The dim-dimensional hypercube (n = 2^dim, Δ = dim = log n)."""
    _require(dim >= 1, f"hypercube needs dim >= 1, got {dim}")
    return StaticGraph.from_networkx(nx.hypercube_graph(dim), ids)


def random_tree(n: int, seed: int = 0, ids: IdAssignment | None = None) -> StaticGraph:
    """Uniform random labeled tree on n nodes (via a random Prüfer sequence)."""
    _require(n >= 1, f"random_tree needs n >= 1, got {n}")
    if n <= 2:
        return path(n, ids)
    rng = random.Random(seed)
    prufer = [rng.randrange(n) for _ in range(n - 2)]
    tree = nx.from_prufer_sequence(prufer)
    return StaticGraph.from_networkx(tree, ids)


def caterpillar(
    spine: int, legs_per_node: int, ids: IdAssignment | None = None
) -> StaticGraph:
    """A caterpillar: a spine path with ``legs_per_node`` pendant leaves per
    spine node. Tunable degree with tiny treewidth."""
    _require(spine >= 1 and legs_per_node >= 0, "invalid caterpillar shape")
    g = nx.path_graph(spine)
    next_node = spine
    for s in range(spine):
        for _ in range(legs_per_node):
            g.add_edge(s, next_node)
            next_node += 1
    return StaticGraph.from_networkx(g, ids)


def barbell(clique: int, bridge: int, ids: IdAssignment | None = None) -> StaticGraph:
    """Two cliques of size ``clique`` joined by a path of ``bridge`` nodes —
    mixes Δ = clique-1 hubs with a long low-degree corridor."""
    _require(clique >= 3, f"barbell needs clique >= 3, got {clique}")
    return StaticGraph.from_networkx(nx.barbell_graph(clique, bridge), ids)


def gnp(
    n: int,
    p: float,
    seed: int = 0,
    ids: IdAssignment | None = None,
    method: str = "binomial",
) -> StaticGraph:
    """Erdős–Rényi G(n, p), patched to be connected by linking components
    along a deterministic spanning chain.

    ``method`` selects the sampler: ``"binomial"`` (the default) walks
    all n² pairs via :func:`nx.gnp_random_graph`; ``"fast"`` is the
    Batagelj–Brandes geometric-skip walk in O(n + m) expected time, the
    only practical choice at n ≈ 10^5–10^6. ``"fast"`` needs numpy: it
    samples straight into int64 CSR arrays and draws, bit for bit, the
    graph networkx's :func:`nx.fast_gnp_random_graph` plus the same
    connectivity patch would give (for ``p`` outside ``(0, 1)`` it falls
    back to the binomial sampler, as networkx does). The two samplers
    draw different graphs for the same seed — ``method="fast"``
    deliberately breaks seed compatibility with the default in exchange
    for scale.
    """
    _require(n >= 1 and 0.0 <= p <= 1.0, "invalid gnp parameters")
    _require(
        method in ("binomial", "fast"),
        f"gnp method must be 'binomial' or 'fast', got {method!r}",
    )
    if method == "fast" and 0.0 < p < 1.0:
        return _fast_gnp(n, p, seed, ids)
    g = nx.gnp_random_graph(n, p, seed=seed)
    _connect(g, seed)
    return StaticGraph.from_networkx(g, ids)


def _fast_gnp(
    n: int, p: float, seed: int, ids: IdAssignment | None
) -> StaticGraph:
    """The array-native ``gnp(method="fast")``: skip walk, component
    chain, ID relabelling, CSR."""
    import numpy as np

    from repro.graphs.arrays import component_minima

    with span("graphs.sample", n=n):
        higher, lower = _skip_walk_pairs(n, p, seed)
        # The per-slot labels die here: the build sets scale runs' peak.
        minima = np.flatnonzero(
            component_minima(n, higher, lower)
            == np.arange(n, dtype=np.int64)
        )
        higher = np.concatenate((higher, minima[1:]))
        lower = np.concatenate((lower, minima[:-1]))
    with span("graphs.csr", n=n):
        if ids is None:
            node_ids, space = np.arange(1, n + 1, dtype=np.int64), max(n, 1)
        else:
            _require(
                ids.n == n, f"ID assignment has {ids.n} ids for {n} nodes"
            )
            by_node = np.asarray(ids.ids, dtype=np.int64)
            order = np.argsort(by_node, kind="stable")
            slot = np.empty(n, dtype=np.int64)
            slot[order] = np.arange(n, dtype=np.int64)
            node_ids, space = by_node[order], ids.space
            higher, lower = slot[higher], slot[lower]
        return StaticGraph.from_edge_arrays(node_ids, higher, lower, space)


def _skip_walk_pairs(n: int, p: float, seed: int, batch: int = 0):
    """The edges of :func:`nx.fast_gnp_random_graph` as arrays ``(v, w)``,
    ``w < v``, in the order networkx adds them.

    The walk visits the pairs ``(1, 0), (2, 0), (2, 1), (3, 0), ...`` by
    linear index ``v(v-1)/2 + w`` and jumps ``1 + int(log(1 - r) /
    log(1 - p))`` each step, ``r`` drawn by ``random.Random(seed)``. A
    numpy ``RandomState`` seeded with that generator's Mersenne Twister
    state yields the same doubles, and :func:`_skip_jumps` truncates
    their quotients exactly as networkx's :func:`math.log` does. Draws
    come ``batch`` at a time; the default is enough for the whole walk
    with overwhelming probability.
    """
    import numpy as np

    total = n * (n - 1) // 2
    log_q = math.log(1.0 - p)
    if log_q == 0.0:  # 1 - p rounds to 1: no pair is ever chosen
        empty = np.zeros(0, dtype=np.int64)
        return empty, empty
    state = random.Random(seed).getstate()[1]
    stream = np.random.RandomState()
    stream.set_state(("MT19937", np.asarray(state[:-1], np.uint32), state[-1]))
    if batch <= 0:
        mean = p * total  # edges are Binomial(total, p): mean + 6 sd + slack
        batch = int(mean + 6.0 * math.sqrt(mean)) + 64
    chunks, last = [], -1
    while True:
        rest = 1.0 - stream.random_sample(batch)
        jumps = _skip_jumps(rest, np.log(rest), log_q, total)
        index = np.cumsum(jumps + 1) + last
        inside = int(np.searchsorted(index, total))
        chunks.append(index[:inside])
        if inside < batch:
            break
        last = int(index[-1])
    return _unrank_pairs(np.concatenate(chunks))


#: Relative distance to the nearest integer below which a skip-walk
#: quotient is recomputed with :func:`math.log`; far wider than the
#: last-ulp difference of any libm or SIMD ``log``.
_LOG_MARGIN = 2.0**-30


def _skip_jumps(rest, logs, log_q: float, total: int):
    """``int(math.log(r) / log_q)`` for every draw ``r`` in ``rest``,
    capped at ``total`` (any jump past the end ends the walk).

    ``logs`` is ``np.log(rest)``, which may differ from :func:`math.log`
    in the last ulp. That can only change the truncated quotient where
    it lies next to an integer, so exactly those draws are redone with
    :func:`math.log`, and every jump equals networkx's.
    """
    import numpy as np

    jumps = logs / log_q
    near = np.abs(jumps - np.rint(jumps)) <= jumps * _LOG_MARGIN
    if near.any():
        exact = map(math.log, rest[near].tolist())
        jumps[near] = np.fromiter(exact, np.float64) / log_q
    np.minimum(jumps, float(total), out=jumps)
    return jumps.astype(np.int64)


def _unrank_pairs(index):
    """Invert ``index = v(v-1)/2 + w`` (``0 <= w < v``) to ``(v, w)``."""
    import numpy as np

    v = ((1.0 + np.sqrt(1.0 + 8.0 * index)) / 2.0).astype(np.int64)
    while True:  # the float root is off by at most a few: correct it
        low = v * (v - 1) // 2 > index
        high = v * (v + 1) // 2 <= index
        if not (low.any() or high.any()):
            return v, index - v * (v - 1) // 2
        v += high.astype(np.int64) - low.astype(np.int64)


def random_regular(
    n: int, degree: int, seed: int = 0, ids: IdAssignment | None = None
) -> StaticGraph:
    """Random d-regular graph (n·d even, d < n), connected-patched."""
    _require(degree < n and (n * degree) % 2 == 0, "invalid regular parameters")
    g = nx.random_regular_graph(degree, n, seed=seed)
    _connect(g, seed)
    return StaticGraph.from_networkx(g, ids)


def preferential_attachment(
    n: int, m: int, seed: int = 0, ids: IdAssignment | None = None
) -> StaticGraph:
    """Barabási–Albert graph: power-law degrees, Δ grows polynomially in n —
    the regime where the paper beats the BM21 baseline."""
    _require(1 <= m < n, f"need 1 <= m < n, got m={m}, n={n}")
    g = nx.barabasi_albert_graph(n, m, seed=seed)
    _connect(g, seed)
    return StaticGraph.from_networkx(g, ids)


def clustered_graph(
    num_clusters: int,
    cluster_size: int,
    inter_edges: int = 1,
    seed: int = 0,
    ids: IdAssignment | None = None,
) -> StaticGraph:
    """Dense blobs sparsely interconnected — a natural fit for BFS-clustering
    experiments (the decomposition should roughly recover the blobs)."""
    _require(num_clusters >= 1 and cluster_size >= 1, "invalid cluster shape")
    rng = random.Random(seed)
    g = nx.Graph()
    blocks: list[list[int]] = []
    node = 0
    for _ in range(num_clusters):
        members = list(range(node, node + cluster_size))
        node += cluster_size
        blocks.append(members)
        for i, u in enumerate(members):
            for v in members[i + 1 :]:
                if rng.random() < 0.7:
                    g.add_edge(u, v)
        g.add_nodes_from(members)
        _connect_within(g, members, rng)
    for i in range(1, num_clusters):
        for _ in range(inter_edges):
            u = rng.choice(blocks[i - 1])
            v = rng.choice(blocks[i])
            g.add_edge(u, v)
    return StaticGraph.from_networkx(g, ids)


def _connect(g: nx.Graph, seed: int) -> None:
    """Join connected components with single edges, deterministically."""
    components = [sorted(c) for c in nx.connected_components(g)]
    components.sort(key=lambda c: c[0])
    for prev, cur in zip(components, components[1:]):
        g.add_edge(prev[0], cur[0])


def _connect_within(g: nx.Graph, members: list[int], rng: random.Random) -> None:
    sub = g.subgraph(members)
    components = [sorted(c) for c in nx.connected_components(sub)]
    components.sort(key=lambda c: c[0])
    for prev, cur in zip(components, components[1:]):
        g.add_edge(prev[0], cur[0])


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise GraphError(message)
