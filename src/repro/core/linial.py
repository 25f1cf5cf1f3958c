"""Linial's color reduction [Lin92], distance-1 and distance-2 variants.

One reduction step maps a proper k-coloring to a proper q²-coloring in one
communication round (two for distance-2 conflicts), where q is a prime with
``q > D·d`` and ``q^{d+1} >= k`` (D = conflict degree, d = polynomial
degree). A node's color is read as the coefficient vector of a degree-d
polynomial over F_q; the node picks an evaluation point x where it differs
from *all* conflicting polynomials — at most D·d < q points are bad — and
adopts the pair (x, p(x)) as its new color.

Iterating reaches the fixed-point palette ``q*² = next_prime(D+1)²`` in
O(log* k) steps; the step parameters depend only on (k, D), so all nodes
compute identical schedules — crucial in the Sleeping model where the wake
calendar must be agreed upon without communication. :func:`step_parameters`
is memoized: a simulation shortcut for "every node computes the same pure
function", not state shared between nodes in the model.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Any, Generator, Iterable

from repro.errors import ProtocolError
from repro.model.actions import AwakeAt
from repro.types import NodeId, Payload
from repro.util.mathx import base_q_digits, eval_poly_mod, next_prime

Proto = Generator[AwakeAt, dict[NodeId, Payload], Any]


def fixed_point_palette(conflict_degree: int) -> int:
    """The smallest terminal palette: next_prime(D+1)² = O(D²).

    This is where the reduction lands when it can take d=1 steps all the
    way down. From awkward intermediate palettes it may halt earlier —
    :func:`repro.core.lemma15.singleton_palette` computes the *largest*
    possible terminal palette (≤ 64·D²), which is what Lemma 15's color
    bound must use.
    """
    q = next_prime(conflict_degree + 1)
    return q * q


def _ceil_root(k: int, e: int) -> int:
    """Smallest r >= 1 with r^e >= k (exact integer arithmetic; no floats,
    so arbitrarily large palettes are handled)."""
    if k <= 1:
        return 1
    # Binary search on r; k.bit_length() bounds the answer comfortably.
    lo, hi = 1, 1 << (k.bit_length() // e + 1)
    while lo < hi:
        mid = (lo + hi) // 2
        if mid**e >= k:
            hi = mid
        else:
            lo = mid + 1
    return lo


@lru_cache(maxsize=1 << 12)
def step_parameters(palette: int, conflict_degree: int) -> tuple[int, int] | None:
    """The (d, q) minimizing the next palette q², or None at the fixed point.

    Deterministic in (palette, conflict_degree) so every node agrees. A run
    asks for a few distinct keys once per node per phase; the cache bound
    only keeps a long-lived process (``repro serve``) from growing without
    limit.
    """
    d_max = max(1, palette.bit_length())
    best: tuple[int, int] | None = None
    for d in range(1, d_max + 1):
        q = next_prime(max(conflict_degree * d + 1, _ceil_root(palette, d + 1)))
        if best is None or q * q < best[1] ** 2:
            best = (d, q)
    assert best is not None
    d, q = best
    if q * q >= palette:
        return None
    return d, q


def reduction_schedule(palette: int, conflict_degree: int) -> list[tuple[int, int]]:
    """The full deterministic sequence of (d, q) steps until fixed point."""
    schedule = []
    k = palette
    while True:
        params = step_parameters(k, conflict_degree)
        if params is None:
            return schedule
        schedule.append(params)
        k = params[1] ** 2


def num_steps(palette: int, conflict_degree: int) -> int:
    """Number of reduction steps to the fixed point — O(log* palette)."""
    return len(reduction_schedule(palette, conflict_degree))


def final_palette(palette: int, conflict_degree: int) -> int:
    """Palette size after running the reduction to its fixed point."""
    schedule = reduction_schedule(palette, conflict_degree)
    return schedule[-1][1] ** 2 if schedule else palette


def linial_duration(palette: int, conflict_degree: int, distance: int = 1) -> int:
    """Window length: ``distance`` rounds per step (1-hop or 2-hop)."""
    return num_steps(palette, conflict_degree) * distance


def linial_coloring(
    me: NodeId,
    peers: Iterable[NodeId],
    color: int,
    palette: int,
    conflict_degree: int,
    t0: int,
    distance: int = 1,
    conflict_peers: frozenset[NodeId] | None = None,
) -> Proto:
    """Reduce a proper ``palette``-coloring to the fixed-point palette.

    Args:
        me: this node's ID.
        peers: neighbors participating in the protocol (messages go to all
            of them; with ``distance=2`` they also relay second-hop colors).
        color: current color in ``[0, palette)``; must be proper at the
            required distance w.r.t. the conflict set.
        palette: common knowledge palette bound.
        conflict_degree: common upper bound D on the number of conflicting
            nodes per node (Δ for distance 1, Δ² for distance 2).
        t0: first round of the reserved window.
        distance: 1 (proper coloring) or 2 (distance-2 coloring).
        conflict_peers: optional restriction — only colors of these nodes
            (and their relayed 2-hop colors) are treated as conflicts. Used
            when running on an induced subgraph such as G[U] in Lemma 15.

    Returns:
        The final color in ``[0, final_palette(palette, conflict_degree))``.

    Awake rounds: ``distance`` per reduction step, O(log* palette) total.
    """
    if distance not in (1, 2):
        raise ProtocolError(f"distance must be 1 or 2, got {distance}")
    peers = tuple(peers)
    if color < 0 or color >= palette:
        raise ProtocolError(f"color {color} outside palette [0, {palette})")

    round_now = t0
    k = palette
    while True:
        params = step_parameters(k, conflict_degree)
        if params is None:
            return color
        d, q = params

        inbox = yield AwakeAt(round_now, {u: ("linial1", color) for u in peers})
        neighbor_colors = {
            u: msg[1]
            for u, msg in inbox.items()
            if msg[0] == "linial1"
            and (conflict_peers is None or u in conflict_peers)
        }
        conflict_colors = set(neighbor_colors.values())
        if distance == 2:
            relay = dict(neighbor_colors)
            inbox = yield AwakeAt(
                round_now + 1, {u: ("linial2", relay) for u in peers}
            )
            for u, msg in inbox.items():
                if msg[0] != "linial2":
                    continue
                if conflict_peers is not None and u not in conflict_peers:
                    continue
                for w, w_color in msg[1].items():
                    if w != me and (
                        conflict_peers is None or w in conflict_peers
                    ):
                        conflict_colors.add(w_color)
        round_now += distance

        color = _reduce_one(me, color, conflict_colors, d, q)
        k = q * q


def _reduce_one(
    me: NodeId, color: int, conflict_colors: set[int], d: int, q: int
) -> int:
    """Pick x with p_me(x) != p_u(x) for all conflicting polynomials."""
    mine = base_q_digits(color, q, d + 1)
    others = [base_q_digits(c, q, d + 1) for c in conflict_colors]
    for x in range(q):
        yx = eval_poly_mod(mine, x, q)
        if all(eval_poly_mod(other, x, q) != yx for other in others):
            return x * q + yx
    raise ProtocolError(
        f"node {me}: no safe evaluation point in F_{q} — the input coloring "
        f"was not proper or the degree bound was violated"
    )
