"""A numpy mirror of the CSR graph index, for the vectorized engine.

:class:`GraphArrays` re-exports the Python-list CSR layout of
:class:`~repro.graphs.graph._GraphIndex` as int64 numpy arrays, plus the
per-edge source slots the bulk-synchronous kernels need. It is built
lazily and cached on the owning :class:`~repro.graphs.graph.StaticGraph`,
exactly like the index itself, so graphs that never meet the vectorized
engine never pay for it — and :mod:`repro.graphs.graph` never imports
numpy.
Array-native samplers go the other way: they build the columns first
(:func:`csr_from_edges`, checked by :meth:`GraphArrays.from_csr`) and
hand them to :meth:`StaticGraph.from_arrays
<repro.graphs.graph.StaticGraph.from_arrays>`.

Slot order is ID order: ``_GraphIndex.nodes`` is sorted ascending, so
``slot_u < slot_v  ⇔  id_u < id_v`` and the kernels compare slots where
the sequential code compares IDs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.errors import GraphError

if TYPE_CHECKING:
    from repro.graphs.graph import _GraphIndex


@dataclass(frozen=True)
class GraphArrays:
    """int64 CSR arrays of a graph, slot-addressed (slot ``i`` ↔ ``ids[i]``).

    Attributes:
        ids: node IDs, ascending (shape ``(n,)``).
        offsets: CSR row pointers (shape ``(n + 1,)``);
            ``flat[offsets[i]:offsets[i + 1]]`` are slot i's neighbors.
        flat: neighbor *slots*, concatenated in per-node sorted order
            (shape ``(2E,)``).
        degrees: per-slot degree (shape ``(n,)``).
    """

    ids: Any
    offsets: Any
    flat: Any
    degrees: Any

    @classmethod
    def from_index(cls, index: "_GraphIndex") -> "GraphArrays":
        """Mirror a built :class:`_GraphIndex` into numpy arrays."""
        return cls(
            ids=np.asarray(index.nodes, dtype=np.int64),
            offsets=np.asarray(index.offsets, dtype=np.int64),
            flat=np.asarray(index.flat_slots, dtype=np.int64),
            degrees=np.asarray(index.degrees, dtype=np.int64),
        )

    @classmethod
    def from_csr(
        cls, ids: Any, offsets: Any, flat: Any, id_space: int
    ) -> "GraphArrays":
        """Check int64 CSR columns and wrap them (degrees derived).

        Raises :class:`~repro.errors.GraphError` unless the columns form
        a simple undirected graph: IDs unique, ascending and in
        ``[1, id_space]``; ``offsets`` delimiting ``flat`` row by row;
        every neighbor slot in range, not a self-loop, unique and
        ascending within its row; every edge present in both directions.
        """
        ids, offsets, flat = (
            np.ascontiguousarray(a, dtype=np.int64) for a in (ids, offsets, flat)
        )
        n = ids.size
        if (
            ids.ndim != 1 or flat.ndim != 1 or offsets.shape != (n + 1,)
            or offsets[0] != 0 or offsets[-1] != flat.size
            or (offsets[1:] < offsets[:-1]).any()
        ):
            raise GraphError(
                f"CSR offsets do not match flat: {n} node IDs need "
                f"{n + 1} non-decreasing offsets from 0 to {flat.size}"
            )
        steps = np.diff(offsets)
        bad = np.flatnonzero(ids[1:] <= ids[:-1])
        if bad.size:
            i = int(bad[0])
            raise GraphError(
                f"node IDs must be unique and ascending, got {ids[i]} "
                f"then {ids[i + 1]}"
            )
        if n and (ids[0] < 1 or ids[-1] > id_space):
            raise GraphError(
                f"node IDs must lie in [1, {id_space}], "
                f"got range [{ids[0]}, {ids[-1]}]"
            )
        sources = np.repeat(np.arange(n, dtype=np.int64), steps)
        bad = np.flatnonzero((flat < 0) | (flat >= n))
        if bad.size:
            j = int(bad[0])
            raise GraphError(
                f"edge ({ids[sources[j]]}, slot {flat[j]}) dangles: "
                f"slot {flat[j]} missing"
            )
        bad = np.flatnonzero(flat == sources)
        if bad.size:
            raise GraphError(f"self-loop at node {ids[sources[bad[0]]]}")
        keys = sources * n + flat
        bad = np.flatnonzero(keys[1:] <= keys[:-1])
        if bad.size:
            raise GraphError(
                f"neighbors of node {ids[sources[bad[0] + 1]]} must be "
                f"unique and ascending"
            )
        reverse = np.sort(flat * n + sources)
        if not np.array_equal(reverse, keys):
            pos = np.minimum(np.searchsorted(reverse, keys), len(keys) - 1)
            j = int(np.flatnonzero(reverse[pos] != keys)[0])
            raise GraphError(
                f"edge ({ids[sources[j]]}, {ids[flat[j]]}) is not symmetric"
            )
        return cls(ids=ids, offsets=offsets, flat=flat, degrees=steps)

    @property
    def n(self) -> int:
        """Number of nodes."""
        return len(self.ids)

    @cached_property
    def edge_sources(self) -> Any:
        """Source slot of every ``flat`` entry (shape ``(2E,)``)."""
        return np.repeat(np.arange(self.n, dtype=np.int64), self.degrees)


# -- segment helpers ---------------------------------------------------------
#
# All reductions use the cumsum-difference trick rather than
# ``np.ufunc.reduceat``: reduceat returns ``x[start]`` (not the identity)
# for zero-length segments, which would silently corrupt isolated- or
# zero-degree-node rows.


def segment_sum(values: Any, offsets: Any) -> Any:
    """Per-segment sums of ``values`` delimited by CSR ``offsets``."""
    cum = np.empty(len(values) + 1, dtype=np.int64)
    cum[0] = 0
    np.cumsum(values, out=cum[1:])
    return cum[offsets[1:]] - cum[offsets[:-1]]


def segment_any(flags: Any, counts: Any) -> Any:
    """Per-segment OR of boolean ``flags`` grouped by ``counts``.

    Segments are consecutive; ``counts[i]`` is segment i's length (zero
    allowed, reducing to False).
    """
    cum = np.empty(len(flags) + 1, dtype=np.int64)
    cum[0] = 0
    np.cumsum(flags, out=cum[1:])
    ends = np.cumsum(counts)
    return (cum[ends] - cum[ends - counts]) > 0


def sorted_unique(values: Any) -> Any:
    """Sorted distinct values of a 1-D integer array.

    Semantically ``np.unique(values)``, implemented as sort + boundary
    scan. numpy's hash-based ``unique`` is dramatically slower than a
    plain sort on the large int64 arrays the clustered kernels produce
    (edge keys, absolute wake rounds: ~60× at 5·10⁶ elements measured
    here), and the sort path's O(m log m) is deterministic besides.
    """
    if values.size == 0:
        return values[:0]
    ordered = np.sort(values)
    keep = np.empty(ordered.size, dtype=bool)
    keep[0] = True
    np.not_equal(ordered[1:], ordered[:-1], out=keep[1:])
    return ordered[keep]


def ragged_gather(offsets: Any, flat: Any, slots: Any) -> tuple[Any, Any]:
    """Concatenate ``flat[offsets[s]:offsets[s + 1]]`` for each ``s``.

    The vectorized analogue of ``[x for s in slots for x in nbrs(s)]``:
    returns ``(values, counts)`` where ``counts[i]`` is slot
    ``slots[i]``'s segment length, so downstream segment reductions can
    regroup. Runs in O(total output) — no per-slot Python loop.
    """
    counts = offsets[slots + 1] - offsets[slots]
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=flat.dtype), counts
    starts = offsets[slots]
    shifted = np.cumsum(counts) - counts  # output start of each segment
    idx = np.repeat(starts - shifted, counts) + np.arange(total, dtype=np.int64)
    return flat[idx], counts


# -- building CSR from edge arrays --------------------------------------------


def component_minima(n: int, a: Any, b: Any) -> Any:
    """The smallest slot of each connected component, ascending.

    The graph is ``n`` slots plus undirected edges ``(a[i], b[i])``.
    Min-label hooking with pointer jumping: every slot holds a label
    naming some slot of its own component, no larger than itself. Each
    round hooks, across every edge, the larger of the two endpoints'
    root labels onto the smaller, then follows ``label[label]`` until
    every label is a root. Once no edge joins two roots, each component
    has one root — its minimum, the one slot labelled with itself.
    """
    label = np.arange(n, dtype=np.int64)
    while True:
        root_a, root_b = label[a], label[b]
        hooked = label.copy()
        np.minimum.at(hooked, root_a, root_b)
        np.minimum.at(hooked, root_b, root_a)
        jumped = hooked[hooked]
        while not np.array_equal(jumped, hooked):
            hooked = jumped
            jumped = hooked[hooked]
        if np.array_equal(hooked, label):
            return np.flatnonzero(label == np.arange(n, dtype=np.int64))
        label = hooked


def csr_from_edges(n: int, a: Any, b: Any) -> tuple[Any, Any]:
    """Symmetric CSR ``(offsets, flat)`` of undirected edges over slots.

    Each edge ``(a[i], b[i])`` lands in both rows; rows come out sorted
    ascending, the order :class:`GraphArrays` keeps. Edges must be
    distinct and loop-free (one sort of the 2E directed ``src·n + dst``
    keys; no deduplication).
    """
    keys = np.concatenate((a * n + b, b * n + a))
    keys.sort()
    sources, flat = np.divmod(keys, n)
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(sources, minlength=n), out=offsets[1:])
    return offsets, flat
