"""A numpy mirror of the CSR graph index, for the vectorized engine.

:class:`GraphArrays` re-exports the Python-list CSR layout of
:class:`~repro.graphs.graph._GraphIndex` as int64 numpy arrays, plus the
per-edge source slots the bulk-synchronous kernels need. It is built
lazily and cached on the owning :class:`~repro.graphs.graph.StaticGraph`,
exactly like the index itself, so graphs that never meet the vectorized
engine never pay for it — and :mod:`repro.graphs.graph` never imports
numpy.
Array-native samplers go the other way: they draw undirected edges as
slot arrays and hand them to :meth:`StaticGraph.from_edge_arrays
<repro.graphs.graph.StaticGraph.from_edge_arrays>`, whose
:meth:`GraphArrays.from_edges` checks them and sorts them into the
columns once.

Slot order is ID order: ``_GraphIndex.nodes`` is sorted ascending, so
``slot_u < slot_v  ⇔  id_u < id_v`` and the kernels compare slots where
the sequential code compares IDs.

:class:`GraphArrays` is the array engine's one CSR type: the Theorem 13
kernel's virtual graphs, inter-cluster edge lists and Linial conflict
lists are built as ones too, by :meth:`GraphArrays.from_degrees`. Their
per-row counts, ORs and minima are :func:`segment_sum`,
:func:`segment_any` and :func:`segment_min`, over row lengths, all three
one ``reduceat`` that skips empty rows.

Results leave the kernels the same way: :class:`ColumnMap` is the
read-only ``{ID: value}`` view over ``ids`` plus slot-ordered columns
that the vectorized engine returns wherever a per-node dict used to be
(graph adjacency, clustering maps, awake and termination rounds, the
composed Theorem 1 outputs); the dict is built on first keyed use.
"""

from __future__ import annotations

import gc
from collections.abc import ItemsView, Iterator, Mapping, ValuesView
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Any, Callable

import numpy as np

from repro.errors import GraphError
from repro.obs.spans import span

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

    A row list that is not a whole graph (a subset of a graph's edges,
    a conflict list) uses the same layout; :attr:`num_edges` then
    counts half its entries.
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
    def from_edges(cls, ids: Any, a: Any, b: Any, id_space: int) -> "GraphArrays":
        """Check undirected edges over slots and build their CSR.

        Each edge ``(a[i], b[i])`` joins slots ``a[i]`` and ``b[i]`` and
        lands in both rows; one sort of the 2E directed ``src·n + dst``
        keys lays the rows out ascending, so the CSR is symmetric and
        row-sorted by construction.

        Raises :class:`~repro.errors.GraphError` unless the input is a
        simple undirected graph: IDs unique, ascending and in
        ``[1, id_space]``; ``a`` and ``b`` 1-D and of equal length; every
        endpoint a slot in ``[0, n)``; no self-loop; no pair given twice,
        in either orientation.
        """
        ids, a, b = (np.ascontiguousarray(x, dtype=np.int64) for x in (ids, a, b))
        n = ids.size
        if ids.ndim != 1 or a.ndim != 1 or a.shape != b.shape:
            raise GraphError(
                f"need 1-D node IDs and two 1-D endpoint arrays of equal "
                f"length, got shapes {ids.shape}, {a.shape} and {b.shape}"
            )
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
        a_out, b_out = (a < 0) | (a >= n), (b < 0) | (b >= n)
        bad = np.flatnonzero(a_out | b_out)
        if bad.size:
            j = int(bad[0])
            missing = a[j] if a_out[j] else b[j]
            raise GraphError(
                f"edge (slot {a[j]}, slot {b[j]}) dangles: "
                f"slot {missing} missing"
            )
        bad = np.flatnonzero(a == b)
        if bad.size:
            raise GraphError(f"self-loop at node {ids[a[bad[0]]]}")
        keys = np.concatenate((a * n + b, b * n + a))
        keys.sort()
        bad = np.flatnonzero(keys[1:] == keys[:-1])
        if bad.size:
            u, v = divmod(int(keys[bad[0]]), n)
            raise GraphError(f"edge ({ids[u]}, {ids[v]}) is given twice")
        flat = np.remainder(keys, n, out=keys)
        degrees = np.bincount(a, minlength=n) + np.bincount(b, minlength=n)
        return cls.from_degrees(ids, degrees, flat)

    @classmethod
    def from_degrees(cls, ids: Any, degrees: Any, flat: Any) -> "GraphArrays":
        """The CSR whose row ``i`` is the next ``degrees[i]`` of ``flat``.

        Trusted: the caller's rows are already laid out in ``flat``, and
        only the row pointers are computed, by one cumsum.
        """
        offsets = np.zeros(len(degrees) + 1, dtype=np.int64)
        np.cumsum(degrees, out=offsets[1:])
        return cls(ids=ids, offsets=offsets, flat=flat, degrees=degrees)

    @property
    def n(self) -> int:
        """Number of nodes."""
        return len(self.ids)

    @cached_property
    def max_degree(self) -> int:
        """Largest degree (0 for an edgeless graph)."""
        return int(self.degrees.max(initial=0))

    @property
    def num_edges(self) -> int:
        """Number of undirected edges."""
        return self.flat.size // 2

    @cached_property
    def edge_sources(self) -> Any:
        """Source slot of every ``flat`` entry (shape ``(2E,)``)."""
        return np.repeat(np.arange(self.n, dtype=np.int64), self.degrees)


# -- column-backed results ---------------------------------------------------


class ColumnMap(Mapping):
    """A read-only ``{node ID: value}`` mapping over slot-ordered columns.

    Slot ``i`` maps ``ids[i]`` to ``columns[0][i]``, or to
    ``row(columns[0][i], columns[1][i], ...)`` when a ``row`` callable is
    given. A column is a numpy array (values come out as Python scalars,
    via ``tolist``) or a list. ``len`` reads ``ids`` and :meth:`values`
    reads the columns; :meth:`max_value`, :meth:`sum_values` and
    :meth:`num_distinct` reduce a single integer column in numpy; the
    first keyed access or iteration builds the dict, once. ``row`` must
    be a module-level callable, so the view pickles (without its dict),
    and it compares equal to any mapping with the same items, from
    either side of ``==``.
    """

    __slots__ = ("ids", "columns", "row", "_dict")

    def __init__(
        self, ids: Any, columns: tuple, row: Callable[..., Any] | None = None
    ) -> None:
        """Wrap ``columns`` (slot-ordered, as long as ``ids``) by ID."""
        self.ids = ids
        self.columns = tuple(columns)
        self.row = row
        self._dict: dict | None = None

    def __reduce__(self) -> tuple:
        """Pickle the columns, not the dict."""
        return (type(self), (self.ids, self.columns, self.row))

    @property
    def built(self) -> bool:
        """Whether the dict has been built."""
        return self._dict is not None

    def column_over(self, ids: Any) -> Any:
        """The single column if this view is keyed by exactly ``ids``.

        ``None`` when ``ids`` is another array, or the view has several
        columns or a ``row`` callable.
        """
        if self.ids is ids and self.row is None and len(self.columns) == 1:
            return self.columns[0]
        return None

    def _int_column(self) -> Any:
        """The single signed-integer numpy column (no ``row``), else ``None``."""
        if self.row is None and len(self.columns) == 1:
            column = self.columns[0]
            if isinstance(column, np.ndarray) and column.dtype.kind == "i":
                return column
        return None

    def max_value(self) -> Any:
        """``max(self.values(), default=0)``, in numpy on one int column."""
        column = self._int_column()
        if column is None:
            return max(self.values(), default=0)
        return column.max().item() if column.size else 0

    def sum_values(self) -> Any:
        """``sum(self.values())``, in numpy on one int column.

        The Python sum is exact at any size; numpy's is used only where
        ``size · max|value|`` fits int64, so it cannot wrap.
        """
        column = self._int_column()
        if column is None or not column.size:
            return sum(self.values())
        bound = max(abs(column.max().item()), abs(column.min().item()))
        if bound * column.size > np.iinfo(np.int64).max:
            return sum(self.values())
        return int(column.sum(dtype=np.int64))

    def num_distinct(self) -> int:
        """``len(set(self.values()))``, in numpy on one int column."""
        column = self._int_column()
        if column is None:
            return len(set(self.values()))
        if column.size and 0 <= column.min() and column.max() <= column.size:
            # Small non-negative values (colors): count occupied bins.
            return int(np.count_nonzero(np.bincount(column)))
        return sorted_unique(column).size

    def _values(self) -> list:
        """The values in slot order; never builds the dict."""
        lists = [
            c.tolist() if isinstance(c, np.ndarray) else c for c in self.columns
        ]
        return lists[0] if self.row is None else list(map(self.row, *lists))

    def _mapping(self) -> dict:
        """The dict, built on first call."""
        if self._dict is None:
            # n acyclic entries: the cyclic collector would only re-scan them
            collecting = gc.isenabled()
            gc.disable()
            try:
                self._dict = dict(zip(self.ids.tolist(), self._values()))
            finally:
                if collecting:
                    gc.enable()
        return self._dict

    def __len__(self) -> int:
        """The number of nodes, from ``ids``."""
        return len(self.ids)

    def __getitem__(self, key: Any) -> Any:
        """The value of node ``key``."""
        return self._mapping()[key]

    def __iter__(self) -> Iterator[Any]:
        """Node IDs, ascending."""
        return iter(self._mapping())

    def __contains__(self, key: object) -> bool:
        """Whether ``key`` is a node ID."""
        return key in self._mapping()

    def get(self, key: Any, default: Any = None) -> Any:
        """The value of node ``key``, or ``default``."""
        return self._mapping().get(key, default)

    def items(self) -> ItemsView:
        """``(ID, value)`` pairs, as the dict's items view."""
        return self._mapping().items()

    def values(self) -> ValuesView:
        """The values in slot order, read from the columns."""
        if self._dict is not None:
            return self._dict.values()
        return _ColumnValues(self)

    def __eq__(self, other: object) -> bool:
        """Equal to any mapping with the same items."""
        if not isinstance(other, Mapping):
            return NotImplemented
        if isinstance(other, ColumnMap):
            other = other._mapping()
        return self._mapping() == other

    def __repr__(self) -> str:
        """The dict's repr."""
        return repr(self._mapping())


class _ColumnValues(ValuesView):
    """``ColumnMap.values()`` before the dict exists: read the columns."""

    __slots__ = ()

    def __iter__(self):
        return iter(self._mapping._values())

    def __contains__(self, value: object) -> bool:
        return value in self._mapping._values()


class NeighborMap(ColumnMap):
    """``{ID: neighbor-ID tuple}`` over CSR columns.

    The adjacency of a graph built by
    :meth:`StaticGraph.from_edge_arrays
    <repro.graphs.graph.StaticGraph.from_edge_arrays>`. The tuples are
    made on first use, under a ``graphs.index`` span, so a per-node
    consumer that pays for them shows in a trace.
    """

    __slots__ = ()

    def __init__(self, ids: Any, offsets: Any, flat: Any) -> None:
        """Wrap the CSR columns of :class:`GraphArrays`."""
        super().__init__(ids, (offsets, flat))

    def __reduce__(self) -> tuple:
        """Pickle the CSR columns, not the dict."""
        return (type(self), (self.ids, *self.columns))

    def _values(self) -> list:
        offsets, flat = self.columns
        bounds = offsets.tolist()
        neighbor_ids = self.ids[flat].tolist()
        return [tuple(neighbor_ids[a:b]) for a, b in zip(bounds, bounds[1:])]

    def _mapping(self) -> dict:
        if self._dict is None:
            with span("graphs.index", n=len(self.ids)):
                return super()._mapping()
        return self._dict


# -- row reductions ----------------------------------------------------------


def _reduce_rows(
    ufunc: Any, values: Any, counts: Any, fill: Any, dtype: Any
) -> Any:
    """``ufunc`` over each row of ``values``; an empty row reads ``fill``.

    Rows are consecutive and ``counts[i]`` is row i's length. reduceat
    reduces each row up to the next start, so a row followed by empty
    ones is still reduced exactly; an empty row reads ``values[start]``
    and is overwritten with ``fill``. Rows after the last non-empty one
    start at ``len(values)``, out of reduceat's range, so only the rows
    before them are passed.
    """
    starts = np.cumsum(counts) - counts
    end = int(np.searchsorted(starts, len(values)))
    out = np.empty(len(counts), dtype=dtype)
    out[:end] = ufunc.reduceat(values, starts[:end], dtype=dtype)
    out[counts == 0] = fill
    return out


def segment_sum(values: Any, counts: Any) -> Any:
    """Per-row int64 sums of ``values`` (bool or int), rows of ``counts``."""
    return _reduce_rows(np.add, values, counts, 0, np.int64)


def segment_any(flags: Any, counts: Any) -> Any:
    """Per-row OR of boolean ``flags`` (False for an empty row)."""
    return _reduce_rows(np.logical_or, flags, counts, False, bool)


def segment_min(values: Any, counts: Any, fill: int) -> Any:
    """Per-row int64 minima of ``values`` (``fill`` for an empty row)."""
    return _reduce_rows(np.minimum, values, counts, fill, np.int64)


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
    starts = offsets[slots]
    counts = offsets[slots + 1] - starts
    ends = np.cumsum(counts)  # output end of each segment
    total = int(ends[-1]) if ends.size else 0
    if total == 0:
        return np.empty(0, dtype=flat.dtype), counts
    idx = np.repeat(starts - ends + counts, counts)
    idx += np.arange(total, dtype=np.int64)
    return flat[idx], counts


# -- components of edge arrays -----------------------------------------------


def component_minima(n: int, a: Any, b: Any) -> Any:
    """Each slot's component label: the smallest slot of its component.

    The graph is ``n`` slots plus undirected edges ``(a[i], b[i])``,
    each passed once (a repeated or reversed pair only costs time).
    Min-label hooking with pointer jumping: every slot holds a label
    naming some slot of its own component, no larger than itself. Each
    round hooks, across every edge, the larger of the two endpoints'
    root labels onto the smaller, then follows ``label[label]`` until
    every label is a root. Once no edge joins two roots, each component
    has one root — its minimum, the one slot labelled with itself — and
    that last round only gathers the edges' root labels.

    Returns:
        int64 per-slot labels; the component minima, ascending, are
        ``np.flatnonzero(labels == np.arange(n))``.
    """
    label = np.arange(n, dtype=np.int64)
    while True:
        root_a, root_b = label[a], label[b]
        if np.array_equal(root_a, root_b):
            return label
        np.minimum.at(label, root_a, root_b)
        np.minimum.at(label, root_b, root_a)
        jumped = label[label]
        while not np.array_equal(jumped, label):
            label = jumped
            jumped = label[label]
