"""Whole-graph array verdicts for the built-in problems' ``validate``.

:meth:`OLocalProblem.check <repro.olocal.problem.OLocalProblem.check>`
comes here only for a graph whose
:class:`~repro.graphs.arrays.GraphArrays` are already built, so numpy is
loaded by then. Outputs that are a
:class:`~repro.graphs.arrays.ColumnMap` over the graph's own ``ids``, as
a vectorized solve returns them, are read as their slot column, whose
dtype settles the per-node type test. Any other mapping costs one O(n)
Python pass over ``outputs.get(v)`` in slot order for the type and
range tests. Every per-edge test is numpy over the CSR columns.

A check returns only a verdict. ``True`` means ``validate`` would return
no violation, so ``check`` is done; ``False`` sends ``check`` to
``validate``, which builds the error text. A ``False`` for valid outputs
only costs that walk, so the checks decline whatever they do not model
exactly (a value of a type other than ``bool``, or ``int`` for coloring).

Checks are keyed on the *exact* problem class, as the wave deciders of
:func:`~repro.model.vectorized.make_wave_decider` are: a subclass may
override ``validate``, so it keeps its own.
"""

from __future__ import annotations

from typing import Any, Callable, Mapping

import numpy as np

from repro.graphs.arrays import ColumnMap, GraphArrays, segment_any
from repro.olocal.coloring import DeltaPlusOneColoring
from repro.olocal.mis import MaximalIndependentSet
from repro.olocal.problem import OLocalProblem
from repro.olocal.vertex_cover import MinimalVertexCover
from repro.types import NodeId


def _slot_values(ga: GraphArrays, outputs: Mapping[NodeId, Any]) -> list[Any]:
    """``outputs.get(v)`` per slot (``None`` for a node with no output)."""
    return list(map(outputs.get, ga.ids.tolist()))


def _own_column(ga: GraphArrays, outputs: Mapping[NodeId, Any], dtype: Any) -> Any:
    """The slot column behind ``outputs`` if it has ``dtype``, else ``None``.

    Only a :class:`ColumnMap` keyed by exactly ``ga.ids`` has one; its
    values are that column's elements as Python scalars, so a ``bool``
    column holds only ``bool`` values and an ``int64`` one only ``int``.
    """
    if isinstance(outputs, ColumnMap):
        column = outputs.column_over(ga.ids)
        if isinstance(column, np.ndarray) and column.dtype == dtype:
            return column
    return None


def _truthy(values: list[Any]) -> Any:
    """Per-slot ``bool(value)`` — the per-node validators' membership."""
    return np.fromiter(map(bool, values), dtype=bool, count=len(values))


def _maximal_independent(ga: GraphArrays, member: Any) -> bool:
    """No edge inside ``member`` and every non-member has a member neighbor."""
    src, dst = ga.edge_sources, ga.flat
    if (member[src] & member[dst]).any():
        return False
    return bool((member | segment_any(member[dst], ga.degrees)).all())


def _mis_valid(ga: GraphArrays, outputs: Mapping[NodeId, Any]) -> bool:
    member = _own_column(ga, outputs, bool)
    if member is not None:
        return _maximal_independent(ga, member)
    values = _slot_values(ga, outputs)
    if not set(map(type, values)) <= {bool}:
        return False
    return _maximal_independent(ga, _truthy(values))


def _vertex_cover_valid(ga: GraphArrays, outputs: Mapping[NodeId, Any]) -> bool:
    # validate() reads membership by truthiness, and the complement
    # V \ cover must be a maximal IS (which also means every edge is
    # covered).
    cover = _own_column(ga, outputs, bool)
    if cover is None:
        cover = _truthy(_slot_values(ga, outputs))
    return _maximal_independent(ga, ~cover)


def _coloring_valid(ga: GraphArrays, outputs: Mapping[NodeId, Any]) -> bool:
    color = _own_column(ga, outputs, np.int64)
    if color is None:
        values = _slot_values(ga, outputs)
        if not set(map(type, values)) <= {int}:
            return False
        try:
            color = np.array(values, dtype=np.int64)
        except OverflowError:
            return False
    if ((color < 1) | (color > ga.degrees + 1)).any():
        return False
    return not (color[ga.edge_sources] == color[ga.flat]).any()


#: Exact problem class → its array check.
_CHECKS: dict[type, Callable[[GraphArrays, Mapping[NodeId, Any]], bool]] = {
    MaximalIndependentSet: _mis_valid,
    DeltaPlusOneColoring: _coloring_valid,
    MinimalVertexCover: _vertex_cover_valid,
}


def passes_array_check(
    problem: OLocalProblem, ga: GraphArrays, outputs: Mapping[NodeId, Any]
) -> bool:
    """Whether the CSR columns alone show ``problem.validate`` would pass.

    Args:
        problem: the problem whose outputs are checked.
        ga: the graph's already-built :class:`GraphArrays`.
        outputs: per-node outputs, keyed by node ID.

    Returns:
        ``True`` only when there is an array check for ``type(problem)``
        and it accepts ``outputs``. ``False`` means ``validate`` must run.
    """
    valid = _CHECKS.get(type(problem))
    return valid is not None and valid(ga, outputs)
