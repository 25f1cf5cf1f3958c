"""Exception hierarchy for the repro package.

Every error raised intentionally by this library derives from
:class:`ReproError`, so callers can catch library failures without
masking genuine programming errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class GraphError(ReproError):
    """The input graph violates a structural requirement (e.g. not connected)."""


class SimulationError(ReproError):
    """The Sleeping-model simulator detected an illegal action at runtime."""


class ProtocolError(ReproError):
    """A distributed protocol violated its own schedule or received
    inconsistent data (e.g. a time-window overrun)."""


class ClusteringError(ReproError):
    """A (claimed) BFS-clustering violates Definition 2 or Definition 4."""


class ValidationError(ReproError):
    """A computed solution fails the problem's correctness validator."""


class MappingError(ReproError):
    """The Lemma 10 mapping was queried outside of its domain."""
