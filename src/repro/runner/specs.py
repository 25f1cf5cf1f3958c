"""Picklable trial/sweep specifications and deterministic seed derivation.

A sweep is described *entirely up front* as a flat, ordered tuple of
:class:`TrialSpec` values. Every spec is a small frozen record of
primitives (plus, at most, a picklable problem instance in its kwargs),
so the same spec can be executed in-process, shipped to a worker
process, or written to a JSON artifact for provenance. Aggregation
consumes trial payloads **in spec order**, never in completion order —
that is what makes the aggregate independent of the worker count.

Seed derivation is content-addressed: :func:`derive_seed` hashes the
master seed together with the trial's identifying coordinates, so adding
or reordering trials never shifts the seeds of the others (a counter
would). A trial's identity is content-addressed the same way:
:attr:`TrialSpec.digest` is the one trial digest the journal, the retry
backoff, the trial cache key and the result store all use.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Any

#: Trial kinds understood by :mod:`repro.runner.trials`.
KIND_EXPERIMENT = "experiment"
KIND_SOLVE = "solve"

_PRIMITIVES = (str, int, float, bool, type(None))


def is_plain_json(value: Any) -> bool:
    """Whether ``value`` round-trips through JSON as itself (tuples
    read back as lists)."""
    # Exact types: an IntEnum or numpy scalar would not read back as
    # what was stored, and JSON would stringify an int dict key.
    if isinstance(value, (tuple, list)):
        return all(is_plain_json(item) for item in value)
    if isinstance(value, dict):
        return all(
            type(key) is str and is_plain_json(item) for key, item in value.items()
        )
    return type(value) in _PRIMITIVES


def derive_seed(master_seed: int, *coordinates: Any) -> int:
    """Derive a 63-bit trial seed from a master seed and trial coordinates.

    Deterministic across processes and Python versions (SHA-256 of the
    ``repr`` of the coordinate tuple — no ``hash()``, which is salted).
    """
    material = repr((master_seed, *coordinates)).encode("utf-8")
    digest = hashlib.sha256(material).digest()
    return int.from_bytes(digest[:8], "big") >> 1


@dataclass(frozen=True)
class TrialSpec:
    """One schedulable unit of a sweep.

    Attributes:
        index: position in the sweep; aggregation orders payloads by it.
        kind: ``"experiment"`` (an E-series plan trial) or ``"solve"``
            (one seeded ``(family, n, problem, algorithm)`` run).
        key: the experiment id (e.g. ``"E9"``) for experiment trials,
            or the problem name for solve trials.
        label: human-readable name for progress and error messages.
        kwargs: the trial function's keyword arguments as a tuple of
            ``(name, value)`` pairs — hashable and picklable.
        seed: the derived per-trial seed, when the trial is seeded at
            the sweep layer (solve grids); experiment trials carry
            their seeds inside ``kwargs`` and leave this ``None``.
    """

    index: int
    kind: str
    key: str
    label: str
    kwargs: tuple[tuple[str, Any], ...] = ()
    seed: int | None = None

    def kwargs_dict(self) -> dict[str, Any]:
        return dict(self.kwargs)

    @property
    def digest(self) -> str:
        """The trial's identity: a truncated SHA-256 of (kind, key,
        kwargs, seed) — everything that determines the payload, and
        nothing positional (index, label)."""
        material = repr((self.kind, self.key, self.kwargs, self.seed))
        return hashlib.sha256(material.encode("utf-8")).hexdigest()[:32]

    def describe(self) -> dict[str, Any]:
        """JSON-able record of what the trial ran (no payloads, no
        timings); ``kwargs`` is None unless every value is plain JSON."""
        return {
            "index": self.index,
            "kind": self.kind,
            "key": self.key,
            "label": self.label,
            "seed": self.seed,
            "digest": self.digest,
            "kwargs": self.kwargs_dict() if is_plain_json(self.kwargs) else None,
        }


@dataclass(frozen=True)
class SweepSpec:
    """An ordered collection of trials plus the sweep's identity."""

    name: str
    trials: tuple[TrialSpec, ...]
    master_seed: int = 0

    def __post_init__(self) -> None:
        for position, trial in enumerate(self.trials):
            if trial.index != position:
                raise ValueError(
                    f"trial {trial.label!r} has index {trial.index}, "
                    f"expected {position}: sweep trials must be "
                    f"contiguously indexed in order"
                )

    @property
    def experiment_ids(self) -> tuple[str, ...]:
        """Distinct experiment keys, in first-appearance order."""
        seen: dict[str, None] = {}
        for trial in self.trials:
            if trial.kind == KIND_EXPERIMENT:
                seen.setdefault(trial.key, None)
        return tuple(seen)

    def describe(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "master_seed": self.master_seed,
            "num_trials": len(self.trials),
            "trials": [trial.describe() for trial in self.trials],
        }
