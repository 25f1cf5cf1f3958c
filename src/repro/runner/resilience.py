"""Resilience layer for the sweep executor: retry, timeout, checkpoint.

A single raising trial, a hung straggler, or a worker that dies hard
must not abort a 10^5-trial sweep and throw away every completed trial.
This module supplies the three pieces the executor composes:

- :class:`RetryPolicy` — bounded re-execution of failed trials with a
  **deterministic** jittered backoff: the jitter is seeded from the
  trial's content-addressed identity (:func:`backoff_seed`), so two
  runs of the same sweep sleep the same schedule — retries never
  introduce nondeterminism into anything observable;
- :class:`TrialTimeoutError` + :func:`trial_deadline` — a per-trial
  wall-clock budget enforced *inside* the executing process via
  ``SIGALRM`` (where the platform has it), so a hung trial surfaces as
  a retriable exception instead of stalling the sweep forever;
- :class:`SweepJournal` — an append-only checkpoint of completed
  :class:`~repro.runner.executor.TrialOutcome`\\ s (``SWEEP_*.journal``
  next to the artifacts). One line per trial: the trial cache's JSON
  record (:func:`repro.runner.cache.encode_record`, payload checksummed)
  plus the trial's :attr:`~repro.runner.specs.TrialSpec.digest` (the
  cache key's identity, without the code salt) and sweep index. Reads parse JSON
  only and are **fail-open on a corrupt tail** — a torn last line after
  a crash costs one trial, never the journal. The parent process is the
  only writer, so plain appends are safe.
- :class:`TrialFailure` / :class:`FailureReport` — what ``--keep-going``
  collects instead of aborting: per-trial failure records carrying the
  remote traceback, embedded in the ``SweepResult`` and the artifact.
  Aggregation refuses partial input unless explicitly allowed
  (``--allow-partial``), so a degraded sweep still terminates with an
  explicit, attributable verdict — never a silently wrong aggregate.
"""

from __future__ import annotations

import json
import random
import signal
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterator, Sequence

from repro.obs import counters
from repro.obs.spans import event
from repro.runner.cache import (
    CachedTrial,
    code_version_salt,
    decode_record,
    encode_record,
)
from repro.runner.specs import TrialSpec

if TYPE_CHECKING:
    from repro.runner.executor import TrialOutcome

#: Journal header format — bump when the header or line layout changes;
#: old journals then read as empty (resume recomputes, never misreads).
JOURNAL_FORMAT = 2


class TrialTimeoutError(RuntimeError):
    """A trial exceeded its per-trial wall-clock budget (retriable)."""


def backoff_seed(spec: TrialSpec) -> int:
    """Deterministic per-trial jitter seed, content-addressed off
    :attr:`~repro.runner.specs.TrialSpec.digest` (grid trials fold in
    their derived seed; experiment trials their kind/key/kwargs)."""
    return int(spec.digest[:15], 16)


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded, deterministic re-execution of failed trials.

    Attributes:
        max_attempts: total attempts per trial (1 = never retry).
        retriable: exception classes worth retrying. The default covers
            only :class:`TrialTimeoutError` — a deterministic trial
            that raised will raise again, so blanket retries are
            opt-in (the CLI's ``--retries`` opts into ``Exception``
            because the operator asked for exactly that).
        backoff_base: first-retry delay in seconds (0 = no sleep).
        backoff_factor: multiplier per further attempt.
        backoff_max: delay ceiling.
        jitter: fraction of each delay that is randomized — drawn from
            a generator seeded by the trial identity and the attempt
            number, so the schedule is reproducible run to run.
    """

    max_attempts: int = 1
    retriable: tuple[type[BaseException], ...] = (TrialTimeoutError,)
    backoff_base: float = 0.0
    backoff_factor: float = 2.0
    backoff_max: float = 30.0
    jitter: float = 0.5

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.backoff_base < 0:
            raise ValueError(f"backoff_base must be >= 0, got {self.backoff_base}")
        if not 0 <= self.jitter <= 1:
            raise ValueError(f"jitter must be in [0, 1], got {self.jitter}")

    def should_retry(self, exc: BaseException, attempt: int) -> bool:
        """Whether a trial that failed on ``attempt`` (1-based) with
        ``exc`` gets another try."""
        return attempt < self.max_attempts and isinstance(exc, self.retriable)

    def backoff_seconds(self, spec: TrialSpec, attempt: int) -> float:
        """The deterministic delay before retry number ``attempt``."""
        if self.backoff_base <= 0:
            return 0.0
        delay = min(
            self.backoff_base * self.backoff_factor ** (attempt - 1),
            self.backoff_max,
        )
        if self.jitter:
            rng = random.Random(backoff_seed(spec) * 1000003 + attempt)
            delay *= 1 - self.jitter + self.jitter * rng.random()
        return delay


@contextmanager
def trial_deadline(spec: TrialSpec, timeout: float | None) -> Iterator[None]:
    """Raise :class:`TrialTimeoutError` inside the current process if
    the body runs longer than ``timeout`` seconds.

    Uses ``SIGALRM``/``setitimer``, which interrupts pure-Python hangs
    (the common straggler mode here); platforms without ``SIGALRM``
    (Windows) or calls off the main thread degrade to "no deadline"
    rather than failing — the parent's pool-restart budget still bounds
    the damage a truly wedged worker can do.
    """
    if (
        timeout is None
        or timeout <= 0
        or not hasattr(signal, "SIGALRM")
        or threading.current_thread() is not threading.main_thread()
    ):
        yield
        return

    def on_alarm(signum: int, frame: Any) -> None:
        # Emitted here, in the timing-out process, so the trace shows
        # *where* the deadline fired; the executor counts the taxonomy
        # parent-side when the exception reaches it.
        event("trial.timeout", label=spec.label, timeout=timeout)
        raise TrialTimeoutError(
            f"trial {spec.label!r} exceeded its {timeout}s wall-clock budget"
        )

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, timeout)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


# -- keep-going failure collection -------------------------------------------


@dataclass(frozen=True)
class TrialFailure:
    """One trial that failed for good (retries exhausted or not
    retriable) under ``--keep-going``."""

    index: int
    label: str
    error_type: str
    message: str
    traceback: str
    attempts: int = 1

    def describe(self) -> dict[str, Any]:
        return {
            "index": self.index,
            "label": self.label,
            "error_type": self.error_type,
            "message": self.message,
            "traceback": self.traceback,
            "attempts": self.attempts,
        }


@dataclass(frozen=True)
class FailureReport:
    """All of a sweep's collected trial failures, in spec order."""

    failures: tuple[TrialFailure, ...] = ()

    def __bool__(self) -> bool:
        return bool(self.failures)

    def by_error_type(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for failure in self.failures:
            counts[failure.error_type] = counts.get(failure.error_type, 0) + 1
        return counts

    def describe(self) -> dict[str, Any]:
        return {
            "count": len(self.failures),
            "by_error_type": self.by_error_type(),
            "failures": [f.describe() for f in self.failures],
        }

    def summary(self) -> str:
        kinds = ", ".join(
            f"{count}× {name}"
            for name, count in sorted(self.by_error_type().items())
        )
        return f"{len(self.failures)} trial failure(s) ({kinds})"

    def render(self) -> str:
        """Human-readable report: one block per failure, remote
        traceback included."""
        lines = [self.summary()]
        for failure in self.failures:
            lines.append(
                f"  [{failure.index}] {failure.label}: "
                f"{failure.error_type}: {failure.message} "
                f"(after {failure.attempts} attempt(s))"
            )
            if failure.traceback:
                lines.extend(
                    "    | " + tb_line
                    for tb_line in failure.traceback.rstrip().splitlines()
                )
        return "\n".join(lines)


# -- checkpoint journal ------------------------------------------------------


def read_journal(
    lines: Sequence[str],
) -> tuple[dict[str, Any], list[CachedTrial]] | None:
    """Parse a journal's lines: its header and its entries, or None if
    line 1 is not a current-format journal header. Entries stop at the
    first line that is not a whole record, so a corrupt tail (torn
    write, truncation) fails open and keeps the valid prefix. The one
    journal reader, shared by resume and the result store."""
    try:
        header = json.loads(lines[0])
        kind, version = header["kind"], header["format"]
    except (IndexError, ValueError, TypeError, KeyError):
        return None
    if (kind, version) != ("sweep-journal", JOURNAL_FORMAT):
        return None
    entries = []
    for line in lines[1:]:
        record = decode_record(line)
        if record is None or record.digest is None:
            break
        entries.append(record)
    return header, entries


@dataclass
class SweepJournal:
    """Append-only checkpoint of completed trial outcomes.

    Line 1 is a header (format version, sweep name, code salt); every
    further line is one completed trial's record (see
    :func:`read_journal`). ``resume=True`` loads whatever valid
    prefix exists and appends from there; otherwise the file is started
    fresh. A header whose salt does not match the current code version
    is stale: its entries are discarded (results from old code never
    resume into a new run), mirroring the trial cache's code-version
    invalidation.
    """

    path: Path
    resume: bool = False
    salt: str | None = None
    _entries: dict[str, CachedTrial] = field(default_factory=dict, repr=False)
    _loaded: bool = field(default=False, repr=False)

    def __post_init__(self) -> None:
        self.path = Path(self.path)
        if self.salt is None:
            self.salt = code_version_salt()

    # -- reading

    def load_outcomes(self, trials: tuple[TrialSpec, ...]) -> dict[int, "TrialOutcome"]:
        """Journaled outcomes for the trials of this sweep, keyed by
        trial index — what ``--resume`` prefills before executing."""
        from repro.runner.executor import TrialOutcome

        if not self.resume:
            return {}
        self._ensure_loaded()
        found: dict[int, TrialOutcome] = {}
        for trial in trials:
            record = self._entries.get(trial.digest)
            if record is None:
                continue
            found[trial.index] = TrialOutcome(
                spec=trial,
                payload=record.payload,
                seconds=record.seconds,
                worker=0,
                resumed=True,
            )
        if found:
            counters.add("journal.resume", len(found))
            event("journal.resume", path=str(self.path), trials=len(found))
        return found

    def _ensure_loaded(self) -> None:
        if self._loaded:
            return
        self._loaded = True
        self._entries = {}
        try:
            with open(self.path, "r", encoding="utf-8") as handle:
                lines = handle.readlines()
        except (OSError, ValueError):
            return
        journal = read_journal(lines)
        # An alien file or a stale code version has nothing to resume.
        if journal is not None and journal[0].get("salt") == self.salt:
            self._entries = {record.digest: record for record in journal[1]}

    # -- writing

    def begin(self, sweep_name: str, num_trials: int) -> None:
        """Start (or continue) the journal file for one sweep run.

        Fresh journals are truncated and given a new header; resumed
        journals keep their valid contents — unless stale or alien, in
        which case they are restarted (resume already yielded nothing).
        """
        self._ensure_loaded()
        if self.resume and self._entries:
            return
        self.path.parent.mkdir(parents=True, exist_ok=True)
        header = {
            "format": JOURNAL_FORMAT,
            "kind": "sweep-journal",
            "sweep": sweep_name,
            "num_trials": num_trials,
            "salt": self.salt,
        }
        with open(self.path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(header) + "\n")
        self._entries = {}

    def append(self, outcome: "TrialOutcome") -> bool:
        """Checkpoint one completed trial; best-effort (a full disk
        degrades to "no checkpoint", never to a failed sweep). The
        record is written in a single ``write`` call so a crashed run
        leaves at most one torn tail line, which reads fail-open."""
        spec = outcome.spec
        digest = spec.digest
        if digest in self._entries:
            return True
        try:
            line = encode_record(
                spec.label,
                outcome.seconds,
                outcome.payload,
                digest=digest,
                index=spec.index,
            )
        except (TypeError, ValueError):
            return False
        try:
            with open(self.path, "a", encoding="utf-8") as handle:
                handle.write(line + "\n")
                handle.flush()
        except OSError:
            return False
        self._entries[digest] = CachedTrial(outcome.payload, outcome.seconds)
        counters.add("journal.append")
        return True


__all__ = [
    "FailureReport",
    "JOURNAL_FORMAT",
    "RetryPolicy",
    "SweepJournal",
    "TrialFailure",
    "TrialTimeoutError",
    "backoff_seed",
    "read_journal",
    "trial_deadline",
]
