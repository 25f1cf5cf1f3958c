"""Content-addressed on-disk cache of trial results.

A sweep's unit of work — one :class:`~repro.runner.specs.TrialSpec` —
is deterministic given its *identity*: the trial kind, the plan or
problem key, the kwargs, and the derived seed, hashed once as
:attr:`~repro.runner.specs.TrialSpec.digest`. The cache keys each
stored result by the SHA-256 of that digest plus a **code-version
salt** (a digest of the ``repro`` package's source files), so

- repeating a sweep, or regenerating EXPERIMENTS.md, skips every trial
  already computed — including heavy reference trials such as E8a at
  n=8192;
- a trial's position (``index``) and display ``label`` are *not* part
  of the key: reordering a sweep, or sharing trials between ``repro
  sweep`` and ``repro report``, still hits;
- any change to the package source invalidates everything (the salt
  changes), so a stale cache can never smuggle results produced by old
  code into a new run.

Storage is one JSON record per trial under ``<cache_dir>/<key[:2]>/
<key>.json`` (the two-hex-char fan-out keeps directories small), written
atomically (temp file + ``os.replace``), so a concurrent or killed
writer can never leave a half-written record where a reader expects a
whole one. The record (:func:`encode_record`, shared with the sweep
journal) is JSON with a payload checksum, so reading one executes
nothing; payloads must be plain JSON (tuples read back as lists).
Reads are fail-open: a missing, corrupt, or wrong-format file is a
**miss** (the bad file is dropped and the trial recomputed), never an
error.

Only trials whose kwargs are plain JSON values are cacheable: an
object kwarg's ``repr`` may embed a memory address, which could alias
two different trials across runs. Uncacheable trials simply execute
every time.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import Any

from repro.obs import counters
from repro.obs.spans import event
from repro.runner.specs import TrialSpec, is_plain_json

#: Default cache directory, relative to the working directory (see
#: ``--cache-dir``); listed in .gitignore.
DEFAULT_CACHE_DIR = ".repro-cache"

#: Trial record layout version — bump when the record changes shape;
#: old records then read as misses (cache) or stop a resume (journal).
CACHE_FORMAT = 2


def is_cacheable(spec: TrialSpec) -> bool:
    """Whether the spec's identity can be hashed reliably (all kwargs
    plain JSON values, so their ``repr`` is stable across processes)."""
    return is_plain_json(spec.kwargs)


@lru_cache(maxsize=1)
def code_version_salt() -> str:
    """Digest of every ``repro/**/*.py`` source file (paths + bytes).

    Computed once per process; any source change — an experiment
    tweak, an engine fix, a renamed module — yields a new salt and
    therefore a cold cache. Deliberately eager: recomputing a few
    already-valid trials is cheap, serving results from changed code
    is not.
    """
    import repro

    package_root = Path(repro.__file__).resolve().parent
    digest = hashlib.sha256()
    for source in sorted(package_root.rglob("*.py")):
        digest.update(source.relative_to(package_root).as_posix().encode())
        digest.update(b"\0")
        digest.update(source.read_bytes())
        digest.update(b"\0")
    return digest.hexdigest()[:16]


def trial_cache_key(spec: TrialSpec, salt: str) -> str | None:
    """SHA-256 key of (salt, ``spec.digest``), or None if uncacheable."""
    if not is_cacheable(spec):
        return None
    material = repr((salt, spec.digest))
    return hashlib.sha256(material.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class CachedTrial:
    """A decoded trial record: the stored payload plus the original
    compute time; ``digest`` is the trial identity of a journal line."""

    payload: Any
    seconds: float
    digest: str | None = None


def _checksum(payload: Any) -> str:
    # Payload key order is kept (aggregators render dicts in insertion
    # order, and json.loads preserves it), so re-encoding is exact.
    text = json.dumps(payload, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def encode_record(label: str, seconds: float, payload: Any, **fields: Any) -> str:
    """One trial record as a line of canonical JSON: ``{format, label,
    seconds, sha, payload}`` in that order with compact separators,
    ``sha`` a truncated SHA-256 of the payload's JSON. ``fields`` (a
    journal line's ``digest`` and ``index``) lead the record. Raises
    ``TypeError`` if the payload is not plain JSON."""
    if not is_plain_json(payload):
        raise TypeError(f"trial payload of {label!r} is not plain JSON")
    record = {
        **fields,
        "format": CACHE_FORMAT,
        "label": label,
        "seconds": seconds,
        "sha": _checksum(payload),
        "payload": payload,
    }
    return json.dumps(record, separators=(",", ":"))


def decode_record(text: str | bytes) -> CachedTrial | None:
    """The trial in one :func:`encode_record` line, or None unless it is
    a whole current-format record whose payload matches its checksum.
    Parses JSON only — nothing is executed — and never raises."""
    try:
        record = json.loads(text)  # ValueError also covers bad UTF-8
        if (
            record["format"] == CACHE_FORMAT
            and type(record["seconds"]) in (int, float)
            and isinstance(record.get("digest", ""), str)
            and record["sha"] == _checksum(record["payload"])
        ):
            return CachedTrial(
                record["payload"], float(record["seconds"]), record.get("digest")
            )
    except (ValueError, TypeError, KeyError):
        pass
    return None


@dataclass(frozen=True)
class CacheStats:
    """Per-sweep hit/miss accounting (surfaced in CLI output and the
    artifact's provenance layer)."""

    hits: int = 0
    misses: int = 0
    seconds_saved: float = 0.0

    def describe(self) -> dict[str, Any]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "seconds_saved": self.seconds_saved,
        }

    def summary(self) -> str:
        """The one-line accounting both CLIs print."""
        return (
            f"{self.hits} hit(s), {self.misses} miss(es), "
            f"~{self.seconds_saved:.2f}s saved"
        )


class TrialCache:
    """The on-disk store: ``load`` before running, ``store`` after.

    Reads fail open (corrupt or alien files are misses); writes are
    atomic and best-effort (a full disk degrades to "no cache", never
    to a failed sweep).
    """

    def __init__(
        self, cache_dir: str | Path = DEFAULT_CACHE_DIR, salt: str | None = None
    ) -> None:
        self.cache_dir = Path(cache_dir)
        self.salt = code_version_salt() if salt is None else str(salt)

    def key(self, spec: TrialSpec) -> str | None:
        return trial_cache_key(spec, self.salt)

    def path_for(self, spec: TrialSpec) -> Path | None:
        key = self.key(spec)
        return None if key is None else self._path(key)

    def _path(self, key: str) -> Path:
        return self.cache_dir / key[:2] / f"{key}.json"

    def load(self, spec: TrialSpec) -> CachedTrial | None:
        """The stored result for this trial identity, or None (miss).

        Emits ``cache.hit`` / ``cache.miss`` into the observability
        stream (counter always, trace event when tracing is armed).
        """
        found = self._load(spec)
        if found is not None:
            counters.add("cache.hit")
            event("cache.hit", label=spec.label, seconds=found.seconds)
        else:
            counters.add("cache.miss")
            event("cache.miss", label=spec.label)
        return found

    def _load(self, spec: TrialSpec) -> CachedTrial | None:
        key = self.key(spec)
        if key is None:
            return None
        path = self._path(key)
        try:
            with open(path, "rb") as handle:
                data = handle.read()
        except OSError:
            # Missing, or transiently unreadable (permissions, flaky
            # mount): a miss, but the file may be fine — keep it.
            return None
        found = decode_record(data)
        if found is None:
            # Corrupt, truncated, or another format: drop the bad file
            # and recompute.
            self._discard(path)
        return found

    def store(self, spec: TrialSpec, payload: Any, seconds: float) -> bool:
        """Persist one trial result; returns False (and leaves no
        partial file) if the trial is uncacheable or the write fails."""
        key = self.key(spec)
        if key is None:
            return False
        try:
            record = encode_record(spec.label, seconds, payload)
        except (TypeError, ValueError):
            return False
        path = self._path(key)
        scratch = path.with_name(f"{path.name}.tmp{os.getpid()}")
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            with open(scratch, "w", encoding="utf-8") as handle:
                handle.write(record)
            os.replace(scratch, path)
        except OSError:
            self._discard(scratch)
            return False
        counters.add("cache.store")
        return True

    @staticmethod
    def _discard(path: Path) -> None:
        try:
            path.unlink()
        except OSError:
            pass
