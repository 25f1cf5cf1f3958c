"""Structured tracing: contextvar spans, a no-op fast path, JSONL emission.

The tracing contract, in order of importance:

1. **Zero overhead when disabled.** :func:`span` returns a shared no-op
   singleton when tracing is off — one module-global bool check, no
   allocation beyond the call itself, nothing retained. Hot loops that
   want to skip even that much hoist ``enabled()`` into a local bool
   once per run.
2. **Tracing never changes results.** Spans observe; they carry no data
   back into the computation. Tables, cache keys, and journals are
   byte-identical with tracing on or off — the differential tests in
   ``tests/test_obs.py`` are the gate.
3. **One process tree, one stream.** The emitter appends to a single
   ``*.trace.jsonl`` file with ``O_APPEND`` and exactly one ``write()``
   per record, so sweep workers (fork *or* spawn) interleave whole
   lines, never torn ones. Activation travels through the
   :data:`TRACE_ENV` environment variable: fork workers inherit the
   live module state, spawn workers re-arm from the environment at
   import time.

Span records (``kind: "span"``) carry a process-unique ``id``, the
``parent`` span id (from a :class:`contextvars.ContextVar`, so the tree
survives thread switches and — via fork inheritance — reaches into
worker processes), the emitting ``pid``, a shared-monotonic-clock
``t0`` and a ``dur`` in seconds. Instantaneous facts (a cache hit, a
retry, a pool restart) are ``kind: "event"`` records with ``dur: 0``.
"""

from __future__ import annotations

import itertools
import json
import os
import time
from contextvars import ContextVar
from typing import Any

#: Environment variable carrying the active trace file path; set by
#: :func:`configure` so worker processes (fork or spawn) join the stream.
TRACE_ENV = "REPRO_TRACE"

_current: ContextVar[str | None] = ContextVar("repro_obs_span", default=None)
_ids = itertools.count(1)

_enabled: bool = False
_emitter: "JsonlEmitter | None" = None


class JsonlEmitter:
    """Appends one JSON line per record to ``path``.

    The file descriptor is opened with ``O_APPEND`` and each record is
    emitted in a single ``os.write`` call, so concurrent writers (pool
    workers) interleave complete lines. The descriptor is re-opened
    after a fork (pid check) — children never share the parent's file
    offset bookkeeping.
    """

    __slots__ = ("path", "_fd", "_pid")

    def __init__(self, path: str | os.PathLike[str]) -> None:
        self.path = os.fspath(path)
        self._fd: int | None = None
        self._pid: int | None = None

    def emit(self, record: dict[str, Any]) -> None:
        line = json.dumps(
            record, separators=(",", ":"), sort_keys=True, default=str
        )
        try:
            os.write(self._ensure_fd(), (line + "\n").encode("utf-8"))
        except OSError:
            # Tracing is observability, not correctness: a full disk or
            # a yanked file degrades to "no trace", never to a failure.
            pass

    def _ensure_fd(self) -> int:
        pid = os.getpid()
        if self._fd is None or self._pid != pid:
            self._fd = os.open(
                self.path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644
            )
            self._pid = pid
        return self._fd

    def close(self) -> None:
        if self._fd is not None and self._pid == os.getpid():
            try:
                os.close(self._fd)
            except OSError:
                pass
        self._fd = None
        self._pid = None


def enabled() -> bool:
    """Whether tracing is live — hoist into a local bool in hot loops."""
    return _enabled


def trace_path() -> str | None:
    """The active trace file path, or ``None`` when disabled."""
    return _emitter.path if _enabled and _emitter is not None else None


def configure(
    path: str | os.PathLike[str],
    *,
    truncate: bool = True,
    export_env: bool = True,
) -> str:
    """Enable tracing to ``path``; returns the path.

    ``export_env`` (default) publishes the path through
    :data:`TRACE_ENV` so worker processes spawned later — by either
    start method — join the same stream. ``truncate`` starts the file
    fresh (a new run's trace should not append to last week's).
    """
    global _enabled, _emitter
    disable()
    path = os.fspath(path)
    if truncate:
        try:
            with open(path, "w", encoding="utf-8"):
                pass
        except OSError:
            pass
    _emitter = JsonlEmitter(path)
    _enabled = True
    if export_env:
        os.environ[TRACE_ENV] = path
    return path


def disable() -> None:
    """Stop tracing and clear the environment activation."""
    global _enabled, _emitter
    _enabled = False
    if _emitter is not None:
        _emitter.close()
        _emitter = None
    os.environ.pop(TRACE_ENV, None)


def _arm_from_env() -> None:
    """Join a trace stream announced via the environment.

    Spawn-method pool workers import this module fresh; the parent's
    :func:`configure` left the path in :data:`TRACE_ENV`, so they start
    emitting into the same file without any explicit handshake.
    """
    path = os.environ.get(TRACE_ENV)
    if path:
        configure(path, truncate=False, export_env=False)


class _NoopSpan:
    """The disabled path: one shared, stateless, reentrant instance."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc_info: object) -> bool:
        return False

    def event(self, name: str, **attrs: Any) -> None:
        """Discard (matches :meth:`Span.event`)."""


NOOP_SPAN = _NoopSpan()


class Span:
    """A live span: times a phase and emits one record on exit."""

    __slots__ = ("name", "attrs", "span_id", "parent_id", "t0", "_token")

    def __init__(self, name: str, attrs: dict[str, Any]) -> None:
        self.name = name
        self.attrs = attrs

    def __enter__(self) -> "Span":
        self.span_id = f"{os.getpid()}-{next(_ids)}"
        self.parent_id = _current.get()
        self._token = _current.set(self.span_id)
        self.t0 = time.monotonic()
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> bool:
        dur = time.monotonic() - self.t0
        _current.reset(self._token)
        record: dict[str, Any] = {
            "kind": "span",
            "name": self.name,
            "id": self.span_id,
            "parent": self.parent_id,
            "pid": os.getpid(),
            "t0": self.t0,
            "dur": dur,
        }
        if exc_type is not None:
            record["error"] = exc_type.__name__
        if self.attrs:
            record["attrs"] = self.attrs
        if _enabled and _emitter is not None:
            _emitter.emit(record)
        return False

    def event(self, name: str, **attrs: Any) -> None:
        """An instantaneous record parented to this span."""
        _emit_event(name, self.span_id, attrs)


def span(name: str, **attrs: Any) -> "Span | _NoopSpan":
    """Open a span around a phase::

        with span("scenario.solve", algorithm="theorem1"):
            ...

    Disabled tracing returns the shared no-op singleton — callers never
    branch on :func:`enabled` for correctness, only for hot-loop
    economy.
    """
    if not _enabled:
        return NOOP_SPAN
    return Span(name, attrs)


def event(name: str, **attrs: Any) -> None:
    """Emit an instantaneous record under the current span (no-op when
    tracing is disabled)."""
    if not _enabled:
        return
    _emit_event(name, _current.get(), attrs)


def _emit_event(
    name: str, parent: str | None, attrs: dict[str, Any]
) -> None:
    if not _enabled or _emitter is None:
        return
    record: dict[str, Any] = {
        "kind": "event",
        "name": name,
        "id": f"{os.getpid()}-{next(_ids)}",
        "parent": parent,
        "pid": os.getpid(),
        "t0": time.monotonic(),
        "dur": 0.0,
    }
    if attrs:
        record["attrs"] = attrs
    _emitter.emit(record)


_arm_from_env()
