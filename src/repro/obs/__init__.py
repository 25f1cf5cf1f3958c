"""Cross-cutting observability: structured spans, counters, progress.

Three small, dependency-free pieces the execution layers emit into:

- :mod:`repro.obs.spans` — contextvar-scoped ``span("phase", **attrs)``
  records with a no-op fast path and a multi-process-safe JSONL
  emitter (``SWEEP_<name>.trace.jsonl`` / ``RUN.trace.jsonl``);
- :mod:`repro.obs.counters` — always-on process-wide counters, shipped
  from workers to the sweep parent as per-trial deltas and surfaced on
  ``SweepResult.observability``;
- :mod:`repro.obs.progress` — the consolidated sweep progress line;
- :mod:`repro.obs.render` — the ``repro trace`` / ``repro stats``
  rendering behind the CLI.

The cardinal rule (enforced by ``tests/test_obs.py``): observability
never changes what a run computes — tables, cache keys, and journals
are byte-identical with tracing on or off.
"""

from repro.obs import counters
from repro.obs.counters import COUNTERS, peak_rss_kib
from repro.obs.progress import SweepProgress
from repro.obs.spans import (
    NOOP_SPAN,
    TRACE_ENV,
    JsonlEmitter,
    Span,
    configure,
    disable,
    enabled,
    event,
    span,
    trace_path,
)

__all__ = [
    "COUNTERS",
    "NOOP_SPAN",
    "TRACE_ENV",
    "JsonlEmitter",
    "Span",
    "SweepProgress",
    "configure",
    "counters",
    "disable",
    "enabled",
    "event",
    "peak_rss_kib",
    "span",
    "trace_path",
]
