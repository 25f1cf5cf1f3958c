"""``SWEEP_*.json`` artifact output.

The artifact has two layers:

- a **deterministic** layer — the sweep's identity and the aggregated
  ``tables`` (rendered markdown plus findings), which is byte-identical
  for any worker count; the determinism tests compare exactly this
  layer across worker counts. The identity records every trial as
  :meth:`~repro.runner.specs.TrialSpec.describe` gives it: index,
  kind, key, label, seed, the trial ``digest`` and its ``kwargs``
  (``null`` unless plain JSON), so a reader such as the result store
  knows what each trial ran without parsing its label;
- a **provenance** layer — per-trial wall times, worker pids, cache
  hit/miss accounting, pool restarts, the worker count and total wall
  clock, which is expected to vary run to run and is kept in separate
  keys (``timing``, ``failures``, ``observability``).

The ``observability`` block (merged counters, per-worker aggregates,
retry taxonomy, peak RSS — see :mod:`repro.obs`) is provenance by
construction: pids and RSS vary run to run, so it lives outside
:func:`deterministic_view` exactly like ``timing``.

A sweep run with ``keep_going`` may complete with failures; its
artifact then aggregates the completed trials (partial, explicitly
marked) and embeds the full
:class:`~repro.runner.resilience.FailureReport` — failed trials listed
with their remote tracebacks — under ``failures``. The deterministic
view never includes it.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from repro.runner.executor import SweepResult


def sweep_artifact_payload(result: SweepResult) -> dict[str, Any]:
    """The JSON-able artifact content for a completed sweep.

    A keep-going sweep that collected failures aggregates only its
    completed trials — the artifact says so (``partial: true``) and
    carries the failure report alongside.
    """
    experiments = result.experiments(allow_partial=bool(result.failures))
    stats = result.cache_stats
    tables = {
        exp_id: {
            "title": exp.title,
            "headers": [str(h) for h in exp.headers],
            "rows": [[str(cell) for cell in row] for row in exp.rows],
            "findings": {str(k): str(v) for k, v in exp.findings.items()},
            "render": exp.render(),
        }
        for exp_id, exp in experiments.items()
    }
    return {
        "sweep": result.spec.describe(),
        "tables": tables,
        "partial": bool(result.failures),
        "failures": result.failure_report.describe(),
        "observability": result.observability,
        "timing": {
            "workers": result.workers,
            "wall_seconds": result.wall_seconds,
            "pool_restarts": result.pool_restarts,
            # Compute done by *this* run; cache hits and journal
            # resumes carry historical times, accounted separately
            # under ``cache.seconds_saved`` / the journal itself.
            "trial_seconds_total": sum(
                o.seconds
                for o in result.outcomes
                if not o.cached and not o.resumed
            ),
            "cache": None if stats is None else stats.describe(),
            "trials": [
                {
                    "label": outcome.spec.label,
                    "seconds": outcome.seconds,
                    "worker": outcome.worker,
                    "cached": outcome.cached,
                    "resumed": outcome.resumed,
                }
                for outcome in result.outcomes
            ],
        },
    }


def deterministic_view(payload: dict[str, Any]) -> dict[str, Any]:
    """The subset of an artifact payload that must not depend on the
    worker count or machine load."""
    return {"sweep": payload["sweep"], "tables": payload["tables"]}


def write_sweep_artifact(
    result: SweepResult, output_dir: str | Path = ".", tag: str | None = None
) -> Path:
    """Write ``SWEEP_<tag>.json`` (tag defaults to the sweep name)."""
    tag = tag or result.spec.name
    path = Path(output_dir) / f"SWEEP_{tag}.json"
    payload = sweep_artifact_payload(result)
    path.write_text(json.dumps(payload, indent=2, ensure_ascii=False) + "\n")
    return path
