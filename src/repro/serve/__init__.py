"""The results service layer: indexed store, provenance DAG, HTTP API.

``repro.serve`` turns the repo's flat result files into a queryable,
long-running service while keeping every deterministic byte sacred:

- :mod:`repro.serve.store` — :class:`ResultStore`, a sqlite index over
  ingested ``SWEEP_*.json`` artifacts, ``SWEEP_*.journal`` checkpoints,
  and ``BENCH_history.jsonl``, keyed by content-addressed digests;
  ingest is idempotent (same digest → no-op) and fail-open (corrupt
  files skip with a warning);
- :mod:`repro.serve.dag` — :func:`provenance` / :func:`sweep_dag`,
  the scenario → trial → artifact → output provenance graph as JSON;
- :mod:`repro.serve.service` — :class:`ReproService`, the
  stdlib-``http.server`` threaded API behind ``repro serve``: catalog,
  warm-cache ``/solve``, byte-identical table serving, bench trends,
  async sweep submission.

Like every other subsystem, serve is a library layer below the CLI:
nothing here imports :mod:`repro.cli`.
"""

from repro.serve.dag import provenance, sweep_dag
from repro.serve.service import ReproService, ServiceError, solve_spec
from repro.serve.store import (
    IngestResult,
    ResultStore,
    StoreError,
    canonical_json,
    file_digest,
)

__all__ = [
    "IngestResult",
    "ReproService",
    "ResultStore",
    "ServiceError",
    "StoreError",
    "canonical_json",
    "file_digest",
    "provenance",
    "solve_spec",
    "sweep_dag",
]
