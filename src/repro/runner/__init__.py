"""The sweep-runner subsystem: sharded, deterministic experiment sweeps.

Layers (each in its own module, importable independently):

- :mod:`repro.runner.specs` — ``TrialSpec``/``SweepSpec``: picklable,
  order-indexed descriptions of seeded trials, the deterministic
  per-trial seed derivation, and ``TrialSpec.digest`` — the one trial
  identity (kind, key, kwargs, derived seed) that the cache key, the
  journal, the retry backoff and the result store's trial ids all use;
- :mod:`repro.runner.trials` — spec constructors (E-series experiment
  sweeps, seeded ``(family, n, problem, seed)`` solve grids, and one
  grid cell's trial without enumerating the grid) and the worker-side
  trial execution/aggregation against the experiment plans;
- :mod:`repro.runner.cache` — ``TrialCache``: a content-addressed
  on-disk store of trial results, keyed by SHA-256 of the trial digest
  plus a code-version salt, so repeated sweeps and report
  regenerations skip heavy recomputation; it also defines the one
  trial record (canonical JSON, payload checksummed, never unpickled)
  that cache files and journal lines use;
- :mod:`repro.runner.executor` — ``run_sweep``: serial with
  ``workers=1`` (the bit-identical reference path) or sharded across a
  ``multiprocessing`` pool, with ordered result aggregation,
  worker-crash surfacing, and optional cache lookup/store;
- :mod:`repro.runner.resilience` — ``RetryPolicy`` (bounded attempts,
  deterministic jittered backoff), the per-trial wall-clock deadline,
  the append-only ``SweepJournal`` checkpoint (``--resume``), and the
  ``FailureReport`` that ``--keep-going`` collects;
- :mod:`repro.runner.chaos` — env-armed deterministic fault injection
  (raise / hang / hard-exit) into the executor's per-trial entry
  point, so the resilience layer is itself tested by fault injection;
- :mod:`repro.runner.artifacts` — ``SWEEP_*.json`` artifact output with
  a deterministic ``tables`` section (identical for any worker count,
  cache state, retry schedule, or resume point) and a record of every
  trial (its digest and kwargs), which the result store reads as is.

The CLI entry points are ``python -m repro sweep`` and ``python -m
repro report`` (see :mod:`repro.cli`).
"""

from repro.runner.artifacts import sweep_artifact_payload, write_sweep_artifact
from repro.runner.cache import (
    DEFAULT_CACHE_DIR,
    CacheStats,
    TrialCache,
    code_version_salt,
    trial_cache_key,
)
from repro.runner.chaos import ChaosError, ChaosSpec, chaos_from_env
from repro.runner.executor import SweepError, SweepResult, TrialOutcome, run_sweep
from repro.runner.resilience import (
    FailureReport,
    RetryPolicy,
    SweepJournal,
    TrialFailure,
    TrialTimeoutError,
)
from repro.runner.specs import SweepSpec, TrialSpec, derive_seed
from repro.runner.trials import (
    aggregate_sweep,
    execute_trial,
    plan_catalog,
    sweep_from_experiments,
    sweep_from_grid,
)

__all__ = [
    "DEFAULT_CACHE_DIR",
    "CacheStats",
    "ChaosError",
    "ChaosSpec",
    "FailureReport",
    "RetryPolicy",
    "SweepError",
    "SweepJournal",
    "SweepResult",
    "SweepSpec",
    "TrialCache",
    "TrialFailure",
    "TrialOutcome",
    "TrialSpec",
    "TrialTimeoutError",
    "aggregate_sweep",
    "chaos_from_env",
    "code_version_salt",
    "derive_seed",
    "execute_trial",
    "plan_catalog",
    "run_sweep",
    "sweep_artifact_payload",
    "sweep_from_experiments",
    "sweep_from_grid",
    "trial_cache_key",
    "write_sweep_artifact",
]
