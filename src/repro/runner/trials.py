"""Spec constructors and worker-side trial execution.

Two trial kinds:

- **experiment** — one trial of an E-series :class:`ExperimentPlan`
  (:data:`repro.analysis.experiments.TRIAL_PLANS`); the spec carries the
  plan's id plus the trial kwargs, and the worker resolves the plan *by
  name* in its own process, so nothing but primitives crosses the pipe;
- **solve** — one grid cell: its kwargs are the fields of a
  :class:`repro.api.Scenario`, executed by :func:`repro.api.run_scenario`
  (the one way to run a scenario), with the graph seed derived
  content-addressed from the sweep's master seed
  (:func:`repro.runner.specs.derive_seed`). Families, problems, and
  algorithms all resolve through the scenario registries, so registered
  plugins get grid lanes — and content-addressed cache keys — for free.

Aggregation (:func:`aggregate_sweep`) folds ordered payloads back
through the plans' aggregators — the same code path the serial
``experiment_*`` wrappers use — so a sweep's tables are byte-identical
for any worker count.
"""

from __future__ import annotations

from itertools import product
from typing import Any, Iterable, Sequence

from repro.analysis.experiments import TRIAL_PLANS, ExperimentResult
from repro.api import Scenario, run_scenario
from repro.core.algorithms import ALGORITHMS
from repro.runner.specs import (
    KIND_EXPERIMENT,
    KIND_SOLVE,
    SweepSpec,
    TrialSpec,
    derive_seed,
)

#: Cheap experiments for CI smoke sweeps (a few seconds serial).
QUICK_EXPERIMENTS = ("E1", "E2", "E4", "E5", "E6", "E10")

SOLVE_HEADERS = (
    "family",
    "n",
    "problem",
    "algorithm",
    "seed",
    "Δ",
    "awake",
    "avg awake",
    "rounds",
    "messages",
)


# -- spec construction -------------------------------------------------------


def plan_catalog() -> list[tuple[str, str, int]]:
    """List ``(experiment id, title, trial count)`` for every plan.

    Registry order — what ``repro sweep --list`` prints. Enumerating
    trials is cheap (no trial is executed).
    """
    return [
        (exp_id, plan.title, len(plan.trials()))
        for exp_id, plan in TRIAL_PLANS.items()
    ]


def validate_experiments(experiments: Sequence[str]) -> None:
    """Reject unknown or duplicated experiment ids.

    Raises a ``KeyError`` listing the valid ids; shared by sweep and
    report id validation.
    """
    unknown = [e for e in experiments if e not in TRIAL_PLANS]
    if unknown:
        raise KeyError(
            f"unknown experiment(s) {unknown}; choose from "
            f"{sorted(TRIAL_PLANS)}"
        )
    ids = list(experiments)
    duplicates = sorted({e for e in ids if ids.count(e) > 1})
    if duplicates:
        # aggregate_sweep groups payloads by experiment id, so a
        # duplicated id would fold twice the payloads into one table.
        raise KeyError(f"duplicate experiment id(s) {duplicates}")


def sweep_from_experiments(
    experiments: Sequence[str] | None = None,
    name: str = "eseries",
    quick: bool = False,
) -> SweepSpec:
    """Shard the selected E-series experiments into a sweep spec."""
    if experiments is None:
        experiments = QUICK_EXPERIMENTS if quick else tuple(TRIAL_PLANS)
    validate_experiments(experiments)
    trials = []
    for exp_id in experiments:
        plan = TRIAL_PLANS[exp_id]
        for label, kwargs in plan.trials():
            trials.append(
                TrialSpec(
                    index=len(trials),
                    kind=KIND_EXPERIMENT,
                    key=exp_id,
                    label=f"{exp_id}[{label}]",
                    kwargs=tuple(kwargs.items()),
                )
            )
    return SweepSpec(name=name, trials=tuple(trials))


def sweep_from_grid(
    families: Iterable[str],
    sizes: Iterable[int],
    problems: Iterable[str],
    algorithms: Iterable[str] = ("theorem1",),
    trials_per_config: int = 1,
    master_seed: int = 0,
    name: str = "grid",
    engines: Iterable[str] = (),
    fault_drop: float = 0.0,
    fault_corrupt: float = 0.0,
    fault_seed: int = 0,
    immune_rounds: Iterable[int] = (),
) -> SweepSpec:
    """Enumerate a seeded (family, n, problem, algorithm) solve grid.

    Every trial's kwargs are :class:`~repro.api.Scenario` field names,
    and each grid cell is validated as a scenario up front (like
    experiment ids in :func:`sweep_from_experiments`), so a typo or an
    unsupported engine raises ``KeyError`` at spec-construction time
    rather than inside a worker.

    A non-empty ``engines`` runs every grid cell once per engine. The
    per-trial seed is engine-*independent* (the same graph under every
    engine — an engine sweep doubles as a differential test), and the
    engine kwarg is appended **only when the axis is active**, so plain
    sweeps keep their pre-existing trial cache keys byte for byte —
    the same contract as the fault kwargs below.

    Nonzero ``fault_drop``/``fault_corrupt`` put every trial on the
    ``faulty-simulator`` engine; each trial's fault RNG seed is derived
    content-addressed from its trial seed (and ``fault_seed``), so the
    fault stream is as reproducible as the graph itself. Fault kwargs
    are appended to the trial kwargs **only when the fault axis is
    active**, so fault-free sweeps keep their pre-existing trial cache
    keys byte for byte. The fault axis forces the ``faulty-simulator``
    engine, so combining it with an ``engines`` axis is rejected.
    """
    faults_active = fault_drop > 0 or fault_corrupt > 0
    engine_list = list(engines)
    if engine_list and faults_active:
        raise KeyError(
            "the engines axis cannot be combined with fault injection "
            "(faults force the 'faulty-simulator' engine)"
        )
    faults = None
    if faults_active:
        faults = (fault_drop, fault_corrupt, fault_seed,
                  tuple(sorted(set(immune_rounds))))
    trials = []
    for family, n, problem, alias, engine in product(
        families, sizes, problems, algorithms, engine_list or [None]
    ):
        algorithm = _cell_algorithm(
            family, n, problem, alias, engine, fault_drop, fault_corrupt
        )
        for t in range(trials_per_config):
            trials.append(_cell_trial(
                len(trials), family, n, problem, algorithm, t, master_seed,
                engine, faults,
            ))
    return SweepSpec(name=name, trials=tuple(trials), master_seed=master_seed)


def grid_trial(
    family: str,
    n: int,
    problem: str,
    algorithm: str,
    t: int = 0,
    master_seed: int = 0,
    engine: str | None = None,
) -> TrialSpec:
    """Trial ``t`` of the one-cell grid of a scenario, built directly.

    Equal to ``sweep_from_grid((family,), (n,), (problem,),
    (algorithm,), trials_per_config=t + 1, master_seed=master_seed,
    engines=(engine,) if engine else ()).trials[t]`` — same validation,
    kwargs order, derived seed and so trial digest — without
    enumerating the ``t`` trials before it.
    """
    canonical = _cell_algorithm(family, n, problem, algorithm, engine)
    return _cell_trial(t, family, n, problem, canonical, t, master_seed, engine)


def _cell_algorithm(
    family: str,
    n: int,
    problem: str,
    alias: str,
    engine: str | None,
    fault_drop: float = 0.0,
    fault_corrupt: float = 0.0,
) -> str:
    """Validate one grid cell as a scenario; its canonical algorithm name.

    Canonicalize algorithm names so an alias ("bm21") and its target
    ("baseline") derive the same seeds, cache keys, and table rows.
    Problem names stay as given: they were (alias-)accepted verbatim
    before the registry existed, and canonicalizing them now would
    shift every pre-existing trial's derived seed and cache key.
    """
    errors = Scenario(
        family=family, n=n, problem=problem, algorithm=alias,
        engine=engine, fault_drop=fault_drop, fault_corrupt=fault_corrupt,
    ).validate()
    if errors:
        raise KeyError("; ".join(errors))
    return ALGORITHMS.resolve(alias)


def _cell_trial(
    index: int,
    family: str,
    n: int,
    problem: str,
    algorithm: str,
    t: int,
    master_seed: int,
    engine: str | None,
    faults: tuple[float, float, int, tuple[int, ...]] | None = None,
) -> TrialSpec:
    """Trial ``t`` of one validated grid cell; ``faults`` is (drop,
    corrupt, fault seed, immune rounds) when the fault axis is active."""
    seed = derive_seed(master_seed, family, n, problem, algorithm, t)
    kwargs = [
        ("family", family),
        ("n", n),
        ("problem", problem),
        ("algorithm", algorithm),
        ("seed", seed),
    ]
    label = f"{family}/n={n}/{problem}/{algorithm}#{t}"
    if engine is not None:
        kwargs.append(("engine", engine))
        label += f"@{engine}"
    if faults is not None:
        drop, corrupt, fault_seed, immune = faults
        kwargs += [
            ("fault_drop", drop),
            ("fault_corrupt", corrupt),
            ("fault_seed", derive_seed(seed, "fault", fault_seed)),
            ("immune_rounds", immune),
        ]
        label += f"!d={drop:g},c={corrupt:g}"
    return TrialSpec(
        index=index,
        kind=KIND_SOLVE,
        key=problem,
        label=label,
        kwargs=tuple(kwargs),
        seed=seed,
    )


# -- worker-side execution ---------------------------------------------------


def _solve_payload(scenario: Scenario) -> dict[str, Any]:
    """Run one grid trial's scenario; its payload is a single GRID row.

    An engine set by the sweep's engines axis is echoed in an extra
    trailing row column. Protocols broken by injected faults raise
    (``ProtocolError``/``ValidationError``), which surfaces as a trial
    failure.
    """
    result = run_scenario(scenario)
    if not result.ok:
        raise KeyError("; ".join(result.errors))
    graph, outcome = result.graph, result.outcome
    row = (
        scenario.family,
        graph.n,
        scenario.problem,
        scenario.algorithm,
        scenario.seed,
        graph.max_degree,
        outcome.awake_complexity,
        round(outcome.average_awake, 2),
        outcome.round_complexity,
        outcome.messages_sent,
    )
    if scenario.engine is not None:
        row += (scenario.engine,)
    return {"rows": [row]}


def execute_trial(spec: TrialSpec) -> Any:
    """Run one trial in the current process (worker- and serial-side)."""
    kwargs = spec.kwargs_dict()
    if spec.kind == KIND_EXPERIMENT:
        return TRIAL_PLANS[spec.key].run(**kwargs)
    if spec.kind == KIND_SOLVE:
        return _solve_payload(Scenario(**kwargs))
    raise KeyError(f"unknown trial kind {spec.kind!r} ({spec.label})")


# -- ordered aggregation -----------------------------------------------------


def aggregate_sweep(
    trials: Sequence[TrialSpec], payloads: Sequence[Any]
) -> dict[str, ExperimentResult]:
    """Fold ordered trial payloads into per-experiment results.

    ``payloads[i]`` must be the payload of ``trials[i]`` — the executor
    guarantees spec order regardless of completion order. Solve trials
    aggregate into a single ``GRID`` table.
    """
    if len(trials) != len(payloads):
        raise ValueError(f"{len(trials)} trials but {len(payloads)} payloads")
    by_experiment: dict[str, list[Any]] = {}
    grid_rows: list[Sequence[Any]] = []
    for spec, payload in zip(trials, payloads):
        if spec.kind == KIND_EXPERIMENT:
            by_experiment.setdefault(spec.key, []).append(payload)
        else:
            grid_rows.extend(payload["rows"])
    results: dict[str, ExperimentResult] = {}
    for exp_id, group in by_experiment.items():
        results[exp_id] = TRIAL_PLANS[exp_id].aggregate(group)
    if grid_rows:
        headers = list(SOLVE_HEADERS)
        if any(len(row) > len(SOLVE_HEADERS) for row in grid_rows):
            # Engine-axis sweeps carry a trailing engine column; pad the
            # rows of any engine-less trials mixed into the same sweep.
            headers.append("engine")
            grid_rows = [
                tuple(row) + ("",) * (len(headers) - len(row))
                for row in grid_rows
            ]
        results["GRID"] = ExperimentResult(
            exp_id="GRID",
            title="Seeded solve sweep (family × n × problem × algorithm)",
            headers=headers,
            rows=grid_rows,
        )
    return results
