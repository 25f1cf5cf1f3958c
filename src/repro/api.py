"""The unified scenario API: one front door for every way to run repro.

A :class:`Scenario` is a frozen, picklable description of one solve
run — *which* graph family at *what* size with *which* IDs and seed,
*which* problem, *which* algorithm on *which* engine, plus free-form
``params`` validated against the registries' parameter schemas. The
CLI's ``solve`` command, the sweep runner's grid trials, and ad-hoc
experiment scripts all reduce to scenarios, so anything registered in
:data:`~repro.graphs.families.GRAPH_FAMILIES`,
:data:`~repro.olocal.PROBLEMS`, or
:data:`~repro.core.algorithms.ALGORITHMS` — including third-party
``repro.plugins`` entry points — is immediately runnable everywhere.

- :func:`run_scenario` executes one scenario in-process and returns a
  :class:`RunResult` (validation errors are *returned*, not raised, so
  batch drivers can collect them);
- :func:`run_grid` enumerates a (families × sizes × problems ×
  algorithms × trials) grid and bridges into
  :func:`repro.runner.executor.run_sweep`, so grids shard across worker
  processes and hit the content-addressed trial cache for free.

Quickstart::

    from repro import Scenario, run_scenario

    result = run_scenario(Scenario(family="gnp", n=48, problem="mis"))
    assert result.ok
    print(result.outcome.awake_complexity, result.outcome.round_complexity)
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Any, Iterable, Mapping

from repro.core.algorithms import (
    ALGORITHMS,
    ENGINE_FAULTY,
    ENGINES,
    FAULT_PARAMS,
    SolveOutcome,
)
from repro.graphs.families import (
    GRAPH_FAMILIES,
    build_family_graph,
    validate_id_scheme,
)
from repro.graphs.graph import StaticGraph
from repro.obs import counters
from repro.obs.spans import span
from repro.olocal import PROBLEMS
from repro.registry import UnknownNameError, load_plugins

if TYPE_CHECKING:
    from repro.runner.executor import SweepResult

@dataclass(frozen=True)
class Scenario:
    """A frozen, picklable description of one solve run.

    ``params`` accepts a mapping at construction time and is normalized
    to a sorted tuple of ``(name, value)`` pairs, so scenarios hash,
    compare, and pickle deterministically. Parameter names must be
    declared by the chosen family's or algorithm's schema (checked by
    :meth:`validate`).

    ``engine=None`` selects the algorithm's default engine — unless the
    fault axis is active (``fault_drop``/``fault_corrupt`` nonzero), in
    which case the ``faulty-simulator`` engine is auto-selected.
    Setting an explicit non-faulty engine together with active fault
    params is a validation error. The fault RNG seed is ``fault_seed``
    when nonzero, else the scenario ``seed``.
    """

    family: str = "gnp"
    n: int = 32
    ids: str = "identity"
    seed: int = 0
    problem: str = "mis"
    algorithm: str = "theorem1"
    engine: str | None = None
    params: tuple[tuple[str, Any], ...] = ()
    fault_drop: float = 0.0
    fault_corrupt: float = 0.0
    fault_seed: int = 0
    immune_rounds: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        """Canonicalize params/immune_rounds into sorted tuples."""
        if isinstance(self.params, Mapping):
            object.__setattr__(
                self, "params", tuple(sorted(self.params.items()))
            )
        else:
            object.__setattr__(
                self, "params", tuple(sorted(tuple(self.params)))
            )
        object.__setattr__(
            self, "immune_rounds", tuple(sorted(set(self.immune_rounds)))
        )

    @property
    def faults_active(self) -> bool:
        """Whether the fault axis can fire for this scenario."""
        return self.fault_drop > 0 or self.fault_corrupt > 0

    def resolved_engine(self) -> str | None:
        """The engine that will actually run.

        ``None`` still means "the algorithm's default" — except active
        fault params auto-select :data:`~repro.core.algorithms.ENGINE_FAULTY`.
        """
        if self.engine is None and self.faults_active:
            return ENGINE_FAULTY
        return self.engine

    def fault_plan(self):
        """The :class:`~repro.model.faults.FaultPlan` this scenario implies."""
        from repro.model.faults import FaultPlan

        return FaultPlan(
            drop_probability=self.fault_drop,
            corrupt_probability=self.fault_corrupt,
            seed=self.fault_seed if self.fault_seed else self.seed,
            immune_rounds=frozenset(self.immune_rounds),
        )

    def params_dict(self) -> dict[str, Any]:
        """The normalized params as a plain dict."""
        return dict(self.params)

    def with_params(self, **updates: Any) -> "Scenario":
        """A copy with ``updates`` merged into ``params``."""
        merged = {**self.params_dict(), **updates}
        return replace(self, params=tuple(sorted(merged.items())))

    def validate(self) -> list[str]:
        """All validation errors (empty list = runnable).

        Checks registry membership of family/problem/algorithm, engine
        support, the ID scheme, the size, and that every param name is
        declared by the family's or the algorithm's schema. Plugins are
        loaded first, so entry-point registrations count.
        """
        load_plugins()
        errors: list[str] = []
        allowed: set[str] = set()
        try:
            allowed |= set(GRAPH_FAMILIES.entry(self.family).params)
        except UnknownNameError as exc:
            errors.append(str(exc.args[0]))
        try:
            PROBLEMS.get(self.problem)
        except UnknownNameError as exc:
            errors.append(str(exc.args[0]))
        engine = self.resolved_engine()
        try:
            entry = ALGORITHMS.entry(self.algorithm)
            allowed |= set(entry.params)
            if engine is not None:
                # Unknown engines list all of ENGINES; known-but-
                # unsupported ones list the adapter's engines — the same
                # UnknownNameError messages AlgorithmAdapter.solve raises.
                entry.value.validate_engine(engine)
        except UnknownNameError as exc:
            errors.append(str(exc.args[0]))
        for name in ("fault_drop", "fault_corrupt"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                errors.append(f"{name} must be in [0, 1], got {value}")
        if self.faults_active and self.engine not in (None, ENGINE_FAULTY):
            errors.append(
                f"fault params require engine {ENGINE_FAULTY!r} (or "
                f"engine=None to auto-select it), not {self.engine!r}"
            )
        if self.n < 1:
            errors.append(f"n must be >= 1, got {self.n}")
        try:
            validate_id_scheme(self.ids)
        except UnknownNameError as exc:
            errors.append(str(exc.args[0]))
        unknown = sorted(set(self.params_dict()) - allowed)
        if unknown:
            errors.append(
                f"unknown scenario param(s) {unknown}; declared: "
                f"{sorted(allowed)}"
            )
        return errors

    def build_graph(self) -> StaticGraph:
        """The scenario's graph, built with the family-declared params.

        This and :meth:`algorithm_params` are the one place a param is
        routed to the family or the algorithm that declares it; call
        :meth:`validate` first, since an undeclared param is dropped here.
        """
        declared = GRAPH_FAMILIES.entry(self.family).params
        return build_family_graph(
            self.family,
            self.n,
            seed=self.seed,
            ids=self.ids,
            **{k: v for k, v in self.params if k in declared},
        )

    def algorithm_params(self) -> dict[str, Any]:
        """The params the scenario's algorithm declares."""
        declared = ALGORITHMS.entry(self.algorithm).params
        return {k: v for k, v in self.params if k in declared}

    def describe(self) -> dict[str, Any]:
        """JSON-able identity of the scenario."""
        described = {
            "family": self.family,
            "n": self.n,
            "ids": self.ids,
            "seed": self.seed,
            "problem": self.problem,
            "algorithm": self.algorithm,
            "engine": self.engine,
            "params": self.params_dict(),
        }
        if self.faults_active:
            described["faults"] = self.fault_plan().describe()
        return described


@dataclass(frozen=True)
class RunResult:
    """What :func:`run_scenario` returns — outcome *or* errors.

    Attributes:
        scenario: the scenario as run.
        errors: validation errors; non-empty means nothing executed.
        graph: the instantiated graph (``None`` when validation failed).
        outcome: the algorithm's uniform :class:`SolveOutcome`
            (``None`` when validation failed).
    """

    scenario: Scenario
    errors: tuple[str, ...] = ()
    graph: StaticGraph | None = None
    outcome: SolveOutcome | None = field(default=None, repr=False)

    @property
    def ok(self) -> bool:
        """True when the scenario validated and ran to completion."""
        return not self.errors


def run_scenario(scenario: Scenario) -> RunResult:
    """Validate and execute one scenario in-process.

    Deterministic: the same scenario always produces the same outputs
    and the same awake/round/message accounting. Validation errors are
    returned on the :class:`RunResult` (check ``result.ok``); genuine
    runtime failures — a solver bug, an invalid solution — still raise.
    """
    with span(
        "scenario.run",
        family=scenario.family,
        n=scenario.n,
        problem=scenario.problem,
        algorithm=scenario.algorithm,
    ):
        with span("scenario.validate"):
            errors = scenario.validate()
        if errors:
            return RunResult(scenario=scenario, errors=tuple(errors))
        algo_params = scenario.algorithm_params()
        with span("scenario.build_graph", family=scenario.family, n=scenario.n):
            graph = scenario.build_graph()
        engine = scenario.resolved_engine()
        if engine == ENGINE_FAULTY:
            algo_params["fault_plan"] = scenario.fault_plan()
        with span(
            "scenario.solve", algorithm=scenario.algorithm, engine=engine
        ):
            outcome = ALGORITHMS.get(scenario.algorithm).solve(
                graph,
                PROBLEMS.get(scenario.problem),
                engine=engine,
                **algo_params,
            )
        # Message counts are charged by the engine kernels themselves
        # (simulator / vectorized), which also covers the pipelines'
        # nested simulations; here only the scenario itself is counted.
        counters.add("scenario.run")
    return RunResult(scenario=scenario, graph=graph, outcome=outcome)


def run_grid(
    families: Iterable[str] = ("path", "gnp"),
    sizes: Iterable[int] = (16, 32),
    problems: Iterable[str] = ("mis",),
    algorithms: Iterable[str] = ("theorem1",),
    trials: int = 1,
    seed: int = 0,
    workers: int = 1,
    cache: Any = None,
    name: str = "grid",
    progress: Any = None,
    engines: Iterable[str] = (),
    fault_drop: float = 0.0,
    fault_corrupt: float = 0.0,
    fault_seed: int = 0,
    immune_rounds: Iterable[int] = (),
    **runner_options: Any,
) -> "SweepResult":
    """Run a seeded scenario grid through the sharded sweep runner.

    The grid is enumerated by
    :func:`repro.runner.trials.sweep_from_grid` (per-trial seeds are
    content-addressed off ``seed``) and executed by
    :func:`repro.runner.executor.run_sweep` — so ``workers > 1`` shards
    across processes and the aggregated tables are byte-identical for
    any worker count. Caching is opt-in here (unlike the CLI, which
    defaults it on): pass ``cache=TrialCache()`` to serve repeated
    trials from the content-addressed store instead of recomputing.
    Unknown names raise ``KeyError`` listing the valid registry names,
    before anything runs.

    A non-empty ``engines`` adds an engine axis: every (family, n,
    problem, algorithm) cell runs once per listed engine — the per-trial
    graph seed is engine-independent, so an engine sweep is a built-in
    differential test (bit-identical metric columns per cell). Engine
    names are validated against every selected algorithm up front; the
    default (no axis) leaves each algorithm on its default engine and
    keeps pre-existing cache keys byte for byte.

    ``fault_drop``/``fault_corrupt``/``fault_seed``/``immune_rounds``
    put every grid trial on the ``faulty-simulator`` engine (fault-free
    grids keep their existing cache keys; combining them with an
    ``engines`` axis is rejected). ``runner_options`` are
    forwarded to :func:`~repro.runner.executor.run_sweep` — ``retry``,
    ``timeout``, ``keep_going``, ``journal``, ``max_pool_restarts``.

    Returns the runner's ``SweepResult`` (``.experiments()`` for
    tables, ``.render()`` for markdown).
    """
    from repro.runner.executor import run_sweep
    from repro.runner.trials import sweep_from_grid

    load_plugins()
    spec = sweep_from_grid(
        families=tuple(families),
        sizes=tuple(sizes),
        problems=tuple(problems),
        algorithms=tuple(algorithms),
        trials_per_config=trials,
        master_seed=seed,
        name=name,
        engines=tuple(engines),
        fault_drop=fault_drop,
        fault_corrupt=fault_corrupt,
        fault_seed=fault_seed,
        immune_rounds=immune_rounds,
    )
    return run_sweep(
        spec, workers=workers, progress=progress, cache=cache,
        **runner_options,
    )


def scenarios_from_grid(
    families: Iterable[str],
    sizes: Iterable[int],
    problems: Iterable[str],
    algorithms: Iterable[str] = ("theorem1",),
    trials: int = 1,
    seed: int = 0,
    engines: Iterable[str] = (),
) -> list[Scenario]:
    """The scenarios a :func:`run_grid` call would execute, in trial order.

    Exposed for callers that want to run or inspect trials individually:
    each is the scenario of one trial of
    :func:`repro.runner.trials.sweep_from_grid`, so seeds, canonical
    algorithm names, and validation errors (``KeyError``) are the grid
    runner's. A non-empty ``engines`` fans each cell out across engines
    (seeds, and therefore graphs, stay engine-independent).
    """
    from repro.runner.trials import sweep_from_grid

    spec = sweep_from_grid(
        families, sizes, problems, algorithms,
        trials_per_config=trials, master_seed=seed, engines=engines,
    )
    return [Scenario(**t.kwargs_dict()) for t in spec.trials]


def catalog() -> dict[str, Any]:
    """The axes of the scenario space (plugins included).

    Canonical names of every registered family, problem, and algorithm,
    plus the engine names, the per-algorithm engine support matrix
    (``engine_matrix``, default engine first — what ``repro solve
    --list`` prints), the fault-axis parameter schema (``fault_params``)
    and which algorithms accept the ``faulty-simulator`` engine
    (``fault_capable``)."""
    load_plugins()
    return {
        "families": GRAPH_FAMILIES.names(),
        "problems": PROBLEMS.names(),
        "algorithms": ALGORITHMS.names(),
        "engines": ENGINES,
        "engine_matrix": {
            name: ALGORITHMS.get(name).engines for name in ALGORITHMS.names()
        },
        "fault_params": dict(FAULT_PARAMS),
        "fault_capable": tuple(
            name
            for name in ALGORITHMS.names()
            if ENGINE_FAULTY in ALGORITHMS.get(name).engines
        ),
    }


__all__ = [
    "RunResult",
    "Scenario",
    "SolveOutcome",
    "catalog",
    "load_plugins",
    "run_grid",
    "run_scenario",
    "scenarios_from_grid",
]
