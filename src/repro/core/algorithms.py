"""The algorithm registry: uniform adapters over the paper's solvers.

Every entry of :data:`ALGORITHMS` is an :class:`AlgorithmAdapter` whose
``solve`` runs one algorithm end to end on one graph and returns a
uniform :class:`SolveOutcome` — outputs plus awake/round/message
accounting plus an algorithm-specific ``extras`` dict. The CLI
(``repro solve``), the sweep runner's grid trials, and
:func:`repro.api.run_scenario` all dispatch through this registry, so
registering an adapter once makes it runnable everywhere (and gives it
a lane in the trial-cache key space for free).

Dispatch is resolved **once per run** — registry lookups never appear
in the simulator's per-round hot path (see PERFORMANCE.md; the engine
benchmark gates this).

Built-in adapters:

- ``theorem1`` — the headline pipeline (Theorem 13 clustering + the
  Theorem 9 clustered solver), awake O(√log n · log* n);
- ``baseline`` — BM21 (Linial + Lemma 11), awake O(log Δ + log* n);
- ``theorem9`` — the clustered solver alone, on a Theorem 13 clustering
  computed out-of-band: its metrics isolate the solving stage (awake
  O(log c)); the clustering stage's accounting rides in ``extras``;
- ``greedy`` — the definitional *sequential* greedy (increasing-ID
  priority), the centralized reference the distributed solvers are
  validated against. Its Sleeping-model accounting is the sequential
  schedule itself: every node is awake exactly once (awake = 1, average
  = 1.0), one decision per round (rounds = n), and each edge carries
  the earlier endpoint's output to the later one (messages = |E|).

Engines: ``simulator`` runs on the Sleeping-LOCAL event loop
(:class:`repro.model.simulator.SleepingSimulator`) or, for lockstep
algorithms, the equivalent native loop of
:func:`repro.model.lockstep.run_local`; ``reference`` is a centralized
oracle with deterministic synthetic accounting; ``vectorized`` replaces
per-node dispatch with whole-graph numpy kernels
(:mod:`repro.model.vectorized` for the greedy/baseline solvers,
:mod:`repro.core.clustering_vectorized` +
:mod:`repro.core.theorem1_vectorized` for the clustered pipeline) —
bit-identical outputs and metrics,
built for n ≥ 10⁵ (requires numpy); ``faulty-simulator`` is the event
loop behind a deterministic message-fault filter
(:class:`repro.model.faults.FaultySimulator`) — the fault-injection
axis of the scenario space. Fault runs are expected to **fail loudly**
(``ProtocolError`` / ``ValidationError``) when a fault actually breaks
the protocol; a run that survives reports its ``dropped``/``corrupted``
counts in ``extras``. Each adapter declares which engines it supports;
the first is its default. Unknown or unsupported engine names raise
:class:`~repro.registry.UnknownNameError` listing the valid choices,
exactly like family/problem/algorithm name lookups.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping

from repro.graphs.graph import StaticGraph
from repro.obs.spans import span
from repro.olocal.problem import OLocalProblem
from repro.registry import Registry, RegistryError, UnknownNameError
from repro.types import NodeId

#: Engine names (see module docstring).
ENGINE_SIMULATOR = "simulator"
ENGINE_REFERENCE = "reference"
ENGINE_FAULTY = "faulty-simulator"
ENGINE_VECTORIZED = "vectorized"
ENGINES = (ENGINE_SIMULATOR, ENGINE_REFERENCE, ENGINE_FAULTY, ENGINE_VECTORIZED)

#: Parameter schema of the fault axis — what ``catalog()`` and ``repro
#: sweep --list`` surface for the ``faulty-simulator`` engine.
FAULT_PARAMS: dict[str, str] = {
    "fault_drop": "per-message drop probability in [0, 1]",
    "fault_corrupt": "per-message corruption probability in [0, 1]",
    "fault_seed": "fault RNG seed (0: derived from the scenario seed)",
    "immune_rounds": "rounds in which no fault fires (tuple of ints)",
}


@dataclass(frozen=True)
class SolveOutcome:
    """What every algorithm adapter returns: one uniform result record.

    Attributes:
        algorithm: canonical registry name of the algorithm that ran.
        engine: engine that produced the accounting.
        outputs: per-node problem outputs (validated); on the
            ``vectorized`` engine a
            :class:`~repro.graphs.arrays.ColumnMap` over the decided
            column.
        awake_complexity: max awake rounds over all nodes.
        average_awake: mean awake rounds per node.
        round_complexity: last round in which any node was awake.
        messages_sent: total messages delivered.
        extras: algorithm-specific additions (clustering stats, palette
            bounds, stage metrics, ...) — never required by callers.
    """

    algorithm: str
    engine: str
    outputs: Mapping[NodeId, Any]
    awake_complexity: int
    average_awake: float
    round_complexity: int
    messages_sent: int
    extras: dict[str, Any] = field(default_factory=dict)


#: Adapter run signature: ``run(graph, problem, engine, **params)``.
RunFn = Callable[..., SolveOutcome]

#: Trace-program factory signature: ``trace(graph, problem, b)``.
TraceFn = Callable[[StaticGraph, OLocalProblem, int | None], Any]


@dataclass(frozen=True)
class AlgorithmAdapter:
    """One registered algorithm: the run callable plus its capabilities.

    Attributes:
        name: canonical registry name.
        run: ``run(graph, problem, engine, **params) -> SolveOutcome``.
        engines: engines the adapter supports; ``engines[0]`` is the
            default when a scenario leaves the engine unspecified.
        trace_program: optional factory returning the node program for
            ``repro solve --trace`` (``None`` — tracing unsupported).
    """

    name: str
    run: RunFn
    engines: tuple[str, ...] = (ENGINE_SIMULATOR,)
    trace_program: TraceFn | None = None

    @property
    def default_engine(self) -> str:
        """The engine used when a scenario does not pick one."""
        return self.engines[0]

    def validate_engine(self, engine: str) -> None:
        """Reject unknown or unsupported engine names.

        Raises :class:`~repro.registry.UnknownNameError` — a name not in
        :data:`ENGINES` at all lists every engine; a known engine this
        adapter does not run lists the adapter's supported ones. Both
        stay catchable as ``RegistryError`` and ``KeyError``, matching
        the registries' own unknown-name behavior.
        """
        if engine not in ENGINES:
            raise UnknownNameError(
                f"unknown engine {engine!r}; choose from {list(ENGINES)}"
            )
        if engine not in self.engines:
            raise UnknownNameError(
                f"algorithm {self.name!r} does not support engine "
                f"{engine!r}; supported: {list(self.engines)}"
            )

    def solve(
        self,
        graph: StaticGraph,
        problem: OLocalProblem,
        engine: str | None = None,
        **params: Any,
    ) -> SolveOutcome:
        """Run the algorithm; ``engine=None`` selects the default."""
        chosen = self.default_engine if engine is None else engine
        self.validate_engine(chosen)
        return self.run(graph, problem, chosen, **params)


#: The algorithm registry — what ``--algorithm`` names resolve through.
ALGORITHMS: Registry[AlgorithmAdapter] = Registry("algorithm")


def register_algorithm(
    name: str,
    title: str = "",
    aliases: tuple[str, ...] = (),
    params: Mapping[str, str] | None = None,
    engines: tuple[str, ...] = (ENGINE_SIMULATOR,),
    trace_program: TraceFn | None = None,
) -> Callable[[RunFn], AlgorithmAdapter]:
    """Decorator: wrap a run callable into a registered adapter.

    The decorated function is replaced by its :class:`AlgorithmAdapter`
    so importers get the registered object either way.
    """

    def decorator(run: RunFn) -> AlgorithmAdapter:
        adapter = AlgorithmAdapter(
            name=name, run=run, engines=engines, trace_program=trace_program
        )
        ALGORITHMS.add(name, adapter, title=title, aliases=aliases, params=params)
        return adapter

    return decorator


def _simulation_outcome(
    algorithm: str,
    outputs: Mapping[NodeId, Any],
    simulation: Any,
    extras: dict[str, Any],
    engine: str = ENGINE_SIMULATOR,
) -> SolveOutcome:
    """Fold a :class:`SimulationResult`'s metrics into a SolveOutcome."""
    metrics = simulation.metrics
    return SolveOutcome(
        algorithm=algorithm,
        engine=engine,
        outputs=outputs,
        awake_complexity=metrics.awake_complexity,
        average_awake=metrics.average_awake,
        round_complexity=metrics.round_complexity,
        messages_sent=metrics.messages_sent,
        extras=extras,
    )


class _FaultInjector:
    """Per-run fault wiring for simulator-backed adapters.

    When the chosen engine is :data:`ENGINE_FAULTY`, acts as the
    ``simulator`` factory the core solvers accept, constructing a
    :class:`~repro.model.faults.FaultySimulator` and remembering it so
    the adapter can report ``dropped``/``corrupted`` counts. On the
    plain engines it resolves to ``None`` (solver default) and rejects
    a stray ``fault_plan``.
    """

    def __init__(self, engine: str, fault_plan: Any) -> None:
        """Resolve the fault plan for ``engine`` (None on plain engines)."""
        if engine != ENGINE_FAULTY and fault_plan is not None:
            raise RegistryError(
                f"fault_plan requires engine {ENGINE_FAULTY!r}, "
                f"not {engine!r}"
            )
        self.engine = engine
        self.simulator: Any = None
        if engine == ENGINE_FAULTY:
            from repro.model.faults import FaultPlan

            self.plan = fault_plan if fault_plan is not None else FaultPlan()
        else:
            self.plan = None

    @property
    def factory(self) -> Any:
        """What the core solvers' ``simulator`` parameter receives."""
        return self if self.plan is not None else None

    @contextmanager
    def guarding(self) -> Any:
        """Normalize a faulty run's crash into :class:`ProtocolError`.

        A corrupted payload can detonate anywhere in a node program
        (``TypeError``, ``ValueError``, ``KeyError``, ...). Under the
        faulty engine all of those mean the same thing — the protocol
        failed loudly under faults — so they surface uniformly as
        ``ProtocolError`` with the original exception chained. Repro
        errors (``ProtocolError``/``SimulationError``/...) pass through
        untouched; plain engines are never wrapped.
        """
        if self.plan is None:
            yield
            return
        from repro.errors import ProtocolError, ReproError

        try:
            yield
        except ReproError:
            raise
        except Exception as exc:
            raise ProtocolError(
                f"fault run crashed: {type(exc).__name__}: {exc}"
            ) from exc

    def __call__(self, graph: StaticGraph, program: Any, inputs: Any = None):
        """Construct (and remember) the FaultySimulator for this run."""
        from repro.model.faults import FaultySimulator

        self.simulator = FaultySimulator(
            graph, program, self.plan, inputs=inputs
        )
        return self.simulator

    def extras(self) -> dict[str, Any]:
        """Fault provenance for the outcome's ``extras``."""
        if self.plan is None:
            return {}
        extras: dict[str, Any] = {"fault_plan": self.plan.describe()}
        if self.simulator is not None:
            extras["dropped"] = self.simulator.dropped
            extras["corrupted"] = self.simulator.corrupted
        return extras


# ---------------------------------------------------------------------------
# Built-in adapters.
# ---------------------------------------------------------------------------


def _trace_theorem1(
    graph: StaticGraph, problem: OLocalProblem, b: int | None
) -> Any:
    """Node program for ``--trace`` (Theorem 1 pipeline)."""
    from repro.core.theorem1 import theorem1_program

    return theorem1_program(problem, b)


def _trace_baseline(
    graph: StaticGraph, problem: OLocalProblem, b: int | None
) -> Any:
    """Node program for ``--trace`` (BM21 baseline; ``b`` unused)."""
    from repro.core.bm21 import baseline_program

    return baseline_program(problem, max(graph.max_degree, 1))


@register_algorithm(
    "theorem1",
    title="Theorem 1 — clustering pipeline + clustered solver, "
    "awake O(√log n · log* n)",
    aliases=("t1",),
    params={"b": "override the paper's b = 2^√(log n) (ablations)"},
    engines=(ENGINE_SIMULATOR, ENGINE_FAULTY, ENGINE_VECTORIZED),
    trace_program=_trace_theorem1,
)
def _run_theorem1(
    graph: StaticGraph,
    problem: OLocalProblem,
    engine: str,
    b: int | None = None,
    fault_plan: Any = None,
) -> SolveOutcome:
    """Theorem 1 end to end.

    The ``simulator``/``faulty-simulator`` engines run the per-node
    generator pipeline on the Sleeping event loop; ``vectorized`` runs
    the array-kernel twin
    (:func:`repro.core.theorem1_vectorized.solve_vectorized`) with
    bit-identical outputs and metrics.
    """
    faults = _FaultInjector(engine, fault_plan)
    if engine == ENGINE_VECTORIZED:
        from repro.core.theorem1_vectorized import solve_vectorized

        result = solve_vectorized(graph, problem, b=b)
    else:
        from repro.core.theorem1 import solve

        with faults.guarding():
            result = solve(graph, problem, b=b, simulator=faults.factory)
    return _simulation_outcome(
        "theorem1",
        result.outputs,
        result.simulation,
        extras={
            "b": result.b,
            "clustering": result.clustering,
            "clustering_colors": result.clustering.num_colors(),
            "palette_bound": result.palette_bound,
            **faults.extras(),
        },
        engine=engine,
    )


@register_algorithm(
    "baseline",
    title="BM21 baseline — Linial + Lemma 11, awake O(log Δ + log* n)",
    aliases=("bm21",),
    engines=(ENGINE_SIMULATOR, ENGINE_FAULTY, ENGINE_VECTORIZED),
    trace_program=_trace_baseline,
)
def _run_baseline(
    graph: StaticGraph,
    problem: OLocalProblem,
    engine: str,
    fault_plan: Any = None,
) -> SolveOutcome:
    """The BM21 baseline end to end.

    The ``simulator``/``faulty-simulator`` engines run the per-node
    generator program on the Sleeping event loop; ``vectorized`` runs
    the array-kernel twin (:mod:`repro.core.bm21_vectorized`) with
    bit-identical outputs and metrics.
    """
    faults = _FaultInjector(engine, fault_plan)
    if engine == ENGINE_VECTORIZED:
        from repro.core.bm21_vectorized import solve_with_baseline_vectorized

        result = solve_with_baseline_vectorized(graph, problem)
    else:
        from repro.core.bm21 import solve_with_baseline

        with faults.guarding():
            result = solve_with_baseline(
                graph, problem, simulator=faults.factory
            )
    return _simulation_outcome(
        "baseline",
        result.outputs,
        result.simulation,
        extras={"palette": result.palette, **faults.extras()},
        engine=engine,
    )


@register_algorithm(
    "theorem9",
    title="Theorem 9 — clustered solver on a Theorem 13 clustering, "
    "awake O(log c) (solving stage)",
    aliases=("t9", "clustered"),
    params={"b": "override the paper's b = 2^√(log n) (ablations)"},
    engines=(ENGINE_SIMULATOR, ENGINE_FAULTY, ENGINE_VECTORIZED),
)
def _run_theorem9(
    graph: StaticGraph,
    problem: OLocalProblem,
    engine: str,
    b: int | None = None,
    fault_plan: Any = None,
) -> SolveOutcome:
    """Theorem 9 on a freshly computed Theorem 13 clustering.

    The returned metrics cover the Theorem 9 solving stage only — the
    point of this adapter is to isolate the awake O(log c) stage the
    composed ``theorem1`` pipeline amortizes; the clustering stage's
    accounting is reported in ``extras``. On the ``vectorized`` engine
    both stages run as array kernels
    (:mod:`repro.core.clustering_vectorized`,
    :mod:`repro.core.theorem1_vectorized`) with bit-identical metrics.
    """
    faults = _FaultInjector(engine, fault_plan)
    if engine == ENGINE_VECTORIZED:
        from repro.core.clustering_vectorized import (
            compute_clustering_vectorized,
        )
        from repro.core.theorem1_vectorized import (
            solve_with_clustering_vectorized,
        )

        with span("theorem9.clustering", n=graph.n):
            clustering = compute_clustering_vectorized(graph, b=b)
        result = solve_with_clustering_vectorized(
            graph, problem, clustering.clustering
        )
    else:
        from repro.core.theorem9 import solve_with_clustering
        from repro.core.theorem13 import compute_clustering

        with span("theorem9.clustering", n=graph.n):
            clustering = compute_clustering(graph, b=b)
        with faults.guarding():
            result = solve_with_clustering(
                graph, problem, clustering.clustering,
                simulator=faults.factory,
            )
    return _simulation_outcome(
        "theorem9",
        result.outputs,
        result.simulation,
        extras={
            "b": clustering.b,
            "palette": result.palette,
            "clustering": clustering.clustering,
            "clustering_colors": clustering.num_colors_used,
            "palette_bound": clustering.palette_bound,
            "clustering_awake": clustering.awake_complexity,
            "clustering_rounds": clustering.round_complexity,
            **faults.extras(),
        },
        engine=engine,
    )


@register_algorithm(
    "greedy",
    title="Sequential greedy reference (increasing-ID priority), "
    "centralized oracle",
    aliases=("reference",),
    engines=(ENGINE_REFERENCE, ENGINE_SIMULATOR, ENGINE_VECTORIZED),
)
def _run_greedy(
    graph: StaticGraph, problem: OLocalProblem, engine: str
) -> SolveOutcome:
    """The greedy-by-ID algorithm, as oracle or as distributed strawman.

    ``reference`` (the default) is the definitional *sequential* greedy
    whose accounting is the sequential schedule itself (see the module
    docstring): awake = 1, average = 1.0, rounds = n, messages = |E|.

    ``simulator`` runs the distributed always-awake lockstep strawman
    (:func:`repro.model.lockstep.greedy_by_id_local`) — same outputs,
    but *measured* Sleeping-model accounting with awake complexity
    Θ(longest increasing-ID path), the cost the paper's algorithms
    undercut. ``vectorized`` is its array-kernel twin
    (:func:`repro.model.vectorized.greedy_by_id_vectorized`),
    bit-identical metrics at n ≥ 10⁶ scale.

    Every engine checks the outputs with the inputs its solve read, so
    default inputs are built at most once: up front on the per-node
    engines, which read every node's, and by the array decider only if
    it reads any.
    """
    if engine == ENGINE_REFERENCE:
        from repro.olocal.problem import id_priority, sequential_greedy

        inputs = problem.make_inputs(graph)
        outputs = sequential_greedy(
            graph, problem, priority=id_priority, inputs=inputs
        )
        problem.check(graph, outputs, inputs)
        return SolveOutcome(
            algorithm="greedy",
            engine=ENGINE_REFERENCE,
            outputs=outputs,
            awake_complexity=1,
            average_awake=1.0,
            round_complexity=graph.n,
            messages_sent=graph.num_edges,
            extras={"priority": "increasing ID"},
        )
    if engine == ENGINE_VECTORIZED:
        from repro.model.vectorized import greedy_by_id_vectorized

        result = greedy_by_id_vectorized(graph, problem, validate=True)
    else:
        from repro.model.lockstep import greedy_by_id_local

        inputs = problem.make_inputs(graph)
        result = greedy_by_id_local(graph, problem, inputs)
        problem.check(graph, result.outputs, inputs)
    return _simulation_outcome(
        "greedy",
        result.outputs,
        result,
        extras={"priority": "increasing ID", "schedule": "lockstep"},
        engine=engine,
    )
