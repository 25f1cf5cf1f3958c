"""Experiment definitions E1–E10 (see DESIGN.md §4).

Each experiment returns an :class:`ExperimentResult` — a titled table plus
key/value findings — consumed by the benchmark harness (printed rows) and
by :mod:`repro.analysis.report` (EXPERIMENTS.md). The paper has no
empirical tables, so "reproduction" means regenerating its four figures and
empirically validating every stated bound.

Every experiment is declared as an :class:`ExperimentPlan`: an
enumeration of independent, picklable trials, a module-level per-trial
function, and an order-preserving aggregator. :func:`run_experiment`
runs a plan serially (the bit-identical reference path); the
sweep runner (:mod:`repro.runner`) runs the *same* plans sharded across
worker processes and aggregates in spec order, so the tables are
byte-identical for any worker count. Experiments whose phases are
sequentially dependent (E2, E3, E4, E11) are single-trial plans.
Solve runs go through :func:`repro.api.run_scenario`, except E11's.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Any, Callable, Sequence

from repro.analysis import bounds
from repro.api import RunResult, Scenario, run_scenario
from repro.core.cast import (
    broadcast_bfs,
    broadcast_labeled,
    convergecast_bfs,
    convergecast_labeled,
)
from repro.core.clustering import (
    ColoredBFSClustering,
    UniquelyLabeledBFSClustering,
)
from repro.core.lemma14 import lemma14_reference
from repro.core.lemma15 import lemma15_reference, singleton_palette
from repro.core.mapping import ColorScheduleMapping, render_figure1
from repro.core.theorem9 import solve_with_clustering
from repro.core.theorem13 import (
    color_palette_bound,
    compute_clustering,
    default_b,
    num_phases,
    phase_label_space,
    theorem13_reference,
)
from repro.errors import ReproError
from repro.graphs import gnp, path, random_tree
from repro.graphs.examples import figure2_instance, figure4_instance
from repro.model import SleepingSimulator
from repro.olocal import DeltaPlusOneColoring, MaximalIndependentSet
from repro.olocal.not_olocal import defeating_id_assignment, sink_collision
from repro.util.tables import format_table


@dataclass
class ExperimentResult:
    """A rendered experiment: table + headline findings + free-form notes."""

    exp_id: str
    title: str
    headers: Sequence[str]
    rows: list[Sequence[Any]]
    findings: dict[str, Any] = field(default_factory=dict)
    notes: str = ""

    def render(self) -> str:
        parts = [format_table(self.headers, self.rows, title=f"{self.exp_id} — {self.title}")]
        if self.findings:
            parts.append("")
            parts.extend(f"- **{k}**: {v}" for k, v in self.findings.items())
        if self.notes:
            parts.append("")
            parts.append(self.notes)
        return "\n".join(parts)


@dataclass(frozen=True)
class ExperimentPlan:
    """How one experiment shards into independent trials.

    Attributes:
        exp_id: the experiment id, e.g. ``"E9"``.
        trials: enumerates ``(label, kwargs)`` pairs; accepts the
            keyword overrides given to :func:`run_experiment`.
        run: the per-trial function — module-level (so worker processes
            resolve it by name) and deterministic given its kwargs.
        aggregate: folds the trial payloads, **in enumeration order**,
            into the final :class:`ExperimentResult`.
        title: static one-line description of the experiment, shown by
            ``repro sweep --list`` without running anything (result
            titles may add instance parameters on top of it).
    """

    exp_id: str
    trials: Callable[..., list[tuple[str, dict[str, Any]]]]
    run: Callable[..., Any]
    aggregate: Callable[[list[Any]], ExperimentResult]
    title: str = ""


def run_experiment(exp_id: str, **overrides: Any) -> ExperimentResult:
    """Run experiment ``exp_id`` serially: enumerate, run, aggregate.

    ``overrides`` are keywords of the plan's trial enumeration, e.g.
    ``run_experiment("E9", sizes=(16, 32))``.
    """
    plan = TRIAL_PLANS[exp_id]
    payloads = [plan.run(**kwargs) for _label, kwargs in plan.trials(**overrides)]
    return plan.aggregate(payloads)


def _solved(**fields: Any) -> RunResult:
    """Run the scenario of ``fields``; a rejected one raises."""
    result = run_scenario(Scenario(**fields))
    if not result.ok:
        raise ReproError("; ".join(result.errors))
    return result


def _merge_rows(payloads: list[Any]) -> list[Sequence[Any]]:
    return [row for payload in payloads for row in payload["rows"]]


# ---------------------------------------------------------------------------
# E1 — Figure 1 / Lemma 10.
# ---------------------------------------------------------------------------


def _e1_trials(max_log_q: int = 10) -> list[tuple[str, dict[str, Any]]]:
    return [(f"q=2^{k}", {"log_q": k}) for k in range(0, max_log_q + 1)]


def _e1_trial(log_q: int) -> dict[str, Any]:
    q = 2**log_q
    mapping = ColorScheduleMapping(q)
    mapping.verify()
    return {"rows": [(q, mapping.schedule_length, mapping.num_rounds, "ok")]}


def _e1_aggregate(payloads: list[Any]) -> ExperimentResult:
    m8 = ColorScheduleMapping(8)
    return ExperimentResult(
        exp_id="E1",
        title="Lemma 10 mappings φ and r (Figure 1)",
        headers=["q", "|r(c)| = 1+log q", "rounds 2q-1", "properties"],
        rows=_merge_rows(payloads),
        findings={
            "phi(2), r(2) at q=8 (paper)": f"{m8.phi(2)}, {sorted(m8.r(2))} "
            f"(paper: 3, [2, 3, 4, 8])",
            "phi(4), r(4) at q=8 (paper)": f"{m8.phi(4)}, {sorted(m8.r(4))} "
            f"(paper: 7, [4, 6, 7, 8])",
        },
        notes="```\n" + render_figure1(8) + "\n```",
    )



# ---------------------------------------------------------------------------
# E2 — Figure 2 / Lemma 14.
# ---------------------------------------------------------------------------


def _e2() -> ExperimentResult:
    """Flatten the Figure 2 instance and tabulate (ℓ, δ), (ℓ', δ'), (ℓ'', δ'')."""
    inst = figure2_instance()
    ref = lemma14_reference(
        inst.graph, inst.level1_label, inst.level1_dist,
        inst.level2_label, inst.level2_dist,
    )
    flattened = UniquelyLabeledBFSClustering(
        label={v: o.label for v, o in ref.items()},
        dist={v: o.dist for v, o in ref.items()},
    )
    flattened.validate(inst.graph)
    k = flattened.virtual_graph(inst.graph)
    rows = []
    for v in inst.graph.nodes:
        lab = inst.level1_label[v]
        rows.append(
            (v, lab, inst.level1_dist[v], inst.level2_label[lab],
             inst.level2_dist[lab], ref[v].label, ref[v].dist)
        )
    return ExperimentResult(
        exp_id="E2",
        title="Lemma 14 flattening on the Figure 2 instance",
        headers=["node", "ℓ", "δ", "ℓ'", "δ'", "ℓ''", "δ''"],
        rows=rows,
        findings={
            "(ℓ'', δ'') satisfies Definition 2": "yes (validated)",
            "virtual graph of (ℓ'', δ'') equals K": f"yes — {k.n} vertices, "
            f"edges {list(k.edges())}",
        },
    )


# ---------------------------------------------------------------------------
# E3 — Figure 3 / the Theorem 13 loop trace.
# ---------------------------------------------------------------------------


def _e3(n: int = 96, seed: int = 7) -> ExperimentResult:
    """Trace |V(H_i)| across phases; check the /b decay of Lemma 15."""
    graph = gnp(n, 0.12, seed=seed)
    b = default_b(graph.n)
    rows = []
    label = {v: v for v in graph.nodes}
    active = set(graph.nodes)
    phase = 0
    while active:
        phase += 1
        ls = phase_label_space(graph.id_space, b, phase)
        h = _virtual_graph(graph, active, label, ls)
        ref = lemma15_reference(h, b)
        finished = sum(
            1 for lab in set(label[v] for v in active)
            if ref.outputs[lab].singleton
        )
        residual = ref.residual_clusters
        rows.append(
            (phase, h.n, finished, residual, h.n // b,
             "ok" if residual <= h.n // b else "VIOLATED")
        )
        new_active = {
            v for v in active if not ref.outputs[label[v]].singleton
        }
        label = {v: ref.outputs[label[v]].gamma for v in new_active}
        active = new_active
        if phase > num_phases(graph.n) + 2:
            break
    return ExperimentResult(
        exp_id="E3",
        title=f"Theorem 13 iteration trace (Figure 3), n={n}, b={b}",
        headers=["phase", "|V(H_{i-1})|", "finished", "residual",
                 "bound n_i/b", "≤ bound"],
        rows=rows,
        findings={
            "phases used": phase,
            "phase budget k = 2·sqrt(log n)": num_phases(graph.n),
            "palette bound": color_palette_bound(graph.n, b),
        },
    )


def _virtual_graph(graph, active, label, label_space):
    from repro.graphs.graph import StaticGraph

    edges = set()
    for u, v in graph.edges():
        if u in active and v in active and label[u] != label[v]:
            edges.add((min(label[u], label[v]), max(label[u], label[v])))
    return StaticGraph.from_edges(
        edges, nodes={label[v] for v in active}, id_space=label_space
    )


# ---------------------------------------------------------------------------
# E4 — Figure 4 / one Lemma 15 phase in detail.
# ---------------------------------------------------------------------------


def _e4() -> ExperimentResult:
    """Parent selection and cluster decomposition on the Figure 4 instance."""
    inst = figure4_instance()
    ref = lemma15_reference(inst.graph, inst.b)
    rows = []
    for v in inst.graph.nodes:
        out = ref.outputs[v]
        rows.append(
            (v, inst.graph.degree(v), ref.c1[v],
             ref.p1[v] if ref.p1[v] is not None else "⊥",
             ref.c2[v],
             ref.p2[v] if ref.p2[v] is not None else "⊥",
             "singleton" if out.singleton else f"residual:{out.root}",
             out.gamma, out.delta)
        )
    clustering = ColoredBFSClustering(ref.gamma(), ref.delta())
    clustering.validate(inst.graph)
    return ExperimentResult(
        exp_id="E4",
        title=f"Lemma 15 on the Figure 4 instance (b={inst.b})",
        headers=["node", "deg", "c1", "p1", "c2", "p2", "cluster", "γ", "δ"],
        rows=rows,
        findings={
            "residual clusters": f"{ref.residual_clusters} "
            f"(bound n/b = {inst.graph.n // inst.b})",
            "singleton palette a·b²": singleton_palette(inst.b),
            "valid colored BFS-clustering": "yes (validated)",
        },
    )


# ---------------------------------------------------------------------------
# E5 — Lemma 6: cast awake complexities.
# ---------------------------------------------------------------------------


def _e5_tree(tree: str):
    if tree == "path-32":
        return path(32), 1
    if tree == "star-32":
        return _star(32), 1
    if tree == "random-tree-64":
        return random_tree(64, seed=3), 5
    raise KeyError(tree)


_E5_TREES = ("path-32", "star-32", "random-tree-64")


def _e5_trials() -> list[tuple[str, dict[str, Any]]]:
    return [(tree, {"tree": tree}) for tree in _E5_TREES]


def _e5_trial(tree: str) -> dict[str, Any]:
    graph, root = _e5_tree(tree)
    parent, depth = _bfs_tree(graph, root)
    rows = []
    for variant, runner, bound in [
        ("broadcast (BFS δ)", _run_broadcast_bfs, 2),
        ("convergecast (BFS δ)", _run_convergecast_bfs, 2),
        ("broadcast (labeled)", _run_broadcast_labeled, 3),
        ("convergecast (labeled)", _run_convergecast_labeled, 3),
    ]:
        res = runner(graph, parent, depth, root)
        rows.append(
            (tree, graph.n, variant, res.awake_complexity, bound,
             res.round_complexity,
             "ok" if res.awake_complexity <= bound else "VIOLATED")
        )
    return {"rows": rows}


def _e5_aggregate(payloads: list[Any]) -> ExperimentResult:
    return ExperimentResult(
        exp_id="E5",
        title="Lemma 6 broadcast/convergecast awake complexity",
        headers=["tree", "n", "variant", "awake (max)", "paper bound",
                 "rounds", "within"],
        rows=_merge_rows(payloads),
        findings={"paper": "awake complexity 3, round complexity O(N)"},
    )



def _star(n):
    from repro.graphs import star

    return star(n)


def _bfs_tree(graph, root):
    depth = graph.bfs_distances(root)
    parent = {
        v: (None if v == root else min(
            u for u in graph.neighbors(v) if depth[u] == depth[v] - 1
        ))
        for v in graph.nodes
    }
    return parent, depth


def _run_broadcast_bfs(graph, parent, depth, root):
    def program(info):
        value = yield from broadcast_bfs(
            info.id, info.neighbors, parent[info.id], depth[info.id],
            info.n, 1, "m" if info.id == root else None,
        )
        return value

    return SleepingSimulator(graph, program).run()


def _run_convergecast_bfs(graph, parent, depth, root):
    def program(info):
        value = yield from convergecast_bfs(
            info.id, info.neighbors, parent[info.id], depth[info.id],
            info.n, 1, (info.id,), lambda a, b: a + b,
        )
        return value

    return SleepingSimulator(graph, program).run()


def _run_broadcast_labeled(graph, parent, depth, root):
    bound = graph.n * 3

    def program(info):
        value = yield from broadcast_labeled(
            info.id, info.neighbors, parent[info.id], 3 * depth[info.id],
            bound, 1, "m" if info.id == root else None,
        )
        return value

    return SleepingSimulator(graph, program).run()


def _run_convergecast_labeled(graph, parent, depth, root):
    bound = graph.n * 3

    def program(info):
        value = yield from convergecast_labeled(
            info.id, info.neighbors, parent[info.id], 3 * depth[info.id],
            bound, 1, (info.id,), lambda a, b: a + b,
        )
        return value

    return SleepingSimulator(graph, program).run()


# ---------------------------------------------------------------------------
# E6 — Lemma 11 + the BM21 baseline.
# ---------------------------------------------------------------------------


#: label -> (family, n, seed, params) of each E6 scenario.
_E6_GRAPHS = {
    "path-64": ("path", 64, 0, {}),
    "4-regular-64": ("regular", 64, 1, {"degree": 4}),
    "gnp-64-dense": ("gnp", 64, 2, {"p": 0.3}),
    "complete-32": ("complete", 32, 0, {}),
    "complete-64": ("complete", 64, 0, {}),
}


def _e6_trials() -> list[tuple[str, dict[str, Any]]]:
    return [(name, {"graph_name": name}) for name in _E6_GRAPHS]


def _e6_trial(graph_name: str) -> dict[str, Any]:
    family, n, seed, params = _E6_GRAPHS[graph_name]
    run = _solved(
        family=family, n=n, seed=seed, params=params, algorithm="baseline"
    )
    graph, result = run.graph, run.outcome
    delta = graph.max_degree
    bound = bounds.baseline_awake_bound(graph.id_space, delta)
    return {
        "rows": [
            (graph_name, graph.n, delta, result.awake_complexity, bound,
             result.round_complexity,
             "ok" if result.awake_complexity <= bound else "VIOLATED")
        ]
    }


def _e6_aggregate(payloads: list[Any]) -> ExperimentResult:
    return ExperimentResult(
        exp_id="E6",
        title="BM21 baseline (Lemma 11 + Linial): awake O(log Δ + log* n)",
        headers=["graph", "n", "Δ", "awake", "bound", "rounds", "within"],
        rows=_merge_rows(payloads),
        findings={
            "shape": "awake grows with log Δ (complete-64 > complete-32 > "
            "sparse), the regime Theorem 1 improves",
        },
    )



# ---------------------------------------------------------------------------
# E7 — Theorem 9: awake O(log c).
# ---------------------------------------------------------------------------


def _e7_trials(n: int = 32, seed: int = 3) -> list[tuple[str, dict[str, Any]]]:
    """Fix a graph+clustering; widen the assumed palette c — awake grows
    logarithmically."""
    graph = gnp(n, 0.15, seed=seed)
    base_c = max(_greedy_coloring(graph).values())
    return [
        (f"c={c}", {"n": n, "seed": seed, "c": c})
        for c in [base_c, 8, 16, 64, 256, 1024]
        if c >= base_c
    ]


def _e7_trial(n: int, seed: int, c: int) -> dict[str, Any]:
    graph = gnp(n, 0.15, seed=seed)
    colors = _greedy_coloring(graph)
    clustering = ColoredBFSClustering(colors, {v: 0 for v in graph.nodes})
    result = solve_with_clustering(
        graph, DeltaPlusOneColoring(), clustering, palette=c
    )
    bound = bounds.theorem9_awake_bound(n, c)
    return {
        "n": n,
        "rows": [
            (c, result.awake_complexity, bound, result.round_complexity,
             "ok" if result.awake_complexity <= bound else "VIOLATED")
        ],
    }


def _e7_aggregate(payloads: list[Any]) -> ExperimentResult:
    return ExperimentResult(
        exp_id="E7",
        title=f"Theorem 9: awake vs palette c (n={payloads[0]['n']})",
        headers=["c", "awake", "bound O(log c)", "rounds", "within"],
        rows=_merge_rows(payloads),
        findings={
            "shape": "awake grows ~7 rounds per doubling of c (the ×7 "
            "Lemma 7 overhead on one extra calendar level)",
        },
    )



def _greedy_coloring(graph):
    colors = {}
    for v in graph.nodes:
        used = {colors[u] for u in graph.neighbors(v) if u in colors}
        c = 1
        while c in used:
            c += 1
        colors[v] = c
    return colors


# ---------------------------------------------------------------------------
# E8 — Theorem 13: colors, decay, awake, and the ID-space remark.
# ---------------------------------------------------------------------------


def _e8a_trials(sizes=(64, 256, 1024, 4096, 8192)) -> list[tuple[str, dict[str, Any]]]:
    """Colors used vs the 2^{O(sqrt log n)} bound across n (no
    simulation — Definition 4 validated centrally)."""
    return [(f"n={n}", {"n": n}) for n in sizes]


def _e8a_trial(n: int) -> dict[str, Any]:
    graph = gnp(n, min(0.5, 3.0 / n) if n > 16 else 0.3, seed=n)
    ref = theorem13_reference(graph)
    return {
        "rows": [
            (n, graph.max_degree, ref.b, num_phases(n),
             ref.clustering.num_colors(), ref.clustering.max_color(),
             ref.palette_bound)
        ]
    }


def _e8a_aggregate(payloads: list[Any]) -> ExperimentResult:
    return ExperimentResult(
        exp_id="E8a",
        title="Theorem 13 structure at scale (centralized reference)",
        headers=["n", "Δ", "b", "phases", "colors used", "max color",
                 "bound k·a·b²"],
        rows=_merge_rows(payloads),
        findings={
            "paper": "2^{O(sqrt(log n))} colors; the bound column grows "
            "sub-polynomially",
        },
    )



def _e8b_trials(sizes=(8, 16, 32, 64, 96, 128)) -> list[tuple[str, dict[str, Any]]]:
    return [(f"n={n}", {"n": n}) for n in sizes]


def _e8b_trial(n: int) -> dict[str, Any]:
    graph = gnp(n, 3.0 / n, seed=n + 1)
    res = compute_clustering(graph)
    bound = bounds.theorem13_awake_bound(graph.n, graph.id_space)
    return {
        "rows": [
            (n, res.b, res.awake_complexity, bound,
             res.round_complexity,
             "ok" if res.awake_complexity <= bound else "VIOLATED")
        ]
    }


def _e8b_aggregate(payloads: list[Any]) -> ExperimentResult:
    return ExperimentResult(
        exp_id="E8b",
        title="Theorem 13 measured awake complexity (Sleeping simulator)",
        headers=["n", "b", "awake", "bound", "rounds", "within"],
        rows=_merge_rows(payloads),
        findings={
            "paper": "awake O(sqrt(log n)·log* n), rounds O(n^5 sqrt(log n))",
        },
    )



def _e8c_trials(n: int = 12, seed: int = 9) -> list[tuple[str, dict[str, Any]]]:
    """The §5 Remark: IDs from [n^s] change round complexity, not awake."""
    return [(f"s={s}", {"n": n, "seed": seed, "s": s}) for s in (1, 2, 3)]


def _e8c_trial(n: int, seed: int, s: int) -> dict[str, Any]:
    from repro.util.idspace import polynomial_ids

    ids = polynomial_ids(n, s, seed=seed) if s > 1 else None
    graph = gnp(n, 0.3, seed=seed, ids=ids)
    res = compute_clustering(graph)
    return {
        "n": n,
        "rows": [
            (f"n^{s}", graph.id_space, res.awake_complexity,
             res.round_complexity)
        ],
    }


def _e8c_aggregate(payloads: list[Any]) -> ExperimentResult:
    return ExperimentResult(
        exp_id="E8c",
        title=f"§5 Remark: ID range vs round/awake complexity "
        f"(n={payloads[0]['n']})",
        headers=["ID space", "|space|", "awake", "rounds"],
        rows=_merge_rows(payloads),
        findings={
            "paper": "rounds O(n^{1+s} sqrt(log n)) for IDs in [n^s]; awake "
            "unchanged — the rounds column grows with s, awake stays flat",
        },
    )



# ---------------------------------------------------------------------------
# E9 — the headline comparison: Theorem 1 vs the BM21 baseline.
# ---------------------------------------------------------------------------


#: Registered family -> row label; each is built at ``seed=n``.
_E9_FAMILIES = {
    "path": "bounded-degree (path)",
    "powerlaw": "Δ=n^ε (power-law)",
    "complete": "Δ=n-1 (complete)",
}


def _e9_trials(
    sizes=(16, 32, 64, 128, 256), problem: str = "mis"
) -> list[tuple[str, dict[str, Any]]]:
    """Awake complexity of both algorithms on low- and high-degree
    families. The paper's claim: for Δ = n^ε the baseline pays Θ(log n)
    while Theorem 1 pays O(sqrt(log n)·log* n) — the *growth rates* must
    separate even where constants favor the baseline."""
    return [
        (f"{family}/n={n}", {"n": n, "family": family, "problem": problem})
        for n in sizes
        for family in _E9_FAMILIES
    ]


def _e9_trial(n: int, family: str, problem: str = "mis") -> dict[str, Any]:
    runs = [
        _solved(family=family, n=n, seed=n, problem=problem, algorithm=name)
        for name in ("baseline", "theorem1")
    ]
    graph = runs[0].graph
    base, thm1 = (run.outcome for run in runs)
    return {
        "rows": [
            (_E9_FAMILIES[family], n, graph.max_degree,
             base.awake_complexity, thm1.awake_complexity,
             f"{thm1.awake_complexity / base.awake_complexity:.2f}",
             bounds.baseline_asymptotic(graph.max_degree, graph.id_space),
             bounds.theorem1_asymptotic(n, graph.id_space))
        ]
    }


def _e9_aggregate(payloads: list[Any]) -> ExperimentResult:
    return ExperimentResult(
        exp_id="E9",
        title="Theorem 1 vs BM21 baseline (headline comparison)",
        headers=["family", "n", "Δ", "awake BM21", "awake Thm1",
                 "Thm1/BM21", "~logΔ+log*n", "~√log n·log*n"],
        rows=_merge_rows(payloads),
        findings={
            "shape": "the baseline's awake grows with log Δ (doubling n on "
            "complete graphs adds ~2 awake rounds); Theorem 1's awake is "
            "flat in Δ and tracks sqrt(log n)·log* n. Constants favor the "
            "baseline at laptop scales — the crossover is asymptotic "
            "(n ≈ 2^{(C·sqrt(log n) log* n / log n)²}), exactly as the "
            "paper's 'polynomial improvement for Δ ≫ 2^{sqrt(log n)}' "
            "stipulates for the *exponent*, not the constant.",
        },
    )



# ---------------------------------------------------------------------------
# E10 — distance-2 coloring is not O-LOCAL.
# ---------------------------------------------------------------------------


def _e10_trials(num_rules: int = 8) -> list[tuple[str, dict[str, Any]]]:
    return [(f"rule#{seed}", {"seed": seed}) for seed in range(num_rules)]


def _e10_trial(seed: int) -> dict[str, Any]:
    import random

    rng = random.Random(seed)
    table = {i: rng.randint(1, 5) for i in range(1, 7)}
    f = table.__getitem__
    assignment = defeating_id_assignment(f, 6)
    pair = sink_collision(f, assignment)
    return {
        "rows": [
            (f"f#{seed}: {list(table.values())}",
             str(assignment), f"sinks {pair[0]} & {pair[1]}",
             f(assignment[pair[0] - 1]))
        ]
    }


def _e10_aggregate(payloads: list[Any]) -> ExperimentResult:
    return ExperimentResult(
        exp_id="E10",
        title="§2.2: every 5-color sink rule is defeated on P_6",
        headers=["rule f(1..6)", "ID placement", "colliding sinks",
                 "shared color"],
        rows=_merge_rows(payloads),
        findings={
            "paper": "distance-2 coloring ∉ O-LOCAL — sinks of the "
            "alternating orientation decide from their ID alone, and "
            "pigeonhole forces a distance-2 collision",
        },
    )



# ---------------------------------------------------------------------------
# E11 — average awake complexity (the conclusion's Open Question 3).
# ---------------------------------------------------------------------------


def _e11(n: int = 48, seed: int = 21) -> ExperimentResult:
    """Max vs average awake rounds per algorithm: the paper asks whether
    o(sqrt(log n)) — or constant — *average* awake complexity is possible;
    we measure where the implementations actually stand."""
    # Direct solver calls: total_awake is on the simulation metrics,
    # which a scenario's SolveOutcome does not carry.
    from repro.core.bm21 import solve_with_baseline
    from repro.core.theorem1 import solve

    graph = gnp(n, 0.12, seed=seed)
    problem = MaximalIndependentSet()
    rows = []

    base = solve_with_baseline(graph, problem)
    metrics = base.simulation.metrics
    rows.append(("BM21 baseline", metrics.awake_complexity,
                 round(metrics.average_awake, 2), metrics.total_awake))

    thm1 = solve(graph, problem)
    metrics = thm1.simulation.metrics
    rows.append(("Theorem 1", metrics.awake_complexity,
                 round(metrics.average_awake, 2), metrics.total_awake))

    clustering = compute_clustering(graph)
    metrics = clustering.simulation.metrics
    rows.append(("Theorem 13 (clustering only)", metrics.awake_complexity,
                 round(metrics.average_awake, 2), metrics.total_awake))

    from repro.olocal.luby import luby_mis

    luby = luby_mis(graph, seed=seed)
    metrics = luby.simulation.metrics
    rows.append(("Luby (randomized, always awake)", metrics.awake_complexity,
                 round(metrics.average_awake, 2), metrics.total_awake))

    return ExperimentResult(
        exp_id="E11",
        title=f"Average vs maximum awake complexity (n={n})",
        headers=["algorithm", "max awake", "avg awake", "total awake"],
        rows=rows,
        findings={
            "open question 3": "the paper asks for o(sqrt(log n)) or even "
            "constant *average* awake; in our runs the average sits close "
            "to the max for both algorithms (the wake calendars are "
            "data-independent), so closing the gap needs genuinely "
            "adaptive schedules — consistent with it being open. Luby's "
            "randomized MIS shows what adaptivity buys: most nodes decide in "
            "the first phases, so its average is far below its max",
        },
    )


# ---------------------------------------------------------------------------
# E12 — ablation: the parameter b of Theorem 13.
# ---------------------------------------------------------------------------


def _e12_trials(n: int = 40, seed: int = 23) -> list[tuple[str, dict[str, Any]]]:
    """The paper fixes b = 2^{sqrt(log n)}; the ablation shows the
    trade-off: larger b dissolves more nodes per phase (fewer phases,
    more colors), smaller b needs more phases with fewer colors each."""
    return [(f"b={b}", {"n": n, "seed": seed, "b": b}) for b in (2, 4, 8, 16)]


def _e12_trial(n: int, seed: int, b: int) -> dict[str, Any]:
    graph = gnp(n, 0.15, seed=seed)
    ref = theorem13_reference(graph, b=b)
    phases_used = max(a.phase for a in ref.assignments.values())
    res = compute_clustering(graph, b=b)
    return {
        "n": graph.n,
        "rows": [
            (b, singleton_palette(b), phases_used,
             ref.clustering.num_colors(), ref.clustering.max_color(),
             res.awake_complexity, res.round_complexity)
        ],
    }


def _e12_aggregate(payloads: list[Any]) -> ExperimentResult:
    n = payloads[0]["n"]
    marker = default_b(n)
    return ExperimentResult(
        exp_id="E12",
        title=f"Ablation: the phase parameter b (n={n}, paper's b={marker})",
        headers=["b", "a·b²", "phases used", "colors used", "max color",
                 "awake", "rounds"],
        rows=_merge_rows(payloads),
        findings={
            "trade-off": "b controls the split between per-phase palette "
            "(a·b², grows with b) and phase count (shrinks with b); the "
            "paper's b = 2^{sqrt(log n)} balances the product at "
            "2^{O(sqrt(log n))} total colors and O(sqrt(log n)) phases",
        },
    )



# ---------------------------------------------------------------------------
# Plan registry — the sweep runner executes these same plans sharded.
# ---------------------------------------------------------------------------


def _single_plan(
    exp_id: str, fn: Callable[..., ExperimentResult], title: str = ""
) -> ExperimentPlan:
    """A one-trial plan for experiments with sequentially dependent
    phases; the overrides are ``fn``'s keywords, and the payload is the
    result's fields, plain JSON like every other trial payload."""
    return ExperimentPlan(
        exp_id=exp_id,
        trials=lambda **overrides: [(exp_id, overrides)],
        run=lambda **kwargs: asdict(fn(**kwargs)),
        aggregate=lambda payloads: ExperimentResult(**payloads[0]),
        title=title,
    )


TRIAL_PLANS: dict[str, ExperimentPlan] = {
    "E1": ExperimentPlan(
        "E1", _e1_trials, _e1_trial, _e1_aggregate,
        title="Lemma 10 mappings φ and r (Figure 1)",
    ),
    "E2": _single_plan(
        "E2", _e2,
        title="Lemma 14 flattening on the Figure 2 instance",
    ),
    "E3": _single_plan(
        "E3", _e3,
        title="Theorem 13 iteration trace (Figure 3)",
    ),
    "E4": _single_plan(
        "E4", _e4,
        title="Lemma 15 on the Figure 4 instance",
    ),
    "E5": ExperimentPlan(
        "E5", _e5_trials, _e5_trial, _e5_aggregate,
        title="Lemma 6 broadcast/convergecast awake complexity",
    ),
    "E6": ExperimentPlan(
        "E6", _e6_trials, _e6_trial, _e6_aggregate,
        title="BM21 baseline (Lemma 11 + Linial): awake O(log Δ + log* n)",
    ),
    "E7": ExperimentPlan(
        "E7", _e7_trials, _e7_trial, _e7_aggregate,
        title="Theorem 9: awake vs palette c",
    ),
    "E8a": ExperimentPlan(
        "E8a", _e8a_trials, _e8a_trial, _e8a_aggregate,
        title="Theorem 13 structure at scale (centralized reference)",
    ),
    "E8b": ExperimentPlan(
        "E8b", _e8b_trials, _e8b_trial, _e8b_aggregate,
        title="Theorem 13 measured awake complexity (Sleeping simulator)",
    ),
    "E8c": ExperimentPlan(
        "E8c", _e8c_trials, _e8c_trial, _e8c_aggregate,
        title="§5 Remark: ID range vs round/awake complexity",
    ),
    "E9": ExperimentPlan(
        "E9", _e9_trials, _e9_trial, _e9_aggregate,
        title="Theorem 1 vs BM21 baseline (headline comparison)",
    ),
    "E10": ExperimentPlan(
        "E10", _e10_trials, _e10_trial, _e10_aggregate,
        title="§2.2: every 5-color sink rule is defeated on P_6",
    ),
    "E11": _single_plan(
        "E11", _e11,
        title="Average vs maximum awake complexity",
    ),
    "E12": ExperimentPlan(
        "E12", _e12_trials, _e12_trial, _e12_aggregate,
        title="Ablation: the phase parameter b of Theorem 13",
    ),
}
