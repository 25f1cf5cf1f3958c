"""The vectorized engine: array kernels, adapter dispatch, sweep axis.

Bit-identity with the per-node engines on a fixed corpus lives in
``tests/test_engine_equivalence.py``; this module covers the rest —
randomized CI-sized differentials for every vectorized-capable adapter,
the n = 65536 scale cases (marked slow), the UnknownNameError contract
for bad engine names, and the sweep/cache behavior of the engines axis.
"""

import numpy as np
import pytest

from repro.core.algorithms import ALGORITHMS, ENGINE_VECTORIZED, ENGINES
from repro.graphs.families import build_family_graph
from repro.graphs.generators import gnp, preferential_attachment
from repro.registry import RegistryError, UnknownNameError
from repro.olocal import PROBLEMS

VECTORIZED_ADAPTERS = sorted(
    name
    for name in ALGORITHMS.names()
    if ENGINE_VECTORIZED in ALGORITHMS.get(name).engines
)


def test_vectorized_adapters_cover_all_four_algorithms():
    assert VECTORIZED_ADAPTERS == [
        "baseline", "greedy", "theorem1", "theorem9",
    ]


def test_catalog_engine_matrix_matches_adapters():
    """api.catalog() must reflect adapter engine support automatically —
    a future adapter cannot silently drift from the catalog."""
    from repro.api import catalog

    matrix = catalog()["engine_matrix"]
    assert set(matrix) == set(ALGORITHMS.names())
    for name, engines in matrix.items():
        assert tuple(engines) == ALGORITHMS.get(name).engines, name
    for name in ("theorem1", "theorem9"):
        assert ENGINE_VECTORIZED in matrix[name]


def _solve_both(algorithm, graph, problem):
    adapter = ALGORITHMS.get(algorithm)
    vec = adapter.solve(graph, problem, engine=ENGINE_VECTORIZED)
    ref = adapter.solve(graph, problem)
    return vec, ref


def assert_outcomes_identical(vec, ref):
    assert vec.outputs == ref.outputs
    assert vec.awake_complexity == ref.awake_complexity
    assert vec.average_awake == ref.average_awake
    assert vec.round_complexity == ref.round_complexity
    assert vec.messages_sent == ref.messages_sent


# -- randomized CI-sized differentials ---------------------------------------


@pytest.mark.parametrize("algorithm", VECTORIZED_ADAPTERS)
@pytest.mark.parametrize("pname", sorted(PROBLEMS))
@pytest.mark.parametrize(
    "family,n,seed",
    [
        ("gnp", 220, 3),
        ("powerlaw", 180, 5),
        ("regular", 200, 7),
        ("tree", 260, 9),
    ],
)
def test_vectorized_matches_default_engine(algorithm, pname, family, n, seed):
    """vectorized == the adapter's default per-node engine, on random
    graphs, for every problem × every vectorized-capable adapter.

    The greedy adapter's default is the ``reference`` oracle, whose
    metrics model differs by design — compare against ``simulator``
    there instead. The clustered adapters run the full Theorem 13 + 9
    pipeline per node on the simulator side, so their graphs shrink to
    keep the differential CI-sized.
    """
    if algorithm in ("theorem1", "theorem9"):
        n = max(40, n // 4)
    graph = build_family_graph(family, n, seed=seed)
    problem = PROBLEMS.get(pname)
    adapter = ALGORITHMS.get(algorithm)
    baseline_engine = (
        "simulator" if adapter.default_engine == "reference"
        else adapter.default_engine
    )
    vec = adapter.solve(graph, problem, engine=ENGINE_VECTORIZED)
    ref = adapter.solve(graph, problem, engine=baseline_engine)
    assert_outcomes_identical(vec, ref)


@pytest.mark.parametrize("algorithm", VECTORIZED_ADAPTERS)
def test_greedy_outputs_match_reference_oracle(algorithm):
    """Whatever the engine, outputs must equal the sequential greedy /
    checked baseline decision — the engine only changes *how* rounds
    are executed, never what is decided."""
    graph = build_family_graph("gnp", 150, seed=21)
    problem = PROBLEMS.get("coloring")
    vec = ALGORITHMS.get(algorithm).solve(
        graph, problem, engine=ENGINE_VECTORIZED
    )
    problem.check(graph, vec.outputs, problem.make_inputs(graph))


# -- engine validation: the UnknownNameError contract ------------------------


class TestEngineValidation:
    def test_unknown_engine_lists_all_engines(self):
        adapter = ALGORITHMS.get("greedy")
        with pytest.raises(UnknownNameError) as exc:
            adapter.validate_engine("warp")
        message = str(exc.value)
        assert "unknown engine 'warp'" in message
        for engine in ENGINES:
            assert engine in message

    def test_unsupported_engine_lists_adapter_engines(self):
        adapter = ALGORITHMS.get("theorem1")
        with pytest.raises(UnknownNameError) as exc:
            adapter.validate_engine("reference")
        message = str(exc.value)
        assert "'theorem1' does not support engine 'reference'" in message
        for engine in adapter.engines:
            assert engine in message

    def test_unknown_engine_is_registry_and_key_error(self):
        adapter = ALGORITHMS.get("greedy")
        with pytest.raises(RegistryError):
            adapter.validate_engine("warp")
        with pytest.raises(KeyError):
            adapter.validate_engine("warp")

    def test_solve_validates_engine(self):
        graph = build_family_graph("path", 6, seed=0)
        with pytest.raises(UnknownNameError, match="does not support"):
            ALGORITHMS.get("theorem9").solve(
                graph, PROBLEMS.get("mis"), engine="reference"
            )

    def test_scenario_surfaces_engine_errors(self):
        from repro.api import Scenario

        errors = Scenario(algorithm="greedy", engine="warp").validate()
        assert any("unknown engine 'warp'" in e for e in errors)
        errors = Scenario(algorithm="theorem1", engine="reference").validate()
        assert any("does not support engine" in e for e in errors)


# -- the sweep engines axis --------------------------------------------------


class TestEngineAxis:
    def run_grid(self, cache=None, engines=()):
        from repro.api import run_grid

        return run_grid(
            families=["gnp"],
            sizes=[40],
            problems=["mis"],
            algorithms=["greedy"],
            engines=engines,
            cache=cache,
        )

    def test_engine_axis_rows_and_column(self):
        result = self.run_grid(engines=["simulator", "vectorized"])
        grid = result.experiments()["GRID"]
        assert grid.headers[-1] == "engine"
        by_engine = {row[-1]: row for row in grid.rows}
        assert set(by_engine) == {"simulator", "vectorized"}
        # Same derived seed → same graph → identical metrics: the axis
        # is a built-in differential test.
        assert by_engine["simulator"][:-1] == by_engine["vectorized"][:-1]

    def test_engine_axis_covers_clustered_pipeline(self):
        """The --engines differential smoke for the headline pipeline:
        same derived seed → identical metric rows per engine, for both
        clustered adapters."""
        from repro.api import run_grid

        result = run_grid(
            families=["gnp"],
            sizes=[40],
            problems=["mis"],
            algorithms=["theorem1", "theorem9"],
            engines=["simulator", "vectorized"],
        )
        grid = result.experiments()["GRID"]
        algo_col = grid.headers.index("algorithm")
        for algorithm in ("theorem1", "theorem9"):
            rows = {
                row[-1]: row for row in grid.rows
                if row[algo_col] == algorithm
            }
            assert set(rows) == {"simulator", "vectorized"}
            assert rows["simulator"][:-1] == rows["vectorized"][:-1]

    def test_no_axis_keeps_plain_headers(self):
        grid = self.run_grid().experiments()["GRID"]
        assert "engine" not in grid.headers

    def test_axis_does_not_disturb_plain_cache_keys(self, tmp_path):
        from repro.runner import TrialCache

        cache = TrialCache(str(tmp_path))
        self.run_grid(cache=cache)
        stats = self.run_grid(cache=cache).cache_stats
        assert stats.hits == 1  # same key with or without the axis wired
        # engine-tagged trials hash differently per engine
        r = self.run_grid(cache=cache, engines=["simulator", "vectorized"])
        assert r.cache_stats.hits == 0 and r.cache_stats.misses == 2

    def test_engine_labels_tag_trials(self):
        from repro.runner import sweep_from_grid

        spec = sweep_from_grid(
            families=["gnp"], sizes=[16], problems=["mis"],
            algorithms=["greedy"], engines=["vectorized"],
        )
        assert all("@vectorized" in t.label for t in spec.trials)

    def test_bad_engine_fails_at_spec_time(self):
        from repro.runner import sweep_from_grid

        with pytest.raises(KeyError, match="does not support"):
            sweep_from_grid(
                families=["gnp"], sizes=[16], problems=["mis"],
                algorithms=["theorem1"], engines=["reference"],
            )

    def test_fault_axis_rejects_fault_incapable_algorithm(self):
        from repro.runner import sweep_from_grid

        with pytest.raises(
            KeyError, match="does not support engine 'faulty-simulator'"
        ):
            sweep_from_grid(
                families=["gnp"], sizes=[16], problems=["mis"],
                algorithms=["greedy"], fault_drop=0.1,
            )

    def test_engines_axis_rejects_fault_axis(self):
        from repro.runner import sweep_from_grid

        with pytest.raises(KeyError, match="cannot be combined"):
            sweep_from_grid(
                families=["gnp"], sizes=[16], problems=["mis"],
                algorithms=["greedy"], engines=["vectorized"],
                fault_drop=0.1,
            )

    def test_cli_sweep_engine_axis(self, capsys):
        from repro.cli import main

        code = main([
            "sweep", "--grid", "--families", "gnp", "--sizes", "24",
            "--problems", "mis", "--algorithms", "greedy",
            "--engines", "simulator", "vectorized",
            "--no-artifact", "--no-cache",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "engine" in out and "vectorized" in out


# -- BM21 decides in Kahn waves, not one call per color class ----------------


def _per_class_oracle(graph, problem, colors):
    """BM21's decisions made one ``decide_wave`` call per color class."""
    from repro.graphs.arrays import ragged_gather
    from repro.model.vectorized import make_wave_decider

    ga = graph.arrays
    decider = make_wave_decider(graph, problem, problem.make_inputs(graph))
    order = np.argsort(colors, kind="stable")
    bounds = np.flatnonzero(np.diff(colors[order])) + 1
    for color_class in np.split(order, bounds):
        nbrs, counts = ragged_gather(ga.offsets, ga.flat, color_class)
        decider.decide_wave(color_class, nbrs, counts)
    return decider.outputs()


def _longest_increasing_path(graph, colors):
    """Nodes on the longest color-increasing path: the Kahn wave count."""
    offsets, flat = graph.arrays.offsets.tolist(), graph.arrays.flat.tolist()
    c = colors.tolist()
    depth = [0] * graph.n
    for s in np.argsort(colors, kind="stable").tolist():
        lower = [depth[t] for t in flat[offsets[s] : offsets[s + 1]] if c[t] < c[s]]
        depth[s] = 1 + max(lower, default=0)
    return max(depth)


@pytest.mark.parametrize("pname", ["coloring", "mis"])
def test_bm21_decides_in_kahn_waves(pname, monkeypatch):
    from repro.core.bm21_vectorized import solve_with_baseline_vectorized
    from repro.core.linial import reduction_schedule
    from repro.model.vectorized import make_wave_decider

    n = 2**12
    graph = gnp(n, 32 / n, seed=0, method="fast")
    problem = PROBLEMS.get(pname)
    # Identity IDs at this degree: no Linial step, so the colors are the
    # IDs and every node is its own color class.
    assert reduction_schedule(graph.id_space, graph.max_degree) == []
    colors = graph.arrays.ids
    expected = _per_class_oracle(graph, problem, colors)
    waves = _longest_increasing_path(graph, colors)

    kernel = type(make_wave_decider(graph, problem, {}))
    decide_wave = kernel.decide_wave
    sizes = []

    def spy(self, ready, nbrs, counts):
        sizes.append(len(ready))
        assert counts.tolist() == graph.arrays.degrees[ready].tolist()
        assert len(nbrs) == counts.sum()
        return decide_wave(self, ready, nbrs, counts)

    monkeypatch.setattr(kernel, "decide_wave", spy)
    result = solve_with_baseline_vectorized(graph, problem)
    assert len(sizes) == waves <= 128 < n
    assert sum(sizes) == n
    assert result.outputs == expected


# -- the Kahn loop reads the graph and the inputs, and nothing else does ------


@pytest.mark.parametrize(
    "pname", ["mis", "coloring", "vertex-cover", "degree_plus_one_list_coloring"]
)
def test_one_neighbor_gather_per_kahn_wave(pname, monkeypatch):
    """Each wave gathers its neighbor lists once, for the decider and the
    Kahn targets alike; no decider gathers on its own."""
    from repro.model import vectorized

    n = 2**12
    graph = gnp(n, 32 / n, seed=0, method="fast")
    problem = PROBLEMS.get(pname)
    waves = _longest_increasing_path(graph, graph.arrays.ids)
    gather = vectorized.ragged_gather
    calls = []

    def spy(offsets, flat, slots):
        calls.append(len(slots))
        return gather(offsets, flat, slots)

    monkeypatch.setattr(vectorized, "ragged_gather", spy)
    result = vectorized.greedy_by_id_vectorized(graph, problem)
    # The strawman's last round is one past its last wave.
    assert result.metrics.last_round - 1 == waves
    assert len(calls) == waves
    assert sum(calls) == n


def _with_clustering(solver):
    """A Theorem 9 solver bound to the graph's Theorem 13 clustering."""
    from repro.core.clustering_vectorized import compute_clustering_vectorized

    def run(graph, problem, inputs):
        clustering = compute_clustering_vectorized(graph).clustering
        return solver(graph, problem, clustering, inputs=inputs)

    return run


def _twins():
    """Each vectorized solver and its per-node twin, by algorithm name."""
    from repro.core.bm21 import solve_with_baseline
    from repro.core.bm21_vectorized import solve_with_baseline_vectorized
    from repro.core.theorem1 import solve
    from repro.core.theorem1_vectorized import (
        solve_vectorized,
        solve_with_clustering_vectorized,
    )
    from repro.core.theorem9 import solve_with_clustering
    from repro.model.lockstep import greedy_by_id_local
    from repro.model.vectorized import greedy_by_id_vectorized

    return {
        "greedy": (greedy_by_id_vectorized, greedy_by_id_local),
        "baseline": (solve_with_baseline_vectorized, solve_with_baseline),
        "theorem9": (
            _with_clustering(solve_with_clustering_vectorized),
            _with_clustering(solve_with_clustering),
        ),
        "theorem1": (solve_vectorized, solve),
    }


def _shifted_palettes(graph, problem):
    """Per-node (deg+1)-palettes unlike ``default_input``'s: each +3."""
    return {
        v: tuple(c + 3 for c in palette)
        for v, palette in problem.make_inputs(graph).items()
    }


@pytest.mark.parametrize("algorithm", VECTORIZED_ADAPTERS)
def test_given_palettes_match_the_per_node_twin(algorithm, monkeypatch):
    """Inputs the caller passes reach the generic decider unchanged, and
    no default inputs are made beside them."""
    from repro.olocal.problem import OLocalProblem

    graph = gnp(80, 0.08, seed=4)
    problem = PROBLEMS.get("degree_plus_one_list_coloring")
    palettes = _shifted_palettes(graph, problem)
    vectorized, per_node = _twins()[algorithm]
    defaults = vectorized(graph, problem, inputs=None)
    made = []
    make_inputs = OLocalProblem.make_inputs

    def spy(self, g):
        made.append(g)
        return make_inputs(self, g)

    monkeypatch.setattr(OLocalProblem, "make_inputs", spy)
    vec = vectorized(graph, problem, inputs=palettes)
    assert made == []
    ref = per_node(graph, problem, inputs=palettes)
    assert vec.outputs == ref.outputs != defaults.outputs
    assert all(vec.outputs[v] in palettes[v] for v in graph.nodes)
    vec = getattr(vec, "simulation", vec)
    ref = getattr(ref, "simulation", ref)
    assert vec.metrics.awake_rounds == ref.metrics.awake_rounds
    assert vec.metrics.termination_round == ref.metrics.termination_round
    assert vec.metrics.summary() == ref.metrics.summary()


@pytest.mark.parametrize("algorithm", VECTORIZED_ADAPTERS)
def test_default_palettes_are_made_once(algorithm, monkeypatch):
    """With ``inputs=None`` the decider resolves the default palettes,
    and the output check reads those same ones: one ``make_inputs``
    call per solve, checks on."""
    from repro.olocal.problem import OLocalProblem

    graph = gnp(80, 0.08, seed=4)
    problem = PROBLEMS.get("degree_plus_one_list_coloring")
    vectorized, _ = _twins()[algorithm]
    made = []
    make_inputs = OLocalProblem.make_inputs

    def spy(self, g):
        made.append(g)
        return make_inputs(self, g)

    monkeypatch.setattr(OLocalProblem, "make_inputs", spy)
    result = vectorized(graph, problem, inputs=None)
    assert len(made) == 1 and made[0] is graph
    problem.check(graph, result.outputs, make_inputs(problem, graph))


@pytest.mark.parametrize("engine", ["reference", "simulator", ENGINE_VECTORIZED])
def test_greedy_adapter_makes_default_palettes_once(engine, monkeypatch):
    """The greedy adapter checks its outputs with the inputs its solve
    read: one ``make_inputs`` call per solve on every engine."""
    from repro.olocal.problem import OLocalProblem

    graph = gnp(80, 0.08, seed=4)
    problem = PROBLEMS.get("degree_plus_one_list_coloring")
    made = []
    make_inputs = OLocalProblem.make_inputs

    def spy(self, g):
        made.append(g)
        return make_inputs(self, g)

    monkeypatch.setattr(OLocalProblem, "make_inputs", spy)
    outcome = ALGORITHMS.get("greedy").solve(graph, problem, engine=engine)
    assert len(made) == 1 and made[0] is graph
    problem.check(graph, outcome.outputs, make_inputs(problem, graph))


@pytest.mark.parametrize(
    "graph,b",
    [
        (lambda: gnp(1 << 12, 64 / (1 << 12), seed=0, method="fast"), None),
        (lambda: gnp(1 << 12, 64 / (1 << 12), seed=0, method="fast"), 2),
        (lambda: build_family_graph("tree", 500, seed=1, ids="permuted"), 2),
    ],
    ids=["gnp4096", "gnp4096-b2", "tree500-permuted-b2"],
)
def test_theorem9_active_rounds_match_a_global_recount(graph, b, monkeypatch):
    """Theorem 9 counts its rooting cast and its virtual windows apart;
    listing every node's absolute awake rounds and deduplicating them
    once gives the same count, on clusterings with several depths."""
    from repro.core import theorem1_vectorized as t1v
    from repro.core.cast import bfs_cast_duration
    from repro.core.clustering_vectorized import _member_offsets
    from repro.core.mapping import ColorScheduleMapping
    from repro.graphs.arrays import sorted_unique

    g = graph()
    calls = []
    closed_form = t1v._theorem9_closed_form

    def spy(ga, colors, dist, deg_intra, palette, t0, n):
        accounting = closed_form(ga, colors, dist, deg_intra, palette, t0, n)
        calls.append((colors, dist, palette, t0, n, accounting))
        return accounting

    monkeypatch.setattr(t1v, "_theorem9_closed_form", spy)
    t1v.solve_vectorized(g, PROBLEMS.get("mis"), b=b)
    ((colors, dist, palette, t0, n, accounting),) = calls
    assert sorted_unique(dist).size > 2

    # Every node: t9meta at t0, the rooting cast's receive (non-root)
    # and send rounds, then its member offsets in the virtual window of
    # every round in {setup = 0} ∪ r(γ).
    table = ColorScheduleMapping.for_palette(palette).rounds(colors)
    virtual = np.concatenate((np.zeros((n, 1), dtype=np.int64), table), axis=1)
    vt0, window = t0 + 1 + bfs_cast_duration(n), 2 * n + 3
    rounds = [[t0], t0 + dist[dist > 0], t0 + 1 + dist]
    for d in set(dist.tolist()):
        offs = _member_offsets(n, d)
        rounds.append(
            (vt0 + virtual[dist == d, :, None] * window + offs).ravel()
        )
    assert accounting.active_rounds == sorted_unique(np.concatenate(rounds)).size


@pytest.mark.parametrize(
    "family,n", [("gnp", 300), ("tree", 300), ("grid", 324)]
)
def test_theorem9_reads_the_same_color_degrees_of_a_recount(
    family, n, monkeypatch
):
    """The same-color degrees Theorem 9 is handed — by the Definition 4
    check in Theorem 1, by the helper without it or in Theorem 9 alone —
    equal a fresh count, and skipping the checks changes no outcome."""
    import functools

    from repro.core import theorem1_vectorized as t1v
    from repro.graphs.arrays import segment_sum

    g = build_family_graph(family, n, seed=5)
    seen = []
    closed_form = t1v._theorem9_closed_form

    def spy(ga, colors, dist, deg_intra, palette, t0, n):
        same = colors[ga.flat] == colors[ga.edge_sources]
        recount = segment_sum(same, ga.degrees)
        seen.append(deg_intra.tolist() == recount.tolist() and recount.any())
        return closed_form(ga, colors, dist, deg_intra, palette, t0, n)

    monkeypatch.setattr(t1v, "_theorem9_closed_form", spy)
    mis = PROBLEMS.get("mis")
    theorem1 = ALGORITHMS.get("theorem1")
    checked = theorem1.solve(g, mis, engine=ENGINE_VECTORIZED, b=2)
    monkeypatch.setattr(
        t1v, "solve_vectorized",
        functools.partial(t1v.solve_vectorized, validate=False),
    )
    unchecked = theorem1.solve(g, mis, engine=ENGINE_VECTORIZED, b=2)
    ALGORITHMS.get("theorem9").solve(g, mis, engine=ENGINE_VECTORIZED, b=2)
    assert seen == [True, True, True]
    assert unchecked == checked


# -- scale (marked slow) -----------------------------------------------------


@pytest.mark.slow
@pytest.mark.parametrize(
    "gname,factory",
    [
        ("gnp", lambda: gnp(65536, 8 / 65536, seed=13, method="fast")),
        # fixed m: the powerlaw *family*'s m = n/16 would mean ~2^28 edges
        ("powerlaw", lambda: preferential_attachment(65536, 8, seed=17)),
    ],
)
def test_vectorized_greedy_at_65536(gname, factory):
    graph = factory()
    problem = PROBLEMS.get("mis")
    vec, ref = _solve_both("greedy", graph, problem)
    # greedy's default engine is the reference oracle: outputs match,
    # metrics follow different models — compare outputs + validity only.
    assert vec.outputs == ref.outputs
    problem.check(graph, vec.outputs, problem.make_inputs(graph))


@pytest.mark.slow
def test_vectorized_baseline_at_65536():
    graph = gnp(65536, 8 / 65536, seed=23, method="fast")
    problem = PROBLEMS.get("coloring")
    adapter = ALGORITHMS.get("baseline")
    vec = adapter.solve(graph, problem, engine=ENGINE_VECTORIZED)
    sim = adapter.solve(graph, problem, engine="simulator")
    assert_outcomes_identical(vec, sim)
