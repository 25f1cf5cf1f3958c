"""Tests for the unified scenario API (repro.api): Scenario semantics,
run_scenario validation + determinism for all four algorithms, and
run_grid bridging into the sharded sweep runner."""

import pickle

import pytest

from repro.api import (
    RunResult,
    Scenario,
    catalog,
    run_grid,
    run_scenario,
    scenarios_from_grid,
)
from repro.core.algorithms import ALGORITHMS, SolveOutcome
from repro.runner import TrialCache
from repro.runner.trials import sweep_from_grid

ALL_ALGORITHMS = ("theorem1", "baseline", "theorem9", "greedy")


class TestScenario:
    def test_defaults(self):
        s = Scenario()
        assert (s.family, s.problem, s.algorithm) == ("gnp", "mis", "theorem1")
        assert s.engine is None
        assert s.params == ()

    def test_params_mapping_normalized_to_sorted_tuple(self):
        s = Scenario(params={"p": 0.2, "b": 4})
        assert s.params == (("b", 4), ("p", 0.2))
        assert s.params_dict() == {"b": 4, "p": 0.2}
        # same content, either spelling -> equal and hash-equal
        assert s == Scenario(params=(("p", 0.2), ("b", 4)))
        assert hash(s) == hash(Scenario(params=(("p", 0.2), ("b", 4))))

    def test_with_params_merges(self):
        s = Scenario(params={"p": 0.2})
        s2 = s.with_params(b=8)
        assert s2.params_dict() == {"b": 8, "p": 0.2}
        assert s.params_dict() == {"p": 0.2}  # original frozen

    def test_pickle_round_trip(self):
        s = Scenario(family="regular", n=24, ids="poly3", seed=7,
                     problem="coloring", algorithm="baseline",
                     params={"degree": 4})
        clone = pickle.loads(pickle.dumps(s))
        assert clone == s
        assert clone.params == s.params
        assert pickle.loads(pickle.dumps(clone)) == s

    def test_describe_is_jsonable_identity(self):
        d = Scenario(params={"b": 4}).describe()
        assert d["family"] == "gnp" and d["params"] == {"b": 4}


class TestValidation:
    def test_valid_scenario_has_no_errors(self):
        assert Scenario(family="path", n=8).validate() == []

    @pytest.mark.parametrize(
        "kwargs, fragment",
        [
            ({"family": "nope"}, "unknown family"),
            ({"problem": "sudoku"}, "unknown problem"),
            ({"algorithm": "turbo"}, "unknown algorithm"),
            ({"ids": "weird"}, "unknown id scheme"),
            ({"n": 0}, "n must be >= 1"),
            ({"params": {"zap": 1}}, "unknown scenario param"),
            ({"family": "path", "params": {"p": 0.2}},
             "unknown scenario param"),
            ({"algorithm": "theorem1", "engine": "reference"},
             "does not support engine"),
            ({"algorithm": "greedy", "engine": "warp"},
             "unknown engine"),
        ],
    )
    def test_each_axis_is_validated(self, kwargs, fragment):
        errors = Scenario(**kwargs).validate()
        assert any(fragment in e for e in errors), errors

    def test_errors_list_valid_registry_names(self):
        (error,) = Scenario(algorithm="turbo").validate()
        for name in ALL_ALGORITHMS:
            assert name in error

    def test_run_scenario_returns_errors_instead_of_raising(self):
        result = run_scenario(Scenario(family="nope", problem="sudoku"))
        assert isinstance(result, RunResult)
        assert not result.ok
        assert result.outcome is None and result.graph is None
        assert len(result.errors) == 2

    def test_aliases_resolve_everywhere(self):
        result = run_scenario(
            Scenario(family="path", n=8, problem="mis", algorithm="t1")
        )
        assert result.ok
        assert result.outcome.algorithm == "theorem1"


class TestRunScenario:
    @pytest.mark.parametrize("algorithm", ALL_ALGORITHMS)
    def test_uniform_outcome_and_determinism(self, algorithm):
        """Running the same scenario twice is bit-identical, for every
        registered algorithm (satellite acceptance criterion)."""
        scenario = Scenario(family="gnp", n=12, seed=3, problem="coloring",
                            algorithm=algorithm)
        first = run_scenario(scenario)
        second = run_scenario(scenario)
        assert first.ok and second.ok
        for result in (first, second):
            assert isinstance(result.outcome, SolveOutcome)
            assert result.outcome.algorithm == algorithm
            assert result.outcome.awake_complexity >= 1
            assert result.outcome.round_complexity >= 1
        assert first.outcome.outputs == second.outcome.outputs
        assert (
            first.outcome.awake_complexity,
            first.outcome.average_awake,
            first.outcome.round_complexity,
            first.outcome.messages_sent,
        ) == (
            second.outcome.awake_complexity,
            second.outcome.average_awake,
            second.outcome.round_complexity,
            second.outcome.messages_sent,
        )

    def test_outputs_are_validated_solutions(self):
        result = run_scenario(
            Scenario(family="cycle", n=9, problem="mis", algorithm="theorem9")
        )
        assert result.ok
        from repro.olocal import PROBLEMS

        assert PROBLEMS.get("mis").validate(
            result.graph, result.outcome.outputs
        ) == []

    def test_theorem9_extras_carry_clustering_stage(self):
        result = run_scenario(
            Scenario(family="path", n=10, algorithm="theorem9")
        )
        extras = result.outcome.extras
        assert extras["clustering_colors"] >= 1
        assert extras["clustering_awake"] >= 1
        assert extras["clustering_rounds"] >= 1

    def test_greedy_reference_accounting(self):
        result = run_scenario(
            Scenario(family="path", n=10, algorithm="greedy")
        )
        outcome = result.outcome
        assert outcome.engine == "reference"
        assert outcome.awake_complexity == 1
        assert outcome.average_awake == 1.0
        assert outcome.round_complexity == 10
        assert outcome.messages_sent == 9

    def test_family_params_reach_the_builder(self):
        sparse = run_scenario(
            Scenario(family="gnp", n=24, seed=1, params={"p": 0.05},
                     algorithm="greedy")
        )
        dense = run_scenario(
            Scenario(family="gnp", n=24, seed=1, params={"p": 0.9},
                     algorithm="greedy")
        )
        assert sparse.graph.num_edges < dense.graph.num_edges

    def test_algorithm_b_param_is_honored(self):
        result = run_scenario(
            Scenario(family="path", n=12, algorithm="theorem1",
                     params={"b": 2})
        )
        assert result.ok
        assert result.outcome.extras["b"] == 2


class TestRunGrid:
    def test_workers_do_not_change_the_aggregate(self):
        """run_grid at 1 vs 2 workers renders byte-identical tables for
        all four algorithms (satellite acceptance criterion)."""
        kwargs = dict(
            families=("path", "gnp"),
            sizes=(8, 12),
            problems=("mis",),
            algorithms=ALL_ALGORITHMS,
            trials=1,
            seed=5,
        )
        serial = run_grid(workers=1, **kwargs)
        sharded = run_grid(workers=2, **kwargs)
        assert serial.render() == sharded.render()
        rows = serial.experiments()["GRID"].rows
        assert len(rows) == 2 * 2 * 1 * len(ALL_ALGORITHMS)
        assert {row[3] for row in rows} == set(ALL_ALGORITHMS)

    def test_grid_caches_trials(self, tmp_path):
        cache = TrialCache(tmp_path / "cache")
        kwargs = dict(families=("path",), sizes=(8,), problems=("mis",),
                      algorithms=("greedy", "theorem9"), cache=cache)
        cold = run_grid(**kwargs)
        warm = run_grid(**kwargs)
        assert cold.cache_stats.misses == 2
        assert warm.cache_stats.hits == 2 and warm.cache_stats.misses == 0
        assert cold.render() == warm.render()

    def test_unknown_names_fail_before_running(self):
        with pytest.raises(KeyError, match="unknown algorithm"):
            run_grid(algorithms=("turbo",))
        with pytest.raises(KeyError, match="unknown famil"):
            run_grid(families=("nope",))

    def test_scenarios_from_grid_matches_sweep_seeds(self):
        scenarios = scenarios_from_grid(
            families=("path",), sizes=(8,), problems=("mis",),
            algorithms=("theorem1", "greedy", "bm21"), trials=2, seed=9,
        )
        spec = sweep_from_grid(
            families=("path",), sizes=(8,), problems=("mis",),
            algorithms=("theorem1", "greedy", "bm21"), trials_per_config=2,
            master_seed=9,
        )
        assert [s.seed for s in scenarios] == [t.seed for t in spec.trials]
        assert [s.algorithm for s in scenarios] == [
            t.kwargs_dict()["algorithm"] for t in spec.trials
        ]
        with pytest.raises(KeyError, match="unknown family"):
            scenarios_from_grid(
                families=("typo",), sizes=(8,), problems=("mis",)
            )


class TestCatalog:
    def test_catalog_lists_every_axis(self):
        axes = catalog()
        assert "gnp" in axes["families"]
        assert "maximal_independent_set" in axes["problems"]
        assert set(ALL_ALGORITHMS) <= set(axes["algorithms"])

    def test_algorithm_registry_metadata(self):
        entry = ALGORITHMS.entry("theorem1")
        assert "b" in entry.params
        assert entry.value.trace_program is not None
        assert ALGORITHMS.entry("greedy").value.engines == (
            "reference", "simulator", "vectorized"
        )


class TestFaultAxis:
    """Fault injection as a first-class scenario axis."""

    def test_faults_auto_select_faulty_engine(self):
        s = Scenario(fault_drop=0.1)
        assert s.faults_active
        assert s.resolved_engine() == "faulty-simulator"
        assert s.validate() == []

    def test_fault_free_scenario_resolves_default_engine(self):
        s = Scenario()
        assert not s.faults_active
        assert s.resolved_engine() is None

    def test_explicit_nonfaulty_engine_with_faults_rejected(self):
        errors = Scenario(fault_corrupt=0.2, engine="simulator").validate()
        assert any("fault params require engine" in e for e in errors)

    def test_fault_probabilities_validated(self):
        errors = Scenario(fault_drop=1.5).validate()
        assert any("fault_drop must be in [0, 1]" in e for e in errors)

    def test_greedy_cannot_run_faulty(self):
        errors = Scenario(algorithm="greedy", fault_drop=0.5).validate()
        assert any("does not support engine" in e for e in errors)

    def test_fault_plan_seed_defaults_to_scenario_seed(self):
        assert Scenario(seed=9, fault_drop=0.1).fault_plan().seed == 9
        assert (
            Scenario(seed=9, fault_drop=0.1, fault_seed=4).fault_plan().seed
            == 4
        )

    def test_immune_rounds_normalized(self):
        s = Scenario(immune_rounds=[3, 1, 3, 2])
        assert s.immune_rounds == (1, 2, 3)

    def test_describe_carries_fault_identity_only_when_active(self):
        assert "faults" not in Scenario().describe()
        d = Scenario(fault_corrupt=0.2, fault_seed=5).describe()
        assert d["faults"]["corrupt_probability"] == 0.2
        assert d["faults"]["seed"] == 5

    @pytest.mark.parametrize("algorithm", ("theorem1", "baseline", "theorem9"))
    def test_fault_scenarios_raise_loudly_or_survive(self, algorithm):
        """End-to-end acceptance: a corrupting scenario either raises a
        repro error (the designed loud failure) or survives and reports
        its fault accounting — never a silent wrong outcome."""
        from repro.errors import ReproError

        scenario = Scenario(
            family="gnp", n=14, seed=3, problem="mis", algorithm=algorithm,
            fault_corrupt=0.3,
        )
        try:
            result = run_scenario(scenario)
        except ReproError:
            return  # failed loudly: exactly what the fault axis is for
        assert result.ok
        extras = result.outcome.extras
        assert result.outcome.engine == "faulty-simulator"
        assert extras["corrupted"] >= 0 and "fault_plan" in extras
        clean = run_scenario(
            Scenario(family="gnp", n=14, seed=3, problem="mis",
                     algorithm=algorithm)
        )
        # The clean engine label must be untouched.
        assert clean.outcome.engine == "simulator"

    def test_fault_run_is_deterministic(self):
        scenario = Scenario(
            family="path", n=16, seed=2, algorithm="baseline",
            fault_drop=0.02, fault_seed=11,
        )
        from repro.errors import ReproError

        def attempt():
            try:
                result = run_scenario(scenario)
                return ("ok", result.outcome.outputs,
                        result.outcome.extras.get("dropped"))
            except ReproError as exc:
                return ("raised", type(exc).__name__, str(exc))

        assert attempt() == attempt()

    def test_fault_free_grid_cache_keys_unchanged(self):
        """The fault axis must not shift pre-existing cache identities:
        a fault-free grid enumerates byte-identical trial kwargs (and
        therefore cache keys) whether or not the fault parameters exist."""
        from repro.runner import trial_cache_key
        from repro.runner.cache import code_version_salt

        salt = code_version_salt()
        plain = sweep_from_grid(
            families=["path"], sizes=[8], problems=["mis"],
            algorithms=["theorem1"],
        )
        explicit_zero = sweep_from_grid(
            families=["path"], sizes=[8], problems=["mis"],
            algorithms=["theorem1"],
            fault_drop=0.0, fault_corrupt=0.0, fault_seed=99,
            immune_rounds=[1, 2],
        )
        assert [t.kwargs for t in plain.trials] == [
            t.kwargs for t in explicit_zero.trials
        ]
        assert [trial_cache_key(t, salt) for t in plain.trials] == [
            trial_cache_key(t, salt) for t in explicit_zero.trials
        ]
        # The known-good shape of a fault-free solve trial's kwargs.
        assert [k for k, _ in plain.trials[0].kwargs] == [
            "family", "n", "problem", "algorithm", "seed",
        ]

    def test_faulty_grid_gets_distinct_cache_lane(self):
        from repro.runner import trial_cache_key
        from repro.runner.cache import code_version_salt

        salt = code_version_salt()
        plain = sweep_from_grid(
            families=["path"], sizes=[8], problems=["mis"],
            algorithms=["theorem1"],
        )
        faulty = sweep_from_grid(
            families=["path"], sizes=[8], problems=["mis"],
            algorithms=["theorem1"], fault_drop=0.1,
        )
        assert trial_cache_key(plain.trials[0], salt) != trial_cache_key(
            faulty.trials[0], salt
        )
        kwargs = faulty.trials[0].kwargs_dict()
        assert kwargs["fault_drop"] == 0.1
        assert kwargs["fault_seed"] != 0  # derived per trial
        assert "!d=0.1" in faulty.trials[0].label

    def test_fault_grid_runs_end_to_end_with_keep_going(self):
        """A fault sweep flows through run_grid/run_sweep: trials that
        raise become failures, survivors aggregate under allow_partial."""
        result = run_grid(
            families=("path",), sizes=(8, 12), problems=("mis",),
            algorithms=("baseline",), trials=2, seed=1,
            fault_corrupt=0.05, keep_going=True,
        )
        total = len(result.spec.trials)
        assert total == 4
        assert len(result.outcomes) + len(result.failures) == total
        if result.failures:
            assert all(
                f.error_type.endswith("Error") for f in result.failures
            )
            tables = result.experiments(allow_partial=True)
        else:
            tables = result.experiments()
        if result.outcomes:
            assert len(tables["GRID"].rows) == len(result.outcomes)

    def test_catalog_surfaces_fault_axis(self):
        axes = catalog()
        assert "faulty-simulator" in axes["engines"]
        assert set(axes["fault_params"]) == {
            "fault_drop", "fault_corrupt", "fault_seed", "immune_rounds",
        }
        assert axes["fault_capable"] == ("theorem1", "baseline", "theorem9")

    def test_solve_cli_fault_flags(self):
        from repro.cli import make_parser

        args = make_parser().parse_args(
            ["solve", "--fault-drop", "0.2", "--fault-seed", "7",
             "--immune-rounds", "1", "2"]
        )
        assert args.fault_drop == 0.2
        assert args.fault_seed == 7
        assert args.immune_rounds == [1, 2]

    def test_solve_cli_fault_run_exit_codes(self, capsys):
        from repro.cli import main

        # Survivor: tiny drop probability on a path with an immune round.
        code = main(
            ["solve", "--family", "path", "--n", "8", "--algorithm",
             "baseline", "--fault-drop", "0.0001", "--fault-seed", "1"]
        )
        out = capsys.readouterr().out
        if code == 0:
            assert "faults: engine=faulty-simulator" in out
        else:
            assert code == 3
            assert "faults broke the protocol" in out
