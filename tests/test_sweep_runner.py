"""Tests for the sweep-runner subsystem (repro.runner).

Covers the three properties the runner promises:

- **determinism** — same spec ⇒ identical aggregated tables and
  deterministic artifact layer, regardless of the worker count;
- **failure surfacing** — a raising trial and a hard worker death both
  surface as ``SweepError`` naming what failed;
- **CLI** — ``python -m repro sweep`` argument parsing and artifact
  output.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.analysis import experiments as exp_mod
from repro.analysis.experiments import ExperimentPlan, TRIAL_PLANS
from repro.cli import main, make_parser
from repro.runner import (
    SweepError,
    SweepSpec,
    TrialSpec,
    derive_seed,
    execute_trial,
    run_sweep,
    sweep_artifact_payload,
    sweep_from_experiments,
    sweep_from_grid,
    write_sweep_artifact,
)
from repro.runner.artifacts import deterministic_view
from repro.runner.executor import pool_start_method

#: The monkeypatch-based failure-injection tests need workers that
#: inherit the patched registry, i.e. the executor must fork.
HAS_FORK = pool_start_method() == "fork"

#: Cheap experiments (sub-second combined) for multi-run tests.
CHEAP = ("E2", "E4", "E5", "E10")


# -- seed derivation ---------------------------------------------------------


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(0, "gnp", 64) == derive_seed(0, "gnp", 64)

    def test_coordinates_matter(self):
        seeds = {
            derive_seed(0, "gnp", 64),
            derive_seed(0, "gnp", 65),
            derive_seed(0, "path", 64),
            derive_seed(1, "gnp", 64),
        }
        assert len(seeds) == 4

    def test_fits_in_63_bits(self):
        for coords in [(), ("x",), (10**9, "y", 3.5)]:
            seed = derive_seed(7, *coords)
            assert 0 <= seed < 2**63

    def test_known_value_stable_across_processes(self):
        # sha256-based, not hash()-based: must not change run to run.
        assert derive_seed(0) == derive_seed(0)
        assert derive_seed(0) != derive_seed(1)


# -- spec construction -------------------------------------------------------


class TestSpecs:
    def test_contiguous_index_enforced(self):
        trial = TrialSpec(index=1, kind="experiment", key="E2", label="E2")
        with pytest.raises(ValueError, match="contiguously indexed"):
            SweepSpec(name="bad", trials=(trial,))

    def test_unknown_experiment_rejected(self):
        with pytest.raises(KeyError, match="E99"):
            sweep_from_experiments(["E2", "E99"])

    def test_duplicate_experiment_rejected(self):
        with pytest.raises(KeyError, match="duplicate experiment"):
            sweep_from_experiments(["E2", "E4", "E2"])

    def test_experiment_sharding(self):
        spec = sweep_from_experiments(["E9"])
        # E9 shards into one trial per (n, family): 5 sizes x 3 families.
        assert len(spec.trials) == 15
        assert spec.trials[0].label == "E9[path/n=16]"
        assert [t.index for t in spec.trials] == list(range(15))
        assert spec.experiment_ids == ("E9",)

    def test_quick_subset(self):
        spec = sweep_from_experiments(quick=True)
        assert set(spec.experiment_ids) == {"E1", "E2", "E4", "E5", "E6", "E10"}

    def test_grid_enumeration_and_seeds(self):
        spec = sweep_from_grid(
            families=["path", "gnp"],
            sizes=[8, 12],
            problems=["mis"],
            algorithms=["theorem1"],
            trials_per_config=2,
            master_seed=5,
        )
        assert len(spec.trials) == 8
        assert len({t.seed for t in spec.trials}) == 8
        # Content-addressed: adding trials elsewhere must not shift seeds.
        again = sweep_from_grid(
            families=["path"],
            sizes=[8],
            problems=["mis"],
            algorithms=["theorem1"],
            trials_per_config=1,
            master_seed=5,
        )
        assert again.trials[0].seed == spec.trials[0].seed

    def test_unknown_trial_kind_rejected(self):
        bad = TrialSpec(index=0, kind="nope", key="x", label="x")
        with pytest.raises(KeyError, match="unknown trial kind"):
            execute_trial(bad)

    def test_grid_rejects_unknown_family_at_spec_time(self):
        with pytest.raises(KeyError, match="unknown family"):
            sweep_from_grid(families=["typo"], sizes=[8], problems=["mis"])

    def test_grid_rejects_unknown_problem_at_spec_time(self):
        with pytest.raises(KeyError, match="unknown problem"):
            sweep_from_grid(families=["path"], sizes=[8], problems=["msi"])

    def test_grid_canonicalizes_algorithm_aliases(self):
        # "bm21" and "baseline" are the same sweep: same derived seeds,
        # same kwargs (and therefore the same cache keys and rows).
        by_alias = sweep_from_grid(
            families=["path"], sizes=[8], problems=["mis"],
            algorithms=["bm21"],
        )
        by_name = sweep_from_grid(
            families=["path"], sizes=[8], problems=["mis"],
            algorithms=["baseline"],
        )
        assert [t.kwargs for t in by_alias.trials] == [
            t.kwargs for t in by_name.trials
        ]
        assert [t.seed for t in by_alias.trials] == [
            t.seed for t in by_name.trials
        ]

    def test_grid_family_registry_matches_builder(self):
        from repro.graphs.families import GRAPH_FAMILIES, build_family_graph

        for family in GRAPH_FAMILIES:
            assert build_family_graph(family, 12, seed=1).n >= 4


# -- determinism across worker counts ----------------------------------------


class TestDeterminism:
    def test_serial_sweep_matches_direct_experiments(self):
        spec = sweep_from_experiments(CHEAP)
        result = run_sweep(spec, workers=1)
        tables = result.experiments()
        for exp_id in CHEAP:
            direct = exp_mod.run_experiment(exp_id)
            assert tables[exp_id].render() == direct.render()

    @pytest.mark.skipif(not HAS_FORK, reason="needs fork start method")
    def test_workers_do_not_change_the_aggregate(self):
        spec = sweep_from_experiments(CHEAP)
        serial = run_sweep(spec, workers=1)
        parallel = run_sweep(spec, workers=2)
        assert serial.render() == parallel.render()
        det_serial = deterministic_view(sweep_artifact_payload(serial))
        det_parallel = deterministic_view(sweep_artifact_payload(parallel))
        assert det_serial == det_parallel
        # The timing layer records real workers either way.
        assert serial.workers == 1
        assert parallel.workers == 2

    @pytest.mark.skipif(not HAS_FORK, reason="needs fork start method")
    def test_grid_sweep_deterministic_across_workers(self):
        spec = sweep_from_grid(
            families=["path"],
            sizes=[8, 12],
            problems=["mis"],
            algorithms=["theorem1", "baseline"],
            trials_per_config=2,
            master_seed=3,
        )
        serial = run_sweep(spec, workers=1)
        parallel = run_sweep(spec, workers=2)
        assert serial.render() == parallel.render()
        rows = serial.experiments()["GRID"].rows
        assert len(rows) == len(spec.trials)

    def test_outcomes_are_in_spec_order(self):
        spec = sweep_from_experiments(["E5", "E2"])
        result = run_sweep(spec, workers=1)
        assert [o.spec.index for o in result.outcomes] == list(range(len(spec.trials)))


# -- failure surfacing -------------------------------------------------------


def _raise_trial() -> None:
    raise ValueError("intentional trial failure")


def _hard_exit_trial() -> None:
    os._exit(3)


def _broken_plan(run) -> ExperimentPlan:
    return ExperimentPlan(
        exp_id="EBAD",
        trials=lambda: [("boom", {})],
        run=run,
        aggregate=lambda payloads: payloads[0],
    )


class TestFailureSurfacing:
    def test_serial_trial_exception_wrapped(self, monkeypatch):
        monkeypatch.setitem(TRIAL_PLANS, "EBAD", _broken_plan(_raise_trial))
        spec = sweep_from_experiments(["E2", "EBAD"])
        with pytest.raises(SweepError, match=r"EBAD\[boom\].*ValueError"):
            run_sweep(spec, workers=1)

    @pytest.mark.skipif(not HAS_FORK, reason="needs fork start method")
    def test_worker_trial_exception_wrapped(self, monkeypatch):
        monkeypatch.setitem(TRIAL_PLANS, "EBAD", _broken_plan(_raise_trial))
        spec = sweep_from_experiments(["E2", "EBAD"])
        with pytest.raises(SweepError, match="failed in a worker"):
            run_sweep(spec, workers=2)

    @pytest.mark.skipif(not HAS_FORK, reason="needs fork start method")
    def test_worker_hard_death_surfaced(self, monkeypatch):
        monkeypatch.setitem(TRIAL_PLANS, "EBAD", _broken_plan(_hard_exit_trial))
        spec = sweep_from_experiments(["EBAD"])
        with pytest.raises(SweepError, match="worker process died"):
            run_sweep(spec, workers=2)


# -- CLI ---------------------------------------------------------------------


class TestSweepCli:
    def test_parser_defaults(self):
        args = make_parser().parse_args(["sweep"])
        assert args.workers == 1
        assert args.experiments is None
        assert not args.quick
        assert not args.grid
        assert not args.list
        assert args.cache is True
        assert args.cache_dir == ".repro-cache"

    def test_parser_no_cache(self):
        args = make_parser().parse_args(["sweep", "--no-cache"])
        assert args.cache is False
        args = make_parser().parse_args(["sweep", "--cache-dir", "/tmp/c"])
        assert args.cache_dir == "/tmp/c"

    def test_list_prints_catalog_without_running(self, capsys):
        assert main(["sweep", "--list"]) == 0
        out = capsys.readouterr().out
        # Every plan id with its title and trial count, plus grid axes.
        assert "E1   11 trials  Lemma 10 mappings" in out
        assert "E2     1 trial  Lemma 14 flattening" in out
        assert "E9   15 trials" in out
        assert "families:" in out
        assert "algorithms: theorem1 baseline theorem9 greedy" in out

    def test_parser_experiment_selection(self):
        argv = ["sweep", "--experiments", "E1", "E9", "--workers", "4"]
        args = make_parser().parse_args(argv + ["--tag", "mytag"])
        assert args.experiments == ["E1", "E9"]
        assert args.workers == 4
        assert args.tag == "mytag"

    def test_parser_grid_arguments(self):
        argv = ["sweep", "--grid", "--families", "path", "--sizes", "8", "16"]
        argv += ["--problems", "mis", "--algorithms", "baseline"]
        argv += ["--trials", "2", "--seed", "9"]
        args = make_parser().parse_args(argv)
        assert args.grid
        assert args.sizes == [8, 16]
        assert args.algorithms == ["baseline"]
        assert args.trials == 2
        assert args.seed == 9

    def test_parser_rejects_bare_experiments_flag(self):
        with pytest.raises(SystemExit):
            make_parser().parse_args(["sweep", "--experiments"])

    def test_unknown_algorithm_rejected_listing_names(self):
        # Validated against the ALGORITHMS registry at spec time (not by
        # argparse choices), so plugin registrations keep working.
        with pytest.raises(SystemExit, match="unknown algorithm"):
            main(["sweep", "--grid", "--algorithms", "turbo"])

    def test_sweep_command_writes_artifact(self, tmp_path, capsys):
        argv = ["sweep", "--experiments", "E2", "E4", "--tag", "clitest"]
        argv += ["--cache-dir", str(tmp_path / "cache")]
        code = main(argv + ["--output-dir", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "E2 — Lemma 14 flattening" in out
        artifact = tmp_path / "SWEEP_clitest.json"
        payload = json.loads(artifact.read_text())
        assert set(payload["tables"]) == {"E2", "E4"}
        assert payload["timing"]["workers"] == 1
        assert payload["timing"]["cache"]["misses"] == 2
        assert len(payload["sweep"]["trials"]) == 2

    def test_sweep_command_warm_cache_hits(self, tmp_path, capsys):
        argv = ["sweep", "--experiments", "E2", "E4", "--no-artifact"]
        argv += ["--cache-dir", str(tmp_path / "cache")]
        assert main(argv) == 0
        capsys.readouterr()
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert "cache hit" in captured.err
        assert "cache: 2 hit(s), 0 miss(es)" in captured.err

    def test_sweep_command_unknown_experiment_fails(self, tmp_path):
        with pytest.raises(SystemExit, match="unknown experiment"):
            main(["sweep", "--experiments", "E99", "--output-dir", str(tmp_path)])

    def test_sweep_command_unknown_family_fails(self):
        with pytest.raises(SystemExit, match="unknown family"):
            main(["sweep", "--grid", "--families", "typo", "--no-artifact"])

    def test_sweep_command_no_artifact(self, tmp_path, capsys):
        argv = ["sweep", "--experiments", "E4", "--no-artifact", "--no-cache"]
        code = main(argv + ["--output-dir", str(tmp_path)])
        assert code == 0
        assert list(tmp_path.glob("SWEEP_*.json")) == []

    def test_sweep_command_surfaces_failures(self, monkeypatch, capsys):
        monkeypatch.setitem(TRIAL_PLANS, "EBAD", _broken_plan(_raise_trial))
        code = main(
            ["sweep", "--experiments", "EBAD", "--no-artifact", "--no-cache"]
        )
        assert code == 1
        assert "sweep failed" in capsys.readouterr().err

    def test_grid_sweep_cli(self, tmp_path, capsys):
        argv = ["sweep", "--grid", "--families", "path", "--sizes", "8"]
        argv += ["--problems", "mis", "--trials", "1", "--tag", "grid"]
        argv += ["--cache-dir", str(tmp_path / "cache")]
        code = main(argv + ["--output-dir", str(tmp_path)])
        assert code == 0
        payload = json.loads((tmp_path / "SWEEP_grid.json").read_text())
        assert "GRID" in payload["tables"]
        assert payload["tables"]["GRID"]["rows"][0][0] == "path"


# -- artifacts ---------------------------------------------------------------


class TestArtifacts:
    def test_artifact_roundtrip(self, tmp_path):
        spec = sweep_from_experiments(["E4"])
        result = run_sweep(spec, workers=1)
        path = write_sweep_artifact(result, tmp_path, tag="rt")
        assert path.name == "SWEEP_rt.json"
        payload = json.loads(path.read_text())
        rendered = result.experiments()["E4"].render()
        assert payload["tables"]["E4"]["render"] == rendered
        assert payload["sweep"]["num_trials"] == 1
