"""Result store, provenance DAG, and ingest/serve CLI tests.

The HTTP layer has its own suite (tests/test_serve_http.py); this one
covers the store and DAG directly plus the `repro ingest` / `repro
stats --store` CLI surfaces.
"""

import json
import time

import pytest

from repro import api
from repro.cli import main
from repro.runner import (
    SweepJournal,
    TrialCache,
    run_sweep,
    sweep_from_experiments,
    sweep_from_grid,
)
from repro.runner.artifacts import deterministic_view, write_sweep_artifact
from repro.serve import (
    ResultStore,
    StoreError,
    canonical_json,
    provenance,
    solve_spec,
    sweep_dag,
)

BENCH_LINES = (
    '{"date": "2026-08-07T10:00:00", "mode": "quick", '
    '"speedups": {"greedy/4096": 80.0, "baseline/4096": 120.0}}\n'
    '{"date": "2026-08-08T10:00:00", "mode": "full", '
    '"speedups": {"greedy/4096": 90.0}}\n'
)


@pytest.fixture(scope="module")
def sweep_artifact(tmp_path_factory):
    """One small grid sweep artifact (with journal) on disk."""
    tmp = tmp_path_factory.mktemp("serve-store")
    spec = sweep_from_grid(
        families=("path",), sizes=(12, 16), problems=("mis",),
        algorithms=("greedy",), trials_per_config=2, master_seed=5,
        name="stored",
    )
    journal = SweepJournal(path=tmp / "SWEEP_stored.journal")
    result = run_sweep(spec, cache=TrialCache(tmp / "cache"), journal=journal)
    path = write_sweep_artifact(result, tmp)
    return path


@pytest.fixture()
def store(tmp_path):
    s = ResultStore(tmp_path / "RESULTS.db")
    yield s
    s.close()


class TestIngest:
    def test_sweep_artifact_round_trip(self, store, sweep_artifact):
        result = store.ingest_path(sweep_artifact)
        assert result.status == "ingested"
        assert result.kind == "sweep"
        counts = store.counts()
        assert counts["sweeps"] == 1
        assert counts["trials"] == 4
        assert counts["sweep_tables"] == 1

    def test_reingest_same_digest_is_noop(self, store, sweep_artifact):
        first = store.ingest_path(sweep_artifact)
        again = store.ingest_path(sweep_artifact)
        assert again.status == "already-ingested"
        assert again.digest == first.digest
        assert "no-op" in again.render()
        assert store.counts() == store.counts()
        assert store.counts()["artifacts"] == 1

    def test_corrupt_file_fails_open(self, store, tmp_path):
        bad = tmp_path / "SWEEP_bad.json"
        bad.write_text("{ this is not json")
        result = store.ingest_path(bad)
        assert result.status == "skipped"
        assert not result.ok
        assert result.render().startswith("warning: skipped")
        assert store.counts()["artifacts"] == 0

    def test_truncated_artifact_fails_open(self, store, sweep_artifact):
        truncated = sweep_artifact.parent / "SWEEP_trunc.json"
        truncated.write_bytes(sweep_artifact.read_bytes()[:200])
        assert store.ingest_path(truncated).status == "skipped"

    def test_json_without_artifact_shape_fails_open(self, store, tmp_path):
        other = tmp_path / "other.json"
        other.write_text('{"hello": "world"}')
        result = store.ingest_path(other)
        assert result.status == "skipped"
        assert "sweep/tables" in result.detail

    def test_missing_file_fails_open(self, store, tmp_path):
        assert store.ingest_path(tmp_path / "nope.json").status == "skipped"

    def test_journal_ingest(self, store, sweep_artifact):
        journal = sweep_artifact.parent / "SWEEP_stored.journal"
        result = store.ingest_path(journal)
        assert result.status == "ingested"
        assert result.kind == "journal"
        journals = store.journals_for("stored")
        assert len(journals) == 1
        assert journals[0]["entries"] == 4

    def test_bench_history_ingest(self, store, tmp_path):
        path = tmp_path / "BENCH_history.jsonl"
        path.write_text(BENCH_LINES)
        result = store.ingest_path(path)
        assert result.status == "ingested"
        assert result.kind == "bench-history"
        rows = store.bench_rows()
        assert [r["mode"] for r in rows] == ["quick", "full"]

    def test_ingest_determinism(self, tmp_path, sweep_artifact):
        """Two stores ingesting the same file hold identical content."""
        stores = []
        for name in ("a.db", "b.db"):
            s = ResultStore(tmp_path / name)
            s.ingest_path(sweep_artifact)
            stores.append(s)
        a, b = stores
        digest = a.sweeps()[0]["artifact_digest"]
        assert b.sweeps()[0]["artifact_digest"] == digest
        assert a.view_bytes(digest) == b.view_bytes(digest)
        assert a.trials_of(digest) == b.trials_of(digest)
        for s in stores:
            s.close()


class TestByteIdentity:
    def test_stored_table_matches_artifact_slice(self, store, sweep_artifact):
        store.ingest_path(sweep_artifact)
        digest = store.sweeps()[0]["artifact_digest"]
        artifact = json.loads(sweep_artifact.read_text())
        for exp_id in artifact["tables"]:
            expected = canonical_json(artifact["tables"][exp_id])
            assert store.table_bytes(digest, exp_id) == expected.encode()

    def test_stored_view_matches_artifact_view(self, store, sweep_artifact):
        store.ingest_path(sweep_artifact)
        digest = store.sweeps()[0]["artifact_digest"]
        artifact = json.loads(sweep_artifact.read_text())
        expected = canonical_json(deterministic_view(artifact))
        assert store.view_bytes(digest) == expected.encode()


class TestQueries:
    def test_resolve_by_prefix_and_name(self, store, sweep_artifact):
        store.ingest_path(sweep_artifact)
        digest = store.sweeps()[0]["artifact_digest"]
        assert store.resolve_sweep(digest[:10]) == digest
        assert store.resolve_sweep("stored") == digest
        assert store.resolve_sweep("nonexistent") is None

    def test_trial_lookup_by_id_and_label(self, store, sweep_artifact):
        store.ingest_path(sweep_artifact)
        digest = store.sweeps()[0]["artifact_digest"]
        trials = store.trials_of(digest)
        by_id = store.trial(trials[0]["trial_id"])
        by_label = store.trial(trials[0]["label"])
        assert by_id == by_label
        assert by_id["scenario"]["family"] == "path"

    def test_readonly_store_refuses_ingest(self, tmp_path, sweep_artifact):
        writable = ResultStore(tmp_path / "ro.db")
        writable.ingest_path(sweep_artifact)
        writable.close()
        ro = ResultStore(tmp_path / "ro.db", readonly=True)
        with pytest.raises(StoreError, match="readonly"):
            ro.ingest_path(sweep_artifact)
        assert ro.counts()["sweeps"] == 1
        ro.close()

    def test_readonly_store_must_exist(self, tmp_path):
        with pytest.raises(StoreError, match="does not exist"):
            ResultStore(tmp_path / "missing.db", readonly=True)

    def test_non_store_file_is_refused(self, tmp_path):
        path = tmp_path / "alien.db"
        path.write_text("not sqlite at all")
        with pytest.raises(StoreError):
            ResultStore(path, readonly=True)


def _ingested(store, tmp_path, spec):
    """Run ``spec`` (keep-going), write its artifact, ingest it; the
    artifact's recorded trials and the ingested trial rows."""
    result = run_sweep(spec, keep_going=True)
    path = write_sweep_artifact(result, tmp_path)
    assert store.ingest_path(path).status == "ingested"
    recorded = json.loads(path.read_text())["sweep"]["trials"]
    digest = store.resolve_sweep(spec.name)
    return recorded, store.trials_of(digest)


class TestTrialRecords:
    """The store reads the trials the artifact records; no label is
    parsed."""

    def test_trial_ids_are_trial_digests(self, store, sweep_artifact):
        spec = sweep_from_grid(
            families=("path",), sizes=(12, 16), problems=("mis",),
            algorithms=("greedy",), trials_per_config=2, master_seed=5,
            name="stored",
        )
        store.ingest_path(sweep_artifact)
        trials = store.trials_of(store.resolve_sweep("stored"))
        assert [t["trial_id"] for t in trials] == [t.digest for t in spec.trials]
        journal = (sweep_artifact.parent / "SWEEP_stored.journal").read_text()
        journaled = {
            json.loads(line)["index"]: json.loads(line)["digest"]
            for line in journal.splitlines()[1:]
        }
        assert journaled == {t.index: t.digest for t in spec.trials}

    def test_engine_axis_trial_provenance(self, store, tmp_path):
        spec = sweep_from_grid(
            families=("path",), sizes=(8,), problems=("mis",),
            algorithms=("greedy",), engines=("simulator", "vectorized"),
            name="engines",
        )
        recorded, trials = _ingested(store, tmp_path, spec)
        for record, trial in zip(recorded, trials):
            node = _scenario_node(provenance(store, trial["trial_id"]))
            assert node == record["kwargs"]
        assert [_scenario_node(provenance(store, t["trial_id"]))["engine"]
                for t in trials] == ["simulator", "vectorized"]

    def test_fault_axis_trial_provenance(self, store, tmp_path):
        spec = sweep_from_grid(
            families=("path",), sizes=(10,), problems=("mis",),
            algorithms=("theorem1",), fault_drop=0.05, immune_rounds=(3, 1),
            name="faults",
        )
        recorded, (trial,) = _ingested(store, tmp_path, spec)
        node = _scenario_node(provenance(store, trial["trial_id"]))
        assert node == recorded[0]["kwargs"]
        assert node["fault_drop"] == 0.05
        assert node["immune_rounds"] == [1, 3]
        assert node["seed"] == trial["seed"] == spec.trials[0].seed

    def test_experiment_trials_have_no_scenario(self, store, tmp_path):
        recorded, trials = _ingested(
            store, tmp_path, sweep_from_experiments(["E2"], name="e2")
        )
        assert all(r["kwargs"] is not None for r in recorded)
        assert [t["trial_id"] for t in trials] == [r["digest"] for r in recorded]
        assert all(t["scenario"] is None for t in trials)

    def test_artifact_without_trial_digests_is_skipped(
        self, store, sweep_artifact, tmp_path
    ):
        payload = json.loads(sweep_artifact.read_text())
        for trial in payload["sweep"]["trials"]:
            del trial["digest"]
        old = tmp_path / "SWEEP_old.json"
        old.write_text(json.dumps(payload))
        result = store.ingest_path(old)
        assert result.status == "skipped"
        assert "digest" in result.detail
        assert store.counts()["trials"] == 0


class TestSolveSpec:
    def test_equals_the_grid_trial(self):
        grid = sweep_from_grid(
            families=("gnp",), sizes=(24,), problems=("mis",),
            algorithms=("bm21",), trials_per_config=4, master_seed=9,
            engines=("vectorized",),
        )
        spec = solve_spec("gnp", 24, "mis", "bm21", trial=3, seed=9,
                          engine="vectorized")
        assert spec == grid.trials[3]
        assert spec.digest == grid.trials[3].digest

    def test_large_trial_is_not_enumerated(self):
        started = time.perf_counter()
        spec = solve_spec("path", 16, "mis", "greedy", trial=10**6)
        assert time.perf_counter() - started < 1.0
        assert spec.index == 10**6
        assert spec.label == f"path/n=16/mis/greedy#{10**6}"


def _scenario_node(dag):
    node = next(n for n in dag["nodes"] if n["kind"] == "scenario")
    return {k: v for k, v in node.items() if k not in ("id", "kind")}


class TestProvenanceDag:
    def test_full_chain(self, store, sweep_artifact):
        store.ingest_path(sweep_artifact)
        store.ingest_path(sweep_artifact.parent / "SWEEP_stored.journal")
        digest = store.sweeps()[0]["artifact_digest"]
        trial = store.trials_of(digest)[0]
        dag = provenance(store, trial["trial_id"])
        kinds = {node["kind"] for node in dag["nodes"]}
        assert kinds == {"scenario", "trial", "artifact", "output"}
        assert dag["root"] == trial["trial_id"]
        # The chain is connected: scenario → trial → artifact → table.
        by_id = {node["id"]: node for node in dag["nodes"]}
        chain = {
            (by_id[e["from"]]["kind"], by_id[e["to"]]["kind"])
            for e in dag["edges"]
        }
        assert ("scenario", "trial") in chain
        assert ("trial", "artifact") in chain
        assert ("artifact", "output") in chain
        assert ("artifact", "artifact") in chain  # journal → artifact

    def test_scenario_node_carries_grid_coordinates(
        self, store, sweep_artifact
    ):
        store.ingest_path(sweep_artifact)
        digest = store.sweeps()[0]["artifact_digest"]
        trial = store.trials_of(digest)[0]
        dag = provenance(store, trial["trial_id"])
        scenario = next(
            n for n in dag["nodes"] if n["kind"] == "scenario"
        )
        assert scenario["family"] == "path"
        assert scenario["problem"] == "mis"
        assert scenario["algorithm"] == "greedy"
        assert scenario["seed"] == trial["seed"]

    def test_unknown_trial_is_none(self, store):
        assert provenance(store, "no-such-trial") is None

    def test_sweep_dag_covers_every_trial(self, store, sweep_artifact):
        store.ingest_path(sweep_artifact)
        digest = store.sweeps()[0]["artifact_digest"]
        dag = sweep_dag(store, digest)
        trial_nodes = [n for n in dag["nodes"] if n["kind"] == "trial"]
        assert len(trial_nodes) == 4
        assert dag["root"] == f"artifact:{digest}"


class TestIngestCli:
    def test_ingest_and_noop_messages(
        self, tmp_path, sweep_artifact, capsys
    ):
        db = tmp_path / "RESULTS.db"
        assert main(
            ["ingest", str(sweep_artifact), "--store", str(db)]
        ) == 0
        out = capsys.readouterr().out
        assert "ingested sweep" in out
        assert main(
            ["ingest", str(sweep_artifact), "--store", str(db)]
        ) == 0
        out = capsys.readouterr().out
        assert "already ingested" in out
        assert "no-op" in out

    def test_corrupt_file_warns_but_exits_zero(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("][")
        assert main(["ingest", str(bad), "--store",
                     str(tmp_path / "db")]) == 0
        captured = capsys.readouterr()
        assert "warning: skipped" in captured.err
        assert "bad.json" not in captured.out


class TestStatsStore:
    def test_bench_trend_identical_from_file_and_store(
        self, tmp_path, monkeypatch, capsys
    ):
        """`repro stats --bench` renders the same bytes either way."""
        monkeypatch.chdir(tmp_path)
        (tmp_path / "BENCH_history.jsonl").write_text(BENCH_LINES)
        db = tmp_path / "RESULTS.db"
        # Ingest by the same (relative) path `stats --bench` defaults
        # to: the store echoes the source path in the header line.
        main(["ingest", "BENCH_history.jsonl", "--store", str(db)])
        capsys.readouterr()

        assert main(["stats", "--bench"]) == 0
        from_file = capsys.readouterr().out
        assert main(["stats", "--bench", "--store", str(db)]) == 0
        from_store = capsys.readouterr().out
        assert from_store == from_file
        assert "benchmark history" in from_file

    def test_store_without_bench_artifact(self, tmp_path, capsys):
        db = tmp_path / "empty.db"
        ResultStore(db).close()
        assert main(["stats", "--bench", "--store", str(db)]) == 0
        assert "no benchmark history rows" in capsys.readouterr().out


class TestServeIsALeaf:
    def test_serve_package_does_not_import_cli(self):
        """serve is a library layer below the CLI, like every subsystem."""
        import subprocess
        import sys

        probe = (
            "import sys; import repro.serve; "
            "sys.exit(1 if 'repro.cli' in sys.modules else 0)"
        )
        result = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True
        )
        assert result.returncode == 0


def test_run_grid_then_ingest_round_trips_scenarios(tmp_path):
    """api.run_grid → artifact → store reproduces the scenario axes."""
    result = api.run_grid(
        families=("path",), sizes=(10,), problems=("mis",),
        algorithms=("greedy",), trials=1, seed=3, name="tiny",
    )
    path = write_sweep_artifact(result, tmp_path)
    store = ResultStore(tmp_path / "db")
    store.ingest_path(path)
    digest = store.sweeps()[0]["artifact_digest"]
    (trial,) = store.trials_of(digest)
    assert trial["scenario"] == {
        "family": "path", "n": 10, "problem": "mis",
        "algorithm": "greedy", "seed": trial["seed"],
    }
    store.close()
