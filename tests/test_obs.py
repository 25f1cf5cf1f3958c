"""The observability layer: spans, counters, progress, CLI surfaces.

The load-bearing guarantees, in test form:

- the disabled path is free — ``span()`` hands back one shared no-op
  singleton and the instrumented hot loops retain zero allocations
  attributable to the tracing module;
- tracing never changes results — tables, deterministic artifact views
  and trial cache keys are byte-identical with tracing on or off, at
  one worker and at two;
- the span tree is sound across processes — fork-pool trial spans
  parent to the sweep span emitted by the parent process;
- the trace reconciles with the artifact — one ``trial.result`` event
  per artifact trial, cache-hit flags matching;
- ``repro trace`` / ``repro stats`` round-trip the files the sweep
  writes.
"""

from __future__ import annotations

import json
import re
import tracemalloc
from dataclasses import replace
from pathlib import Path

import pytest

from repro.cli import main
from repro.graphs import gnp, path
from repro.obs import spans
from repro.obs.progress import SweepProgress
from repro.obs.render import check_trace, load_trace, trial_records
from repro.olocal import MaximalIndependentSet
from repro.runner import TrialCache, run_sweep
from repro.runner.artifacts import (
    deterministic_view,
    sweep_artifact_payload,
)
from repro.runner.executor import pool_start_method
from repro.runner.trials import sweep_from_grid

HAS_FORK = pool_start_method() == "fork"


@pytest.fixture(autouse=True)
def _tracing_off_after():
    """Every test leaves the process untraced (and the env var clear)."""
    yield
    spans.disable()


def _grid(trials=1, sizes=(8, 12), name="obs"):
    return sweep_from_grid(
        families=["path"],
        sizes=list(sizes),
        problems=["mis"],
        algorithms=["theorem1"],
        trials_per_config=trials,
        name=name,
    )


# -- span mechanics -----------------------------------------------------------


class TestSpans:
    def test_disabled_span_is_the_shared_singleton(self):
        assert not spans.enabled()
        assert spans.span("anything", n=3) is spans.NOOP_SPAN
        assert spans.span("other") is spans.NOOP_SPAN
        spans.event("ignored", n=1)  # no emitter, no error

    def test_spans_nest_and_parent(self, tmp_path):
        trace = tmp_path / "t.jsonl"
        spans.configure(trace)
        with spans.span("outer", n=1):
            with spans.span("inner") as inner:
                inner.event("tick", x=2)
        spans.disable()
        records, bad = load_trace(trace)
        assert bad == 0
        by_name = {r["name"]: r for r in records}
        assert by_name["inner"]["parent"] == by_name["outer"]["id"]
        assert by_name["outer"]["parent"] is None
        assert by_name["tick"]["parent"] == by_name["inner"]["id"]
        assert by_name["tick"]["kind"] == "event"
        assert all(r["dur"] >= 0 for r in records)
        assert check_trace(records, bad) == []

    def test_exception_is_recorded_and_reraised(self, tmp_path):
        trace = tmp_path / "t.jsonl"
        spans.configure(trace)
        with pytest.raises(ValueError):
            with spans.span("doomed"):
                raise ValueError("boom")
        spans.disable()
        (record,), bad = load_trace(trace)
        assert record["error"] == "ValueError"

    def test_configure_truncates_and_disable_clears_env(self, tmp_path):
        import os

        trace = tmp_path / "t.jsonl"
        trace.write_text("stale line\n")
        spans.configure(trace)
        assert os.environ[spans.TRACE_ENV] == str(trace)
        spans.disable()
        assert spans.TRACE_ENV not in os.environ
        assert trace.read_text() == ""  # stale content gone

    @pytest.mark.skipif(not HAS_FORK, reason="needs fork start method")
    def test_fork_worker_spans_parent_to_the_sweep_span(self, tmp_path):
        spans.configure(tmp_path / "t.jsonl")
        run_sweep(_grid(trials=2), workers=2)
        spans.disable()
        records, bad = load_trace(tmp_path / "t.jsonl")
        assert check_trace(records, bad) == []
        assert len({r["pid"] for r in records}) >= 2
        (sweep_span,) = [r for r in records if r["name"] == "sweep"]
        trial_spans = [r for r in records if r["name"] == "trial.run"]
        assert len(trial_spans) == 4
        worker_spans = [
            r for r in trial_spans if r["pid"] != sweep_span["pid"]
        ]
        assert worker_spans, "no trial ran in a worker process"
        for record in worker_spans:
            # The contextvar crossed the fork: worker-side trial spans
            # hang off the parent process's sweep span.
            assert record["parent"] == sweep_span["id"]


# -- the zero-overhead contract ----------------------------------------------


class TestNoopOverhead:
    @staticmethod
    def _retained_by_spans_module(run):
        run()  # warm caches and imports outside the measured window
        tracemalloc.start()
        run()
        snapshot = tracemalloc.take_snapshot()
        tracemalloc.stop()
        spans_file = spans.__file__
        return sum(
            stat.size
            for stat in snapshot.statistics("filename")
            if stat.traceback[0].filename == spans_file
        )

    def test_lockstep_hot_loop_retains_no_tracing_allocations(self):
        """With tracing off, a full engine run must leave zero live
        allocations attributable to the spans module — the no-op path
        hands out one pre-built singleton and touches nothing else."""
        from repro.model.lockstep import greedy_by_id_callbacks, run_local

        assert not spans.enabled()
        g = path(64)
        first, on_round, _ = greedy_by_id_callbacks(
            g, MaximalIndependentSet()
        )
        assert self._retained_by_spans_module(
            lambda: run_local(g, first, on_round)
        ) == 0

    def test_simulator_loop_also_clean(self):
        from repro.model.actions import AwakeAt
        from repro.model.simulator import SleepingSimulator

        assert not spans.enabled()
        g = gnp(48, 0.15, seed=3)

        def program(info):
            yield AwakeAt(1 + info.id % 3)
            return None

        assert self._retained_by_spans_module(
            lambda: SleepingSimulator(g, program).run()
        ) == 0


# -- tracing never changes results -------------------------------------------


class TestByteIdentity:
    @pytest.mark.parametrize(
        "workers", [1, pytest.param(2, marks=pytest.mark.skipif(
            not HAS_FORK, reason="needs fork start method"))]
    )
    def test_tables_views_and_cache_keys_identical(self, tmp_path, workers):
        spec = _grid(trials=1)
        plain_cache = TrialCache(tmp_path / "c1")
        plain = run_sweep(spec, workers=workers, cache=plain_cache)
        plain_keys = [plain_cache.key(t) for t in spec.trials]

        spans.configure(tmp_path / "t.jsonl")
        traced_cache = TrialCache(tmp_path / "c2")
        traced = run_sweep(spec, workers=workers, cache=traced_cache)
        traced_keys = [traced_cache.key(t) for t in spec.trials]
        spans.disable()

        assert plain.render() == traced.render()
        assert plain_keys == traced_keys
        assert deterministic_view(
            sweep_artifact_payload(plain)
        ) == deterministic_view(sweep_artifact_payload(traced))

    def test_trace_reconciles_with_artifact_trials(self, tmp_path):
        """Acceptance: per-trial trace events match the artifact's trial
        list — same count, same cache-hit flags — on a warm-cache run
        that mixes hits and executions."""
        spec = _grid(trials=1)
        cache = TrialCache(tmp_path / "cache")
        run_sweep(spec, workers=1, cache=cache)  # warm the cache

        spans.configure(tmp_path / "t.jsonl")
        result = run_sweep(spec, workers=1, cache=cache)
        spans.disable()
        payload = sweep_artifact_payload(result)

        records, bad = load_trace(tmp_path / "t.jsonl")
        assert check_trace(records, bad) == []
        events = trial_records(records)
        artifact_trials = payload["timing"]["trials"]
        assert len(events) == len(artifact_trials)
        assert all(e["attrs"]["cached"] for e in events)
        assert sorted(
            (e["attrs"]["label"], e["attrs"]["cached"]) for e in events
        ) == sorted(
            (t["label"], t["cached"]) for t in artifact_trials
        )


# -- counters, observability block, resilience footer ------------------------


class TestCountersAndFooter:
    def test_clean_sweep_counters_and_no_footer(self):
        result = run_sweep(_grid(trials=1), workers=1)
        obs = result.observability
        assert obs["counters"]["trial.run"] == len(result.outcomes)
        assert obs["counters"]["sim.run"] >= len(result.outcomes)
        # Grid trials run through repro.api.run_scenario.
        assert obs["counters"]["scenario.run"] == len(result.outcomes)
        assert obs["peak_rss_kib"] > 0
        assert obs["retries"]["trials_retried"] == 0
        assert result.resilience_summary() is None
        assert "resilience:" not in result.render()

    def test_footer_renders_from_observability(self):
        result = run_sweep(_grid(trials=1), workers=1)
        doctored = replace(
            result,
            observability={
                **result.observability,
                "retries": {
                    "trials_retried": 2,
                    "attempts": 3,
                    "timeouts": 1,
                    "worker_deaths": 0,
                },
            },
        )
        assert doctored.resilience_summary() == (
            "2 trial(s) retried (1 timeout(s), 0 worker death(s))"
        )
        assert doctored.render().endswith(
            "resilience: 2 trial(s) retried (1 timeout(s), 0 worker "
            "death(s))"
        )

    def test_artifact_carries_observability_outside_deterministic_view(self):
        result = run_sweep(_grid(trials=1), workers=1)
        payload = sweep_artifact_payload(result)
        assert payload["observability"]["counters"]["trial.run"] == len(
            result.outcomes
        )
        assert "observability" not in deterministic_view(payload)


# -- consolidated progress line ----------------------------------------------


class TestSweepProgress:
    class _Outcome:
        def __init__(self, index, cached=False, resumed=False):
            from repro.runner.trials import TrialSpec

            self.spec = TrialSpec(
                index=index, seed=1, kind="solve", key="mis",
                label=f"t{index}", kwargs=(),
            )
            self.cached = cached
            self.resumed = resumed
            self.seconds = 0.25
            self.worker = 1234

    def test_consolidated_line_and_hit_rate(self):
        import io

        stream = io.StringIO()
        progress = SweepProgress(4, workers=2, stream=stream)
        for i in range(3):
            progress(self._Outcome(i, cached=i > 0))
        progress(self._Outcome(3, resumed=True))
        progress.finish()
        text = stream.getvalue()
        assert "4/4 trials" in text
        assert "2 cache hit(s)" in text
        assert "1 resumed from journal" in text

    def test_verbose_keeps_per_trial_lines(self):
        import io

        stream = io.StringIO()
        progress = SweepProgress(2, stream=stream, verbose=True)
        progress(self._Outcome(0))
        progress(self._Outcome(1, cached=True))
        progress.finish()
        lines = stream.getvalue().splitlines()
        assert lines[0].startswith("  [1/2] t0 (0.25s, pid 1234)")
        assert "cache hit" in lines[1]


# -- CLI round-trips ----------------------------------------------------------


class TestCliRoundTrips:
    def _traced_sweep(self, tmp_path, capsys):
        argv = [
            "sweep", "--grid", "--families", "path", "--sizes", "8", "12",
            "--problems", "mis", "--algorithms", "theorem1",
            "--no-cache", "--output-dir", str(tmp_path), "--tag", "cli",
            "--trace",
        ]
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert f"wrote {tmp_path}/SWEEP_cli.trace.jsonl" in captured.err
        return tmp_path / "SWEEP_cli.trace.jsonl", tmp_path / "SWEEP_cli.json"

    def test_sweep_trace_then_trace_and_stats(self, tmp_path, capsys):
        trace_file, artifact = self._traced_sweep(tmp_path, capsys)
        assert trace_file.exists() and artifact.exists()

        assert main(["trace", str(trace_file)]) == 0
        out = capsys.readouterr().out
        assert "trial timeline (2 trial(s))" in out
        assert "slowest spans" in out
        assert "trial.run" in out

        assert main(["trace", str(trace_file), "--check"]) == 0
        assert "spans balance" in capsys.readouterr().out

        assert main(["stats", str(artifact)]) == 0
        out = capsys.readouterr().out
        assert "2 trial(s) (2 executed)" in out
        assert "counters:" in out

    def test_trace_check_flags_unbalanced_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text(
            json.dumps(
                {
                    "kind": "span", "name": "x", "id": "1-1",
                    "parent": "1-99", "pid": 1, "t0": 0.0, "dur": 0.1,
                }
            )
            + "\nnot json\n"
        )
        assert main(["trace", str(bad), "--check"]) == 1
        err = capsys.readouterr().err
        assert "trace problem" in err

    def test_stats_bench_history(self, tmp_path, capsys):
        history = tmp_path / "hist.jsonl"
        history.write_text(
            json.dumps(
                {
                    "date": "2026-08-08T00:00:00", "mode": "quick",
                    "cases": 2, "speedups": {"a": 4.0, "b": 1.0},
                }
            )
            + "\n"
        )
        assert main(
            ["stats", "--bench", "--bench-history", str(history)]
        ) == 0
        out = capsys.readouterr().out
        assert "benchmark history" in out
        assert "2.0x" in out  # geomean of 4.0 and 1.0

    def test_stats_without_inputs_errors(self):
        with pytest.raises(SystemExit, match="pass SWEEP_"):
            main(["stats"])

    def test_report_trace_flag_exists(self):
        # --trace/--profile are registered once in add_report_args and
        # shared by `repro report` and `python -m repro.analysis.report`.
        import argparse

        from repro.analysis.report import add_report_args

        parser = argparse.ArgumentParser()
        add_report_args(parser)
        args = parser.parse_args(["--trace"])
        assert args.trace and not args.profile

    def test_solve_profile_writes_run_trace(
        self, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        argv = [
            "solve", "--family", "path", "--n", "12", "--problem", "mis",
            "--algorithm", "theorem1", "--profile",
        ]
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert "wrote RUN.trace.jsonl" in captured.err
        assert "slowest spans" in captured.err
        records, bad = load_trace(tmp_path / "RUN.trace.jsonl")
        assert check_trace(records, bad) == []
        names = {r["name"] for r in records}
        assert {"scenario.run", "scenario.build_graph",
                "scenario.solve"} <= names


class TestGraphBuildSpans:
    def test_fast_gnp_sampling_and_index_are_children_of_build_graph(
        self, tmp_path
    ):
        from repro.api import Scenario, run_scenario

        trace = tmp_path / "t.jsonl"
        spans.configure(trace)
        result = run_scenario(Scenario(
            family="gnp", n=64, problem="mis", algorithm="theorem1",
            engine="vectorized", params={"p": 0.1, "method": "fast"},
        ))
        spans.disable()
        assert result.ok
        records, bad = load_trace(trace)
        assert check_trace(records, bad) == []
        by_name = {r["name"]: r for r in records}
        build = by_name["scenario.build_graph"]
        for name in ("graphs.sample", "graphs.csr"):
            assert by_name[name]["parent"] == build["id"]
            assert by_name[name]["attrs"] == {"n": 64}
        assert (by_name["graphs.sample"]["t0"]
                <= by_name["graphs.csr"]["t0"])


class TestVectorizedTheorem1Spans:
    def test_clustering_span_nests_under_theorem1(self, tmp_path):
        """The vectorized Theorem 1 runs its clustering stage through the
        Theorem 13 entry point, so its span is a child of the
        composition's."""
        from repro.api import Scenario, run_scenario

        trace = tmp_path / "t.jsonl"
        spans.configure(trace)
        result = run_scenario(Scenario(
            family="gnp", n=48, problem="mis", algorithm="theorem1",
            engine="vectorized",
        ))
        spans.disable()
        assert result.ok
        records, bad = load_trace(trace)
        assert check_trace(records, bad) == []
        by_name = {r["name"]: r for r in records}
        outer = by_name["theorem1.vectorized"]
        assert by_name["theorem13.vectorized"]["parent"] == outer["id"]
        for stage in ("theorem9.decide", "theorem9.accounting"):
            assert by_name[stage]["parent"] == outer["id"]

    def test_clustering_phase_spans_nest_under_theorem13(self, tmp_path):
        """Each Theorem 13 phase, and the array validation, is a named
        child of ``theorem13.vectorized``; b = 1 keeps clusters
        residual, so the Lemma 14 merge runs too."""
        from repro.api import Scenario, run_scenario

        trace = tmp_path / "t.jsonl"
        spans.configure(trace)
        result = run_scenario(Scenario(
            family="gnp", n=48, problem="mis", algorithm="theorem1",
            engine="vectorized", params={"b": 1},
        ))
        spans.disable()
        assert result.ok
        records, bad = load_trace(trace)
        assert check_trace(records, bad) == []
        (kernel,) = [r for r in records if r["name"] == "theorem13.vectorized"]
        stages = ("parents", "forest", "accounting", "merge")
        for name in [f"theorem13.{s}" for s in stages] + ["theorem13.validate"]:
            found = [r for r in records if r["name"] == name]
            assert found, name
            assert all(r["parent"] == kernel["id"] for r in found), name
        phases = [r for r in records if r["name"] == "theorem13.parents"]
        assert len(phases) >= 2
        assert [r["attrs"]["phase"] for r in phases] == sorted(
            r["attrs"]["phase"] for r in phases
        )


# -- docs stay in sync with the instrumentation ------------------------------


class TestDocsSync:
    REPO = Path(__file__).resolve().parent.parent
    OBS_DOC = REPO / "docs" / "OBSERVABILITY.md"

    SPAN_RE = re.compile(
        r"(?:\b(?:obs_)?span|\b(?:obs_)?event|\.event)"
        r"\(\s*[\"']([a-z0-9_.]+)[\"']"
    )
    COUNTER_RE = re.compile(
        r"(?:obs_)?counters\.add\(\s*[\"']([a-z0-9_.]+)[\"']"
    )

    def _source_names(self, pattern):
        names = set()
        src = self.REPO / "src" / "repro"
        for path in src.rglob("*.py"):
            if (src / "obs") in path.parents:
                continue  # the emitter itself, not an instrumented site
            names.update(pattern.findall(path.read_text(encoding="utf-8")))
        return names

    def test_every_span_and_event_name_is_documented(self):
        doc = self.OBS_DOC.read_text(encoding="utf-8")
        names = self._source_names(self.SPAN_RE)
        assert names, "no instrumented spans found in src/"
        missing = {n for n in names if f"`{n}`" not in doc}
        assert not missing, (
            f"span/event names used in src/ but absent from the "
            f"docs/OBSERVABILITY.md taxonomy: {sorted(missing)}"
        )

    def test_every_documented_span_and_event_is_emitted(self):
        """The reverse direction: a row whose span or event is gone
        from src/ goes from the taxonomy too."""
        doc = self.OBS_DOC.read_text(encoding="utf-8")
        taxonomy = doc.split("## Span and event taxonomy")[1]
        taxonomy = taxonomy.split("\n## ")[0]
        documented = set()
        for line in taxonomy.splitlines():
            cells = line.split("|")
            if line.startswith("|") and len(cells) > 2:
                documented.update(re.findall(r"`([a-z0-9_.]+)`", cells[1]))
        assert "theorem13.vectorized" in documented
        stale = documented - self._source_names(self.SPAN_RE)
        assert not stale, (
            f"span/event names in the docs/OBSERVABILITY.md taxonomy but "
            f"emitted nowhere in src/: {sorted(stale)}"
        )

    def test_every_counter_name_is_documented(self):
        doc = self.OBS_DOC.read_text(encoding="utf-8")
        names = self._source_names(self.COUNTER_RE)
        assert names, "no counter increments found in src/"
        missing = {n for n in names if f"`{n}`" not in doc}
        assert not missing, (
            f"counter names used in src/ but absent from "
            f"docs/OBSERVABILITY.md: {sorted(missing)}"
        )

    def test_readme_quickstart_mentions_tracing(self):
        readme = (self.REPO / "README.md").read_text(encoding="utf-8")
        assert "--trace" in readme
        assert "repro trace" in readme
        assert "docs/OBSERVABILITY.md" in readme

    def test_architecture_layer_map_mentions_obs(self):
        arch = (self.REPO / "docs" / "ARCHITECTURE.md").read_text(
            encoding="utf-8"
        )
        assert "`obs/`" in arch
        assert "docs/OBSERVABILITY.md" in arch
