"""Tests for the resilience layer (repro.runner.resilience + chaos).

Covers the fabric's promises under injected faults:

- **retry** — deterministic jittered backoff; a transiently raising
  trial completes and the aggregate is byte-identical to a fault-free
  run;
- **timeout** — a hung trial surfaces as a retriable
  ``TrialTimeoutError`` instead of stalling the sweep;
- **worker death** — a worker that exits hard breaks the pool; the
  executor rebuilds it, requeues only the unfinished trials, and the
  aggregate is still byte-identical; an exhausted restart budget is the
  only thing that aborts;
- **keep-going** — terminal failures become a ``FailureReport``;
  aggregation refuses partial input unless explicitly allowed;
- **journal** — completed trials checkpoint to an append-only journal;
  ``--resume`` skips them and reproduces identical tables; corrupt
  tails and stale salts read fail-open.
"""

from __future__ import annotations

import json
import time

import pytest

from repro.runner import chaos as chaos_mod
from repro.runner import (
    ChaosError,
    ChaosSpec,
    FailureReport,
    RetryPolicy,
    SweepError,
    SweepJournal,
    TrialFailure,
    TrialSpec,
    TrialTimeoutError,
    run_sweep,
    sweep_from_experiments,
)
from repro.runner.chaos import CHAOS_ENV, chaos_from_env
from repro.runner.executor import TrialOutcome, pool_start_method
from repro.runner.resilience import backoff_seed, trial_deadline

HAS_FORK = pool_start_method() == "fork"

#: Cheap experiments (sub-second combined) for chaos sweeps.
CHEAP = ("E2", "E4", "E5")


@pytest.fixture(autouse=True)
def _disarm_chaos(monkeypatch):
    """Each test starts with no armed chaos and a cold memo."""
    monkeypatch.delenv(CHAOS_ENV, raising=False)
    monkeypatch.setattr(chaos_mod, "_armed", None)


def _arm(monkeypatch, **spec) -> None:
    monkeypatch.setenv(CHAOS_ENV, json.dumps(spec))


def _spec():
    return sweep_from_experiments(CHEAP)


def _trial(index: int = 0, label: str = "t", seed: int = 0) -> TrialSpec:
    return TrialSpec(
        index=index, kind="experiment", key="E2", label=label,
        kwargs=(("x", 1),), seed=seed,
    )


# -- retry policy ------------------------------------------------------------


class TestRetryPolicy:
    def test_default_never_retries_plain_exceptions(self):
        policy = RetryPolicy(max_attempts=3)
        assert policy.should_retry(TrialTimeoutError("slow"), 1)
        assert policy.should_retry(TrialTimeoutError("slow"), 2)
        assert not policy.should_retry(TrialTimeoutError("slow"), 3)
        assert not policy.should_retry(ValueError("boom"), 1)

    def test_retriable_classes_are_configurable(self):
        policy = RetryPolicy(max_attempts=2, retriable=(ChaosError,))
        assert policy.should_retry(ChaosError("chaos"), 1)
        assert not policy.should_retry(TrialTimeoutError("slow"), 1)

    def test_validation(self):
        with pytest.raises(ValueError, match="max_attempts"):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError, match="jitter"):
            RetryPolicy(jitter=1.5)
        with pytest.raises(ValueError, match="backoff_base"):
            RetryPolicy(backoff_base=-1)

    def test_backoff_is_deterministic_per_trial_and_attempt(self):
        policy = RetryPolicy(max_attempts=4, backoff_base=0.5)
        trial = _trial(seed=7)
        first = policy.backoff_seconds(trial, 1)
        assert first == policy.backoff_seconds(trial, 1)
        # Jitter is seeded from the trial identity: a different trial
        # draws a different (but equally reproducible) schedule.
        other = policy.backoff_seconds(_trial(seed=8), 1)
        assert first != other

    def test_backoff_growth_and_ceiling(self):
        policy = RetryPolicy(
            max_attempts=10, backoff_base=1.0, backoff_factor=2.0,
            backoff_max=3.0, jitter=0.0,
        )
        trial = _trial()
        assert policy.backoff_seconds(trial, 1) == 1.0
        assert policy.backoff_seconds(trial, 2) == 2.0
        assert policy.backoff_seconds(trial, 3) == 3.0  # capped
        assert policy.backoff_seconds(trial, 8) == 3.0

    def test_jitter_stays_within_fraction(self):
        policy = RetryPolicy(
            max_attempts=2, backoff_base=1.0, jitter=0.5
        )
        delay = policy.backoff_seconds(_trial(), 1)
        assert 0.5 <= delay <= 1.0

    def test_zero_base_means_no_sleep(self):
        assert RetryPolicy(max_attempts=3).backoff_seconds(_trial(), 1) == 0.0


# -- trial identity ----------------------------------------------------------


class TestTrialDigest:
    def test_positional_fields_excluded(self):
        # Same work at a different grid position: same digest — the
        # journal (like the cache) must match on content, not position.
        a = _trial(index=0, label="path/n=8#0")
        b = _trial(index=5, label="renamed")
        assert a.digest == b.digest
        assert backoff_seed(a) == backoff_seed(b)

    def test_identity_fields_included(self):
        assert _trial(seed=1).digest != _trial(seed=2).digest


# -- per-trial deadline ------------------------------------------------------


class TestTrialDeadline:
    def test_fast_body_unaffected(self):
        with trial_deadline(_trial(), 5.0):
            value = 1 + 1
        assert value == 2

    def test_hang_raises_timeout(self):
        with pytest.raises(TrialTimeoutError, match="wall-clock budget"):
            with trial_deadline(_trial(label="slowpoke"), 0.1):
                time.sleep(5)

    def test_none_and_zero_disable_the_deadline(self):
        for timeout in (None, 0, -1):
            with trial_deadline(_trial(), timeout):
                pass


# -- chaos harness -----------------------------------------------------------


class TestChaosSpec:
    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="unknown chaos mode"):
            ChaosSpec(mode="explode")

    def test_env_arming_and_memoization(self, monkeypatch):
        assert chaos_from_env() is None
        _arm(monkeypatch, mode="raise", match="E4[", times=1)
        spec = chaos_from_env()
        assert spec is not None and spec.mode == "raise"
        # Same env value → same object, so fuse-less counters persist.
        assert chaos_from_env() is spec

    def test_malformed_spec_raises(self, monkeypatch):
        monkeypatch.setenv(CHAOS_ENV, "[1, 2]")
        with pytest.raises(ValueError, match="JSON object"):
            chaos_from_env()

    def test_firing_is_bounded_per_process(self):
        spec = ChaosSpec(mode="raise", match="t", times=2)
        for _ in range(2):
            with pytest.raises(ChaosError):
                spec.maybe_fire(_trial())
        spec.maybe_fire(_trial())  # fuse burnt: no further firing

    def test_fuse_files_bound_firing_across_instances(self, tmp_path):
        fuse = str(tmp_path / "fuse")
        first = ChaosSpec(mode="raise", match="t", times=1, fuse=fuse)
        with pytest.raises(ChaosError):
            first.maybe_fire(_trial())
        # A *different* instance (as after a pool restart or in another
        # worker) sees the claimed fuse file and stays quiet.
        second = ChaosSpec(mode="raise", match="t", times=1, fuse=fuse)
        second.maybe_fire(_trial())

    def test_match_filters_by_label(self):
        spec = ChaosSpec(mode="raise", match="E9[", times=1)
        spec.maybe_fire(_trial(label="E2[x]"))  # no match, no fire


# -- chaos through the executor ----------------------------------------------


class TestChaosSweeps:
    def test_injected_raise_fails_the_sweep_by_default(self, monkeypatch):
        _arm(monkeypatch, mode="raise", match="E4[", times=1)
        with pytest.raises(SweepError, match=r"E4\[.*ChaosError"):
            run_sweep(_spec(), workers=1)

    def test_retry_recovers_from_transient_raise(self, monkeypatch):
        baseline = run_sweep(_spec(), workers=1).render()
        monkeypatch.setattr(chaos_mod, "_armed", None)
        _arm(monkeypatch, mode="raise", match="E4[", times=1)
        result = run_sweep(
            _spec(),
            workers=1,
            retry=RetryPolicy(max_attempts=2, retriable=(ChaosError,)),
        )
        # Tables are bit-identical; the retry only adds the S3 footer.
        assert result.render().startswith(baseline)
        assert result.resilience_summary() == (
            "1 trial(s) retried (0 timeout(s), 0 worker death(s))"
        )

    def test_hang_hits_timeout_and_retries(self, monkeypatch):
        baseline = run_sweep(_spec(), workers=1).render()
        monkeypatch.setattr(chaos_mod, "_armed", None)
        _arm(monkeypatch, mode="hang", match="E4[", times=1, hang_seconds=30)
        result = run_sweep(
            _spec(),
            workers=1,
            timeout=0.5,
            retry=RetryPolicy(max_attempts=2),  # timeouts retriable by default
        )
        assert result.render().startswith(baseline)
        assert result.resilience_summary() == (
            "1 trial(s) retried (1 timeout(s), 0 worker death(s))"
        )

    def test_hang_without_retry_surfaces_timeout(self, monkeypatch):
        _arm(monkeypatch, mode="hang", match="E4[", times=1, hang_seconds=30)
        with pytest.raises(SweepError, match="TrialTimeoutError"):
            run_sweep(_spec(), workers=1, timeout=0.5)

    def test_keep_going_collects_failures(self, monkeypatch):
        _arm(monkeypatch, mode="raise", match="E4[", times=0)
        result = run_sweep(_spec(), workers=1, keep_going=True)
        assert len(result.failures) == 1
        failure = result.failures[0]
        assert failure.error_type == "ChaosError"
        assert "E4[" in failure.label
        assert "ChaosError" in failure.traceback
        assert len(result.outcomes) == len(_spec().trials) - 1

    def test_partial_aggregate_refused_then_allowed(self, monkeypatch):
        _arm(monkeypatch, mode="raise", match="E4[", times=0)
        result = run_sweep(_spec(), workers=1, keep_going=True)
        with pytest.raises(SweepError, match="allow_partial"):
            result.experiments()
        tables = result.experiments(allow_partial=True)
        assert "E2" in tables and "E4" not in tables

    @pytest.mark.skipif(not HAS_FORK, reason="needs fork start method")
    def test_worker_crash_recovers_via_pool_restart(
        self, monkeypatch, tmp_path
    ):
        baseline = run_sweep(_spec(), workers=1).render()
        monkeypatch.setattr(chaos_mod, "_armed", None)
        _arm(
            monkeypatch, mode="exit", match="E4[", times=1,
            fuse=str(tmp_path / "fuse"),
        )
        result = run_sweep(_spec(), workers=2)
        assert result.pool_restarts >= 1
        assert result.render().startswith(baseline)
        assert "worker death(s)" in (result.resilience_summary() or "")

    @pytest.mark.skipif(not HAS_FORK, reason="needs fork start method")
    def test_restart_budget_exhaustion_aborts(self, monkeypatch):
        # No fuse and times=0: the trial kills its worker on every
        # attempt, in every rebuilt pool — the budget must give up.
        _arm(monkeypatch, mode="exit", match="E4[", times=0)
        with pytest.raises(SweepError, match="worker process died"):
            run_sweep(_spec(), workers=2, max_pool_restarts=1)

    @pytest.mark.skipif(not HAS_FORK, reason="needs fork start method")
    def test_pool_keep_going_collects_worker_exception(self, monkeypatch):
        _arm(monkeypatch, mode="raise", match="E4[", times=0)
        result = run_sweep(_spec(), workers=2, keep_going=True)
        assert [f.error_type for f in result.failures] == ["ChaosError"]
        assert result.experiments(allow_partial=True)


# -- failure report ----------------------------------------------------------


class TestFailureReport:
    def _failure(self, index=0, error="ValueError"):
        return TrialFailure(
            index=index, label=f"t{index}", error_type=error,
            message="boom", traceback="Traceback...\nValueError: boom",
            attempts=2,
        )

    def test_bool_and_counts(self):
        assert not FailureReport()
        report = FailureReport(
            (self._failure(0), self._failure(1, "ChaosError"))
        )
        assert report
        assert report.by_error_type() == {"ValueError": 1, "ChaosError": 1}

    def test_render_carries_tracebacks(self):
        report = FailureReport((self._failure(),))
        text = report.render()
        assert "1 trial failure(s)" in text
        assert "ValueError: boom" in text
        assert "after 2 attempt(s)" in text

    def test_describe_is_jsonable(self):
        report = FailureReport((self._failure(),))
        assert json.loads(json.dumps(report.describe()))["count"] == 1


# -- journal / resume --------------------------------------------------------


class TestJournal:
    def test_roundtrip_resume_skips_and_matches(self, tmp_path):
        path = tmp_path / "SWEEP_t.journal"
        spec = _spec()
        first = run_sweep(spec, workers=1, journal=SweepJournal(path))
        resumed = run_sweep(
            spec, workers=1, journal=SweepJournal(path, resume=True)
        )
        assert all(o.resumed for o in resumed.outcomes)
        assert resumed.render() == first.render()

    def test_interrupted_run_resumes_byte_identically(self, tmp_path):
        path = tmp_path / "SWEEP_t.journal"
        spec = _spec()
        full = run_sweep(spec, workers=1, journal=SweepJournal(path))
        # Simulate a run killed partway: keep the header + 1 entry.
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(lines[:2]))
        resumed = run_sweep(
            spec, workers=1, journal=SweepJournal(path, resume=True)
        )
        assert sum(o.resumed for o in resumed.outcomes) == 1
        assert resumed.render() == full.render()
        # The journal was topped back up to a full checkpoint.
        again = run_sweep(
            spec, workers=1, journal=SweepJournal(path, resume=True)
        )
        assert all(o.resumed for o in again.outcomes)

    def test_corrupt_tail_reads_fail_open(self, tmp_path):
        path = tmp_path / "SWEEP_t.journal"
        spec = _spec()
        run_sweep(spec, workers=1, journal=SweepJournal(path))
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"digest": "torn-wr')  # torn tail line
        resumed = run_sweep(
            spec, workers=1, journal=SweepJournal(path, resume=True)
        )
        assert all(o.resumed for o in resumed.outcomes)

    def test_checksum_mismatch_drops_entry_and_tail(self, tmp_path):
        path = tmp_path / "SWEEP_t.journal"
        spec = _spec()
        run_sweep(spec, workers=1, journal=SweepJournal(path))
        lines = path.read_text().splitlines()
        entry = json.loads(lines[1])
        entry["sha"] = "0" * 16  # flipped bits
        lines[1] = json.dumps(entry)
        path.write_text("\n".join(lines) + "\n")
        journal = SweepJournal(path, resume=True)
        assert journal.load_outcomes(spec.trials) == {}

    def test_stale_salt_discards_entries(self, tmp_path):
        path = tmp_path / "SWEEP_t.journal"
        spec = _spec()
        run_sweep(
            spec, workers=1, journal=SweepJournal(path, salt="oldcode")
        )
        # Same file, current code version: nothing resumes.
        journal = SweepJournal(path, resume=True)
        assert journal.load_outcomes(spec.trials) == {}
        # And begin() restarts the stale file.
        journal.begin(spec.name, len(spec.trials))
        header = json.loads(path.read_text().splitlines()[0])
        assert header["salt"] == journal.salt

    def test_alien_file_is_ignored(self, tmp_path):
        path = tmp_path / "SWEEP_t.journal"
        path.write_text("not a journal at all\n")
        journal = SweepJournal(path, resume=True)
        assert journal.load_outcomes(_spec().trials) == {}

    def test_missing_file_resumes_empty(self, tmp_path):
        journal = SweepJournal(tmp_path / "nope.journal", resume=True)
        assert journal.load_outcomes(_spec().trials) == {}

    def test_non_json_payload_degrades_to_no_checkpoint(self, tmp_path):
        path = tmp_path / "SWEEP_t.journal"
        journal = SweepJournal(path)
        journal.begin("t", 1)
        outcome = TrialOutcome(
            spec=_trial(), payload={"rows": {1, 2}}, seconds=0.1, worker=1
        )
        assert journal.append(outcome) is False
        assert len(path.read_text().splitlines()) == 1  # header only

    def test_fresh_journal_truncates_previous_run(self, tmp_path):
        path = tmp_path / "SWEEP_t.journal"
        spec = _spec()
        run_sweep(spec, workers=1, journal=SweepJournal(path))
        run_sweep(spec, workers=1, journal=SweepJournal(path))  # no resume
        lines = path.read_text().splitlines()
        assert len(lines) == 1 + len(spec.trials)

    @pytest.mark.skipif(not HAS_FORK, reason="needs fork start method")
    def test_pool_sweep_journals_and_resumes(self, tmp_path):
        path = tmp_path / "SWEEP_t.journal"
        spec = _spec()
        parallel = run_sweep(spec, workers=2, journal=SweepJournal(path))
        resumed = run_sweep(
            spec, workers=1, journal=SweepJournal(path, resume=True)
        )
        assert all(o.resumed for o in resumed.outcomes)
        assert resumed.render() == parallel.render()


# -- resilience CLI flags ----------------------------------------------------


class TestResilienceCli:
    def test_parser_defaults(self):
        from repro.cli import make_parser

        args = make_parser().parse_args(["sweep"])
        assert args.retries == 0
        assert args.timeout is None
        assert args.max_pool_restarts == 2
        assert not args.keep_going
        assert not args.allow_partial
        assert args.resume is None
        assert not args.no_journal

    def test_sweep_writes_journal_next_to_artifact(self, tmp_path):
        from repro.cli import main

        argv = [
            "sweep", "--experiments", "E2", "--tag", "jrnl", "--no-cache",
            "--output-dir", str(tmp_path),
        ]
        assert main(argv) == 0
        assert (tmp_path / "SWEEP_jrnl.journal").exists()
        assert (tmp_path / "SWEEP_jrnl.json").exists()

    def test_no_journal_flag(self, tmp_path):
        from repro.cli import main

        argv = [
            "sweep", "--experiments", "E2", "--tag", "nj", "--no-cache",
            "--no-journal", "--output-dir", str(tmp_path),
        ]
        assert main(argv) == 0
        assert not (tmp_path / "SWEEP_nj.journal").exists()

    def test_cli_resume_round_trip(self, tmp_path, capsys):
        from repro.cli import main

        argv = [
            "sweep", "--experiments", "E2", "E4", "--tag", "rt",
            "--no-cache", "--output-dir", str(tmp_path),
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        resume_argv = argv + [
            "--resume", str(tmp_path / "SWEEP_rt.journal"),
        ]
        assert main(resume_argv) == 0
        captured = capsys.readouterr()
        assert "resumed from journal" in captured.err
        assert captured.out == first

    def test_keep_going_cli_refuses_partial_without_flag(
        self, monkeypatch, tmp_path, capsys
    ):
        from repro.cli import main

        monkeypatch.setattr(chaos_mod, "_armed", None)
        monkeypatch.setenv(
            CHAOS_ENV, json.dumps({"mode": "raise", "match": "E4[", "times": 0})
        )
        argv = [
            "sweep", "--experiments", "E2", "E4", "--no-cache",
            "--keep-going", "--output-dir", str(tmp_path), "--no-artifact",
        ]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert "trial failure(s)" in err and "--allow-partial" in err
        assert main(argv + ["--allow-partial"]) == 0
        assert "E2" in capsys.readouterr().out
