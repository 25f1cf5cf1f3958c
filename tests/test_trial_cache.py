"""Tests for the content-addressed trial cache (repro.runner.cache)
and the sharded report path (repro.analysis.report).

Covers the promises the cache subsystem makes:

- **identity keying** — kind, key, kwargs, and seed determine the
  cache key; index and label do not; the code-version salt shifts
  every key;
- **hit/miss/invalidation** — cold runs miss and store, warm runs hit,
  changed specs or seeds miss again;
- **corruption tolerance** — a truncated, garbage, wrong-format, or
  checksum-mismatched cache file is a miss (recompute), never a crash;
- **plain-JSON records** — payloads read back JSON-normalised (tuples
  as lists); a payload that is not plain JSON is never stored;
- **report byte-identity** — EXPERIMENTS.md bytes are the same for
  workers 1/2 and for cache disabled/cold/warm.
"""

from __future__ import annotations

import json

import pytest

from repro.analysis.report import generate, main as report_main
from repro.runner import (
    TrialCache,
    TrialSpec,
    run_sweep,
    sweep_artifact_payload,
    sweep_from_experiments,
    sweep_from_grid,
)
from repro.runner.artifacts import deterministic_view
from repro.runner.cache import (
    CACHE_FORMAT,
    code_version_salt,
    decode_record,
    encode_record,
    is_cacheable,
    trial_cache_key,
)
from repro.runner.executor import pool_start_method

HAS_FORK = pool_start_method() == "fork"

#: Cheap experiments (sub-second combined) for multi-run tests.
CHEAP = ("E2", "E4", "E5", "E10")


def _spec(**overrides) -> TrialSpec:
    base = dict(
        index=0,
        kind="experiment",
        key="E5",
        label="E5[path-32]",
        kwargs=(("tree", "path-32"),),
        seed=None,
    )
    base.update(overrides)
    return TrialSpec(**base)


def _as_json(payload):
    """What a payload reads back as: tuples become lists."""
    return json.loads(json.dumps(payload))


def _rewrite(path, **changes):
    """Edit one field of a stored record in place, keeping the rest."""
    record = json.loads(path.read_text())
    record.update(changes)
    path.write_text(json.dumps(record))


# -- identity keying ---------------------------------------------------------


class TestKeying:
    def test_same_identity_same_key(self):
        assert trial_cache_key(_spec(), "s") == trial_cache_key(_spec(), "s")

    def test_kwargs_change_key(self):
        a = trial_cache_key(_spec(), "s")
        b = trial_cache_key(_spec(kwargs=(("tree", "star-32"),)), "s")
        assert a != b

    def test_seed_changes_key(self):
        assert trial_cache_key(_spec(seed=1), "s") != trial_cache_key(
            _spec(seed=2), "s"
        )

    def test_kind_and_key_change_key(self):
        keys = {
            trial_cache_key(_spec(), "s"),
            trial_cache_key(_spec(kind="solve"), "s"),
            trial_cache_key(_spec(key="E6"), "s"),
        }
        assert len(keys) == 3

    def test_index_and_label_do_not_change_key(self):
        # Reordering a sweep, or sharing trials between sweep and
        # report, must still hit.
        a = trial_cache_key(_spec(index=0, label="E5[a]"), "s")
        b = trial_cache_key(_spec(index=7, label="other"), "s")
        assert a == b

    def test_salt_changes_key(self):
        assert trial_cache_key(_spec(), "v1") != trial_cache_key(_spec(), "v2")

    def test_object_kwargs_uncacheable(self):
        spec = _spec(kwargs=(("problem", object()),))
        assert not is_cacheable(spec)
        assert trial_cache_key(spec, "s") is None

    def test_primitive_and_nested_kwargs_cacheable(self):
        spec = _spec(kwargs=(("sizes", (8, 16)), ("p", 0.5), ("x", None)))
        assert is_cacheable(spec)
        assert trial_cache_key(spec, "s") is not None

    def test_code_version_salt_stable_hex(self):
        salt = code_version_salt()
        assert salt == code_version_salt()
        int(salt, 16)  # hex digest prefix


# -- store / load ------------------------------------------------------------


class TestStoreLoad:
    def test_miss_on_empty_cache(self, tmp_path):
        cache = TrialCache(tmp_path, salt="t")
        assert cache.load(_spec()) is None

    def test_roundtrip(self, tmp_path):
        cache = TrialCache(tmp_path, salt="t")
        payload = {"rows": [(1, "a", 2.5), (3, "b", None)]}
        assert cache.store(_spec(), payload, seconds=1.25)
        found = cache.load(_spec())
        assert found is not None
        assert found.payload == _as_json(payload)
        assert found.seconds == 1.25

    def test_uncacheable_store_refused(self, tmp_path):
        cache = TrialCache(tmp_path, salt="t")
        spec = _spec(kwargs=(("problem", object()),))
        assert not cache.store(spec, {"rows": []}, seconds=0.0)
        assert cache.load(spec) is None
        assert list(tmp_path.rglob("*.json")) == []

    def test_garbage_file_is_a_miss_and_dropped(self, tmp_path):
        cache = TrialCache(tmp_path, salt="t")
        cache.store(_spec(), {"rows": []}, seconds=0.0)
        (path,) = tmp_path.rglob("*.json")
        path.write_bytes(b"not a json record at all")
        assert cache.load(_spec()) is None
        assert not path.exists()
        # Recompute + store works again afterwards.
        assert cache.store(_spec(), {"rows": [(1,)]}, seconds=0.0)
        assert cache.load(_spec()).payload == {"rows": [[1]]}

    def test_truncated_record_is_a_miss(self, tmp_path):
        cache = TrialCache(tmp_path, salt="t")
        cache.store(_spec(), {"rows": [(1, 2, 3)]}, seconds=0.0)
        (path,) = tmp_path.rglob("*.json")
        path.write_bytes(path.read_bytes()[:10])
        assert cache.load(_spec()) is None

    def test_wrong_format_version_is_a_miss(self, tmp_path):
        cache = TrialCache(tmp_path, salt="t")
        cache.store(_spec(), {"rows": []}, seconds=0.0)
        (path,) = tmp_path.rglob("*.json")
        _rewrite(path, format=CACHE_FORMAT + 1)
        assert cache.load(_spec()) is None

    def test_non_dict_record_is_a_miss(self, tmp_path):
        cache = TrialCache(tmp_path, salt="t")
        cache.store(_spec(), {"rows": []}, seconds=0.0)
        (path,) = tmp_path.rglob("*.json")
        path.write_text(json.dumps(["not", "a", "record"]))
        assert cache.load(_spec()) is None

    def test_non_numeric_seconds_is_a_miss(self, tmp_path):
        cache = TrialCache(tmp_path, salt="t")
        cache.store(_spec(), {"rows": []}, seconds=0.0)
        (path,) = tmp_path.rglob("*.json")
        _rewrite(path, seconds="3.4s")
        assert cache.load(_spec()) is None

    def test_checksum_mismatch_is_a_miss_and_dropped(self, tmp_path):
        cache = TrialCache(tmp_path, salt="t")
        cache.store(_spec(), {"rows": [[1, "a"]]}, seconds=0.0)
        (path,) = tmp_path.rglob("*.json")
        _rewrite(path, payload={"rows": [[2, "a"]]})  # sha left stale
        assert cache.load(_spec()) is None
        assert not path.exists()

    def test_non_json_payload_is_not_stored(self, tmp_path):
        cache = TrialCache(tmp_path, salt="t")
        # A set, an int-keyed dict (JSON would turn the key into "1"),
        # and an object: none reads back as what was stored.
        for payload in ({"rows": {1, 2}}, {1: "a"}, {"rows": [object()]}):
            assert not cache.store(_spec(), payload, seconds=0.0)
        assert list(tmp_path.rglob("*")) == []
        assert cache.load(_spec()) is None

    def test_transient_read_error_is_a_miss_without_discard(self, tmp_path):
        cache = TrialCache(tmp_path, salt="t")
        path = cache.path_for(_spec())
        path.parent.mkdir(parents=True)
        path.mkdir()  # open() raises IsADirectoryError, an OSError
        assert cache.load(_spec()) is None
        # Transient I/O errors must not destroy the entry.
        assert path.exists()

    def test_unwritable_cache_degrades_to_no_cache(self, tmp_path):
        blocked = tmp_path / "blocked"
        blocked.write_text("a file where the cache dir should go")
        cache = TrialCache(blocked / "cache", salt="t")
        assert not cache.store(_spec(), {"rows": []}, seconds=0.0)
        assert cache.load(_spec()) is None


class TestRecord:
    def test_encode_decode_roundtrip(self):
        payload = {"rows": [(1, "Δ", 2.5, None, True)], "n": 8}
        line = encode_record("E5[a]", 1.5, payload, digest="d" * 32, index=3)
        assert "\n" not in line
        found = decode_record(line)
        assert found.payload == _as_json(payload)
        assert (found.seconds, found.digest) == (1.5, "d" * 32)
        assert json.loads(line)["label"] == "E5[a]"
        assert json.loads(line)["index"] == 3

    def test_encoding_is_canonical(self):
        # Same payload, same bytes; a cache record has no digest/index.
        a = encode_record("x", 0.0, {"rows": [(1, 2)]})
        assert a == encode_record("x", 0.0, {"rows": [[1, 2]]})
        assert a.startswith('{"format":')
        assert decode_record(a).digest is None

    def test_payload_key_order_is_kept(self):
        # Aggregators render dicts (findings) in insertion order.
        payload = {"zeta": 1, "alpha": 2}
        found = decode_record(encode_record("x", 0.0, payload))
        assert list(found.payload) == ["zeta", "alpha"]

    @pytest.mark.parametrize(
        "text",
        ["", "null", "[]", "{}", b"\xff\xfe", '{"format": 2, "payload": 1}'],
    )
    def test_malformed_text_decodes_to_none(self, text):
        assert decode_record(text) is None


# -- sweeps with a cache -----------------------------------------------------


class TestSweepCaching:
    def test_cold_then_warm(self, tmp_path):
        spec = sweep_from_experiments(CHEAP)
        cache = TrialCache(tmp_path)
        cold = run_sweep(spec, workers=1, cache=cache)
        assert cold.cache_stats.hits == 0
        assert cold.cache_stats.misses == len(spec.trials)
        assert not any(o.cached for o in cold.outcomes)

        warm = run_sweep(spec, workers=1, cache=cache)
        assert warm.cache_stats.hits == len(spec.trials)
        assert warm.cache_stats.misses == 0
        assert all(o.cached for o in warm.outcomes)
        assert warm.render() == cold.render()

    def test_cache_does_not_change_the_aggregate(self, tmp_path):
        spec = sweep_from_experiments(CHEAP)
        reference = run_sweep(spec, workers=1)
        cache = TrialCache(tmp_path)
        run_sweep(spec, workers=1, cache=cache)
        warm = run_sweep(spec, workers=1, cache=cache)
        assert warm.render() == reference.render()
        det_ref = deterministic_view(sweep_artifact_payload(reference))
        det_warm = deterministic_view(sweep_artifact_payload(warm))
        assert det_ref == det_warm

    def test_no_cache_has_no_stats(self):
        spec = sweep_from_experiments(["E2"])
        result = run_sweep(spec, workers=1)
        assert result.cache_stats is None
        assert sweep_artifact_payload(result)["timing"]["cache"] is None

    def test_artifact_records_cache_stats(self, tmp_path):
        spec = sweep_from_experiments(["E2", "E4"])
        cache = TrialCache(tmp_path)
        run_sweep(spec, workers=1, cache=cache)
        warm = run_sweep(spec, workers=1, cache=cache)
        timing = sweep_artifact_payload(warm)["timing"]
        assert timing["cache"]["hits"] == 2
        assert timing["cache"]["misses"] == 0
        assert all(t["cached"] for t in timing["trials"])
        # trial_seconds_total counts compute done by *this* run only.
        assert timing["trial_seconds_total"] == 0.0
        assert timing["cache"]["seconds_saved"] > 0.0

    def test_partial_overlap_hits_shared_trials_only(self, tmp_path):
        cache = TrialCache(tmp_path)
        first = sweep_from_grid(
            families=["path"], sizes=[8, 12], problems=["mis"], master_seed=3
        )
        run_sweep(first, workers=1, cache=cache)
        second = sweep_from_grid(
            families=["path"], sizes=[8, 16], problems=["mis"], master_seed=3
        )
        result = run_sweep(second, workers=1, cache=cache)
        # n=8 derives the same content-addressed seed in both sweeps,
        # so only it hits; n=16 is new.
        assert result.cache_stats.hits == 1
        assert result.cache_stats.misses == 1
        assert [o.cached for o in result.outcomes] == [True, False]

    def test_master_seed_change_invalidates(self, tmp_path):
        cache = TrialCache(tmp_path)
        grid = dict(families=["path"], sizes=[8], problems=["mis"])
        run_sweep(sweep_from_grid(**grid, master_seed=3), workers=1, cache=cache)
        reseeded = run_sweep(
            sweep_from_grid(**grid, master_seed=4), workers=1, cache=cache
        )
        assert reseeded.cache_stats.hits == 0

    def test_salt_change_invalidates(self, tmp_path):
        spec = sweep_from_experiments(["E2"])
        run_sweep(spec, workers=1, cache=TrialCache(tmp_path, salt="v1"))
        result = run_sweep(spec, workers=1, cache=TrialCache(tmp_path, salt="v2"))
        assert result.cache_stats.hits == 0

    def test_corrupt_entry_recomputed_not_crashed(self, tmp_path):
        spec = sweep_from_experiments(CHEAP)
        cache = TrialCache(tmp_path)
        reference = run_sweep(spec, workers=1, cache=cache)
        victim = sorted(tmp_path.rglob("*.json"))[0]
        victim.write_bytes(b"\x80corrupt")
        result = run_sweep(spec, workers=1, cache=cache)
        assert result.cache_stats.hits == len(spec.trials) - 1
        assert result.cache_stats.misses == 1
        assert result.render() == reference.render()

    @pytest.mark.skipif(not HAS_FORK, reason="needs fork start method")
    def test_pool_warm_from_serial_and_vice_versa(self, tmp_path):
        spec = sweep_from_experiments(CHEAP)
        reference = run_sweep(spec, workers=1)

        serial_cache = TrialCache(tmp_path / "a")
        run_sweep(spec, workers=1, cache=serial_cache)
        pooled = run_sweep(spec, workers=2, cache=serial_cache)
        assert pooled.cache_stats.hits == len(spec.trials)
        assert pooled.render() == reference.render()

        pool_cache = TrialCache(tmp_path / "b")
        cold = run_sweep(spec, workers=2, cache=pool_cache)
        assert cold.cache_stats.misses == len(spec.trials)
        warm = run_sweep(spec, workers=1, cache=pool_cache)
        assert warm.cache_stats.hits == len(spec.trials)
        assert warm.render() == reference.render()

    @pytest.mark.skipif(not HAS_FORK, reason="needs fork start method")
    def test_pool_partial_warm_runs_only_misses(self, tmp_path):
        cache = TrialCache(tmp_path)
        run_sweep(sweep_from_experiments(["E2", "E4"]), workers=1, cache=cache)
        spec = sweep_from_experiments(["E2", "E4", "E10"])
        result = run_sweep(spec, workers=2, cache=cache)
        assert result.cache_stats.hits == 2
        assert result.cache_stats.misses == len(spec.trials) - 2
        reference = run_sweep(spec, workers=1)
        assert result.render() == reference.render()


# -- the sharded report ------------------------------------------------------


REPORT_SUBSET = ["E1", "E5"]


class TestReport:
    def test_byte_identity_across_cache_states(self, tmp_path):
        reference = generate(REPORT_SUBSET, verbose=False)
        cache = TrialCache(tmp_path)
        cold = generate(REPORT_SUBSET, verbose=False, cache=cache)
        warm = generate(REPORT_SUBSET, verbose=False, cache=cache)
        assert cold == reference
        assert warm == reference

    @pytest.mark.skipif(not HAS_FORK, reason="needs fork start method")
    def test_byte_identity_across_worker_counts(self, tmp_path):
        reference = generate(REPORT_SUBSET, verbose=False)
        cache = TrialCache(tmp_path)
        sharded_cold = generate(REPORT_SUBSET, verbose=False, workers=2, cache=cache)
        sharded_warm = generate(REPORT_SUBSET, verbose=False, workers=2, cache=cache)
        assert sharded_cold == reference
        assert sharded_warm == reference

    def test_subset_omits_epilogue(self):
        subset = generate(REPORT_SUBSET, verbose=False)
        assert subset.startswith("# EXPERIMENTS")
        assert "Summary — paper vs measured" not in subset

    def test_unknown_id_lists_valid_ids(self):
        with pytest.raises(KeyError, match=r"E99.*E1"):
            generate(["E1", "E99"], verbose=False)

    def test_duplicate_id_rejected(self):
        # A duplicated id would fold twice the payloads into one table.
        with pytest.raises(KeyError, match="duplicate experiment"):
            generate(["E1", "E5", "E1"], verbose=False)

    def test_empty_selection_means_full_suite(self):
        # `--only` with no ids (nargs='*') must not silently produce an
        # empty report — it means "everything", like the serial report.
        from repro.analysis.experiments import TRIAL_PLANS
        from repro.analysis.report import _selected_names

        assert _selected_names(None) == list(TRIAL_PLANS)
        assert _selected_names([]) == list(TRIAL_PLANS)
        assert _selected_names(["E5"]) == ["E5"]

    def test_main_writes_identical_bytes_cold_and_warm(self, tmp_path, capsys):
        out_cold = tmp_path / "cold.md"
        out_warm = tmp_path / "warm.md"
        cache_dir = str(tmp_path / "cache")
        common = ["--only", "E5", "--cache-dir", cache_dir]
        assert report_main(["--output", str(out_cold), *common]) == 0
        cold_err = capsys.readouterr().err
        assert "0 hit(s)" in cold_err
        assert report_main(["--output", str(out_warm), *common]) == 0
        warm_err = capsys.readouterr().err
        assert "3 hit(s), 0 miss(es)" in warm_err
        assert out_cold.read_bytes() == out_warm.read_bytes()

    def test_main_no_cache_reports_no_stats(self, tmp_path, capsys):
        out = tmp_path / "exp.md"
        assert report_main(["--output", str(out), "--only", "E2", "--no-cache"]) == 0
        err = capsys.readouterr().err
        assert "cache:" not in err
        assert "E2 — Lemma 14" in out.read_text()

    def test_main_unknown_id_fails_with_valid_ids(self, tmp_path):
        with pytest.raises(SystemExit, match="unknown experiment"):
            report_main(
                ["--output", str(tmp_path / "x.md"), "--only", "E99", "--no-cache"]
            )
