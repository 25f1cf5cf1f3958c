"""Tests for the analysis layer: bounds, experiments, tables, report."""

import pytest

from repro.analysis import bounds
from repro.analysis.experiments import TRIAL_PLANS, run_experiment
from repro.util.tables import format_table


class TestBounds:
    def test_lemma6(self):
        assert bounds.lemma6_awake_bound() == 3
        assert bounds.lemma6_awake_bound(labeled=False) == 2

    def test_lemma11_monotone_in_palette(self):
        values = [bounds.lemma11_awake_bound(c) for c in (2, 8, 64, 1024)]
        assert values == sorted(values)
        assert bounds.lemma11_awake_bound(8) == 4  # 1 + log2(8)

    def test_baseline_grows_with_delta(self):
        low = bounds.baseline_awake_bound(100, 2)
        high = bounds.baseline_awake_bound(100, 50)
        assert high > low

    def test_theorem13_bound_positive_and_monotone_in_phases(self):
        small = bounds.theorem13_awake_bound(16, 16)
        large = bounds.theorem13_awake_bound(2**16, 2**16)
        assert 0 < small < large

    def test_theorem1_composes(self):
        n, space = 64, 64
        t13 = bounds.theorem13_awake_bound(n, space)
        t1 = bounds.theorem1_awake_bound(n, space)
        assert t1 > t13

    def test_asymptotics(self):
        assert bounds.theorem1_asymptotic(2**16) == 4 * 4
        assert bounds.baseline_asymptotic(delta=2**10, id_space=2**16) == 10 + 4


class TestTables:
    def test_alignment_and_markdown(self):
        table = format_table(["a", "bb"], [[1, "xy"], [22, "z"]])
        lines = table.splitlines()
        assert lines[0].startswith("|")
        assert len(set(len(line) for line in lines)) == 1  # aligned

    def test_title(self):
        table = format_table(["x"], [[1]], title="T")
        assert table.startswith("### T")

    def test_float_formatting(self):
        table = format_table(["x"], [[1.23456]])
        assert "1.235" in table

    def test_row_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            format_table(["a", "b"], [[1]])


class TestExperiments:
    def test_registry_complete(self):
        expected = {"E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8a", "E8b",
                    "E8c", "E9", "E10", "E11", "E12"}
        assert expected <= set(TRIAL_PLANS)

    def test_e1_paper_values(self):
        result = run_experiment("E1", max_log_q=4)
        assert all(row[-1] == "ok" for row in result.rows)
        assert "3, [2, 3, 4, 8]" in result.findings["phi(2), r(2) at q=8 (paper)"]
        assert "7, [4, 6, 7, 8]" in result.findings["phi(4), r(4) at q=8 (paper)"]

    def test_e2_table_covers_all_nodes(self):
        result = run_experiment("E2")
        assert len(result.rows) == 13  # the Figure 2 instance has 13 nodes

    def test_e4_decomposition_sound(self):
        result = run_experiment("E4")
        kinds = {str(row[6]).split(":")[0] for row in result.rows}
        assert kinds == {"singleton", "residual"}

    def test_e5_all_within_bounds(self):
        result = run_experiment("E5")
        assert all(row[-1] == "ok" for row in result.rows)

    def test_e7_awake_grows_logarithmically_in_c(self):
        result = run_experiment("E7")
        assert all(row[-1] == "ok" for row in result.rows)
        # doubling c adds a bounded number of awake rounds (~7 per doubling)
        cs = [row[0] for row in result.rows]
        awake = [row[1] for row in result.rows]
        for (c1, a1), (c2, a2) in zip(zip(cs, awake), zip(cs[1:], awake[1:])):
            doublings = max(1, (c2 // max(c1, 1)).bit_length())
            assert a2 - a1 <= 8 * doublings

    def test_e8b_awake_within_bound(self):
        result = run_experiment("E8b")
        assert all(row[-1] == "ok" for row in result.rows)

    def test_e8c_rounds_grow_with_id_space_awake_does_not(self):
        result = run_experiment("E8c")
        awake = [row[2] for row in result.rows]
        rounds = [row[3] for row in result.rows]
        assert rounds[0] < rounds[1] < rounds[2]
        assert max(awake) <= 3 * min(awake)

    def test_e10_all_defeated(self):
        assert len(run_experiment("E10", num_rules=4).rows) == 4
        result = run_experiment("E10")
        assert len(result.rows) >= 8
        assert all("sinks" in row[2] for row in result.rows)

    def test_e11_average_awake_tracks_max(self):
        result = run_experiment("E11")
        for _, max_awake, avg_awake, *_ in result.rows:
            assert avg_awake <= max_awake
            # data-independent calendars: the average is a large fraction
            # of the max (Open Question 3, adaptive schedules, stays open)
            assert avg_awake >= 0.3 * max_awake

    def test_single_trial_plan_takes_overrides(self):
        result = run_experiment("E3", n=32, seed=1)
        assert "n=32" in result.title

    def test_unknown_experiment_rejected(self):
        with pytest.raises(KeyError):
            run_experiment("E99")

    def test_render_is_markdown(self):
        result = run_experiment("E2")
        text = result.render()
        assert text.startswith("### E2")
        assert "|" in text
