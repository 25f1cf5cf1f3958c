"""Tests for Lemma 10 — the φ/r color-scheduling mappings (Figure 1)."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.core.mapping import ColorScheduleMapping, render_figure1
from repro.errors import MappingError


class TestFigure1Values:
    """The paper's concrete example: q = 8 (Figure 1)."""

    def setup_method(self):
        self.m = ColorScheduleMapping(8)

    def test_phi_2_is_3(self):
        assert self.m.phi(2) == 3

    def test_r_2(self):
        assert set(self.m.r(2)) == {2, 3, 4, 8}

    def test_phi_4_is_7(self):
        assert self.m.phi(4) == 7

    def test_r_4(self):
        assert set(self.m.r(4)) == {4, 6, 7, 8}

    def test_lca_of_3_and_7_is_4(self):
        assert self.m.meeting_point(2, 4) == 4

    def test_schedule_length(self):
        assert self.m.schedule_length == 4  # 1 + log2(8)

    def test_render_contains_root(self):
        art = render_figure1(8)
        assert "8" in art.splitlines()[0]


class TestProperties:
    @pytest.mark.parametrize("q", [1, 2, 4, 8, 16, 64, 256])
    def test_verify_all_properties(self, q):
        ColorScheduleMapping(q).verify()

    def test_rejects_non_power_of_two(self):
        with pytest.raises(MappingError):
            ColorScheduleMapping(6)

    def test_rejects_color_out_of_range(self):
        m = ColorScheduleMapping(8)
        with pytest.raises(MappingError):
            m.phi(9)
        with pytest.raises(MappingError):
            m.r(0)

    def test_for_palette_rounds_up(self):
        assert ColorScheduleMapping.for_palette(5).q == 8
        assert ColorScheduleMapping.for_palette(8).q == 8
        assert ColorScheduleMapping.for_palette(9).q == 16

    @given(st.integers(0, 10))
    def test_schedule_values_in_range(self, log_q):
        q = 2**log_q
        m = ColorScheduleMapping(q)
        for c in range(1, q + 1):
            assert all(1 <= x <= 2 * q - 1 for x in m.r(c))

    @given(st.integers(1, 7), st.data())
    def test_meeting_point_strictly_between(self, log_q, data):
        q = 2**log_q
        m = ColorScheduleMapping(q)
        c1 = data.draw(st.integers(1, q))
        c2 = data.draw(st.integers(1, q).filter(lambda c: c != c1))
        x = m.meeting_point(c1, c2)
        lo, hi = sorted((m.phi(c1), m.phi(c2)))
        assert lo < x < hi
        assert x in set(m.r(c1)) & set(m.r(c2))

    def test_r_partition(self):
        m = ColorScheduleMapping(16)
        for c in range(1, 17):
            r = set(m.r(c))
            assert r == set(m.r_less(c)) | {m.phi(c)} | set(m.r_greater(c))


class TestRoundsTable:
    """``rounds``: r(c) for many colors as one closed-form int64 table."""

    @pytest.mark.parametrize("log_q", range(13))
    def test_every_color_matches_r(self, log_q):
        q = 2**log_q
        m = ColorScheduleMapping(q)
        table = m.rounds(np.arange(1, q + 1))
        assert table.dtype == np.int64
        assert table.shape == (q, m.schedule_length)
        assert [tuple(row) for row in table.tolist()] == [
            m.r(c) for c in range(1, q + 1)
        ]
        assert (np.diff(table, axis=1) > 0).all()  # rows sorted

    def test_rows_follow_input_order(self):
        m = ColorScheduleMapping(8)
        table = m.rounds([4, 2, 4])
        assert [tuple(row) for row in table.tolist()] == [m.r(4), m.r(2), m.r(4)]
        assert m.rounds([]).shape == (0, 4)

    @pytest.mark.parametrize("log_q", range(13))
    def test_out_of_palette_raises(self, log_q):
        q = 2**log_q
        m = ColorScheduleMapping(q)
        for bad in (0, q + 1):
            with pytest.raises(MappingError, match=f"color {bad} outside"):
                m.rounds([1, bad])


class TestScheduleSemantics:
    def test_color1_receives_nothing(self):
        """Color 1's leaf is the leftmost: r<(1) is empty — it decides
        immediately, like the base case of the induction."""
        m = ColorScheduleMapping(8)
        assert m.r_less(1) == ()

    def test_max_color_sends_nothing(self):
        m = ColorScheduleMapping(8)
        assert m.r_greater(8) == ()

    def test_lower_color_decides_before_higher_meets(self):
        """For c1 < c2 there is a common round after φ(c1) and before φ(c2):
        the handoff the induction in Lemma 11 relies on."""
        m = ColorScheduleMapping(32)
        for c1 in range(1, 33):
            for c2 in range(c1 + 1, 33):
                x = m.meeting_point(c1, c2)
                assert m.phi(c1) < x < m.phi(c2)
                assert x in m.r_greater(c1)
                assert x in m.r_less(c2)
