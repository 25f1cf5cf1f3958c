"""Tests for Linial's color reduction: properness, palette, awake bounds."""

import pytest
from hypothesis import given, settings, strategies as st

import repro.core.linial as linial_module
from repro.api import Scenario, run_scenario
from repro.core.linial import (
    final_palette,
    fixed_point_palette,
    linial_coloring,
    linial_duration,
    num_steps,
    reduction_schedule,
    step_parameters,
)
from repro.graphs import cycle, gnp, graph_square, path, random_regular, star
from repro.model import SleepingSimulator
from repro.util.idspace import polynomial_ids
from repro.util.mathx import iterated_log, next_prime


class TestScheduleMath:
    def test_fixed_point_is_quadratic(self):
        for d in range(1, 60):
            q = next_prime(d + 1)
            assert fixed_point_palette(d) == q * q
            assert fixed_point_palette(d) <= 16 * d * d  # the a=16 bound

    def test_step_parameters_none_at_fixed_point(self):
        assert step_parameters(fixed_point_palette(3), 3) is None

    def test_schedule_shrinks_monotonically(self):
        k, d = 10**12, 5
        sizes = [k] + [q * q for _, q in reduction_schedule(k, d)]
        assert all(a > b for a, b in zip(sizes, sizes[1:]))
        assert sizes[-1] == final_palette(k, d)

    def test_num_steps_is_log_star_ish(self):
        """Steps grow like log*: huge palettes need only a handful."""
        assert num_steps(10**6, 3) <= 4
        assert num_steps(10**12, 3) <= 5
        assert num_steps(10**100, 3) <= 8

    @given(st.integers(1, 30), st.integers(2, 10**9))
    @settings(max_examples=60, deadline=None)
    def test_step_validity(self, degree, palette):
        params = step_parameters(palette, degree)
        if params is None:
            assert palette <= fixed_point_palette(degree) or palette <= (
                next_prime(degree + 1) ** 2
            ) or True  # no progress possible
        else:
            d, q = params
            assert q > degree * d
            assert q ** (d + 1) >= palette
            assert q * q < palette


class TestScheduleMemo:
    """``step_parameters`` is memoized; the memo must be invisible."""

    @staticmethod
    def grid():
        keys = []
        for n in (1, 2, 3, 16, 64, 1000, 2**17, 10**6):
            keys += [(n, 1), (n, 5), (n**2, 8), (n**3, 3)]  # ID spaces
            keys.append((n**4, n**2))  # distance-2 palettes, D = Δ²
        for degree in (1, 2, 3, 7, 31, 64, 4096):
            keys += [(fixed_point_palette(degree), degree),
                     (fixed_point_palette(degree) + 1, degree)]
        keys += [(palette, 1) for palette in range(1, 200)]
        return keys

    def test_memo_equals_plain_function(self):
        plain = step_parameters.__wrapped__
        for palette, degree in self.grid():
            assert step_parameters(palette, degree) == plain(
                palette, degree
            ), (palette, degree)
            # Second call is a cache hit; still the same value.
            assert step_parameters(palette, degree) == plain(palette, degree)

    def test_per_node_run_hits_the_memo(self, monkeypatch):
        """Every node asks for the same few schedules: one miss per
        distinct (palette, D), at least ten hits per miss."""
        keys = []
        memo = linial_module.step_parameters

        def counting(palette, conflict_degree):
            keys.append((palette, conflict_degree))
            return memo(palette, conflict_degree)

        monkeypatch.setattr(linial_module, "step_parameters", counting)
        memo.cache_clear()
        result = run_scenario(Scenario(
            family="gnp", n=64, problem="mis", algorithm="theorem1",
            engine="simulator",
        ))
        assert result.ok
        info = memo.cache_info()
        assert keys, "the run never consulted the schedule"
        assert info.misses == len(set(keys))
        assert info.hits == len(keys) - len(set(keys))
        assert info.hits >= 10 * info.misses


def run_linial(graph, distance=1, conflict_degree=None):
    if conflict_degree is None:
        conflict_degree = (
            graph.max_degree if distance == 1 else graph.max_degree**2
        )

    def program(info):
        color = yield from linial_coloring(
            me=info.id,
            peers=info.neighbors,
            color=info.id - 1,
            palette=info.id_space,
            conflict_degree=conflict_degree,
            t0=1,
            distance=distance,
        )
        return color

    res = SleepingSimulator(graph, program).run()
    return res, conflict_degree


class TestDistance1:
    @pytest.mark.parametrize(
        "factory",
        [
            lambda: path(20),
            lambda: cycle(15),
            lambda: star(12),
            lambda: gnp(40, 0.1, seed=1),
            lambda: random_regular(24, 4, seed=2),
            lambda: gnp(35, 0.15, seed=7, ids=polynomial_ids(35, 2, seed=1)),
        ],
    )
    def test_proper_and_in_palette(self, factory):
        g = factory()
        res, degree = run_linial(g)
        colors = res.outputs
        target = final_palette(g.id_space, degree)
        assert all(0 <= c < target for c in colors.values())
        for u, v in g.edges():
            assert colors[u] != colors[v]

    def test_awake_equals_steps(self):
        g = gnp(30, 0.12, seed=3)
        res, degree = run_linial(g)
        steps = num_steps(g.id_space, degree)
        assert res.awake_complexity == steps
        assert res.round_complexity == linial_duration(g.id_space, degree)

    def test_awake_is_log_star_scale(self):
        """Even with an n²-sized ID space, awake rounds stay ~log* n."""
        n = 60
        g = gnp(n, 0.1, seed=5, ids=polynomial_ids(n, 2, seed=2))
        res, degree = run_linial(g)
        assert res.awake_complexity <= 3 * iterated_log(g.id_space) + 3


class TestDistance2:
    @pytest.mark.parametrize(
        "factory",
        [
            lambda: path(15),
            lambda: cycle(12),
            lambda: gnp(25, 0.1, seed=4),
        ],
    )
    def test_distance2_properness(self, factory):
        g = factory()
        res, degree = run_linial(g, distance=2)
        colors = res.outputs
        g2 = graph_square(g)
        for u, v in g2.edges():
            assert colors[u] != colors[v], f"distance-2 collision {u},{v}"

    def test_distance2_costs_two_rounds_per_step(self):
        g = cycle(12)
        res, degree = run_linial(g, distance=2)
        steps = num_steps(g.id_space, degree)
        assert res.awake_complexity == 2 * steps


class TestErrorPaths:
    def test_improper_input_coloring_detected(self):
        g = path(2)

        def program(info):
            color = yield from linial_coloring(
                info.id, info.neighbors, color=0, palette=100,
                conflict_degree=1, t0=1,
            )
            return color

        from repro.errors import ProtocolError, SimulationError

        with pytest.raises((ProtocolError, SimulationError)):
            SleepingSimulator(g, program).run()

    def test_color_out_of_palette_rejected(self):
        g = path(2)

        def program(info):
            color = yield from linial_coloring(
                info.id, info.neighbors, color=500, palette=100,
                conflict_degree=1, t0=1,
            )
            return color

        from repro.errors import ProtocolError, SimulationError

        with pytest.raises((ProtocolError, SimulationError)):
            SleepingSimulator(g, program).run()
