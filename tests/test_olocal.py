"""Tests for the O-LOCAL framework, the four problems, and §2.2's
non-membership counterexample."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ValidationError
from repro.graphs import complete_graph, gnp, path, star
from repro.graphs.examples import distance2_counterexample_path
from repro.olocal import (
    PROBLEMS,
    DegreePlusOneListColoring,
    DeltaPlusOneColoring,
    MaximalIndependentSet,
    MinimalVertexCover,
    sequential_greedy,
)
from repro.olocal.not_olocal import (
    alternating_orientation_sinks,
    defeating_id_assignment,
    sink_collision,
    validate_distance2_coloring,
)


def random_priority(nodes, seed):
    order = list(nodes)
    random.Random(seed).shuffle(order)
    rank = {v: i for i, v in enumerate(order)}
    return rank.__getitem__


class TestGreedyEngine:
    def test_id_priority_coloring_path(self):
        g = path(4)
        out = sequential_greedy(g, DeltaPlusOneColoring(), lambda v: v)
        assert out == {1: 1, 2: 2, 3: 1, 4: 2}

    def test_rejects_non_injective_priority(self):
        with pytest.raises(ValidationError, match="injective"):
            sequential_greedy(path(3), DeltaPlusOneColoring(), lambda v: 0)

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(3, 40),
        st.integers(0, 10**6),
        st.integers(0, 10**6),
        st.sampled_from(sorted(PROBLEMS)),
    )
    def test_any_orientation_yields_valid_solution(
        self, n, gseed, pseed, problem_name
    ):
        """The defining property of O-LOCAL: the greedy succeeds for EVERY
        acyclic orientation (here: every total priority order)."""
        problem = PROBLEMS[problem_name]
        g = gnp(n, 3.0 / n, seed=gseed)
        inputs = problem.make_inputs(g)
        out = sequential_greedy(
            g, problem, random_priority(g.nodes, pseed), inputs
        )
        problem.check(g, out, inputs)


class TestColoring:
    def test_complete_graph_uses_all_colors(self):
        g = complete_graph(5)
        out = sequential_greedy(g, DeltaPlusOneColoring(), lambda v: v)
        assert sorted(out.values()) == [1, 2, 3, 4, 5]

    def test_validator_catches_monochromatic_edge(self):
        g = path(2)
        problem = DeltaPlusOneColoring()
        assert problem.validate(g, {1: 1, 2: 1})
        with pytest.raises(ValidationError):
            problem.check(g, {1: 1, 2: 1})

    def test_validator_catches_palette_overflow(self):
        g = path(3)
        violations = DeltaPlusOneColoring().validate(g, {1: 5, 2: 2, 3: 1})
        assert any("deg+1" in v for v in violations)

    def test_validator_catches_missing_node(self):
        violations = DeltaPlusOneColoring().validate(path(3), {1: 1, 2: 2})
        assert any("no color" in v for v in violations)


class TestMIS:
    def test_star_hub_first(self):
        g = star(6)
        hub = max(g.nodes, key=g.degree)
        out = sequential_greedy(g, MaximalIndependentSet(), lambda v: (v != hub, v))
        assert out[hub] is True
        assert sum(out.values()) == 1

    def test_star_leaves_first(self):
        g = star(6)
        hub = max(g.nodes, key=g.degree)
        out = sequential_greedy(g, MaximalIndependentSet(), lambda v: (v == hub, v))
        assert out[hub] is False
        assert sum(out.values()) == 5

    def test_validator_catches_non_maximal(self):
        g = path(3)
        violations = MaximalIndependentSet().validate(
            g, {1: False, 2: False, 3: False}
        )
        assert any("maximal" in v for v in violations)

    def test_validator_catches_dependent_set(self):
        g = path(2)
        violations = MaximalIndependentSet().validate(g, {1: True, 2: True})
        assert any("both endpoints" in v for v in violations)


class TestListColoring:
    def test_respects_private_lists(self):
        g = path(3)
        inputs = {1: (7, 8), 2: (8, 7, 9), 3: (7, 8)}
        out = sequential_greedy(
            g, DegreePlusOneListColoring(), lambda v: v, inputs
        )
        assert out[1] == 7 and out[2] == 8 and out[3] == 7

    def test_too_small_list_rejected(self):
        g = star(4)
        hub = max(g.nodes, key=g.degree)
        inputs = {v: (1,) for v in g.nodes}
        with pytest.raises(ValueError, match="palette"):
            sequential_greedy(
                g, DegreePlusOneListColoring(), lambda v: (v != hub, v), inputs
            )

    def test_validator_checks_list_membership(self):
        g = path(2)
        problem = DegreePlusOneListColoring()
        inputs = {1: (1, 2), 2: (3, 4)}
        violations = problem.validate(g, {1: 9, 2: 3}, inputs)
        assert any("not in its list" in v for v in violations)


class TestVertexCover:
    def test_cover_complements_mis(self):
        g = gnp(25, 0.2, seed=3)
        mis = sequential_greedy(g, MaximalIndependentSet(), lambda v: v)
        cover = sequential_greedy(g, MinimalVertexCover(), lambda v: v)
        assert all(cover[v] == (not mis[v]) for v in g.nodes)

    def test_validator_catches_uncovered_edge(self):
        g = path(2)
        violations = MinimalVertexCover().validate(g, {1: False, 2: False})
        assert any("uncovered" in v for v in violations)


class TestDistance2NotOLocal:
    """Executable version of the §2.2 argument."""

    def test_sinks_are_odd_positions(self):
        assert alternating_orientation_sinks(6) == [1, 3, 5]

    @given(st.builds(dict, st.just({})), st.integers(0, 10**6))
    @settings(max_examples=20, deadline=None)
    def test_every_rule_is_defeated(self, _, seed):
        """For any sink rule f: {1..6} -> {1..5} (random sample), some ID
        assignment makes two distance-2 sinks collide."""
        rng = random.Random(seed)
        table = {i: rng.randint(1, 5) for i in range(1, 7)}
        f = table.__getitem__
        assignment = defeating_id_assignment(f, n=6)
        assert assignment is not None
        pair = sink_collision(f, assignment)
        assert pair is not None
        p1, p2 = pair
        assert p2 - p1 == 2  # distance exactly 2 on the path

    def test_every_linear_rule_is_defeated(self):
        for seed in range(100):
            f = lambda i, s=seed: 1 + (i * (s + 3)) % 5
            assert defeating_id_assignment(f, 6) is not None

    def test_collision_breaks_distance2_coloring(self):
        g = distance2_counterexample_path(6)
        f = lambda node_id: 1 + (node_id % 5)
        assignment = defeating_id_assignment(f, 6)
        # color nodes by the rule applied to the ID placed at their position
        colors = {pos + 1: f(assignment[pos]) for pos in range(6)}
        assert validate_distance2_coloring(g, colors)

    def test_pigeonhole_boundary(self):
        """With an injective rule on 5 IDs nothing collides — n >= 6 is
        exactly where the pigeonhole bites."""
        f = lambda i: i  # injective on {1..5}
        assert defeating_id_assignment(f, 5) is None
