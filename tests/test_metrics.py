"""Tests for complexity accounting, including message-size measurement."""

from repro.graphs import path, star
from repro.model import AwakeAt, Broadcast, SleepingSimulator
from repro.model.metrics import SimulationMetrics, payload_weight


class TestPayloadWeight:
    def test_atoms(self):
        assert payload_weight(5) == 1
        assert payload_weight("hello") == 1
        assert payload_weight(None) == 1

    def test_containers(self):
        assert payload_weight((1, 2, 3)) == 3
        assert payload_weight({1: "a", 2: "b"}) == 4
        assert payload_weight([]) == 1  # empty containers still cost one

    def test_nested(self):
        assert payload_weight({"k": (1, 2)}) == 3

    def test_depth_capped(self):
        deep = [1]
        for _ in range(30):
            deep = [deep]
        assert payload_weight(deep) >= 1  # no RecursionError


class TestMeasuredSizes:
    def test_opt_in_measurement(self):
        g = path(3)

        def program(info):
            yield AwakeAt(1, Broadcast(tuple(range(10))))
            return None

        plain = SleepingSimulator(g, program).run()
        assert plain.metrics.max_message_weight == 0

        measured = SleepingSimulator(
            g, program, measure_message_sizes=True
        ).run()
        assert measured.metrics.max_message_weight == 10
        # 2 + 2 edges... path(3): degrees 1,2,1 -> 4 messages of weight 10
        assert measured.metrics.total_message_weight == 40

    def test_summary_includes_weight_when_measured(self):
        metrics = SimulationMetrics()
        assert "max_message_weight" not in metrics.summary()
        metrics.charge_message_weight(7)
        assert metrics.summary()["max_message_weight"] == 7

    def test_theorem9_ships_cluster_sized_messages(self):
        """The paper's protocols send whole cluster states: measured
        message weights grow with cluster size, quantifying the 'messages
        of arbitrary size' allowance of the LOCAL model."""
        from repro.core.clustering import ColoredBFSClustering
        from repro.core.theorem9 import theorem9_protocol
        from repro.olocal import MaximalIndependentSet

        g = star(12)
        hub = max(g.nodes, key=g.degree)
        # one big cluster (the whole star), colored 1

        dist = g.bfs_distances(hub)
        clustering = ColoredBFSClustering(
            {v: 1 for v in g.nodes}, dist
        )

        def program(info):
            out = yield from theorem9_protocol(
                me=info.id, peers=info.neighbors, color=1, delta=dist[info.id],
                palette=1, problem=MaximalIndependentSet(), t0=1, n=info.n,
            )
            return out

        res = SleepingSimulator(g, program, measure_message_sizes=True).run()
        # the gather of the whole-cluster state must exceed the n atoms
        assert res.metrics.max_message_weight >= g.n


class TestColumnReductions:
    """The vectorized engine's metrics are ColumnMap views, reduced on
    their int64 columns; the per-node engines' are dicts, reduced in
    Python. Both give the same values with the same Python types."""

    @staticmethod
    def _both(awake, termination):
        import numpy as np

        from repro.graphs.arrays import ColumnMap

        ids = np.arange(1, len(awake) + 1, dtype=np.int64)
        columns = SimulationMetrics(
            awake_rounds=ColumnMap(ids, (np.array(awake, dtype=np.int64),)),
            termination_round=ColumnMap(
                ids, (np.array(termination, dtype=np.int64),)
            ),
        )
        dicts = SimulationMetrics(
            awake_rounds=dict(zip(ids.tolist(), awake)),
            termination_round=dict(zip(ids.tolist(), termination)),
        )
        return columns, dicts

    def test_same_values_and_types(self):
        cases = [
            ([], []),
            ([7], [1 << 62]),
            ([3, 0, 5, 5, 1], [9, 2, 40, 40, 3]),
            ([2, 2, 2], [5, 5, 5]),
        ]
        for awake, termination in cases:
            columns, dicts = self._both(awake, termination)
            for name in (
                "awake_complexity", "average_awake", "total_awake",
                "round_complexity",
            ):
                got, want = getattr(columns, name), getattr(dicts, name)
                assert got == want and type(got) is type(want), (name, awake)
            assert not columns.awake_rounds.built
            assert not columns.termination_round.built

    def test_sum_past_int64_stays_exact(self):
        big = (1 << 62) + 1
        columns, dicts = self._both([big, big, big], [0, 0, 0])
        assert columns.total_awake == dicts.total_awake == 3 * big
        assert columns.average_awake == dicts.average_awake

    def test_num_colors(self):
        import numpy as np

        from repro.core.clustering import ColoredBFSClustering
        from repro.graphs.arrays import ColumnMap

        for colors in ([], [4], [3, 1, 3, 2, 900, 1], [-5, 7, -5], [0, 0]):
            ids = np.arange(1, len(colors) + 1, dtype=np.int64)
            zeros = [0] * len(colors)
            column = ColoredBFSClustering(
                color=ColumnMap(ids, (np.array(colors, dtype=np.int64),)),
                dist=ColumnMap(ids, (np.array(zeros, dtype=np.int64),)),
            )
            plain = ColoredBFSClustering(
                color=dict(zip(ids.tolist(), colors)),
                dist=dict(zip(ids.tolist(), zeros)),
            )
            got, want = column.num_colors(), plain.num_colors()
            assert got == want and type(got) is int, colors
            assert not column.color.built
