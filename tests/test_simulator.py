"""Tests for the Sleeping-LOCAL simulator: semantics, accounting, failures."""

import pytest

from repro.errors import SimulationError
from repro.graphs import complete_graph, cycle, gnp, path, star
from repro.model import AwakeAt, Broadcast, SleepingSimulator


class TestBasicExecution:
    def test_immediate_termination(self):
        def program(info):
            return info.id * 10
            yield  # pragma: no cover

        res = SleepingSimulator(path(3), program).run()
        assert res.outputs == {1: 10, 2: 20, 3: 30}
        assert res.awake_complexity == 0

    def test_single_round_exchange(self):
        def program(info):
            inbox = yield AwakeAt(1, Broadcast(info.id))
            return sorted(inbox.values())

        res = SleepingSimulator(cycle(4), program).run()
        assert res.outputs[1] == [2, 4]
        assert res.outputs[3] == [2, 4]
        assert res.awake_complexity == 1
        assert res.round_complexity == 1

    def test_directed_messages(self):
        def program(info):
            smaller = [u for u in info.neighbors if u < info.id]
            inbox = yield AwakeAt(1, {u: f"hi {u}" for u in smaller})
            return dict(inbox)

        res = SleepingSimulator(path(3), program).run()
        assert res.outputs[1] == {2: "hi 1"}
        assert res.outputs[3] == {}


class TestSleepingSemantics:
    def test_message_to_sleeping_node_is_lost(self):
        """Node 1 sends at round 1; node 2 sleeps until round 2 -> loss."""

        def program(info):
            if info.id == 1:
                yield AwakeAt(1, Broadcast("early"))
                return "sent"
            inbox = yield AwakeAt(2)
            return dict(inbox)

        res = SleepingSimulator(path(2), program).run()
        assert res.outputs[2] == {}  # the early message was lost

    def test_co_awake_delivery(self):
        def program(info):
            if info.id == 1:
                inbox = yield AwakeAt(5, Broadcast("ping"))
                return dict(inbox)
            inbox = yield AwakeAt(5, Broadcast("pong"))
            return dict(inbox)

        res = SleepingSimulator(path(2), program).run()
        assert res.outputs[1] == {2: "pong"}
        assert res.outputs[2] == {1: "ping"}

    def test_time_skipping_is_exact(self):
        """A node sleeping 10^9 rounds must terminate instantly at the
        exact round, without iterating the gap."""

        def program(info):
            yield AwakeAt(10**9)
            return "done"

        res = SleepingSimulator(path(2), program).run()
        assert res.round_complexity == 10**9
        assert res.metrics.active_rounds == 1

    def test_time_skipping_many_sleepers(self):
        """256 nodes, each awake three times at interleaved rounds across
        a 10^9-round horizon: the run ends at the latest wakeup and every
        node is awake exactly three times."""
        graph = gnp(256, 0.05, seed=22)

        def program(info):
            yield AwakeAt(info.id * 1000)
            yield AwakeAt(10**6 + info.id)
            yield AwakeAt(10**9 - info.id)
            return None

        res = SleepingSimulator(graph, program).run()
        assert res.round_complexity == 10**9 - min(graph.nodes)
        assert set(res.metrics.awake_rounds.values()) == {3}
        assert res.metrics.active_rounds == 3 * graph.n

    def test_awake_accounting_per_node(self):
        def program(info):
            if info.id == 1:
                yield AwakeAt(1)
                yield AwakeAt(2)
                yield AwakeAt(3)
                return None
            yield AwakeAt(2)
            return None

        res = SleepingSimulator(path(2), program).run()
        assert res.metrics.awake_rounds == {1: 3, 2: 1}
        assert res.awake_complexity == 3
        assert res.metrics.average_awake == 2.0


class TestRuntimeEnforcement:
    def test_rejects_time_travel(self):
        def program(info):
            yield AwakeAt(5)
            yield AwakeAt(5)  # not strictly increasing
            return None

        with pytest.raises(SimulationError, match="time must advance"):
            SleepingSimulator(path(2), program).run()

    def test_rejects_non_neighbor_send(self):
        def program(info):
            yield AwakeAt(1, {99: "boo"})
            return None

        with pytest.raises(SimulationError, match="non-neighbor"):
            SleepingSimulator(path(3), program).run()

    def test_rejects_wrong_action_type(self):
        def program(info):
            yield "not an action"

        with pytest.raises(SimulationError, match="AwakeAt"):
            SleepingSimulator(path(2), program).run()

    def test_runaway_protocol_detected(self):
        def program(info):
            r = 1
            while True:
                yield AwakeAt(r)
                r += 1

        sim = SleepingSimulator(path(2), program, max_awake_each=50)
        with pytest.raises(SimulationError, match="exceeded"):
            sim.run()

    def test_rounds_one_indexed(self):
        with pytest.raises(ValueError):
            AwakeAt(0)


class TestInputsAndInfo:
    def test_inputs_delivered(self):
        def program(info):
            return info.input
            yield  # pragma: no cover

        res = SleepingSimulator(
            path(3), program, inputs={1: "a", 2: "b", 3: "c"}
        ).run()
        assert res.outputs == {1: "a", 2: "b", 3: "c"}

    def test_info_fields(self):
        def program(info):
            return (info.n, info.id_space, info.degree, info.neighbors)
            yield  # pragma: no cover

        g = star(5)
        res = SleepingSimulator(g, program).run()
        hub = max(g.nodes, key=g.degree)
        assert res.outputs[hub] == (5, 5, 4, g.neighbors(hub))

    def test_broadcast_on_complete_graph(self):
        def program(info):
            inbox = yield AwakeAt(1, Broadcast(info.id))
            return len(inbox)

        res = SleepingSimulator(complete_graph(7), program).run()
        assert all(count == 6 for count in res.outputs.values())
        assert res.metrics.messages_sent == 42
