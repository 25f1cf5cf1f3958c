"""Differential tests: the rewritten event loops are *bit-identical* to
the seed implementation.

Four engines exist after the fast-path rewrite:

- :class:`SleepingSimulator` — bucketed wake queue, lockstep carry,
  zero-copy broadcasts, lazy inboxes;
- :class:`ReferenceSleepingSimulator` — the seed loop, kept verbatim;
- ``run_local(engine="native")`` — the dedicated lockstep loop, vs the
  generator route (``engine="simulator"``);
- the ``vectorized`` engine — whole-frontier numpy kernels
  (:func:`greedy_by_id_vectorized`, :func:`solve_with_baseline_vectorized`)
  vs their per-node counterparts.

Every test runs the same programs on both sides of a pair and asserts
equal outputs and equal metrics (awake/round complexity, messages_sent,
per-node awake and termination accounting).
"""

import pytest

from repro.graphs import (
    complete_graph,
    cycle,
    gnp,
    path,
    preferential_attachment,
    random_regular,
    random_tree,
    star,
)
from repro.model import AwakeAt, Broadcast, SleepingSimulator
from repro.model.lockstep import greedy_by_id_local, run_local
from repro.model.reference import ReferenceSleepingSimulator
from repro.olocal import DeltaPlusOneColoring, MaximalIndependentSet

GRAPHS = [
    ("path-17", lambda: path(17)),
    ("star-12", lambda: star(12)),
    ("complete-9", lambda: complete_graph(9)),
    ("gnp-40", lambda: gnp(40, 0.15, seed=5)),
    ("ba-48", lambda: preferential_attachment(48, 3, seed=7)),
]


def assert_equivalent(graph, program, inputs=None, measure=False):
    new = SleepingSimulator(
        graph, program, inputs=inputs, measure_message_sizes=measure
    ).run()
    old = ReferenceSleepingSimulator(
        graph, program, inputs=inputs, measure_message_sizes=measure
    ).run()
    assert new.outputs == old.outputs
    assert new.metrics.awake_rounds == old.metrics.awake_rounds
    assert new.metrics.termination_round == old.metrics.termination_round
    assert new.metrics.summary() == old.metrics.summary()
    assert new.metrics.max_message_weight == old.metrics.max_message_weight
    assert new.metrics.total_message_weight == old.metrics.total_message_weight
    return new


# -- sleeping programs covering every delivery path --------------------------


def staggered_broadcaster(info):
    """Wake at id-dependent staggered rounds; broadcast id; some messages
    land on sleeping targets and must be lost identically."""
    inbox = yield AwakeAt(1 + info.id % 3, Broadcast(info.id))
    heard = sorted(inbox)
    inbox = yield AwakeAt(10, Broadcast(tuple(heard)))
    return (heard, sorted(inbox))


def directed_sender(info):
    """Explicit per-neighbor dicts, including empty dicts."""
    smaller = {u: ("to", u) for u in info.neighbors if u < info.id}
    inbox = yield AwakeAt(2, smaller)
    inbox2 = yield AwakeAt(4, {})
    return (sorted(inbox), sorted(inbox2))


def early_terminator(info):
    """Half the nodes terminate immediately (round 0 accounting)."""
    if info.id % 2 == 0:
        return "early"
        yield  # pragma: no cover
    inbox = yield AwakeAt(3, Broadcast("late"))
    return sorted(inbox)


def lockstep_quiet(info):
    """Every node awake every round, no messages — the carry fast path."""
    for r in range(1, 12):
        yield AwakeAt(r)
    return info.id


def lockstep_breaker(info):
    """Lockstep for a while, then one node skips ahead — forces the carry
    fast path to fall back to the bucketed queue mid-run."""
    for r in range(1, 5):
        inbox = yield AwakeAt(r, Broadcast(r))
    if info.id == 1:
        inbox = yield AwakeAt(100, Broadcast("skip"))
    else:
        inbox = yield AwakeAt(5 + info.id % 2)
    return sorted(inbox)


def lockstep_broadcaster(info):
    """Every node awake and broadcasting every round — the fully batched
    receiver-centric delivery path (no co-awake filter)."""
    heard = ()
    for r in range(1, 8):
        inbox = yield AwakeAt(r, Broadcast((info.id, r)))
        heard = tuple(sorted(inbox))
    return heard


def sparse_broadcaster(info):
    """All nodes awake but only a few broadcast — below the batching
    threshold, so delivery falls back to the sender-centric path."""
    total = 0
    for r in range(1, 6):
        if info.id <= 2:
            inbox = yield AwakeAt(r, Broadcast(info.id * r))
        else:
            inbox = yield AwakeAt(r)
        total += sum(inbox.values())
    return total


def mixed_sender(info):
    """Broadcasts and dict-addressed sends in the *same* round — the
    batched classifier must bail out to the per-edge path."""
    if info.id % 2 == 0:
        inbox = yield AwakeAt(1, Broadcast(("b", info.id)))
    else:
        inbox = yield AwakeAt(1, {u: ("d", info.id) for u in info.neighbors})
    return sorted(inbox.items())


def order_observer(info):
    """Returns the *raw* inbox key order (no sorting): the batched
    receiver-centric path must insert senders in the same ascending
    order as the reference's sorted-awake sender scan."""
    first = yield AwakeAt(1, Broadcast(info.id))
    second = yield AwakeAt(2 + info.id % 2, Broadcast(-info.id))
    return (list(first), list(second))


PROGRAMS = [
    staggered_broadcaster,
    directed_sender,
    early_terminator,
    lockstep_quiet,
    lockstep_breaker,
    lockstep_broadcaster,
    sparse_broadcaster,
    mixed_sender,
    order_observer,
]


@pytest.mark.parametrize("gname,factory", GRAPHS)
@pytest.mark.parametrize("program", PROGRAMS)
def test_sleeping_engines_bit_identical(gname, factory, program):
    assert_equivalent(factory(), program)


@pytest.mark.parametrize("gname,factory", GRAPHS[:3])
@pytest.mark.parametrize(
    "program", [staggered_broadcaster, lockstep_broadcaster, mixed_sender]
)
def test_message_size_accounting_identical(gname, factory, program):
    assert_equivalent(factory(), program, measure=True)


def test_batched_delivery_with_sparse_ids():
    """Polynomial IDs exceed 2n, so the full-lockstep batched path must
    use the dict route rather than the flat payload list."""
    from repro.util.idspace import polynomial_ids

    n = 24
    g = gnp(n, 0.3, seed=4, ids=polynomial_ids(n, 2, seed=4))
    assert g.nodes[-1] > 2 * n
    assert_equivalent(g, lockstep_broadcaster)
    assert_equivalent(g, lockstep_broadcaster, measure=True)


def test_inputs_pass_through_identically():
    g = gnp(20, 0.2, seed=9)
    inputs = {v: v * v for v in g.nodes}

    def program(info):
        inbox = yield AwakeAt(1, Broadcast(info.input))
        return (info.input, sorted(inbox.values()))

    assert_equivalent(g, program, inputs=inputs)


# -- run_local: native engine vs the generator route -------------------------


def flood_callbacks():
    def first_messages(state):
        state.memory["best"] = state.info.id
        return {u: state.info.id for u in state.info.neighbors}

    def on_round(state, r, inbox):
        best = max([state.memory["best"], *inbox.values()])
        state.memory["best"] = best
        if r >= state.info.n:
            state.finish(best)
        return {u: best for u in state.info.neighbors}

    return first_messages, on_round


def quiet_callbacks(rounds):
    def first_messages(state):
        return None

    def on_round(state, r, inbox):
        assert inbox == {}
        if r >= rounds:
            state.finish(r)
        return None

    return first_messages, on_round


def instant_callbacks():
    def first_messages(state):
        state.finish(("instant", state.info.id))
        return None

    def on_round(state, r, inbox):  # pragma: no cover
        raise AssertionError("never awake")

    return first_messages, on_round


@pytest.mark.parametrize("gname,factory", GRAPHS)
@pytest.mark.parametrize(
    "callbacks", [flood_callbacks, lambda: quiet_callbacks(7), instant_callbacks]
)
def test_run_local_engines_bit_identical(gname, factory, callbacks):
    g = factory()
    first, on_round = callbacks()
    native = run_local(g, first, on_round)
    via_sim = run_local(g, first, on_round, engine="simulator")
    assert native.outputs == via_sim.outputs
    assert native.metrics.awake_rounds == via_sim.metrics.awake_rounds
    assert native.metrics.termination_round == via_sim.metrics.termination_round
    assert native.metrics.summary() == via_sim.metrics.summary()


@pytest.mark.parametrize("gname,factory", GRAPHS)
def test_greedy_strawman_unchanged_by_native_engine(gname, factory):
    """greedy_by_id_local rides the native engine; its outputs must equal
    the sequential greedy oracle and its metrics the generator route."""
    g = factory()
    for problem in (DeltaPlusOneColoring(), MaximalIndependentSet()):
        res = greedy_by_id_local(g, problem)
        assert res.metrics.awake_complexity == res.metrics.round_complexity


def test_native_engine_rejects_non_neighbor_targets():
    from repro.errors import SimulationError

    def first_messages(state):
        return {999: "boo"}

    def on_round(state, r, inbox):  # pragma: no cover
        return None

    with pytest.raises(SimulationError, match="non-neighbor"):
        run_local(path(3), first_messages, on_round)


def test_native_engine_runaway_detected():
    with pytest.raises(RuntimeError, match="exceeded"):
        run_local(path(2), lambda s: None, lambda s, r, i: None, max_rounds=15)


def test_unknown_engine_rejected():
    with pytest.raises(ValueError, match="unknown engine"):
        run_local(path(2), lambda s: None, lambda s, r, i: None, engine="turbo")


# -- vectorized engine vs the per-node engines --------------------------------

# Beyond the shared GRAPHS corpus: structures that stress the wave
# kernels differently — long dependency chains (cycle), non-contiguous
# and non-monotone id spaces (permuted / polynomial), and the n ∈ {1, 2}
# degenerate shapes.
VEC_GRAPHS = GRAPHS + [
    ("cycle-15", lambda: cycle(15)),
    ("tree-33", lambda: random_tree(33, seed=11)),
    ("single", lambda: path(1)),
    ("pair", lambda: path(2)),
    ("gnp-40-permuted", lambda: _permuted_gnp()),
    ("gnp-40-poly", lambda: _poly_gnp()),
]


def _permuted_gnp():
    from repro.util.idspace import permuted_ids

    return gnp(40, 0.15, seed=5, ids=permuted_ids(40, seed=3))


def _poly_gnp():
    from repro.util.idspace import polynomial_ids

    return gnp(40, 0.15, seed=5, ids=polynomial_ids(40, 2, seed=3))


def all_problems():
    from repro.olocal import PROBLEMS

    return [(name, PROBLEMS.get(name)) for name in sorted(PROBLEMS)]


def assert_results_identical(vec, ref):
    assert vec.outputs == ref.outputs
    assert vec.metrics.awake_rounds == ref.metrics.awake_rounds
    assert vec.metrics.termination_round == ref.metrics.termination_round
    assert vec.metrics.summary() == ref.metrics.summary()


@pytest.mark.parametrize("gname,factory", VEC_GRAPHS)
@pytest.mark.parametrize("pname,problem", all_problems())
def test_vectorized_greedy_bit_identical(gname, factory, pname, problem):
    from repro.model.vectorized import greedy_by_id_vectorized

    g = factory()
    inputs = problem.make_inputs(g)
    vec = greedy_by_id_vectorized(g, problem, inputs=inputs)
    ref = greedy_by_id_local(g, problem, inputs=inputs)
    assert_results_identical(vec, ref)
    problem.check(g, vec.outputs, inputs)


# Dense: Δ ≈ 77 keeps Linial off, so BM21's 200 color classes (one per
# ID) merge into a few large Kahn waves.
BM21_GRAPHS = VEC_GRAPHS + [("gnp-200-dense", lambda: gnp(200, 0.3, seed=5))]


def _assert_baseline_identical(g, problem):
    from repro.core.bm21 import solve_with_baseline
    from repro.core.bm21_vectorized import solve_with_baseline_vectorized

    vec = solve_with_baseline_vectorized(g, problem)
    ref = solve_with_baseline(g, problem)
    assert vec.palette == ref.palette
    assert_results_identical(vec.simulation, ref.simulation)


@pytest.mark.parametrize("gname,factory", BM21_GRAPHS)
@pytest.mark.parametrize("pname,problem", all_problems())
def test_vectorized_baseline_bit_identical(gname, factory, pname, problem):
    _assert_baseline_identical(factory(), problem)


def test_vectorized_baseline_coloring_wave_split_bit_identical(monkeypatch):
    """A mex-matrix budget of 64 cells splits every merged dense wave."""
    from repro.model import vectorized
    from repro.olocal import PROBLEMS

    monkeypatch.setattr(vectorized, "_MEX_MATRIX_BUDGET", 64)
    _assert_baseline_identical(gnp(200, 0.3, seed=5), PROBLEMS.get("coloring"))


# -- the clustered pipeline: Theorem 13 / Theorem 9 / Theorem 1 ---------------
#
# The headline-pipeline kernels replay a *composition* of protocols
# (Linial reductions, BFS casts, the virtual-graph calendar), so beyond
# outputs the per-node schedules — awake_rounds, termination_round and
# the full summary() including active_rounds and messages_sent — must be
# bit-identical to the per-node simulator.


def test_vectorized_clustering_bit_identical():
    from repro.core.clustering_vectorized import compute_clustering_vectorized
    from repro.core.theorem13 import compute_clustering

    for gname, factory in VEC_GRAPHS:
        g = factory()
        vec = compute_clustering_vectorized(g)
        ref = compute_clustering(g)
        assert vec.clustering.color == ref.clustering.color, gname
        assert vec.clustering.dist == ref.clustering.dist, gname
        assert vec.assignments == ref.assignments, gname
        assert_results_identical(vec.simulation, ref.simulation)


@pytest.mark.parametrize("b", [1, 2, 8])
def test_vectorized_clustering_b_ablations_bit_identical(b):
    """b = 1 forces heavy multi-phase residual merging; b = 8 makes every
    cluster a singleton in phase one — both ends of Lemma 14/15."""
    from repro.core.clustering_vectorized import compute_clustering_vectorized
    from repro.core.theorem13 import compute_clustering

    g = gnp(60, 0.1, seed=2)
    vec = compute_clustering_vectorized(g, b=b)
    ref = compute_clustering(g, b=b)
    assert vec.assignments == ref.assignments
    assert_results_identical(vec.simulation, ref.simulation)


@pytest.mark.parametrize(
    "n,seed,b", [(60, 0, 2), (90, 2, 2), (400, 0, 3)],
    ids=["tree60-b2", "tree90-b2", "tree400-b3"],
)
def test_vectorized_clustering_tree_merges_bit_identical(n, seed, b):
    """Trees whose Lemma 14 merges have residual members with both
    singleton-cluster neighbors and intra-cluster edges, so the merge's
    message count reads every term of its formula."""
    from repro.core.clustering_vectorized import compute_clustering_vectorized
    from repro.core.theorem13 import compute_clustering

    g = random_tree(n, seed=seed)
    vec = compute_clustering_vectorized(g, b=b)
    ref = compute_clustering(g, b=b)
    assert vec.assignments == ref.assignments
    assert_results_identical(vec.simulation, ref.simulation)


@pytest.mark.parametrize("gname,factory", VEC_GRAPHS)
@pytest.mark.parametrize("pname", ["mis", "coloring"])
def test_vectorized_theorem1_bit_identical(gname, factory, pname):
    from repro.core import theorem1
    from repro.core.theorem1_vectorized import solve_vectorized
    from repro.olocal import PROBLEMS

    problem = PROBLEMS.get(pname)
    g = factory()
    vec = solve_vectorized(g, problem)
    ref = theorem1.solve(g, problem)
    assert vec.outputs == ref.outputs
    assert vec.clustering.color == ref.clustering.color
    assert vec.clustering.dist == ref.clustering.dist
    assert_results_identical(vec.simulation, ref.simulation)


@pytest.mark.parametrize("pname,problem", all_problems())
def test_vectorized_theorem1_all_problems_bit_identical(pname, problem):
    from repro.core import theorem1
    from repro.core.theorem1_vectorized import solve_vectorized

    g = gnp(40, 0.15, seed=5)
    vec = solve_vectorized(g, problem)
    ref = theorem1.solve(g, problem)
    assert vec.outputs == ref.outputs
    assert_results_identical(vec.simulation, ref.simulation)


@pytest.mark.parametrize("seed", [5, 11])
def test_vectorized_theorem1_across_seeds(seed):
    from repro.core import theorem1
    from repro.core.theorem1_vectorized import solve_vectorized
    from repro.olocal import PROBLEMS

    g = gnp(44, 0.12, seed=seed)
    problem = PROBLEMS.get("mis")
    vec = solve_vectorized(g, problem)
    ref = theorem1.solve(g, problem)
    assert vec.outputs == ref.outputs
    assert_results_identical(vec.simulation, ref.simulation)


@pytest.mark.parametrize("gname,factory", VEC_GRAPHS)
@pytest.mark.parametrize("pname,problem", all_problems())
def test_vectorized_theorem9_bit_identical(gname, factory, pname, problem):
    """Theorem 9 alone, both engines fed the same precomputed
    clustering — isolates the solver-stage kernel from Theorem 13."""
    from repro.core.theorem9 import solve_with_clustering
    from repro.core.theorem1_vectorized import solve_with_clustering_vectorized
    from repro.core.theorem13 import compute_clustering

    g = factory()
    clustering = compute_clustering(g).clustering
    vec = solve_with_clustering_vectorized(g, problem, clustering)
    ref = solve_with_clustering(g, problem, clustering)
    assert vec.palette == ref.palette
    assert vec.outputs == ref.outputs
    assert_results_identical(vec.simulation, ref.simulation)


def test_vectorized_theorem9_singleton_clusters_bit_identical():
    """All-singleton clustering (every node its own cluster, δ = 0) —
    the degenerate calendar where every node is a root."""
    from repro.core.clustering import ColoredBFSClustering
    from repro.core.theorem9 import solve_with_clustering
    from repro.core.theorem1_vectorized import solve_with_clustering_vectorized
    from repro.olocal import MaximalIndependentSet

    g = gnp(30, 0.2, seed=8)
    clustering = ColoredBFSClustering(
        color={v: i + 1 for i, v in enumerate(g.nodes)},
        dist={v: 0 for v in g.nodes},
    )
    problem = MaximalIndependentSet()
    vec = solve_with_clustering_vectorized(g, problem, clustering)
    ref = solve_with_clustering(g, problem, clustering)
    assert vec.outputs == ref.outputs
    assert_results_identical(vec.simulation, ref.simulation)


# IDs drawn from [1, n⁵] make every Lemma 15 phase open with the
# distance-2 Linial prologue, the one kernel step that still builds the
# relayed (v, mid, w) pairs; the identity and poly2 IDs above skip it.
# With ID seed 1 on the gnp graph and b = 2, a relayed pair decides a
# Linial step: dropping the relayed conflicts changes the clustering.
POLY5_GRAPHS = [
    ("gnp-40-poly5", lambda: gnp(40, 0.15, seed=5, ids=_poly5_ids(40, 1))),
    ("regular-24-poly5", lambda: random_regular(24, 4, seed=4, ids=_poly5_ids(24, 3))),
]


def _poly5_ids(n, seed):
    from repro.util.idspace import polynomial_ids

    return polynomial_ids(n, 5, seed=seed)


@pytest.mark.parametrize("gname,factory", POLY5_GRAPHS)
@pytest.mark.parametrize("b", [2, None])
def test_vectorized_distance2_prologue_bit_identical(gname, factory, b):
    from repro.core import theorem1
    from repro.core.clustering_vectorized import compute_clustering_vectorized
    from repro.core.lemma15 import distance2_conflict_degree
    from repro.core.linial import reduction_schedule
    from repro.core.theorem1_vectorized import (
        solve_vectorized,
        solve_with_clustering_vectorized,
    )
    from repro.core.theorem9 import solve_with_clustering
    from repro.core.theorem13 import compute_clustering

    g = factory()
    assert reduction_schedule(g.id_space, distance2_conflict_degree(g.n))
    problem = MaximalIndependentSet()

    vec = solve_vectorized(g, problem, b=b)
    ref = theorem1.solve(g, problem, b=b)
    assert vec.outputs == ref.outputs
    assert vec.clustering.color == ref.clustering.color
    assert vec.clustering.dist == ref.clustering.dist
    assert_results_identical(vec.simulation, ref.simulation)

    # Theorem 9 as its adapter composes it: a fresh clustering, then
    # the clustered solver on it.
    vclu = compute_clustering_vectorized(g, b=b)
    rclu = compute_clustering(g, b=b)
    assert vclu.assignments == rclu.assignments
    assert_results_identical(vclu.simulation, rclu.simulation)
    vec9 = solve_with_clustering_vectorized(g, problem, vclu.clustering)
    ref9 = solve_with_clustering(g, problem, rclu.clustering)
    assert vec9.palette == ref9.palette
    assert vec9.outputs == ref9.outputs
    assert_results_identical(vec9.simulation, ref9.simulation)
