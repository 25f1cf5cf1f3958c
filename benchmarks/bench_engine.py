#!/usr/bin/env python
"""Engine microbenchmarks: the indexed graph core and the fast event loops.

Measures, on the same machine and in the same process:

- **graph_construction** — ``StaticGraph.from_edges`` (trusted build +
  eager CSR index) vs the seed's per-edge revalidation of the same
  adjacency;
- **nodes_neighbors_access** — repeated ``nodes``/``degree``/``neighbors``
  sweeps on the cached index vs the seed's sort-per-access semantics;
- **sim_wake / sim_broadcast** — :class:`SleepingSimulator` (bucketed
  wake queue + lockstep carry + zero-copy broadcast + lazy inboxes) vs
  the seed stack: :class:`ReferenceSleepingSimulator` driving programs
  that allocate cost-faithful frozen-dataclass actions;
- **lockstep_quiet / lockstep_greedy** — ``run_local``'s native lockstep
  engine vs the seed stack (generator route on the reference loop);
- **delivery_bound** — dense lockstep broadcast (G(n, 96/n)): per-edge
  delivery dominates; exercises the batched receiver-centric path.
- **vectorized_greedy / vectorized_baseline** — the whole-frontier
  numpy engine vs the per-node engines it replaces (native lockstep
  greedy; the BM21 simulator run), at n = 4096 and n = 2^17 where the
  vectorized path is the only practical option;
- **vectorized_mega** — a throughput-only n = 10^6 run of both
  vectorized solvers (no per-node counterpart is feasible at that
  size, so no speedup is reported).
- **vectorized_theorem1 / vectorized_theorem9** — the clustered
  headline pipeline on the array engine vs the per-node simulator:
  the full Theorem 1 composition (Theorem 13 clustering + Theorem 9
  solver) and the Theorem 9 stage alone on a shared precomputed
  clustering, bit-identical first, timed second;
- **vectorized_theorem1_mega** — throughput-only Theorem 1 runs at
  n = 2^17 and n = 10^6 (the simulator side would take hours there).

Each simulator pair is also checked for *bit-identical* outputs and
metrics before its timing is reported — a benchmark that changed
semantics refuses to report at all.

Speedup ratios (new vs seed, same process) are hardware-independent and
are what ``--check`` regresses against; absolute numbers are recorded
for context only.

Usage:
    python benchmarks/bench_engine.py                # full run, prints table
    python benchmarks/bench_engine.py --quick        # n=1024 only, 1 rep
    python benchmarks/bench_engine.py --emit PATH    # also write JSON
    python benchmarks/bench_engine.py --check PATH   # fail if any speedup
                                                     # regressed >2x vs PATH
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.errors import GraphError  # noqa: E402
from repro.graphs import gnp, path, preferential_attachment  # noqa: E402
from repro.graphs.graph import StaticGraph  # noqa: E402
from repro.model import AwakeAt, Broadcast, SleepingSimulator  # noqa: E402
from repro.model.lockstep import LocalNodeState, run_local  # noqa: E402
from repro.model.reference import ReferenceSleepingSimulator  # noqa: E402


class SeedAwakeAt(AwakeAt):
    """Cost-faithful replica of the seed's frozen-dataclass action: two
    ``object.__setattr__`` calls plus a ``__post_init__`` hop per
    instance (the seed class itself predates the engine's type check)."""

    __slots__ = ()

    def __init__(self, round, messages=None):
        object.__setattr__(self, "round", round)
        object.__setattr__(self, "messages", messages)
        self.__post_init__()

    def __post_init__(self):
        if self.round < 1:
            raise ValueError(f"rounds are 1-indexed, got {self.round}")


def seed_validate(adjacency, id_space):
    """The seed ``__post_init__``: per-edge symmetry scans (O(E·deg))."""
    for v, nbrs in adjacency.items():
        if v in nbrs:
            raise GraphError(f"self-loop at node {v}")
        for u in nbrs:
            if u not in adjacency:
                raise GraphError(f"edge ({v}, {u}) dangles")
            if v not in adjacency[u]:
                raise GraphError(f"edge ({v}, {u}) is not symmetric")
    if adjacency:
        lo, hi = min(adjacency), max(adjacency)
        if lo < 1 or hi > id_space:
            raise GraphError("node IDs out of range")


# -- workload programs -------------------------------------------------------


def wake_program(rounds, action_cls):
    """Staggered wake/sleep pattern, no messages: pure scheduling cost."""

    def program(info):
        r = 1 + info.id % 3
        for _ in range(rounds):
            yield action_cls(r)
            r += 1 + (info.id + r) % 2
        return None

    return program


def broadcast_program(rounds, action_cls):
    """Lockstep broadcast every round: full delivery cost."""

    def program(info):
        for r in range(1, rounds + 1):
            yield action_cls(r, Broadcast(info.id))
        return None

    return program


def quiet_callbacks(rounds):
    """Lockstep listen-only rounds (the cast/calendar idle pattern)."""

    def first_messages(state):
        return None

    def on_round(state, r, inbox):
        if r >= rounds:
            state.finish(r)
        return None

    return first_messages, on_round


def greedy_callbacks(graph):
    """The shipped always-awake greedy strawman's callbacks (shared with
    ``greedy_by_id_local`` so the baseline measures the real algorithm)."""
    from repro.model.lockstep import greedy_by_id_callbacks
    from repro.olocal import MaximalIndependentSet

    first_messages, on_round, _ = greedy_by_id_callbacks(
        graph, MaximalIndependentSet()
    )
    return first_messages, on_round


def run_local_via_seed_stack(graph, first_messages, on_round):
    """The seed implementation of run_local: a generator program driving
    seed actions on the seed event loop."""

    def program(info):
        state = LocalNodeState(info=info, memory={})
        outgoing = first_messages(state)
        round_number = 0
        while not state.done:
            round_number += 1
            inbox = yield SeedAwakeAt(round_number, outgoing)
            outgoing = on_round(state, round_number, inbox)
        return state.output

    return ReferenceSleepingSimulator(graph, program).run()


# -- measurement -------------------------------------------------------------


def timed(fn, reps):
    best = float("inf")
    result = None
    for _ in range(reps):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return result, best


def check_identical(new, seed, case="<unnamed>"):
    assert new.outputs == seed.outputs, f"{case}: engine outputs diverged"
    assert new.metrics.awake_rounds == seed.metrics.awake_rounds, (
        f"{case}: awake_rounds diverged"
    )
    assert new.metrics.termination_round == seed.metrics.termination_round, (
        f"{case}: termination_round diverged"
    )
    assert new.metrics.summary() == seed.metrics.summary(), (
        case,
        new.metrics.summary(),
        seed.metrics.summary(),
    )


def seed_from_edges(edges, nodes, id_space):
    """The seed ``from_edges``: build, then per-edge revalidation."""
    adj = {v: set() for v in nodes}
    for u, v in edges:
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)
    frozen = {v: tuple(sorted(nbrs)) for v, nbrs in adj.items()}
    seed_validate(frozen, id_space)
    return frozen


def bench_graph(n, reps, results):
    g = gnp(n, 8.0 / n, seed=n)
    edges = list(g.edges())
    nodes = range(1, n + 1)

    new_g, t_new = timed(
        lambda: StaticGraph.from_edges(edges, nodes=nodes, id_space=n), reps
    )
    seed_adj, t_seed = timed(lambda: seed_from_edges(edges, nodes, n), reps)
    assert dict(new_g.adjacency) == seed_adj
    results[f"graph_construction/n={n}"] = {
        "new_s": t_new,
        "seed_s": t_seed,
        "speedup": t_seed / t_new,
        "edges": len(edges),
    }

    # Repeated property access: the seed recomputed nodes (sort), node-set
    # membership, max_degree and num_edges on *every* access; the index
    # serves all four from the one-shot CSR build.
    sweeps = 400
    probe = n // 2

    def indexed_sweep():
        total = 0
        for _ in range(sweeps):
            total += len(g.nodes) + g.max_degree + g.num_edges
            total += probe in g.node_set
            total += len(g.neighbors(probe))
        return total

    adj = g.adjacency

    def naive_sweep():
        total = 0
        for _ in range(sweeps):
            nodes_sorted = tuple(sorted(adj))
            total += len(nodes_sorted)
            total += max(len(nbrs) for nbrs in adj.values())
            total += sum(len(nbrs) for nbrs in adj.values()) // 2
            total += probe in set(nodes_sorted)
            total += len(adj[probe])
        return total

    r1, t_idx = timed(indexed_sweep, reps)
    r2, t_naive = timed(naive_sweep, reps)
    assert r1 == r2
    results[f"nodes_neighbors_access/n={n}"] = {
        "new_s": t_idx,
        "seed_s": t_naive,
        "speedup": t_naive / t_idx,
    }


def bench_sim(name, graph_factory, n, reps, results):
    g = graph_factory(n)
    for bench, rounds, make in (
        ("sim_wake", 60, wake_program),
        ("sim_broadcast", 40, broadcast_program),
    ):
        case = f"{bench}/{name}/n={n}"
        new_prog = make(rounds, AwakeAt)
        seed_prog = make(rounds, SeedAwakeAt)
        new_res, t_new = timed(lambda: SleepingSimulator(g, new_prog).run(), reps)
        seed_res, t_seed = timed(
            lambda: ReferenceSleepingSimulator(g, seed_prog).run(), reps
        )
        check_identical(new_res, seed_res, case)
        node_rounds = new_res.metrics.total_awake
        results[f"{bench}/{name}/n={n}"] = {
            "node_rounds": node_rounds,
            "new_per_sec": node_rounds / t_new,
            "seed_per_sec": node_rounds / t_seed,
            "speedup": t_seed / t_new,
        }

    for bench, callbacks in (
        ("lockstep_quiet", lambda: quiet_callbacks(120)),
        ("lockstep_greedy", lambda: greedy_callbacks(g)),
    ):
        case = f"{bench}/{name}/n={n}"
        first, on_round = callbacks()
        new_res, t_new = timed(lambda: run_local(g, first, on_round), reps)
        seed_res, t_seed = timed(
            lambda: run_local_via_seed_stack(g, first, on_round), reps
        )
        check_identical(new_res, seed_res, case)
        node_rounds = new_res.metrics.total_awake
        results[f"{bench}/{name}/n={n}"] = {
            "node_rounds": node_rounds,
            "new_per_sec": node_rounds / t_new,
            "seed_per_sec": node_rounds / t_seed,
            "speedup": t_seed / t_new,
        }


def bench_delivery(n, reps, results):
    """Delivery-bound workload: a dense G(n, 96/n) with every node awake
    and broadcasting in lockstep, so per-edge delivery dominates both
    engines. Exercises the batched receiver-centric path (PERFORMANCE.md
    §2); before batching this pattern was Amdahl-capped at ~1.6x."""
    g = gnp(n, 96.0 / n, seed=3)
    rounds = max(2, 10_000 // n)
    case = f"delivery_bound/gnp96/n={n}"
    new_prog = broadcast_program(rounds, AwakeAt)
    seed_prog = broadcast_program(rounds, SeedAwakeAt)
    new_res, t_new = timed(lambda: SleepingSimulator(g, new_prog).run(), reps)
    seed_res, t_seed = timed(
        lambda: ReferenceSleepingSimulator(g, seed_prog).run(), reps
    )
    check_identical(new_res, seed_res, case)
    node_rounds = new_res.metrics.total_awake
    results[case] = {
        "node_rounds": node_rounds,
        "edges": g.num_edges,
        "new_per_sec": node_rounds / t_new,
        "seed_per_sec": node_rounds / t_seed,
        "speedup": t_seed / t_new,
    }


def bench_vectorized(n, reps, results):
    """The vectorized engine vs the per-node engines, bit-identical
    first, timed second. n = 2^17 runs a single rep: the *per-node*
    side takes minutes there, which is exactly the point."""
    from repro.core.bm21 import solve_with_baseline
    from repro.core.bm21_vectorized import solve_with_baseline_vectorized
    from repro.model.lockstep import greedy_by_id_local
    from repro.model.vectorized import greedy_by_id_vectorized
    from repro.olocal import DeltaPlusOneColoring, MaximalIndependentSet

    # the binomial sampler walks all n² pairs: fine up to ~10^4 nodes, and
    # it keeps the committed n = 1024 / 4096 graphs
    g = gnp(n, 8.0 / n, seed=1, method="binomial" if n <= 10_000 else "fast")
    # Small n: min-of-3 even in --quick, or the one-time numpy/first-call
    # cost dominates the tiny kernels and quick-mode speedups collapse
    # far below the committed full-run baseline the CI check compares to.
    reps = 1 if n > 10_000 else max(reps, 3)

    problem = MaximalIndependentSet()
    inputs = problem.make_inputs(g)
    vec_res, t_vec = timed(
        lambda: greedy_by_id_vectorized(g, problem, inputs=inputs), reps
    )
    seed_res, t_seed = timed(
        lambda: greedy_by_id_local(g, problem, inputs=inputs), reps
    )
    case = f"vectorized_greedy/gnp/n={n}"
    check_identical(vec_res, seed_res, case)
    node_rounds = vec_res.metrics.total_awake
    results[case] = {
        "node_rounds": node_rounds,
        "new_per_sec": node_rounds / t_vec,
        "seed_per_sec": node_rounds / t_seed,
        "speedup": t_seed / t_vec,
    }

    coloring = DeltaPlusOneColoring()
    vec_base, t_vec = timed(
        lambda: solve_with_baseline_vectorized(g, coloring), reps
    )
    seed_base, t_seed = timed(lambda: solve_with_baseline(g, coloring), reps)
    case = f"vectorized_baseline/gnp/n={n}"
    check_identical(vec_base.simulation, seed_base.simulation, case)
    assert vec_base.palette == seed_base.palette, f"{case}: palette diverged"
    node_rounds = vec_base.simulation.metrics.total_awake
    results[case] = {
        "node_rounds": node_rounds,
        "new_per_sec": node_rounds / t_vec,
        "seed_per_sec": node_rounds / t_seed,
        "speedup": t_seed / t_vec,
    }


def bench_vectorized_mega(results, n=1_000_000):
    """Throughput-only n = 10^6: the acceptance run for 'a million-node
    graph solves in seconds'. No per-node counterpart (it would take
    hours) and hence no speedup key — ``--check`` skips these cases.
    Every solve validates its outputs (array checks on the CSR columns)."""
    from repro.core.bm21_vectorized import solve_with_baseline_vectorized
    from repro.model.vectorized import greedy_by_id_vectorized
    from repro.olocal import DeltaPlusOneColoring, MaximalIndependentSet

    g = gnp(n, 8 / n, seed=1, method="fast")

    problem = MaximalIndependentSet()
    inputs = problem.make_inputs(g)
    res, t = timed(lambda: greedy_by_id_vectorized(g, problem, inputs=inputs), 1)
    problem.check(g, res.outputs, inputs)
    node_rounds = res.metrics.total_awake
    results[f"vectorized_mega_greedy/gnp/n={n}"] = {
        "node_rounds": node_rounds,
        "new_per_sec": node_rounds / t,
        "seconds": t,
    }

    base, t = timed(
        lambda: solve_with_baseline_vectorized(g, DeltaPlusOneColoring()),
        1,
    )
    node_rounds = base.simulation.metrics.total_awake
    results[f"vectorized_mega_baseline/gnp/n={n}"] = {
        "node_rounds": node_rounds,
        "new_per_sec": node_rounds / t,
        "seconds": t,
    }


def bench_vectorized_clustered(n, reps, results):
    """The clustered pipeline (Theorem 13 + Theorem 9) on the array
    engine vs the per-node simulator. Always a single rep: the
    *simulator* side of the theorem1 pair costs ~18 s at n = 1024 and
    ~90 s at n = 4096 — which is exactly the gap being measured."""
    from repro.core import theorem1, theorem9
    from repro.core.clustering_vectorized import (
        compute_clustering_vectorized,
    )
    from repro.core.theorem1_vectorized import (
        solve_vectorized,
        solve_with_clustering_vectorized,
    )
    from repro.olocal import MaximalIndependentSet

    g = gnp(n, 8.0 / n, seed=1)
    problem = MaximalIndependentSet()
    reps = 1

    vec_res, t_vec = timed(lambda: solve_vectorized(g, problem), reps)
    seed_res, t_seed = timed(lambda: theorem1.solve(g, problem), reps)
    case = f"vectorized_theorem1/gnp/n={n}"
    check_identical(vec_res.simulation, seed_res.simulation, case)
    assert vec_res.outputs == seed_res.outputs, f"{case}: outputs diverged"
    node_rounds = vec_res.simulation.metrics.total_awake
    results[case] = {
        "node_rounds": node_rounds,
        "new_per_sec": node_rounds / t_vec,
        "seed_per_sec": node_rounds / t_seed,
        "speedup": t_seed / t_vec,
    }

    # Theorem 9 alone, both engines fed the same precomputed clustering.
    clustering = compute_clustering_vectorized(g, validate=False).clustering
    vec9, t_vec = timed(
        lambda: solve_with_clustering_vectorized(g, problem, clustering),
        reps,
    )
    seed9, t_seed = timed(
        lambda: theorem9.solve_with_clustering(g, problem, clustering), reps
    )
    case = f"vectorized_theorem9/gnp/n={n}"
    check_identical(vec9.simulation, seed9.simulation, case)
    assert vec9.outputs == seed9.outputs, f"{case}: outputs diverged"
    node_rounds = vec9.simulation.metrics.total_awake
    results[case] = {
        "node_rounds": node_rounds,
        "new_per_sec": node_rounds / t_vec,
        "seed_per_sec": node_rounds / t_seed,
        "speedup": t_seed / t_vec,
    }


def bench_vectorized_clustered_mega(results):
    """Throughput-only Theorem 1 pipeline runs at the sizes the
    simulator cannot reach (its n = 4096 run already takes ~90 s, and
    the cost grows superlinearly), validated like every other solve;
    min-of-2 sheds the one-time page-fault/lazy-import noise of the
    first mega call."""
    from repro.core.theorem1_vectorized import solve_vectorized
    from repro.olocal import MaximalIndependentSet

    problem = MaximalIndependentSet()
    for n, avg_degree in ((1 << 17, 8), (1_000_000, 4)):
        g = gnp(n, avg_degree / n, seed=1, method="fast")
        res, t = timed(lambda: solve_vectorized(g, problem), 2)
        node_rounds = res.simulation.metrics.total_awake
        results[f"vectorized_theorem1_mega/gnp/n={n}"] = {
            "node_rounds": node_rounds,
            "new_per_sec": node_rounds / t,
            "seconds": t,
        }


FAMILIES = [
    ("path", lambda n: path(n)),
    ("gnp", lambda n: gnp(n, 8.0 / n, seed=1)),
    ("ba", lambda n: preferential_attachment(n, 4, seed=2)),
]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="n=1024, 1 rep")
    parser.add_argument("--emit", metavar="PATH", help="write JSON results")
    parser.add_argument(
        "--check",
        metavar="PATH",
        help="fail if any shared speedup regressed more than 2x vs PATH",
    )
    parser.add_argument(
        "--history",
        metavar="PATH",
        default=str(Path(__file__).resolve().parent.parent
                    / "BENCH_history.jsonl"),
        help="append a dated speedup row here (render with "
        "`repro stats --bench`); --history '' disables",
    )
    args = parser.parse_args(argv)

    sizes = (1024,) if args.quick else (1024, 4096)
    reps = 1 if args.quick else 3
    results: dict[str, dict] = {}

    for n in sizes:
        bench_graph(n, reps, results)
        for name, factory in FAMILIES:
            bench_sim(name, factory, n, reps, results)
        bench_delivery(n, reps, results)

    # n=1024 in both modes: the committed full-run file must contain the
    # quick-mode keys or the CI `--quick --check` would skip them.
    for n in (1024,) if args.quick else (1024, 4096, 131072):
        bench_vectorized(n, reps, results)
    for n in (1024,) if args.quick else (1024, 4096):
        bench_vectorized_clustered(n, reps, results)
    if not args.quick:
        bench_vectorized_mega(results)
        bench_vectorized_clustered_mega(results)

    width = max(len(k) for k in results)
    print(f"{'benchmark'.ljust(width)}  {'new/s':>12}  {'seed/s':>12}  {'speedup':>8}")
    for key in sorted(results):
        row = results[key]
        new = row.get("new_per_sec")
        seed = row.get("seed_per_sec")
        speedup = row.get("speedup")  # throughput-only cases have none
        tail = f"{speedup:.2f}x" if speedup else f"{row['seconds']:.1f}s"
        print(
            f"{key.ljust(width)}  "
            f"{(f'{new:,.0f}' if new else '-'):>12}  "
            f"{(f'{seed:,.0f}' if seed else '-'):>12}  "
            f"{tail:>8}"
        )

    payload = {
        "config": {"sizes": list(sizes), "reps": reps, "quick": args.quick},
        "results": results,
    }
    if args.emit:
        Path(args.emit).write_text(json.dumps(payload, indent=2) + "\n")
        print(f"\nwrote {args.emit}")

    if args.history:
        # One dated row per run — the committed BENCH_history.jsonl is the
        # machine-readable speedup trajectory (`repro stats --bench`).
        row = {
            "date": time.strftime("%Y-%m-%dT%H:%M:%S"),
            "mode": "quick" if args.quick else "full",
            "cases": len(results),
            "speedups": {
                key: round(r["speedup"], 3)
                for key, r in sorted(results.items())
                if "speedup" in r
            },
        }
        with open(args.history, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(row, sort_keys=True) + "\n")
        print(f"\nappended history row to {args.history}")

    if args.check:
        committed = json.loads(Path(args.check).read_text())["results"]
        failures = []
        for key, row in results.items():
            base = committed.get(key)
            if base is None or "speedup" not in row or "speedup" not in base:
                continue
            ratio = row["speedup"] / base["speedup"]
            if ratio < 0.5:
                failures.append(
                    f"  case:     {key}\n"
                    f"  measured: {row['speedup']:.2f}x speedup over the "
                    f"seed stack\n"
                    f"  baseline: {base['speedup']:.2f}x committed in "
                    f"{args.check}\n"
                    f"  ratio:    {ratio:.2f} of baseline "
                    f"(regression floor: 0.50)"
                )
        if failures:
            print(
                f"\nREGRESSIONS — {len(failures)} case(s) lost more than "
                f"half their committed speedup:\n" + "\n\n".join(failures)
            )
            return 1
        print("\ncheck ok: no speedup regressed more than 2x vs baseline")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
