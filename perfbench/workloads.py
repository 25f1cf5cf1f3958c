"""One benchmark workload, run in a fresh interpreter (the child of run.py).

``--mode setup`` performs the workload's set-up, reports how long it
took since the parent spawned it, tears down and exits: run.py starts a
few of these so ``setup_s`` is a median. ``--mode measure`` sets up the
same way, verifies the program's outputs, then runs timed operations for
``--seconds`` seconds and reports the end-to-end metrics (``--trace 0``)
or the per-layer metrics (``--trace 1``). The last stdout line is JSON.

Every input derives from ``--seed``; at the default seed each output
digest must also match ``pins.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import http.client
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path
from typing import Any

from layers import PROBLEM_SHORT, Tracer

HERE = Path(__file__).resolve().parent
DEFAULT_SEED = 0


class CheckError(Exception):
    """An output of the program differs from what it must be."""


def as_json(value: Any) -> Any:
    """``value`` as it reads back from JSON (tuples become lists)."""
    return json.loads(json.dumps(value))


def digest(value: Any) -> str:
    """Short content digest of a value's ``repr``."""
    return hashlib.sha256(repr(value).encode("utf-8")).hexdigest()[:16]


def p90(values: list[float]) -> float:
    """The 90th percentile, interpolated between the nearest samples."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def outcome_facts(pairs: list[tuple[Any, Any]]) -> dict[str, Any]:
    """Digest and exact accounting of ``(graph, SolveOutcome)`` pairs."""
    return {
        "digest": digest(
            [
                (
                    sorted(o.outputs.items()),
                    o.awake_complexity,
                    o.average_awake,
                    o.round_complexity,
                    o.messages_sent,
                )
                for _g, o in pairs
            ]
        ),
        "awake_sum": sum(o.awake_complexity for _g, o in pairs),
        "rounds_sum": sum(o.round_complexity for _g, o in pairs),
        "messages_sum": sum(o.messages_sent for _g, o in pairs),
        "edges": sum(g.num_edges for g, _o in pairs),
        "max_degree": max(g.max_degree for g, _o in pairs),
        "colors": sum(o.extras.get("clustering_colors", 0) for _g, o in pairs),
    }


def row_facts(rows: list[Any]) -> dict[str, Any]:
    """Accounting sums of GRID-format rows
    ``(family, n, problem, algorithm, seed, Δ, awake, avg, rounds, msgs)``."""
    return {
        "awake_sum": sum(row[6] for row in rows),
        "rounds_sum": sum(row[8] for row in rows),
        "messages_sum": sum(row[9] for row in rows),
        "max_degree": max(row[5] for row in rows),
    }


#: Exact-count metric -> its key in an operation's facts.
ACCOUNTING = {
    "graphs.edges": "edges",
    "graphs.max_degree": "max_degree",
    "theorem13.colors": "colors",
    "outcome.awake_sum": "awake_sum",
    "outcome.messages_sum": "messages_sum",
    "outcome.rounds_sum": "rounds_sum",
}

#: Per-layer seconds metric -> the span it sums.
LAYER_SPANS = {
    "graphs.build_s": "graphs.build",
    "graphs.arrays_s": "graphs.arrays",
    "api.validate_s": "api.validate",
    "theorem13.cluster_s": "theorem13.cluster",
    "theorem13.validate_s": "theorem13.validate",
    "theorem9.solve_s": "theorem9.solve",
    "bm21.solve_s": "bm21.solve",
    "greedy.solve_s": "greedy.solve",
    **{
        f"olocal.check_s.{problem}": f"olocal.check.{problem}"
        for problem in PROBLEM_SHORT.values()
    },
}


def accounting_metrics(facts: dict[str, Any]) -> dict[str, float]:
    """The exact-count per-layer metrics one operation's facts carry."""
    return {
        metric: facts[key] for metric, key in ACCOUNTING.items() if key in facts
    }


def generic_layer_metrics(tracer: Tracer, ops: int) -> dict[str, float]:
    """Per-operation layer seconds shared by the in-process workloads.

    Only layers that recorded a span appear: a layer missing here is
    either one the workload never calls (``Workload.NOT_MEASURED``) or
    one that has stopped being measured, which ``main`` rejects.
    """
    metrics = {
        metric: tracer.total_s[span] / ops
        for metric, span in LAYER_SPANS.items()
        if span in tracer.total_s
    }
    for metric, span in (
        ("graphs.build_rss_mb", "graphs.build"),
        ("theorem13.cluster_rss_mb", "theorem13.cluster"),
    ):
        if span in tracer.rss_mb:
            metrics[metric] = tracer.rss_mb[span]
    adapters = [n for n in tracer.total_s if n.startswith("algorithms.solve.")]
    if adapters:
        metrics["algorithms.unattributed_s"] = (
            sum(tracer.self_s(name) for name in adapters) / ops
        )
    return metrics


def adapter_metrics(tracer: Tracer, ops: int) -> dict[str, float]:
    """``algorithms.solve_s.<alg>.<problem>`` per operation, for every
    adapter call recorded."""
    prefix = "algorithms.solve."
    return {
        "algorithms.solve_s." + name[len(prefix):]: seconds / ops
        for name, seconds in tracer.total_s.items()
        if name.startswith(prefix)
    }


#: dense_mix's operations, ``(algorithm, problem)``.
MIX_OPS = (
    ("theorem1", "mis"),
    ("theorem1", "coloring"),
    ("theorem1", "vertex-cover"),
    ("theorem9", "mis"),
    ("baseline", "coloring"),
    ("greedy", "mis"),
)

# Per-layer metric groups that whole workloads do not measure.
MIX_ADAPTERS = frozenset(f"algorithms.solve_s.{a}.{p}" for a, p in MIX_OPS)
GRID_LAYERS = frozenset({
    "grid.build_s",
    *(f"grid.solve_s.{a}" for a in ("theorem1", "theorem9", "baseline", "greedy")),
    "runner.trial_p50_ms", "runner.trial_p90_ms", "runner.parallel_efficiency",
})
SERVE_LAYERS = frozenset({"serve.spec_ms", "serve.http_ms", "runner.cache_load_ms"})
IN_PROCESS_LAYERS = frozenset({
    *LAYER_SPANS, *MIX_ADAPTERS, "graphs.build_rss_mb",
    "theorem13.cluster_rss_mb", "algorithms.unattributed_s",
})


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


class Workload:
    """Set-up, one timed operation, and the check of its result."""

    name = ""
    #: Per-layer metrics of layers this workload never calls, or cannot
    #: see from its process; they read 0. Any other declared per-layer
    #: metric that a traced run does not measure fails the run.
    NOT_MEASURED: frozenset[str] = frozenset()

    def __init__(self, seed: int, tmp: Path, tracer: Tracer | None) -> None:
        self.seed = seed
        self.tmp = tmp
        self.tracer = tracer
        self.setup_layers: dict[str, float] = {}
        self.setup_rss_mb: dict[str, float] = {}

    def params(self) -> dict[str, Any]:
        raise NotImplementedError

    def setup(self) -> None:
        raise NotImplementedError

    def verify(self) -> dict[str, Any]:
        """Checks made once after set-up; returns facts for the record."""
        return {}

    def op(self, i: int) -> Any:
        raise NotImplementedError

    def check(self, i: int, result: Any) -> dict[str, Any]:
        """Raise :class:`CheckError` on a wrong result; return its facts."""
        raise NotImplementedError

    def pin_key(self, i: int) -> str:
        return self.name

    def teardown(self) -> None:
        pass

    def peak_rss_mb(self) -> float:
        """Peak RSS of this process plus its largest reaped child (a pool
        worker), in MB; read after teardown."""
        own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        return (own + children) / 1024.0

    def layer(self, name: str) -> Any:
        """A set-up span when tracing, else a no-op."""
        return self.tracer.span(name) if self.tracer is not None else nullcontext()


class ScaleE2E(Workload):
    """``run_scenario`` of the headline pipeline at scale."""

    name = "scale_e2e"
    N = 2**17
    DEGREE = 8
    NOT_MEASURED = (
        GRID_LAYERS | SERVE_LAYERS
        | (MIX_ADAPTERS - {"algorithms.solve_s.theorem1.mis"})
        | {"bm21.solve_s", "greedy.solve_s", "olocal.check_s.coloring",
           "olocal.check_s.vertex-cover"}
    )

    def params(self) -> dict[str, Any]:
        return {
            "family": "gnp", "n": self.N, "degree": self.DEGREE,
            "method": "fast", "problem": "mis", "algorithm": "theorem1",
            "engine": "vectorized",
        }

    def scenario(self, n: int) -> Any:
        return self.Scenario(
            family="gnp", n=n, seed=self.seed, problem="mis",
            algorithm="theorem1", engine="vectorized",
            params={"p": self.DEGREE / n, "method": "fast"},
        )

    def setup(self) -> None:
        from repro.api import Scenario, run_scenario
        from repro.olocal import PROBLEMS

        self.Scenario, self.run_scenario = Scenario, run_scenario
        self.mis = PROBLEMS.get("mis")
        # Lazy imports and numpy first calls, on a small instance.
        if not run_scenario(self.scenario(2**10)).ok:
            raise CheckError("warm-up scenario failed validation")

    def op(self, i: int) -> Any:
        return self.run_scenario(self.scenario(self.N))

    def check(self, i: int, result: Any) -> dict[str, Any]:
        if not result.ok:
            raise CheckError(f"scenario rejected: {result.errors}")
        self.mis.check(result.graph, result.outcome.outputs)
        return outcome_facts([(result.graph, result.outcome)])

    def layer_metrics(self, tracer: Tracer, ops: int) -> dict[str, float]:
        return dict(generic_layer_metrics(tracer, ops),
                    **adapter_metrics(tracer, ops))


class DenseMix(Workload):
    """Every vectorized solver on one large-Δ graph built in set-up."""

    name = "dense_mix"
    N = 2**13
    DEGREE = 32
    OPS = MIX_OPS
    NOT_MEASURED = GRID_LAYERS | SERVE_LAYERS | {"api.validate_s"}

    def params(self) -> dict[str, Any]:
        return {
            "family": "gnp", "n": self.N, "degree": self.DEGREE,
            "method": "fast", "engine": "vectorized",
            "ops": [f"{a}/{p}" for a, p in self.OPS],
        }

    def setup(self) -> None:
        from repro.core.algorithms import ALGORITHMS
        from repro.graphs.families import build_family_graph
        from repro.olocal import PROBLEMS

        self.ALGORITHMS, self.PROBLEMS = ALGORITHMS, PROBLEMS
        small = build_family_graph(
            "gnp", 2**8, seed=self.seed, p=self.DEGREE / 2**8, method="fast"
        )
        self.run_pass(small)  # lazy imports and numpy first calls
        with self.layer("graphs.build"):
            self.graph = build_family_graph(
                "gnp", self.N, seed=self.seed, p=self.DEGREE / self.N,
                method="fast",
            )
        with self.layer("graphs.arrays"):
            self.graph.arrays

    def run_pass(self, graph: Any) -> list[Any]:
        return [
            self.ALGORITHMS.get(a).solve(
                graph, self.PROBLEMS.get(p), engine="vectorized"
            )
            for a, p in self.OPS
        ]

    def op(self, i: int) -> Any:
        return self.run_pass(self.graph)

    def check(self, i: int, result: Any) -> dict[str, Any]:
        for (_a, p), outcome in zip(self.OPS, result):
            self.PROBLEMS.get(p).check(self.graph, outcome.outputs)
        facts = outcome_facts([(self.graph, o) for o in result])
        facts["edges"] = self.graph.num_edges
        facts["max_degree"] = self.graph.max_degree
        facts["colors"] = result[0].extras["clustering_colors"]
        return facts

    def layer_metrics(self, tracer: Tracer, ops: int) -> dict[str, float]:
        metrics = generic_layer_metrics(tracer, ops)
        # The graph is built in set-up, so its layers come from there.
        metrics["graphs.build_s"] = self.setup_layers["graphs.build"]
        metrics["graphs.arrays_s"] = self.setup_layers["graphs.arrays"]
        metrics["graphs.build_rss_mb"] = self.setup_rss_mb["graphs.build"]
        metrics.update(adapter_metrics(tracer, ops))
        return metrics


class GridSweep(Workload):
    """A cold-cache, two-worker ``run_grid`` on the per-node simulator."""

    name = "grid_sweep"
    FAMILIES = ("gnp", "tree", "powerlaw")
    SIZES = (32, 64)
    PROBLEMS = ("mis", "coloring")
    ALGORITHMS = ("theorem1", "baseline", "theorem9", "greedy")
    TRIALS = 1
    WORKERS = 2
    # Default engines are per-node: no arrays, no vectorized validation.
    NOT_MEASURED = SERVE_LAYERS | MIX_ADAPTERS | {
        "graphs.arrays_s", "theorem13.validate_s", "olocal.check_s.vertex-cover"
    }
    #: Operation i sweeps master seed ``seed * CYCLE + i % CYCLE``, so a
    #: run's median spans several grids rather than one grid's luck.
    CYCLE = 8

    def params(self) -> dict[str, Any]:
        return {
            "families": self.FAMILIES, "sizes": self.SIZES,
            "problems": self.PROBLEMS, "algorithms": self.ALGORITHMS,
            "trials": self.TRIALS, "workers": self.WORKERS,
            "master_seeds": [self.master_seed(i) for i in range(self.CYCLE)],
        }

    def master_seed(self, i: int) -> int:
        return self.seed * self.CYCLE + i % self.CYCLE

    def grid(self, **overrides: Any) -> dict[str, Any]:
        kwargs = dict(
            families=self.FAMILIES, sizes=self.SIZES, problems=self.PROBLEMS,
            algorithms=self.ALGORITHMS, trials=self.TRIALS,
        )
        kwargs.update(overrides)
        return kwargs

    def setup(self) -> None:
        from repro.api import run_grid
        from repro.runner.cache import TrialCache, code_version_salt

        self.run_grid, self.TrialCache = run_grid, TrialCache
        code_version_salt()
        # Import every per-node solver before the pool forks.
        run_grid(**self.grid(sizes=(8,), trials=1), seed=self.seed, workers=1)
        self.expected_cells = [
            (f, n, p, a)
            for f in self.FAMILIES
            for n in self.SIZES
            for p in self.PROBLEMS
            for a in self.ALGORITHMS
            for _t in range(self.TRIALS)
        ]

    def op(self, i: int) -> Any:
        cache_dir = self.tmp / f"grid-cache-{i}"
        result = self.run_grid(
            **self.grid(), seed=self.master_seed(i), workers=self.WORKERS,
            cache=self.TrialCache(cache_dir),
        )
        return result, result.render()

    def check(self, i: int, result: Any) -> dict[str, Any]:
        shutil.rmtree(self.tmp / f"grid-cache-{i}", ignore_errors=True)
        sweep, text = result
        stats = sweep.cache_stats
        if sweep.failures or stats.hits or stats.misses != len(self.expected_cells):
            raise CheckError(
                f"sweep not clean and cold: {len(sweep.failures)} failures, "
                f"{stats.summary()}"
            )
        rows = sweep.experiments()["GRID"].rows
        if [tuple(row[:4]) for row in rows] != self.expected_cells:
            raise CheckError("GRID rows do not enumerate the grid in order")
        facts = row_facts(rows)
        facts.update(
            digest=digest(text),
            rows=[tuple(row) for row in rows],
            trial_seconds=[o.seconds for o in sweep.outcomes],
            wall_seconds=sweep.wall_seconds,
        )
        return facts

    def pin_key(self, i: int) -> str:
        return f"{self.name}#{i % self.CYCLE}"

    def serial_pass(self, tracer: Tracer | None = None) -> tuple[float, list]:
        """One in-process pass over the grid of operation 0.

        Runs each scenario of :func:`repro.api.scenarios_from_grid`
        through ``run_scenario`` on its default engine; returns the wall
        time and the results.
        """
        from repro.api import run_scenario, scenarios_from_grid

        scenarios = scenarios_from_grid(**self.grid(), seed=self.master_seed(0))
        results = []
        if tracer is not None:
            tracer.armed = True
        start = time.perf_counter()
        try:
            for scenario in scenarios:
                results.append(run_scenario(scenario))
        finally:
            wall = time.perf_counter() - start
            if tracer is not None:
                tracer.armed = False
        return wall, results

    def pass_metrics(
        self, tracer: Tracer, first: dict[str, Any], results: list,
        traced_s: float, untraced_s: float,
    ) -> dict[str, float]:
        """Layer metrics of a traced serial pass, cross-checked against
        the accounting in the first sweep's GRID rows."""
        for result, row in zip(results, first["rows"]):
            o = result.outcome
            if not result.ok or (
                o.awake_complexity, o.round_complexity, o.messages_sent
            ) != (row[6], row[8], row[9]):
                raise CheckError(f"serial pass disagrees with the sweep: {row}")
        metrics = generic_layer_metrics(tracer, 1)
        solve: dict[str, float] = {}
        for name, seconds in tracer.total_s.items():
            if name.startswith("algorithms.solve."):
                algorithm = name.split(".")[2]
                solve[algorithm] = solve.get(algorithm, 0.0) + seconds
        for algorithm in self.ALGORITHMS:
            metrics[f"grid.solve_s.{algorithm}"] = solve[algorithm]
        trials = first["trial_seconds"]
        metrics.update({
            "grid.build_s": metrics["graphs.build_s"],
            "graphs.edges": sum(r.graph.num_edges for r in results),
            "theorem13.colors": sum(
                r.outcome.extras.get("clustering_colors", 0) for r in results
            ),
            "runner.trial_p50_ms": statistics.median(trials) * 1e3,
            "runner.trial_p90_ms": p90(trials) * 1e3,
            "runner.parallel_efficiency": sum(trials)
            / (first["wall_seconds"] * self.WORKERS),
            "trace.unattributed_s": traced_s - tracer.root_s,
            "trace.overhead_s": traced_s - untraced_s,
        })
        return metrics


class ServeWarm(Workload):
    """Closed-loop warm ``GET /solve`` against ``repro serve``."""

    name = "serve_warm"
    # The solves ran in the server process during set-up.
    NOT_MEASURED = IN_PROCESS_LAYERS | GRID_LAYERS | {"theorem13.colors"}
    CELLS = [
        (f, n, p, a)
        for f in ("gnp", "tree")
        for n in (32, 64)
        for p in ("mis", "coloring")
        for a in ("theorem1", "baseline", "greedy")
    ]

    def params(self) -> dict[str, Any]:
        return {"cells": len(self.CELLS), "connections": 1, "loop": "closed"}

    def url(self, cell: tuple[str, int, str, str]) -> str:
        family, n, problem, algorithm = cell
        return (
            f"/solve?family={family}&n={n}&problem={problem}"
            f"&algorithm={algorithm}&seed={self.seed}"
        )

    def request(self, method: str, path: str) -> bytes:
        # One connection per request, as curl or urllib would make: on a
        # kept-alive connection the server's separate header and body
        # writes meet the client's delayed ACK and every reply waits
        # ~40 ms.
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=60)
        try:
            conn.request(method, path, headers={"Connection": "close"})
            response = conn.getresponse()
            body = response.read()
        finally:
            conn.close()
        if response.status != 200:
            raise CheckError(f"{method} {path}: HTTP {response.status}: {body[:200]!r}")
        return body

    def setup(self) -> None:
        # Each set-up starts cold, in a directory of its own.
        self.home = self.tmp / f"serve-{os.getpid()}"
        self.home.mkdir()
        port_file = self.home / "port"
        self.log = open(self.home / "serve.log", "wb")
        self.server = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve", "--port", "0",
                "--port-file", str(port_file),
                "--cache-dir", str(self.home / "cache"),
                "--store", str(self.home / "RESULTS.db"),
                "--artifact-dir", str(self.home),
            ],
            stdout=subprocess.DEVNULL, stderr=self.log,
        )
        deadline = time.monotonic() + 60
        while not port_file.exists() or not port_file.read_text().strip():
            if self.server.poll() is not None or time.monotonic() > deadline:
                raise CheckError("repro serve did not start; see serve.log")
            time.sleep(0.01)
        self.port = int(port_file.read_text())
        for cell in self.CELLS:
            self.request("GET", self.url(cell))

    def verify(self) -> dict[str, Any]:
        from repro.serve.service import solve_spec
        from repro.runner.trials import execute_trial

        self.expected = []
        for cell in self.CELLS:
            served = json.loads(self.request("GET", self.url(cell)))
            spec = solve_spec(*cell, seed=self.seed)
            rows = as_json(execute_trial(spec)["rows"])
            if not served["cached"] or served["rows"] != rows:
                raise CheckError(f"/solve {cell} differs from execute_trial")
            self.expected.append(rows)
        facts = row_facts([row for rows in self.expected for row in rows])
        facts["digest"] = digest(self.expected)
        return facts

    def op(self, i: int) -> Any:
        return self.request("GET", self.url(self.CELLS[i % len(self.CELLS)]))

    def check(self, i: int, result: Any) -> dict[str, Any]:
        reply = json.loads(result)
        if reply["cached"] is not True:
            raise CheckError("warm /solve answered from compute, not cache")
        cell = i % len(self.CELLS)
        if reply["rows"] != self.expected[cell]:
            raise CheckError(f"/solve rows changed for {self.CELLS[cell]}")
        return {}

    def in_process_layers(self, seconds: float) -> dict[str, float]:
        """Median ms of ``solve_spec`` and ``TrialCache.load`` per cell,
        timed in this process against the server's own cache directory."""
        from repro.graphs.families import build_family_graph
        from repro.runner.cache import TrialCache
        from repro.serve.service import solve_spec

        cache = TrialCache(self.home / "cache")
        spec_ms, load_ms = [], []
        deadline = time.perf_counter() + seconds
        i = 0
        while i < len(self.CELLS) or time.perf_counter() < deadline:
            cell = i % len(self.CELLS)
            t0 = time.perf_counter()
            spec = solve_spec(*self.CELLS[cell], seed=self.seed)
            t1 = time.perf_counter()
            found = cache.load(spec)
            t2 = time.perf_counter()
            if found is None or as_json(found.payload["rows"]) != self.expected[cell]:
                raise CheckError(f"cache record of {spec.label} missing or changed")
            spec_ms.append((t1 - t0) * 1e3)
            load_ms.append((t2 - t1) * 1e3)
            i += 1
        edges = 0
        for cell in self.CELLS:
            spec = solve_spec(*cell, seed=self.seed)
            edges += build_family_graph(cell[0], cell[1], seed=spec.seed).num_edges
        return {
            "serve.spec_ms": statistics.median(spec_ms),
            "runner.cache_load_ms": statistics.median(load_ms),
            "graphs.edges": edges,
        }

    def teardown(self) -> None:
        server = getattr(self, "server", None)
        if server is None:
            return
        try:
            self.request("POST", "/shutdown")
        except (OSError, http.client.HTTPException, AttributeError, CheckError):
            pass
        try:
            server.wait(timeout=15)
        except subprocess.TimeoutExpired:
            server.kill()
            server.wait()
        self.log.close()

    def peak_rss_mb(self) -> float:
        """Peak RSS of the server alone, its only child, in MB. This
        process is the client, whose own peak is mostly the checks."""
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


WORKLOADS = {w.name: w for w in (ScaleE2E, DenseMix, GridSweep, ServeWarm)}


# ---------------------------------------------------------------------------
# Timed loop and the two modes
# ---------------------------------------------------------------------------


class Loop:
    """Runs operations until a deadline, timing and checking each."""

    def __init__(self, workload: Workload) -> None:
        self.workload = workload
        self.next_index = 0
        self.attempted = 0
        self.failed = 0
        self.first_facts: dict[str, Any] | None = None
        self.pins: dict[str, str] = json.loads((HERE / "pins.json").read_text())

    def run(self, seconds: float, tracer: Tracer | None = None) -> list[float]:
        """Time operations for about ``seconds``; at least one runs.

        An operation is not started when the median so far says it would
        end past the deadline, so a run lasts about ``seconds``.
        """
        walls: list[float] = []
        deadline = time.perf_counter() + seconds
        while True:
            result = None  # free the last result before the next operation
            i = self.next_index
            self.next_index += 1
            self.attempted += 1
            try:
                if tracer is not None:
                    tracer.armed = True
                try:
                    start = time.perf_counter()
                    result = self.workload.op(i)
                    wall = time.perf_counter() - start
                finally:
                    if tracer is not None:
                        tracer.armed = False
                facts = self.workload.check(i, result)
                self.check_pin(i, facts)
                if self.first_facts is None and facts:
                    self.first_facts = facts
                walls.append(wall)
            except Exception:  # a failed operation is counted, not fatal
                self.failed += 1
                traceback.print_exc(file=sys.stderr)
            now = time.perf_counter()
            typical = statistics.median(walls) if walls else 0.0
            if now >= deadline or (walls and now + typical > deadline):
                return walls

    def check_pin(self, i: int, facts: dict[str, Any]) -> None:
        if self.workload.seed != DEFAULT_SEED or "digest" not in facts:
            return
        key = self.workload.pin_key(i)
        pinned = self.pins.get(key)
        if pinned != facts["digest"]:
            raise CheckError(
                f"{key}: output digest {facts['digest']} != pinned {pinned}"
            )


def environment() -> dict[str, Any]:
    import networkx
    import numpy

    uname = os.uname()  # platform.platform() would fork a uname process
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "networkx": networkx.__version__,
        "system": f"{uname.sysname} {uname.release} {uname.machine}",
    }


def measure(loop: Loop, seconds: float) -> tuple[dict, dict]:
    """The end-to-end metrics of one untraced run, and samples for the
    record (peak RSS is added after teardown, once every child process
    has been reaped)."""
    walls = loop.run(seconds)
    metrics = {
        "op_p50_ms": statistics.median(walls) * 1e3 if walls else 0.0,
        "success_ratio": len(walls) / loop.attempted,
    }
    # Too noisy between runs to bound on a shared host; recorded only.
    samples = {
        "ops": len(walls),
        "op_p90_ms": p90(walls) * 1e3 if walls else None,
        "op_p99_ms": statistics.quantiles(walls, n=100)[-1] * 1e3
        if len(walls) > 1 else None,
        "ops_per_s": len(walls) / sum(walls) if walls else None,
    }
    return metrics, samples


def measure_traced(
    workload: Workload, loop: Loop, tracer: Tracer, seconds: float
) -> dict[str, Any]:
    """Half the time untraced, then the traced operations."""
    untraced = loop.run(seconds / 2)
    first = loop.first_facts
    if first is None:
        raise CheckError("no operation succeeded before tracing")
    if isinstance(workload, ServeWarm):
        # The server runs in another process, so its layers are timed by
        # repeating them here; the second HTTP sample gives the overhead.
        metrics = workload.in_process_layers(seconds / 4)
        start, before = time.perf_counter(), loop.attempted
        traced = loop.run(seconds / 4)
        per_request = (time.perf_counter() - start) / (loop.attempted - before)
        untraced_p50 = statistics.median(untraced)
        metrics["serve.http_ms"] = (
            untraced_p50 * 1e3
            - metrics["serve.spec_ms"]
            - metrics["runner.cache_load_ms"]
        )
        metrics["trace.unattributed_s"] = per_request - statistics.mean(traced)
        metrics["trace.overhead_s"] = statistics.median(traced) - untraced_p50
    else:
        if isinstance(workload, GridSweep):
            # Pool workers are separate processes, so the layers are timed
            # on a serial in-process pass over the first sweep's trials,
            # once untraced and once traced.
            untraced_s, _ = workload.serial_pass()
            tracer.install()
            traced_s, results = workload.serial_pass(tracer)
            metrics = workload.pass_metrics(
                tracer, first, results, traced_s, untraced_s
            )
        else:
            tracer.install()
            traced = loop.run(seconds / 2, tracer)
            metrics = workload.layer_metrics(tracer, len(traced))
            metrics["trace.unattributed_s"] = (
                sum(traced) - tracer.root_s
            ) / len(traced)
            metrics["trace.overhead_s"] = statistics.median(
                traced
            ) - statistics.median(untraced)
        tracer.uninstall()
    for name, value in accounting_metrics(first).items():
        metrics.setdefault(name, value)
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--mode", choices=("setup", "measure"), required=True)
    parser.add_argument("--seconds", type=float, help="measure mode only")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, required=True,
                        help="time.monotonic() when the parent spawned us")
    parser.add_argument("--tmp", type=Path, required=True)
    args = parser.parse_args(argv)

    tracer = Tracer() if args.trace else None
    workload = WORKLOADS[args.workload](args.seed, args.tmp, tracer)
    try:
        workload.setup()
        out: dict[str, Any] = {"setup_s": time.monotonic() - args.t0}
        if args.mode == "measure":
            if tracer is not None:
                workload.setup_layers = dict(tracer.total_s)
                workload.setup_rss_mb = dict(tracer.rss_mb)
                tracer.reset()
            loop = Loop(workload)
            facts = workload.verify()
            if facts:
                loop.check_pin(0, facts)
                loop.first_facts = facts
            samples: dict[str, Any] = {}
            if tracer is None:
                metrics, samples = measure(loop, args.seconds)
            else:
                metrics = measure_traced(workload, loop, tracer, args.seconds)
                for name in sorted(workload.NOT_MEASURED):
                    if name in metrics:
                        raise CheckError(
                            f"{name} is measured on {workload.name} "
                            f"but listed in its NOT_MEASURED"
                        )
                    metrics[name] = 0
            out.update(
                attempted=loop.attempted,
                failed=loop.failed,
                metrics=metrics,
                facts={
                    k: v for k, v in (loop.first_facts or {}).items()
                    if k not in ("rows", "trial_seconds")
                },
                params=workload.params(),
                env=environment(),
                samples=samples,
            )
    finally:
        workload.teardown()
    if args.mode == "measure" and tracer is None:
        out["metrics"]["peak_rss_mb"] = workload.peak_rss_mb()
    print(json.dumps(out, default=list))
    return 0


if __name__ == "__main__":
    sys.exit(main())
