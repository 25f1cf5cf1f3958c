"""Command-line interface: run the paper's algorithms from a shell.

Every ``solve`` invocation is a :class:`repro.api.Scenario`; the valid
``--family`` / ``--problem`` / ``--algorithm`` names come from the
registries (:data:`repro.graphs.families.GRAPH_FAMILIES`,
:data:`repro.olocal.PROBLEMS`, :data:`repro.core.algorithms.ALGORITHMS`
— see ``repro sweep --list`` for the catalog), so anything registered
there — including third-party ``repro.plugins`` entry points — is
runnable here with no CLI changes. Unknown names exit with an error
listing the valid ones.

Examples::

    python -m repro solve --family gnp --n 48 --problem mis
    python -m repro solve --family complete --n 16 --algorithm baseline \
        --problem coloring --trace
    python -m repro solve --family path --n 24 --algorithm theorem9
    python -m repro solve --family gnp --n 64 --param p=0.3 --param b=4
    python -m repro cluster --family grid --n 36 --param b=4
    python -m repro report --only E1 E5
    python -m repro sweep --experiments E9 --workers 4
    python -m repro sweep --grid --families path gnp --sizes 16 32 \
        --problems mis coloring --algorithms theorem1 theorem9 \
        --trials 3 --workers 4
"""

from __future__ import annotations

import argparse
import sys

from repro.api import Scenario, run_scenario
from repro.core.algorithms import ALGORITHMS, ENGINE_FAULTY, FAULT_PARAMS
from repro.graphs.families import GRAPH_FAMILIES
from repro.olocal import PROBLEMS
from repro.registry import load_plugins
from repro.runner.cache import DEFAULT_CACHE_DIR


def _param(text: str) -> tuple[str, object]:
    """Parse one ``--param NAME=VALUE``: int, else float, else text."""
    name, sep, raw = text.partition("=")
    if not (name and sep):
        raise argparse.ArgumentTypeError(f"expected NAME=VALUE, got {text!r}")
    for convert in (int, float):
        try:
            return name, convert(raw)
        except ValueError:
            pass
    return name, raw


def _scenario_from_args(args: argparse.Namespace, **fields) -> Scenario:
    """The graph arguments (plus ``fields``) as a :class:`Scenario`."""
    return Scenario(
        family=args.family, n=args.n, ids=args.ids, seed=args.seed,
        params=dict(args.param), **fields,
    )


def _print_engine_matrix() -> int:
    """``repro solve --list``: the algorithm × engine support matrix.

    One row per registered algorithm, engines in adapter order — the
    first listed is that algorithm's default. README.md embeds a copy
    of this table; a docs test keeps the two in sync.
    """
    from repro.registry import load_plugins

    load_plugins()
    print("algorithm × engine matrix (first listed = default):")
    for name in ALGORITHMS:
        print(f"  {name:<10} {' '.join(ALGORITHMS.get(name).engines)}")
    return 0


def _start_trace(path: str) -> str:
    """Arm the structured span emitter (see :mod:`repro.obs.spans`)."""
    from repro.obs import configure

    configure(path)
    return path


def _end_trace(path: str, profile: bool) -> None:
    """Disarm tracing; with ``profile`` also render the span summary."""
    from repro.obs import disable

    disable()
    print(f"wrote {path}", file=sys.stderr)
    if profile:
        from repro.obs.render import load_trace, render_trace

        records, bad = load_trace(path)
        print(render_trace(path, records, bad), file=sys.stderr)


def cmd_solve(args: argparse.Namespace) -> int:
    """``repro solve``: run any registered algorithm on a generated graph."""
    if args.list:
        return _print_engine_matrix()
    if not args.profile:
        return _run_solve(args)
    path = _start_trace("RUN.trace.jsonl")
    try:
        return _run_solve(args)
    finally:
        _end_trace(path, profile=True)


def _run_solve(args: argparse.Namespace) -> int:
    from repro.errors import ReproError

    scenario = _scenario_from_args(
        args,
        problem=args.problem,
        algorithm=args.algorithm,
        engine=args.engine,
        fault_drop=args.fault_drop,
        fault_corrupt=args.fault_corrupt,
        fault_seed=args.fault_seed,
        immune_rounds=tuple(args.immune_rounds),
    )
    try:
        result = run_scenario(scenario)
    except ReproError as exc:
        if not scenario.faults_active:
            # A refused or failed run ends in one line, not a traceback.
            raise SystemExit(f"{type(exc).__name__}: {exc}") from exc
        # Failing loudly is the *expected* outcome of a fault scenario
        # that actually breaks the protocol — report it as a result,
        # not a traceback.
        print(f"faults broke the protocol (as designed): "
              f"{type(exc).__name__}: {exc}")
        return 3
    if not result.ok:
        raise SystemExit("\n".join(result.errors))
    graph, outcome = result.graph, result.outcome
    print(f"graph: {args.family} n={graph.n} edges={graph.num_edges} "
          f"Δ={graph.max_degree} id_space={graph.id_space}")
    print(f"{outcome.algorithm}: awake={outcome.awake_complexity} "
          f"avg={outcome.average_awake:.1f} "
          f"rounds={outcome.round_complexity:,} "
          f"messages={outcome.messages_sent:,}")
    if "clustering_colors" in outcome.extras:
        print(f"clustering: {outcome.extras['clustering_colors']} colors "
              f"(bound {outcome.extras['palette_bound']})")
    if "dropped" in outcome.extras:
        print(f"faults: engine={outcome.engine} "
              f"dropped={outcome.extras['dropped']} "
              f"corrupted={outcome.extras['corrupted']} (run survived)")
    if args.show_outputs:
        for v in sorted(outcome.outputs):
            print(f"  {v}: {outcome.outputs[v]}")
    if args.trace:
        _print_trace(graph, scenario, args.trace_nodes)
    return 0


def _print_trace(graph, scenario: Scenario, num_nodes: int) -> None:
    from repro.model.trace import traced_simulation

    adapter = ALGORITHMS.get(scenario.algorithm)
    if adapter.trace_program is None:
        raise SystemExit(
            f"--trace is not supported for algorithm {adapter.name!r}; "
            f"traceable: "
            f"{[a.name for a in ALGORITHMS.values() if a.trace_program]}"
        )
    problem = PROBLEMS.get(scenario.problem)
    program = adapter.trace_program(
        graph, problem, scenario.algorithm_params().get("b")
    )
    _, trace = traced_simulation(
        graph, program, inputs=problem.make_inputs(graph)
    )
    sample = sorted(graph.nodes)[:num_nodes]
    print()
    print(trace.render_timeline(nodes=sample))
    print()
    print(trace.render_energy_summary())


def cmd_cluster(args: argparse.Namespace) -> int:
    """``repro cluster``: compute and summarize the Theorem 13 clustering."""
    from collections import Counter

    from repro.core.theorem13 import compute_clustering

    # The theorem9 adapter declares exactly the Theorem 13 ``b`` its
    # first stage computes, so its scenario validates cluster's params.
    scenario = _scenario_from_args(args, algorithm="theorem9")
    errors = scenario.validate()
    if errors:
        raise SystemExit("\n".join(errors))
    graph = scenario.build_graph()
    result = compute_clustering(
        graph, b=scenario.algorithm_params().get("b")
    )
    metrics = result.simulation.metrics
    print(f"graph: {args.family} n={graph.n} Δ={graph.max_degree}")
    print(f"b={result.b} colors={result.clustering.num_colors()} "
          f"(bound {result.palette_bound})")
    print(f"awake={result.awake_complexity} "
          f"avg={metrics.average_awake:.1f} "
          f"rounds={result.round_complexity:,}")
    sizes = Counter(
        len(c.members) for c in result.clustering.clusters(graph)
    )
    print(f"cluster sizes: {dict(sorted(sizes.items()))}")
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    """``repro report``: regenerate EXPERIMENTS.md via the sweep runner."""
    import os

    from repro.analysis.report import report_journal, write_report
    from repro.runner import TrialCache

    trace_file = None
    if args.trace or args.profile:
        out_dir = os.path.dirname(args.output) or "."
        trace_file = _start_trace(os.path.join(out_dir, "REPORT.trace.jsonl"))
    cache = TrialCache(args.cache_dir) if args.cache else None
    try:
        return write_report(
            args.output, selected=args.only, workers=args.workers,
            cache=cache, journal=report_journal(args),
        )
    finally:
        if trace_file is not None:
            _end_trace(trace_file, profile=args.profile)


def _print_sweep_catalog() -> int:
    """``repro sweep --list``: what can run, without running anything."""
    from repro.runner import plan_catalog
    from repro.runner.trials import QUICK_EXPERIMENTS

    print("E-series experiment plans (--experiments / report --only):")
    for exp_id, title, num_trials in plan_catalog():
        trials = f"{num_trials} trial{'s' if num_trials != 1 else ''}"
        print(f"  {exp_id:<4} {trials:>9}  {title}")
    print(f"quick subset (--quick): {' '.join(QUICK_EXPERIMENTS)}")
    print()
    print("grid axes (--grid), from the scenario registries:")
    print(f"  families:   {' '.join(sorted(GRAPH_FAMILIES))}")
    print(f"  problems:   {' '.join(sorted(PROBLEMS.alias_map()))} "
          f"(aliases of {' '.join(sorted(PROBLEMS))})")
    print(f"  algorithms: {' '.join(ALGORITHMS)}")
    print()
    print("declared params (solve/cluster --param NAME=VALUE):")
    for registry in (GRAPH_FAMILIES, ALGORITHMS):
        for name in registry:
            params = registry.entry(name).params
            if params:
                print(f"  {name:<10} {', '.join(params)}")
    print()
    print("engines (per algorithm; first listed = its default):")
    for name in ALGORITHMS:
        print(f"  {name:<10} {' '.join(ALGORITHMS.get(name).engines)}")
    print(f"fault axis ({ENGINE_FAULTY} engine; solve/sweep flags):")
    for param, doc in FAULT_PARAMS.items():
        flag = "--" + param.replace("_", "-")
        print(f"  {flag:<16} {doc}")
    return 0


def _sweep_journal(args, spec):
    """The journal a sweep writes (and, with ``--resume``, reads).

    ``--resume PATH`` reuses an existing journal; otherwise a fresh
    ``SWEEP_<name>.journal`` is written next to the artifact unless
    journaling (``--no-journal``) or the artifact itself
    (``--no-artifact``) is disabled.
    """
    import os

    from repro.runner import SweepJournal

    if args.resume is not None:
        return SweepJournal(path=args.resume, resume=True)
    if args.no_journal or args.no_artifact:
        return None
    return SweepJournal(
        path=os.path.join(args.output_dir, f"SWEEP_{spec.name}.journal")
    )


def cmd_sweep(args: argparse.Namespace) -> int:
    """``repro sweep``: run sharded experiment sweeps (see repro.runner)."""
    import os

    from repro.runner import sweep_from_experiments, sweep_from_grid

    if args.list:
        return _print_sweep_catalog()
    try:
        if args.grid:
            spec = sweep_from_grid(
                families=args.families,
                sizes=args.sizes,
                problems=args.problems,
                algorithms=args.algorithms,
                trials_per_config=args.trials,
                master_seed=args.seed,
                name=args.tag or "grid",
                engines=args.engines,
                fault_drop=args.fault_drop,
                fault_corrupt=args.fault_corrupt,
                fault_seed=args.fault_seed,
                immune_rounds=args.immune_rounds,
            )
        else:
            spec = sweep_from_experiments(
                experiments=args.experiments,
                quick=args.quick,
                name=args.tag or ("quick" if args.quick else "eseries"),
            )
    except KeyError as exc:
        raise SystemExit(exc.args[0]) from exc
    trace_file = None
    if args.trace or args.profile:
        trace_file = _start_trace(
            os.path.join(args.output_dir, f"SWEEP_{spec.name}.trace.jsonl")
        )
    try:
        return _run_sweep_command(args, spec)
    finally:
        if trace_file is not None:
            _end_trace(trace_file, profile=args.profile)


def _run_sweep_command(args: argparse.Namespace, spec) -> int:
    from repro.obs import SweepProgress
    from repro.runner import (
        RetryPolicy,
        SweepError,
        TrialCache,
        run_sweep,
        write_sweep_artifact,
    )

    print(
        f"sweep {spec.name!r}: {len(spec.trials)} trials, "
        f"{args.workers} worker(s)",
        file=sys.stderr,
    )
    progress = SweepProgress(
        len(spec.trials), workers=args.workers, verbose=args.verbose
    )
    cache = TrialCache(args.cache_dir) if args.cache else None
    retry = None
    if args.retries > 0:
        # CLI retries cover *any* trial exception: transient faults get
        # retried, deterministic failures just burn their attempts.
        retry = RetryPolicy(
            max_attempts=args.retries + 1,
            retriable=(Exception,),
            backoff_base=args.retry_backoff,
        )
    try:
        result = run_sweep(
            spec,
            workers=args.workers,
            progress=progress,
            cache=cache,
            retry=retry,
            timeout=args.timeout,
            max_pool_restarts=args.max_pool_restarts,
            keep_going=args.keep_going,
            journal=_sweep_journal(args, spec),
        )
    except SweepError as exc:
        progress.finish()
        print(f"sweep failed: {exc}", file=sys.stderr)
        return 1
    progress.finish()
    if result.failures:
        print(result.failure_report.render(), file=sys.stderr)
        if not args.allow_partial:
            print(
                "sweep completed with failures; pass --allow-partial to "
                "aggregate the surviving trials",
                file=sys.stderr,
            )
            return 1
    print(result.render(allow_partial=args.allow_partial))
    busy = sum(
        o.seconds for o in result.outcomes if not (o.cached or o.resumed)
    )
    line = (
        f"\nwall {result.wall_seconds:.2f}s, trial time {busy:.2f}s, "
        f"workers {result.workers}"
    )
    if result.cache_stats is not None:
        line += f"; cache: {result.cache_stats.summary()}"
    if result.pool_restarts:
        line += f"; pool restarts: {result.pool_restarts}"
    print(line, file=sys.stderr)
    if not args.no_artifact:
        artifact = write_sweep_artifact(result, args.output_dir)
        print(f"wrote {artifact}", file=sys.stderr)
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    """``repro trace``: render (or just validate) a .trace.jsonl file."""
    from repro.obs.render import check_trace, load_trace, render_trace

    records, bad = load_trace(args.file)
    problems = check_trace(records, bad)
    if not args.check:
        print(render_trace(args.file, records, bad, limit=args.limit))
    if problems:
        for problem in problems:
            print(f"trace problem: {problem}", file=sys.stderr)
        return 1
    if args.check:
        print(f"{args.file}: {len(records)} record(s), spans balance")
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    """``repro stats``: summarize sweep artifacts and the bench history."""
    import json

    from repro.obs.render import (
        render_bench_history,
        render_bench_rows,
        render_stats,
    )

    shown = 0
    if args.bench:
        if args.store is not None:
            # Same renderer, rows from the ingested store: the file and
            # the store must produce identical trend output (tested).
            from repro.serve.store import ResultStore, StoreError

            try:
                store = ResultStore(args.store, readonly=True)
            except StoreError as exc:
                raise SystemExit(str(exc)) from exc
            try:
                source = store.bench_source()
                label = source["path"] if source else args.store
                print(render_bench_rows(store.bench_rows(), label))
            finally:
                store.close()
        else:
            print(render_bench_history(args.bench_history))
        shown += 1
    for path in args.files:
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
        if shown:
            print()
        print(render_stats(path, payload))
        shown += 1
    if not shown:
        raise SystemExit(
            "repro stats: pass SWEEP_*.json artifacts and/or --bench"
        )
    return 0


def cmd_ingest(args: argparse.Namespace) -> int:
    """``repro ingest``: index result files into a sqlite result store.

    Idempotent (re-ingesting the same bytes is a "no-op" line) and
    fail-open (corrupt or unrecognized files print a warning on stderr
    and are skipped — the exit code stays 0, matching the trial cache's
    corrupt-record convention).
    """
    from repro.serve.store import ResultStore, StoreError

    try:
        store = ResultStore(args.store)
    except StoreError as exc:
        raise SystemExit(str(exc)) from exc
    try:
        for result in store.ingest_many(args.paths):
            stream = sys.stdout if result.ok else sys.stderr
            print(result.render(), file=stream)
        counts = store.counts()
    finally:
        store.close()
    print(
        f"store {args.store}: {counts['artifacts']} artifact(s), "
        f"{counts['trials']} trial(s), {counts['sweep_tables']} table(s), "
        f"{counts['bench_rows']} bench row(s)",
        file=sys.stderr,
    )
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """``repro serve``: run the results/provenance HTTP service.

    Binds (``--port 0`` = ephemeral; the actual port goes to stdout and
    ``--port-file``), optionally ingests files first, then serves until
    interrupted or a ``POST /shutdown`` arrives.
    """
    import time

    from repro.runner.cache import TrialCache
    from repro.serve.service import ReproService
    from repro.serve.store import ResultStore, StoreError

    try:
        store = ResultStore(args.store, readonly=args.readonly)
    except StoreError as exc:
        raise SystemExit(str(exc)) from exc
    service = ReproService(
        store,
        cache=TrialCache(args.cache_dir),
        readonly=args.readonly,
        artifact_dir=args.artifact_dir,
    )
    if args.ingest:
        for result in store.ingest_many(args.ingest):
            print(result.render(), file=sys.stderr)
    server = service.start(port=args.port, host=args.host)
    host, port = server.server_address[:2]
    print(f"serving on http://{host}:{port} "
          f"(store {args.store}{', readonly' if args.readonly else ''})",
          file=sys.stderr)
    if args.port_file:
        with open(args.port_file, "w", encoding="utf-8") as handle:
            handle.write(f"{port}\n")
    try:
        # service.stop() (triggered by POST /shutdown, or by Ctrl-C
        # below) clears _server; poll it so shutdown unblocks this loop.
        while service._server is not None:
            time.sleep(0.2)
    except KeyboardInterrupt:
        print("shutting down", file=sys.stderr)
        service.stop()
    finally:
        store.close()
    return 0


def make_parser() -> argparse.ArgumentParser:
    """Build the argparse tree for the ``repro`` CLI.

    Name arguments (``--family``, ``--problem``, ``--algorithm``) are
    deliberately *not* argparse ``choices``: they are validated against
    the registries at run time, so plugin registrations work and
    unknown names fail with an error listing what *is* registered.
    """
    parser = argparse.ArgumentParser(
        prog="repro", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_graph_args(p):
        p.add_argument("--family", default="gnp",
                       help="graph family (see `repro sweep --list`)")
        p.add_argument("--n", type=int, default=32)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument(
            "--ids", default="identity",
            help="identity | permuted | polyK (IDs from [n^K])",
        )
        p.add_argument(
            "--param", type=_param, action="append", default=[],
            metavar="NAME=VALUE",
            help="a family or algorithm param, repeatable; the value is an "
            "int, else a float, else text (declared params: "
            "`repro sweep --list`)",
        )

    def add_fault_args(p):
        g = p.add_argument_group(
            "fault injection",
            f"nonzero probabilities select the {ENGINE_FAULTY!r} engine",
        )
        g.add_argument("--fault-drop", type=float, default=0.0,
                       help=FAULT_PARAMS["fault_drop"])
        g.add_argument("--fault-corrupt", type=float, default=0.0,
                       help=FAULT_PARAMS["fault_corrupt"])
        g.add_argument("--fault-seed", type=int, default=0,
                       help=FAULT_PARAMS["fault_seed"])
        g.add_argument("--immune-rounds", nargs="*", type=int, default=[],
                       help=FAULT_PARAMS["immune_rounds"])

    solve_p = sub.add_parser("solve", help="run an O-LOCAL solver")
    add_graph_args(solve_p)
    solve_p.add_argument("--problem", default="mis",
                         help="problem name or alias (see `repro sweep --list`)")
    solve_p.add_argument(
        "--algorithm", default="theorem1",
        help="algorithm name or alias (see `repro sweep --list`)",
    )
    solve_p.add_argument(
        "--engine", default=None,
        help="execution engine (default: the algorithm's own; "
        "see `repro solve --list`)",
    )
    solve_p.add_argument(
        "--list", action="store_true",
        help="print the algorithm × engine support matrix and exit",
    )
    add_fault_args(solve_p)
    solve_p.add_argument("--show-outputs", action="store_true")
    solve_p.add_argument("--trace", action="store_true",
                         help="print awake timelines")
    solve_p.add_argument("--trace-nodes", type=int, default=12)
    solve_p.add_argument(
        "--profile", action="store_true",
        help="write structured spans to RUN.trace.jsonl and print a span "
        "summary (`repro trace` re-renders it; distinct from --trace, "
        "the per-node awake timeline)",
    )
    solve_p.set_defaults(func=cmd_solve)

    cluster_p = sub.add_parser(
        "cluster", help="compute the Theorem 13 clustering"
    )
    add_graph_args(cluster_p)
    cluster_p.set_defaults(func=cmd_cluster)

    def add_cache_args(p):
        p.add_argument(
            "--cache", action=argparse.BooleanOptionalAction, default=True,
            help="reuse trial results from the content-addressed cache "
            "(--no-cache recomputes everything)",
        )
        p.add_argument(
            "--cache-dir", default=DEFAULT_CACHE_DIR,
            help="trial cache directory",
        )

    report_p = sub.add_parser(
        "report",
        help="regenerate EXPERIMENTS.md (sharded over the sweep runner)",
    )
    # Flags are defined once, in the analysis layer, next to write_report.
    from repro.analysis.report import add_report_args

    add_report_args(report_p)
    report_p.set_defaults(func=cmd_report)

    sweep_p = sub.add_parser(
        "sweep",
        help="run experiment sweeps, sharded across worker processes",
    )
    sweep_p.add_argument(
        "--experiments", nargs="+", default=None, metavar="EXP",
        help="E-series ids to run (default: all; with --quick: the cheap "
        "CI subset)",
    )
    sweep_p.add_argument(
        "--quick", action="store_true",
        help="cheap experiment subset for CI smoke runs",
    )
    sweep_p.add_argument(
        "--workers", type=int, default=1,
        help="worker processes; 1 = serial in-process (bit-identical "
        "reference path)",
    )
    sweep_p.add_argument(
        "--seed", type=int, default=0,
        help="master seed for grid sweeps (per-trial seeds are derived)",
    )
    sweep_p.add_argument(
        "--tag", default=None,
        help="artifact name: SWEEP_<tag>.json (default: sweep name)",
    )
    sweep_p.add_argument("--output-dir", default=".")
    sweep_p.add_argument(
        "--no-artifact", action="store_true",
        help="print tables only; skip writing SWEEP_*.json",
    )
    sweep_p.add_argument(
        "--grid", action="store_true",
        help="seeded (family, n, problem, algorithm) solve grid instead "
        "of E-series experiments",
    )
    sweep_p.add_argument("--families", nargs="*", default=["path", "gnp"])
    sweep_p.add_argument(
        "--sizes", nargs="*", type=int, default=[16, 32, 64]
    )
    sweep_p.add_argument("--problems", nargs="*", default=["mis"])
    sweep_p.add_argument(
        "--algorithms", nargs="*", default=["theorem1"],
        help="registered algorithm names (see `repro sweep --list`)",
    )
    sweep_p.add_argument(
        "--trials", type=int, default=1,
        help="seeded trials per grid cell",
    )
    sweep_p.add_argument(
        "--engines", nargs="*", default=[],
        help="run every grid cell once per engine (same graph under "
        "each — a built-in differential test; see `repro solve --list`)",
    )
    sweep_p.add_argument(
        "--list", action="store_true",
        help="print available experiment and grid plans (id, title, "
        "trial count) and exit without running anything",
    )
    add_cache_args(sweep_p)
    add_fault_args(sweep_p)
    resilience = sweep_p.add_argument_group(
        "resilience",
        "retry/timeout/checkpoint-resume (see PERFORMANCE.md §7)",
    )
    resilience.add_argument(
        "--retries", type=int, default=0,
        help="re-run a failed trial up to N more times (any exception)",
    )
    resilience.add_argument(
        "--retry-backoff", type=float, default=0.0, metavar="SECONDS",
        help="base of the deterministic jittered exponential backoff "
        "between attempts (0: retry immediately)",
    )
    resilience.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS",
        help="per-trial wall-clock deadline; a straggler raises and is "
        "requeued through the retry path",
    )
    resilience.add_argument(
        "--max-pool-restarts", type=int, default=2,
        help="rebuild the worker pool after a hard worker death at most "
        "this many times before giving up",
    )
    resilience.add_argument(
        "--keep-going", action="store_true",
        help="collect per-trial failures into a failure report instead "
        "of aborting the sweep on the first one",
    )
    resilience.add_argument(
        "--allow-partial", action="store_true",
        help="aggregate the surviving trials when some failed "
        "(with --keep-going); refused otherwise",
    )
    resilience.add_argument(
        "--resume", default=None, metavar="JOURNAL",
        help="resume from a SWEEP_*.journal: journaled trials are "
        "skipped, new completions are appended to the same file",
    )
    resilience.add_argument(
        "--no-journal", action="store_true",
        help="do not write SWEEP_<name>.journal next to the artifact",
    )
    obs = sweep_p.add_argument_group(
        "observability",
        "structured spans + consolidated progress (docs/OBSERVABILITY.md)",
    )
    obs.add_argument(
        "--trace", action="store_true",
        help="write SWEEP_<name>.trace.jsonl spans next to the artifact; "
        "tables, cache keys and journals are byte-identical either way",
    )
    obs.add_argument(
        "--profile", action="store_true",
        help="--trace plus a rendered span summary on stderr afterwards",
    )
    obs.add_argument(
        "--verbose", action="store_true",
        help="one progress line per trial instead of the consolidated "
        "done/total + hit-rate + ETA line",
    )
    sweep_p.set_defaults(func=cmd_sweep)

    trace_p = sub.add_parser(
        "trace",
        help="render a structured .trace.jsonl (written by --trace/--profile)",
    )
    trace_p.add_argument(
        "file", help="a SWEEP_*.trace.jsonl / RUN.trace.jsonl path"
    )
    trace_p.add_argument(
        "--limit", type=int, default=12,
        help="rows in the slowest-spans table",
    )
    trace_p.add_argument(
        "--check", action="store_true",
        help="validate only (every line parses, spans balance); exit 1 "
        "with the problems listed otherwise",
    )
    trace_p.set_defaults(func=cmd_trace)

    stats_p = sub.add_parser(
        "stats",
        help="throughput / cache-economics / retry stats from SWEEP_*.json",
    )
    stats_p.add_argument(
        "files", nargs="*", metavar="SWEEP_JSON",
        help="sweep artifacts written by `repro sweep`",
    )
    stats_p.add_argument(
        "--bench", action="store_true",
        help="also render the committed engine-benchmark trajectory",
    )
    stats_p.add_argument(
        "--bench-history", default="BENCH_history.jsonl",
        help="bench history file (appended by benchmarks/bench_engine.py)",
    )
    stats_p.add_argument(
        "--store", default=None, metavar="DB",
        help="with --bench: read the trajectory from an ingested result "
        "store (`repro ingest`) instead of the history file — the "
        "rendering is identical",
    )
    stats_p.set_defaults(func=cmd_stats)

    ingest_p = sub.add_parser(
        "ingest",
        help="index SWEEP_*.json / journals / BENCH_history.jsonl into a "
        "sqlite result store (idempotent; corrupt files skip with a "
        "warning)",
    )
    ingest_p.add_argument(
        "paths", nargs="+", metavar="FILE",
        help="result files to ingest (kind is detected from content)",
    )
    ingest_p.add_argument(
        "--store", default="RESULTS.db",
        help="sqlite result store path (created if missing)",
    )
    ingest_p.set_defaults(func=cmd_ingest)

    serve_p = sub.add_parser(
        "serve",
        help="serve results, provenance, and sweep submission over HTTP "
        "(endpoint table in docs/SERVICE.md)",
    )
    serve_p.add_argument(
        "--port", type=int, default=8321,
        help="TCP port (0 = ephemeral; see --port-file)",
    )
    serve_p.add_argument("--host", default="127.0.0.1")
    serve_p.add_argument(
        "--store", default="RESULTS.db",
        help="sqlite result store to serve (see `repro ingest`)",
    )
    serve_p.add_argument(
        "--readonly", action="store_true",
        help="refuse every mutation: POST /sweeps and /ingest return "
        "403, /solve serves warm cache hits only (misses return 409)",
    )
    serve_p.add_argument(
        "--cache-dir", default=DEFAULT_CACHE_DIR,
        help="trial cache behind GET /solve (shared with sweep/report)",
    )
    serve_p.add_argument(
        "--artifact-dir", default=None,
        help="where submitted sweeps write SWEEP_*.json (default: the "
        "store's directory)",
    )
    serve_p.add_argument(
        "--ingest", nargs="*", default=[], metavar="FILE",
        help="ingest these files before serving",
    )
    serve_p.add_argument(
        "--port-file", default=None, metavar="PATH",
        help="write the bound port here once listening (for --port 0)",
    )
    serve_p.set_defaults(func=cmd_serve)

    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    load_plugins()
    parser = make_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
