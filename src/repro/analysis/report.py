"""EXPERIMENTS.md generator, sharded on the sweep runner.

``python -m repro report`` (or ``python -m repro.analysis.report``)
enumerates every selected experiment's trials from
:data:`~repro.analysis.experiments.TRIAL_PLANS`, dispatches them
through :func:`repro.runner.executor.run_sweep` — serially with
``--workers 1`` (the bit-identical reference path) or sharded across a
process pool — and aggregates **in spec order**, so the generated
markdown is byte-identical for any worker count. Results are served
from the content-addressed trial cache when one is enabled (the
default; see :mod:`repro.runner.cache` and ``--no-cache``), so
regenerating the report skips every heavy trial already computed by a
previous report or sweep.
"""

from __future__ import annotations

import sys

from repro.analysis.experiments import TRIAL_PLANS
from repro.runner.cache import TrialCache
from repro.runner.executor import SweepError, TrialOutcome, run_sweep
from repro.runner.resilience import SweepJournal
from repro.runner.trials import sweep_from_experiments, validate_experiments

PREAMBLE = """\
# EXPERIMENTS — paper claims vs measured behaviour

Generated by `python -m repro.analysis.report`. The paper (PODC 2025) is a
theory result with no empirical tables; its reproducible artifacts are four
illustrative figures and the complexity bounds of Theorems 1/9/13 and
Lemmas 6/10/14/15. Each experiment below regenerates a figure or validates
a bound on the Sleeping-LOCAL simulator; "bound" columns use the explicit
constants of `repro.analysis.bounds` (implementation facts layered on the
paper's asymptotics).

| Exp | Paper artifact | Claim |
|---|---|---|
| E1 | Figure 1 / Lemma 10 | φ/r schedule mappings, |r(c)| = 1 + log q |
| E2 | Figure 2 / Lemma 14 | flattening preserves Definition 2; virtual graph = K |
| E3 | Figure 3 / Theorem 13 loop | residual clusters decay by ≥ b per phase |
| E4 | Figure 4 / Lemma 15 | parent selection & decomposition, ≤ n/b residuals |
| E5 | Lemma 6 | broadcast/convergecast awake ≤ 3 |
| E6 | Lemma 11 + BM21 | baseline awake O(log Δ + log* n) |
| E7 | Theorem 9 | awake O(log c) given a c-colored clustering |
| E8 | Theorem 13 (+§5 Remark) | 2^{O(√log n)} colors; awake O(√log n·log* n); rounds scale with ID range |
| E9 | Theorem 1 (headline) | awake O(√log n·log* n) vs baseline's Θ(log Δ) growth |
| E10 | §2.2 | distance-2 coloring ∉ O-LOCAL |
"""


EPILOGUE = """\
## Summary — paper vs measured

| Claim | Verdict |
|---|---|
| Figure 1 values (φ(2)=3, r(2)={2,3,4,8}, φ(4)=7, r(4)={4,6,7,8}) | reproduced exactly (E1) |
| Lemma 10 properties for all q ≤ 2^10 | verified exhaustively (E1) |
| Lemma 14 output is a Definition-2 clustering with virtual graph K | verified (E2) |
| Lemma 15: ≤ n/b residual clusters, singletons in [1, a·b²] | holds on every tested instance (E3, E4, property tests) |
| Lemma 6: awake ≤ 3 | measured exactly 2–3 (E5) |
| Lemma 11 / BM21: awake O(log Δ + log* n) | measured ≤ closed-form bound on all runs (E6) |
| Theorem 9: awake O(log c) | measured; ~7 awake rounds per doubling of c (E7) |
| Theorem 13: 2^{O(√log n)} colors, awake O(√log n·log* n) | measured ≤ bounds; decay ≥ b per phase (E3, E8a, E8b) |
| §5 Remark: rounds scale with the ID range, awake does not | measured (E8c) |
| Theorem 1 vs BM21: polynomial improvement for Δ ≫ 2^{√log n} | **shape reproduced**: Theorem 1's awake is flat in Δ and the Thm1/BM21 ratio falls with n; the absolute crossover lies beyond simulable n because the improvement is in the exponent, not the constants (E9) |
| §2.2: distance-2 coloring ∉ O-LOCAL | every sampled sink rule defeated (E10) |
| Open Q3 (average awake) | avg ≈ max for these data-independent calendars — consistent with the question being open (E11) |
| b = 2^{√log n} balances palette vs phases | ablation confirms the trade-off (E12) |
"""


def _selected_names(selected: list[str] | None) -> list[str]:
    """The experiments a selection runs: an empty/absent ``--only``
    means the full suite (matching the pre-sharding serial report)."""
    return list(selected) if selected else list(TRIAL_PLANS)


def generate(
    selected: list[str] | None = None,
    verbose: bool = True,
    workers: int = 1,
    cache: TrialCache | None = None,
    journal: SweepJournal | None = None,
) -> str:
    """Run the selected experiments (all by default) through the sweep
    executor and return the EXPERIMENTS.md markdown.

    The markdown depends only on the selection: any ``workers`` count
    and any cache or journal state (cold, warm, resumed, disabled)
    produce identical bytes.

    Raises:
        KeyError: an unknown or duplicated experiment id (the message
            lists the valid ids).
        SweepError: a trial failed or a worker process died.
    """
    names = _selected_names(selected)
    spec = sweep_from_experiments(experiments=names, name="report")
    total = len(spec.trials)

    def progress(outcome: TrialOutcome) -> None:
        if outcome.resumed:
            note = "resumed from journal"
        elif outcome.cached:
            note = f"cache hit, {outcome.seconds:.1f}s saved"
        else:
            note = f"{outcome.seconds:.1f}s"
        print(
            f"[{outcome.spec.index + 1}/{total}] {outcome.spec.label} ({note})",
            file=sys.stderr,
        )

    result = run_sweep(
        spec,
        workers=workers,
        progress=progress if verbose else None,
        cache=cache,
        journal=journal,
    )
    if verbose:
        summary = (
            f"report: {total} trials in {result.wall_seconds:.1f}s, "
            f"{result.workers} worker(s)"
        )
        if result.cache_stats is not None:
            summary += f"; cache: {result.cache_stats.summary()}"
        print(summary, file=sys.stderr)

    tables = result.experiments()
    sections = [PREAMBLE]
    for name in names:
        sections.append(tables[name].render())
        sections.append("")
    if not selected:
        # Both the default run and an explicit empty --only mean "the
        # full suite", so both get the summary epilogue.
        sections.append(EPILOGUE)
    return "\n".join(sections)


def write_report(
    output: str,
    selected: list[str] | None = None,
    workers: int = 1,
    cache: TrialCache | None = None,
    verbose: bool = True,
    journal: SweepJournal | None = None,
) -> int:
    """Generate the report and write it to ``output``; returns the
    process exit code (what both CLI entry points run)."""
    try:
        validate_experiments(_selected_names(selected))
    except KeyError as exc:
        raise SystemExit(exc.args[0]) from exc
    try:
        # Ids are already validated: a KeyError from here on is a real
        # defect and propagates with its traceback.
        content = generate(
            selected, verbose=verbose, workers=workers, cache=cache,
            journal=journal,
        )
    except SweepError as exc:
        print(f"report failed: {exc}", file=sys.stderr)
        return 1
    with open(output, "w", encoding="utf-8") as handle:
        handle.write(content)
    print(f"wrote {output}", file=sys.stderr)
    return 0


def add_report_args(parser) -> None:
    """Register the report flags on an argparse parser — defined once
    here and consumed by both entry points (``python -m
    repro.analysis.report`` below and the ``repro report`` subcommand),
    so the flag sets cannot drift. The dependency stays cli → analysis:
    this module never imports the CLI layer."""
    import argparse

    from repro.runner.cache import DEFAULT_CACHE_DIR

    parser.add_argument("--output", default="EXPERIMENTS.md")
    parser.add_argument(
        "--only", nargs="*", default=None,
        help="subset of experiment ids (see `repro sweep --list`)",
    )
    parser.add_argument(
        "--workers", type=int, default=1,
        help="worker processes; 1 = serial in-process (bit-identical "
        "reference path)",
    )
    parser.add_argument(
        "--cache", action=argparse.BooleanOptionalAction, default=True,
        help="reuse trial results from the content-addressed cache "
        "(--no-cache recomputes everything)",
    )
    parser.add_argument(
        "--cache-dir", default=DEFAULT_CACHE_DIR,
        help="trial cache directory",
    )
    parser.add_argument(
        "--resume", default=None, metavar="JOURNAL",
        help="resume from a SWEEP_*.journal: trials already journaled "
        "are skipped, new completions are appended to the same file",
    )
    parser.add_argument(
        "--trace", action="store_true",
        help="write structured spans to REPORT.trace.jsonl next to "
        "--output (render with `repro trace`); the report itself is "
        "byte-identical either way",
    )
    parser.add_argument(
        "--profile", action="store_true",
        help="--trace plus a rendered span summary on stderr afterwards",
    )


def report_journal(args) -> SweepJournal | None:
    """The :class:`SweepJournal` a parsed ``--resume`` flag implies."""
    if args.resume is None:
        return None
    return SweepJournal(path=args.resume, resume=True)


def main(argv: list[str] | None = None) -> int:
    """Module entry point (``python -m repro.analysis.report``)."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis.report",
        description="Regenerate EXPERIMENTS.md, sharded on the sweep runner.",
    )
    add_report_args(parser)
    args = parser.parse_args(argv)
    # The repro CLI owns the pretty --profile summary; here --trace and
    # --profile both just arm the emitter so headless report runs can
    # still be inspected with `repro trace` afterwards.
    trace_file = None
    if args.trace or args.profile:
        import os

        from repro.obs import configure

        trace_file = os.path.join(
            os.path.dirname(args.output) or ".", "REPORT.trace.jsonl"
        )
        configure(trace_file)
    cache = TrialCache(args.cache_dir) if args.cache else None
    try:
        return write_report(
            args.output, selected=args.only, workers=args.workers,
            cache=cache, journal=report_journal(args),
        )
    finally:
        if trace_file is not None:
            from repro.obs import disable

            disable()
            print(f"wrote {trace_file}", file=sys.stderr)


if __name__ == "__main__":
    raise SystemExit(main())
